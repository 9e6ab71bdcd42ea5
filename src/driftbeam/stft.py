"""Short-time Fourier analysis and synthesis for multichannel audio.

Frames are stored with shape (time frame, frequency bin, channel) using a
one-sided spectrum, so bin_count = fft_size // 2 + 1. One periodic sqrt-Hann
window serves both analysis and synthesis, at the one hop, fft_size / 2, where
its square overlap-adds to 1: sin^2 + cos^2 = 1 for every even fft_size, so
reconstruction holds by construction.
"""

from dataclasses import dataclass, field

import numpy as np

DEFAULT_SAMPLE_RATE = 16000
# Rendering, training sums and gain walk (T, F, M) frame tensors in blocks of about
# this many bytes, so a block stays in L2 cache from the step writing it to the next.
BLOCK_BYTES = 1 << 20


def block_length(unit_bytes: int) -> int:
    """How many units (frames or bins) of unit_bytes each fit in BLOCK_BYTES, at least 1."""
    return max(1, BLOCK_BYTES // max(unit_bytes, 1))


def _check_fft_size(fft_size):
    if fft_size < 2 or fft_size % 2:
        raise ValueError(f"fft_size must be even and at least 2, got {fft_size}")


@dataclass(frozen=True)
class StftConfig:
    """Transform parameters: fft_size in samples, and the hop it implies,
    fft_size / 2. window is the periodic sqrt-Hann window of fft_size
    samples, applied at analysis and again at synthesis."""

    fft_size: int = 1024
    window: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_fft_size(self.fft_size)
        hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(self.fft_size) / self.fft_size)
        object.__setattr__(self, "window", np.sqrt(hann))

    @property
    def hop(self) -> int:
        return self.fft_size // 2

    @property
    def bin_count(self) -> int:
        return self.fft_size // 2 + 1


@dataclass(frozen=True)
class SpectralFrameTensor:
    """Dense complex STFT coefficients indexed (frame, bin, channel).

    Attributes:
        frames: complex array of shape (T, F, M); complex64 and complex128
            frames are kept as given, anything else becomes complex128
        sample_rate: Hz
        fft_size: the transform's frame length in samples, one StftConfig
            accepts; the hop is fft_size / 2
    """

    frames: np.ndarray
    sample_rate: float
    fft_size: int

    def __post_init__(self):
        _check_fft_size(self.fft_size)
        frames = np.asarray(self.frames)
        if frames.dtype != np.complex64:
            frames = frames.astype(np.complex128, copy=False)
        if frames.ndim != 3:
            raise ValueError(f"frames must have shape (T, F, M), got {frames.shape}")
        if frames.shape[1] != self.fft_size // 2 + 1:
            raise ValueError(
                f"bin count {frames.shape[1]} does not match fft_size {self.fft_size}"
            )
        object.__setattr__(self, "frames", frames)

    @property
    def frame_count(self) -> int:
        return self.frames.shape[0]

    @property
    def bin_count(self) -> int:
        return self.frames.shape[1]

    @property
    def mic_count(self) -> int:
        return self.frames.shape[2]

    @property
    def bin_hz(self) -> np.ndarray:
        return np.fft.rfftfreq(self.fft_size, d=1.0 / self.sample_rate)

    @property
    def bin_omega(self) -> np.ndarray:
        """Bin center frequencies in rad/s."""
        return 2.0 * np.pi * self.bin_hz


def analyze(signal, cfg: StftConfig, sample_rate: float = DEFAULT_SAMPLE_RATE) -> SpectralFrameTensor:
    """Windowed one-sided STFT of a real signal, shape (samples,) or (samples, M).

    Produces T = (len - fft_size)//hop + 1 frames; no padding is applied, so
    the tail shorter than one frame is dropped.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim == 1:
        signal = signal[:, None]
    if signal.ndim != 2:
        raise ValueError(f"signal must be 1-D or 2-D, got shape {signal.shape}")
    if signal.shape[0] < cfg.fft_size:
        raise ValueError(
            f"signal length {signal.shape[0]} is shorter than fft_size {cfg.fft_size}"
        )
    # (T, M, fft_size) strided view of overlapping segments
    segments = np.lib.stride_tricks.sliding_window_view(signal, cfg.fft_size, axis=0)
    segments = segments[::cfg.hop]
    spectra = np.fft.rfft(segments * cfg.window, axis=-1)
    return SpectralFrameTensor(
        frames=spectra.transpose(0, 2, 1),
        sample_rate=sample_rate,
        fft_size=cfg.fft_size,
    )


def synthesize(tensor: SpectralFrameTensor) -> np.ndarray:
    """Overlap-add resynthesis with the tensor's own transform; returns a real
    array of shape (samples, M). Complex64 frames are inverted in single
    precision and overlap-added in double.

    The first and last fft_size samples lack full window overlap and are not
    exactly reconstructed; the interior is.
    """
    cfg = StftConfig(tensor.fft_size)
    frames = tensor.frames
    t_count, _, m_count = frames.shape
    segments = np.fft.irfft(frames, n=cfg.fft_size, axis=1)
    segments *= cfg.window[None, :, None]
    # Frame t covers hop-sized blocks t and t + 1 of the output. The second half
    # of every frame is added in one pass, then the first, so each sample still
    # sums its frames in increasing frame order.
    out = np.zeros((t_count + 1, cfg.hop, m_count))
    halves = segments.reshape(t_count, 2, cfg.hop, m_count)
    for k in (1, 0):
        out[k:k + t_count] += halves[:, k]
    return out.reshape(-1, m_count)
