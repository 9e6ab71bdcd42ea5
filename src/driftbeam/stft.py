"""Short-time Fourier analysis and synthesis for multichannel audio.

Frames are stored with shape (time frame, frequency bin, channel) using a
one-sided spectrum, so bin_count = fft_size // 2 + 1. One periodic sqrt-Hann
window serves both analysis and synthesis; its square must overlap-add to 1
at the configured hop, which holds at hop = fft_size / 2 and is verified
numerically when the configuration is built.
"""

from dataclasses import dataclass, field

import numpy as np

DEFAULT_SAMPLE_RATE = 16000
# Residual allowed in the overlap-add reconstruction of the squared window.
COLA_TOL = 1e-10
# Rendering, training sums and gain walk (T, F, M) frame tensors in blocks of about
# this many bytes, so a block stays in L2 cache from the step writing it to the next.
BLOCK_BYTES = 1 << 20


def block_length(unit_bytes: int) -> int:
    """How many units (frames or bins) of unit_bytes each fit in BLOCK_BYTES, at least 1."""
    return max(1, BLOCK_BYTES // max(unit_bytes, 1))


@dataclass(frozen=True)
class StftConfig:
    """Transform parameters: fft_size and hop in samples. window is the
    periodic sqrt-Hann window of fft_size samples, applied at analysis and
    again at synthesis."""

    fft_size: int = 1024
    hop: int = 512
    window: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.fft_size < 2 or self.hop < 1 or self.hop > self.fft_size:
            raise ValueError(f"invalid fft_size/hop: {self.fft_size}/{self.hop}")
        hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(self.fft_size) / self.fft_size)
        object.__setattr__(self, "window", np.sqrt(hann))
        residual = np.abs(self.overlap_add_weight() - 1.0).max()
        if residual > COLA_TOL:
            raise ValueError(
                f"sqrt-Hann window with hop {self.hop} does not satisfy "
                f"overlap-add reconstruction (residual {residual:.3g})"
            )

    @property
    def bin_count(self) -> int:
        return self.fft_size // 2 + 1

    def overlap_add_weight(self):
        """Interior overlap-add sum of the squared window, length fft_size."""
        prod = self.window * self.window
        acc = np.zeros(3 * self.fft_size)
        for start in range(0, 2 * self.fft_size + 1, self.hop):
            acc[start:start + self.fft_size] += prod
        return acc[self.fft_size:2 * self.fft_size]


@dataclass(frozen=True)
class SpectralFrameTensor:
    """Dense complex STFT coefficients indexed (frame, bin, channel).

    Attributes:
        frames: complex array of shape (T, F, M); complex64 and complex128
            frames are kept as given, anything else becomes complex128
        sample_rate: Hz
        fft_size, hop: transform parameters in samples
    """

    frames: np.ndarray
    sample_rate: float
    fft_size: int
    hop: int

    def __post_init__(self):
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
        hop=cfg.hop,
    )


def synthesize(tensor: SpectralFrameTensor, cfg: StftConfig) -> np.ndarray:
    """Overlap-add resynthesis; returns a real array of shape (samples, M).
    Complex64 frames are inverted in single precision and overlap-added in double.

    The first and last fft_size samples lack full window overlap and are not
    exactly reconstructed; the interior is, for any valid configuration.
    """
    if tensor.fft_size != cfg.fft_size or tensor.hop != cfg.hop:
        raise ValueError(
            f"tensor built with fft_size/hop {tensor.fft_size}/{tensor.hop}, "
            f"config has {cfg.fft_size}/{cfg.hop}"
        )
    frames = tensor.frames
    t_count, _, m_count = frames.shape
    segments = np.fft.irfft(frames, n=cfg.fft_size, axis=1)
    segments *= cfg.window[None, :, None]
    # Frame t covers hop-sized blocks t .. t + K - 1 of the output, K =
    # fft_size / hop (2 for every valid configuration). Block offset k of every
    # frame is added in one pass, the last offset first, so each sample still
    # sums its frames in increasing frame order.
    k_count = cfg.fft_size // cfg.hop
    out = np.zeros((t_count - 1 + k_count, cfg.hop, m_count))
    blocks = segments.reshape(t_count, k_count, cfg.hop, m_count)
    for k in reversed(range(k_count)):
        out[k:k + t_count] += blocks[:, k]
    return out.reshape(-1, m_count)
