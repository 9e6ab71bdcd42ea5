"""Far-field scene simulator for arrays whose microphones move relative to
each other.

Rendering happens directly in the STFT domain: each source image is the
source's reference-channel spectrum multiplied by the steering phases of
the frame's array pose, diffuse noise is independent complex Gaussian in every
(frame, bin, channel) cell, and optional near-Nyquist pilot tones are
emitted from the source positions so the array pose can be identified frame
by frame. Steering phases are taken relative to the reference microphone,
so the desired signal of every source equals its unmodified spectrum.
"""

import math
from dataclasses import dataclass

import numpy as np

from .stft import DEFAULT_SAMPLE_RATE, SpectralFrameTensor, StftConfig, analyze, block_length
from .worker import on_two_threads

SPEED_OF_SOUND = 343.0

# Spawn keys for the per-purpose RNG streams derived from a scene seed.
_NOISE_STREAM = 1
_JITTER_STREAM = 2
TRAINING_SIGNAL_STREAM = 3
TEST_SIGNAL_STREAM = 4

# Moving-array phase tables are built this many bins at a time (see
# _add_moving_image).
_BIN_CHUNK = 32


@dataclass(frozen=True)
class StateSequence:
    """Discrete motion-state label per frame."""

    labels: np.ndarray
    state_count: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
        if self.state_count < 1:
            raise ValueError("state_count must be at least 1")
        if labels.size and (labels.min() < 0 or labels.max() >= self.state_count):
            raise ValueError("state labels out of range")
        object.__setattr__(self, "labels", labels)

    @property
    def frame_count(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class ArrayGeometry:
    """Microphone positions in the horizontal plane, shape (M, 2) in meters,
    with microphone `reference` as the reference channel. The motion model
    moves this pose; it holds no motion of its own."""

    positions: np.ndarray
    reference: int = 0

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must have shape (M, 2), got {pos.shape}")
        if not np.isfinite(pos).all():
            raise ValueError("positions contain non-finite coordinates")
        if not 0 <= self.reference < pos.shape[0]:
            raise ValueError(f"reference index {self.reference} out of range")
        object.__setattr__(self, "positions", pos)

    @property
    def mic_count(self) -> int:
        return self.positions.shape[0]


def _rotated(positions, reference, angles_deg):
    """Poses (K, M, 2) of the (M, 2) positions, one per angle: every microphone
    except the reference rotated about the centroid of the moving ones."""
    base = np.asarray(positions, dtype=np.float64)
    moving = np.ones(base.shape[0], dtype=bool)
    moving[reference] = False
    center = base[moving].mean(axis=0)
    rad = np.deg2rad(np.asarray(angles_deg, dtype=np.float64))
    cos, sin = np.cos(rad), np.sin(rad)
    q = base[moving] - center  # (Mm, 2)
    poses = np.repeat(base[None, :, :], rad.shape[0], axis=0)
    poses[:, moving, 0] = cos[:, None] * q[:, 0] - sin[:, None] * q[:, 1] + center[0]
    poses[:, moving, 1] = sin[:, None] * q[:, 0] + cos[:, None] * q[:, 1] + center[1]
    return poses


def linear_positions(mic_count: int = 12, spacing: float = 0.03, reference: int = 0):
    """Reference microphone at the origin, the rest on an x-axis line centered
    on the origin. Returns an (M, 2) array."""
    if mic_count < 1:
        raise ValueError("mic_count must be positive")
    if not 0 <= reference < mic_count:
        raise ValueError(f"reference {reference} out of range for {mic_count} microphones")
    offsets = (np.arange(mic_count - 1) - (mic_count - 2) / 2.0) * spacing
    positions = np.zeros((mic_count, 2))
    others = [m for m in range(mic_count) if m != reference]
    positions[others, 0] = offsets
    return positions


@dataclass(frozen=True)
class MotionModel:
    """How the array pose evolves over frames.

    kinds:
        static          -- one state, no movement
        gaussian_jitter -- every frame redraws i.i.d. position offsets of
                           std sigma_pos per axis; one state, whose
                           covariance absorbs the motion
        rotation_sweep  -- continuous triangle sweep of the array angle
                           between min_deg and max_deg with the given
                           period; the discrete states are the quantization
                           of that angle to state_count levels, so frames
                           within one state still differ by up to half a
                           quantization step (residual deformation)
    """

    kind: str
    sigma_pos: float = 0.0
    jitter_reference: bool = False
    min_deg: float = 0.0
    max_deg: float = 0.0
    period_s: float = 0.0
    state_count: int = 1

    def __post_init__(self):
        if self.kind not in ("static", "gaussian_jitter", "rotation_sweep"):
            raise ValueError(f"unknown motion kind {self.kind!r}")
        if self.kind == "gaussian_jitter" and not 0 <= self.sigma_pos < np.inf:
            raise ValueError(f"sigma_pos must be finite and nonnegative, got {self.sigma_pos}")
        if self.kind == "rotation_sweep":
            if self.state_count < 2:
                raise ValueError("rotation_sweep needs at least two states")
            if not 0 < self.period_s < np.inf:
                raise ValueError(
                    f"rotation_sweep needs a finite positive period, got {self.period_s}")
            if not self.min_deg < self.max_deg:
                raise ValueError(
                    f"rotation_sweep needs min_deg < max_deg, got {self.min_deg} "
                    f"and {self.max_deg}"
                )

    @staticmethod
    def static() -> "MotionModel":
        return MotionModel(kind="static")

    @staticmethod
    def gaussian_jitter(sigma_pos: float, jitter_reference: bool = False) -> "MotionModel":
        return MotionModel(kind="gaussian_jitter", sigma_pos=sigma_pos,
                           jitter_reference=jitter_reference)

    @staticmethod
    def rotation_sweep(min_deg: float, max_deg: float, period_s: float,
                       state_count: int) -> "MotionModel":
        return MotionModel(kind="rotation_sweep", min_deg=min_deg, max_deg=max_deg,
                           period_s=period_s, state_count=state_count)


@dataclass(frozen=True)
class Pilot:
    """Near-Nyquist pilot tone configuration.

    Each source emits one tone; source n uses the bin two steps above source
    n-1, starting at the bin nearest frequency_hz. level_db is relative to
    the source's own broadband power.
    """

    frequency_hz: float
    level_db: float = -20.0

    def __post_init__(self):
        for name in ("frequency_hz", "level_db"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"pilot {name} must be finite, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class Source:
    """A far-field source: arrival azimuth in degrees and its sample signal."""

    azimuth_deg: float
    signal: np.ndarray

    def __post_init__(self):
        signal = np.asarray(self.signal, dtype=np.float64)
        if not np.isfinite(self.azimuth_deg):
            raise ValueError(f"source azimuth must be finite, got {self.azimuth_deg!r}")
        if signal.ndim != 1:
            raise ValueError("source signals must be mono")
        if not np.isfinite(signal).all():
            raise ValueError("source signal contains non-finite samples")
        object.__setattr__(self, "signal", signal)


@dataclass(frozen=True)
class SceneSpec:
    """Complete description of a simulated capture."""

    geometry: ArrayGeometry
    sources: tuple
    motion: MotionModel
    noise_level_db: float | None = -30.0
    pilot: Pilot | None = None
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self):
        sources = tuple(self.sources)
        wrapped = [s.azimuth_deg % 360.0 for s in sources]  # a turn apart: the same delays
        for j, azimuth in enumerate(wrapped):
            if azimuth in wrapped[:j]:
                raise ValueError(f"source azimuths must be distinct modulo 360 degrees, not "
                                 f"{sources[wrapped.index(azimuth)].azimuth_deg!r} and "
                                 f"{sources[j].azimuth_deg!r}")
        if self.noise_level_db is not None and not sources:
            raise ValueError("a scene with noise needs a source to set the noise level")
        object.__setattr__(self, "sources", sources)

    @property
    def source_count(self) -> int:
        return len(self.sources)


@dataclass(frozen=True)
class RenderedScene:
    """Simulator output: the mixture and ground truth.

    The mixture is the diffuse noise plus the image of every active source;
    those additive parts are not stored. A render with noise_level_db=None and
    one active source n is exactly source n's image. `desired` holds each
    active source as observed at the reference microphone, shape
    (T, F, n_active); source_count counts all of the scene's sources. Both
    arrays are complex64 (see render).
    """

    mixture: SpectralFrameTensor
    truth_states: StateSequence
    desired: np.ndarray
    active_sources: tuple
    pilot_bins: tuple | None
    source_count: int


def propagation_delays(positions, azimuth_deg, c: float = SPEED_OF_SOUND):
    """Arrival delay of a plane wave from azimuth_deg at each position (seconds).

    Azimuth 0 points along +x; delays grow toward the source direction, so a
    microphone farther along the arrival direction hears the wave earlier in
    relative terms.
    """
    rad = np.deg2rad(azimuth_deg)
    toward = np.array([np.cos(rad), np.sin(rad)])
    return np.asarray(positions, dtype=np.float64) @ toward / c


def _sweep_angle_series(motion: MotionModel, frame_count: int, frame_rate: float):
    """Continuous triangle-wave angle per frame, in degrees."""
    times = np.arange(frame_count) / frame_rate
    phase = (times % motion.period_s) / motion.period_s
    tri = np.where(phase < 0.5, 2.0 * phase, 2.0 * (1.0 - phase))
    return motion.min_deg + tri * (motion.max_deg - motion.min_deg)


def state_sequence(motion: MotionModel, frame_count: int, frame_rate: float) -> StateSequence:
    """Assign one motion state to each of frame_count frames.

    rotation_sweep quantizes the continuous triangle-wave angle to the
    nearest sweep angle; static and gaussian_jitter scenes stay in state 0.
    """
    if frame_count < 1:
        raise ValueError("frame_count must be at least 1")
    if motion.kind != "rotation_sweep":
        return StateSequence(np.zeros(frame_count, dtype=np.int64), 1)
    angles = _sweep_angle_series(motion, frame_count, frame_rate)
    span = motion.max_deg - motion.min_deg
    labels = np.rint((angles - motion.min_deg) / span * (motion.state_count - 1))
    labels = labels.astype(np.int64)
    return StateSequence(np.clip(labels, 0, motion.state_count - 1), motion.state_count)


def render_states(motion, duration_s, cfg, sample_rate) -> StateSequence:
    """The truth_states of a render of duration_s seconds."""
    samples = int(round(duration_s * sample_rate))
    return state_sequence(motion, (samples - cfg.fft_size) // cfg.hop + 1, sample_rate / cfg.hop)


def pseudorandom_signals(count: int, samples: int, seed: int,
                         stream: int = TRAINING_SIGNAL_STREAM):
    """Seeded unit-variance white Gaussian source signals, one per source.

    stream separates independent signal families drawn from one scene seed
    (training versus test material).
    """
    return [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, n)))
        .standard_normal(samples)
        for n in range(count)
    ]


def pilot_bins(pilot: Pilot | None, source_count: int, cfg: StftConfig,
               sample_rate: float):
    """Pilot bin of each of source_count sources (None without a pilot);
    rejects a frequency outside (0.8, 1) x Nyquist or bins past the last
    usable one."""
    if pilot is None:
        return None
    nyquist = sample_rate / 2.0
    if not 0.8 * nyquist < pilot.frequency_hz < nyquist:
        raise ValueError(
            f"pilot frequency {pilot.frequency_hz} Hz must lie in "
            f"({0.8 * nyquist:.0f}, {nyquist:.0f}) Hz"
        )
    bin_width = sample_rate / cfg.fft_size
    base = int(round(pilot.frequency_hz / bin_width))
    bins = tuple(base + 2 * n for n in range(source_count))
    if bins and bins[-1] >= cfg.bin_count - 1:
        raise ValueError(
            f"pilot bins {bins} run past the last usable bin {cfg.bin_count - 2}; "
            "lower the pilot frequency"
        )
    return bins


def start_pose(geometry: ArrayGeometry, motion: MotionModel) -> np.ndarray:
    """The (M, 2) positions of the first frame's pose before any jitter: the
    configured pose, rotated to min_deg for a rotation sweep."""
    if motion.kind != "rotation_sweep":
        return geometry.positions
    return _rotated(geometry.positions, geometry.reference, [motion.min_deg])[0]


def render(spec: SceneSpec, duration_s: float, cfg: StftConfig = StftConfig(),
           sample_rate: float = DEFAULT_SAMPLE_RATE, seed: int = 0,
           active_sources=None) -> RenderedScene:
    """Simulate the array capture of the configured scene.

    active_sources selects which sources contribute images (default all,
    each at most once). When the scene has noise, inactive sources still
    define its power reference, so renders with different active sets share
    one noise level; a noiseless render transforms only its active sources.
    The mixture and desired are complex64. Each element of the mixture is its
    noise (zero without noise) plus the images in active order, added in that
    order in complex128, whatever the block length, and rounded once. The
    noise of frame t is float32 standard normal draws from its own stream,
    SeedSequence(seed, spawn_key=(_NOISE_STREAM, t)), then scaled; an image is
    its source's column of desired times the steering phases.
    """
    n_samples = int(round(duration_s * sample_rate))
    if n_samples < cfg.fft_size:
        raise ValueError(f"duration {duration_s} s is shorter than one frame")
    for n, src in enumerate(spec.sources):
        if src.signal.shape[0] < n_samples:
            raise ValueError(
                f"source {n} signal has {src.signal.shape[0]} samples, "
                f"need {n_samples}"
            )
    if active_sources is None:
        active = tuple(range(spec.source_count))
    else:
        active = tuple(sorted(active_sources))
        if any(not 0 <= n < spec.source_count for n in active):
            raise ValueError(f"active_sources {active} out of range")
        repeated = sorted({n for n in active if active.count(n) > 1})
        if repeated:
            raise ValueError(f"active_sources {active} repeat sources {repeated}")

    states = render_states(spec.motion, duration_s, cfg, sample_rate)
    t_count = states.frame_count
    f_count = cfg.bin_count
    m_count = spec.geometry.mic_count
    omega = 2.0 * np.pi * np.fft.rfftfreq(cfg.fft_size, d=1.0 / sample_rate)

    pilots = pilot_bins(spec.pilot, spec.source_count, cfg, sample_rate)

    # One cache-sized block of frames at a time, adding in the order that fixes
    # the bytes. With noise, the noise of frame t is float32 standard normal
    # draws from its own stream (seed, t), made straight into its row of the
    # mixture: a helper draws frames while this thread transforms the sources,
    # then both take the frames left from one shared iterator. Then this thread
    # and the helper each take their own blocks (even and odd) in turn: a block
    # is read into the thread's complex128 scratch (zeros without noise), its
    # noise scaled and the images added there, and the sum rounded into the
    # mixture once.
    noisy = spec.noise_level_db is not None
    mixture = np.empty((t_count, f_count, m_count), dtype=np.complex64)
    desired = np.empty((t_count, f_count, len(active)), dtype=np.complex64)
    # Reference-channel spectra (T, F) of the active sources, one at a time:
    # with pilot tones injected, so that images, mixture and desired signals all
    # carry them, each is rounded into its column of desired, which the image
    # adds read. With noise, every configured source is transformed, in order,
    # for the noise power reference, taken before pilot injection so renders
    # with different active sets share one noise level.
    transformed = range(spec.source_count) if noisy else active
    powers = []
    frames = iter(range(t_count if noisy else 0))

    def transform_then_draw(half):
        for n in transformed if half == 0 else ():
            spectrum = analyze(spec.sources[n].signal[:n_samples], cfg, sample_rate).frames[:, :, 0]
            if noisy:
                powers.append(np.mean(np.abs(spectrum) ** 2))
            if n in active:
                if pilots is not None:
                    power = np.mean(np.sum(np.abs(spectrum) ** 2, axis=1))
                    amp = np.sqrt(power * 10.0 ** (spec.pilot.level_db / 10.0))
                    digital = 2.0 * np.pi * pilots[n] / cfg.fft_size
                    frame_advance = np.arange(t_count) * cfg.hop
                    spectrum[:, pilots[n]] += amp * np.exp(1j * digital * frame_advance)
                desired[:, :, active.index(n)] = spectrum
            del spectrum  # before the next source is transformed
        # next() on the shared iterator is atomic under the GIL, and a frame
        # drawn twice would be written with the same bytes.
        for t in frames:
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_NOISE_STREAM, t)))
            rng.standard_normal(dtype=np.float32, out=mixture[t].view(np.float32))

    on_two_threads(transform_then_draw)
    if noisy:
        variance = float(np.mean(powers)) * 10.0 ** (spec.noise_level_db / 10.0)

    frame_rel = _frame_relative_positions(
        spec, t_count, sample_rate / cfg.hop, seed
    )  # (T, M, 2) for moving scenes, None for static
    static = frame_rel is None
    pose = spec.geometry.positions
    positions = pose - pose[spec.geometry.reference] if static else frame_rel
    images = []  # per active source: (F, M) phases if static, (T, M) delays if moving
    for n in active:
        tau = propagation_delays(positions, spec.sources[n].azimuth_deg, spec.speed_of_sound)
        images.append(np.exp(1j * omega[:, None] * tau[None, :]) if static else tau)

    # One scratch per thread, allocated here (see on_two_threads): a block
    # and the table the image kernels build in.
    rows = min(block_length(f_count * m_count * 16), t_count)
    starts = range(0, t_count, rows)
    table_size = _table_size(rows, f_count, m_count)
    scratch = np.empty((2, rows * f_count * m_count + table_size), dtype=np.complex128)

    def add_images(parity):
        whole, table = _carve(scratch[parity], (rows, f_count, m_count), (table_size,))
        for k in range(parity, len(starts), 2):
            lo = starts[k]
            out = mixture[lo:lo + rows]
            block = whole[:len(out)]
            if noisy:
                block[...] = out
                # DC and Nyquist bins of a real signal carry no quadrature component.
                edges = block[:, [0, -1], :].real * np.sqrt(variance)
                block *= np.sqrt(variance / 2.0)
                block[:, [0, -1], :] = edges
            else:
                block.fill(0.0)
            for col, image in enumerate(images):
                spectrum = desired[lo:lo + rows, :, col, None]
                if static:
                    block += np.multiply(spectrum, image, out=_carve(table, block.shape)[0])
                else:
                    _add_moving_image(block, spectrum, omega, image[lo:lo + rows], table)
            out[...] = block

    on_two_threads(add_images)

    return RenderedScene(
        mixture=SpectralFrameTensor(mixture, sample_rate, cfg.fft_size, cfg.hop),
        truth_states=states,
        desired=desired,
        active_sources=active,
        pilot_bins=pilots,
        source_count=spec.source_count,
    )


def _table_size(rows, f_count, m_count):
    """Entries of the complex scratch _add_moving_image needs for a block of
    rows frames; it also holds the block itself."""
    width = min(_BIN_CHUNK, f_count)
    chunks = -(-f_count // width)
    return rows * m_count * (chunks * width + width + chunks)


def _add_moving_image(block, spectrum, omega, tau, table):
    """block += spectrum * exp(1j * omega[None, :, None] * tau[:, None, :]) for a
    block of frames: spectrum (Tb, F, 1), delays tau (Tb, M). Every
    intermediate is built in table, a flat complex scratch of at least
    _table_size(Tb, F, M) entries.

    The bin grid is uniform (omega[lo + k] = omega[lo] + omega[k]), so the
    phases of each _BIN_CHUNK-wide chunk starting at bin lo are one shared
    table exp(1j * omega[:_BIN_CHUNK] * tau) times exp(1j * omega[lo] * tau):
    _BIN_CHUNK + ceil(F / _BIN_CHUNK) exponentials per (frame, mic) instead
    of F. The products differ from exact phases by the rounding of
    omega * tau (about 1e-14 on unit phasors at the default scene).
    """
    (tb, m_count), f_count = tau.shape, omega.shape[0]
    width = min(_BIN_CHUNK, f_count)
    chunks = -(-f_count // width)
    phases, offsets, bases = _carve(table, (tb, chunks, width, m_count), (tb, width, m_count),
                                    (tb, chunks, m_count))
    # The phase arguments go where the products will be, before they are.
    args = phases.reshape(-1).view(np.float64)
    for phasors, lo_bins in ((offsets, omega[:width]), (bases, omega[::width])):
        arg = args[:phasors.size].reshape(phasors.shape)
        np.multiply(lo_bins[None, :, None], tau[:, None, :], out=arg)
        np.cos(arg, out=phasors.real)
        np.sin(arg, out=phasors.imag)
    np.multiply(offsets[:, None], bases[:, :, None], out=phases)
    phases = phases.reshape(tb, -1, m_count)[:, :f_count]
    phases *= spectrum
    block += phases


def _carve(flat, *shapes):
    """Contiguous arrays of the given shapes, back to back from the start of flat."""
    arrays, start = [], 0
    for shape in shapes:
        arrays.append(flat[start:start + math.prod(shape)].reshape(shape))
        start += math.prod(shape)
    return arrays


def _frame_relative_positions(spec: SceneSpec, t_count: int, frame_rate: float,
                              seed: int):
    """Per-frame microphone positions relative to the reference channel.

    Returns (T, M, 2) for moving scenes, or None for static ones (where the
    configured pose applies to every frame).
    """
    motion = spec.motion
    ref = spec.geometry.reference
    if motion.kind == "static":
        return None
    if motion.kind == "gaussian_jitter":
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(_JITTER_STREAM,))
        )
        offsets = rng.standard_normal((t_count, spec.geometry.mic_count, 2))
        offsets *= motion.sigma_pos
        if not motion.jitter_reference:
            offsets[:, ref, :] = 0.0
        absolute = spec.geometry.positions[None, :, :] + offsets
        return absolute - absolute[:, ref:ref + 1, :]
    # rotation_sweep: rotate the moving microphones continuously about their
    # centroid, from the start pose at min_deg.
    angles = _sweep_angle_series(motion, t_count, frame_rate) - motion.min_deg
    absolute = _rotated(start_pose(spec.geometry, motion), ref, angles)
    return absolute - absolute[:, ref:ref + 1, :]
