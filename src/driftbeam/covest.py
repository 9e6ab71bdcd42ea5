"""Sample spatial covariance estimation from training renders, plus
pilot-band identification of the array pose at test time.

Training expects one render per source with that source isolated and one
source-free render for the noise statistics. The CLI renders the isolated
sources noiseless, so each cell is the covariance of a source image alone and
the noise enters only through the source-free render; noisy source renders
are accepted too, and their cells then include the noise.
Every covariance comes from one grouped outer-product estimator; the ensemble
is the frame-weighted mixture of the per-state covariances.
"""

from dataclasses import dataclass, field

import numpy as np

from .covmath import HermitianSpectrum, regularize
from .scene import RenderedScene, StateSequence
from .stft import SpectralFrameTensor, block_length

# Loading applied to near-rank-one pilot snapshots before matching.
PILOT_EPSILON_REL = 1e-2
# Frames averaged on each side of the current frame when matching.
PILOT_SMOOTHING = 2


@dataclass
class CovarianceSet:
    """Trained second-order statistics of a scene.

    per_state maps (source, state) to the covariance spectrum conditioned on
    that state, and frame_counts maps the same keys to the number of training
    frames behind each cell; a state without training frames has no cell.
    noise is estimated from a source-free render. ensemble is derived, not
    given: source n's state-averaged spectrum sum_s (c_s / C_n) R_{n,s}, with
    c_s the cell's frame count and C_n their total, so in a one-state scene
    (static or jitter) it equals the state-0 cell bit for bit.
    """

    per_state: dict
    frame_counts: dict
    noise: HermitianSpectrum
    state_count: int
    ensemble: dict = field(init=False)

    def __post_init__(self):
        keys = sorted(self.per_state)
        if keys != sorted(self.frame_counts):
            raise ValueError("per_state and frame_counts must have the same (source, state) keys")
        empty = [key for key in keys if self.frame_counts[key] < 1]
        if empty:
            raise ValueError(f"frame counts must be at least 1, not for cells {empty}")
        sources = sorted({n for n, _ in keys})
        if not sources or sources != list(range(len(sources))):
            raise ValueError(f"covariance cells must cover sources 0..N-1, N >= 1, got {sources}")
        self.ensemble = {}
        for n in sources:
            cells = [key for key in keys if key[0] == n]
            total = sum(self.frame_counts[key] for key in cells)
            acc = (self.frame_counts[cells[0]] / total) * self.per_state[cells[0]].bins
            for key in cells[1:]:
                acc += (self.frame_counts[key] / total) * self.per_state[key].bins
            self.ensemble[n] = HermitianSpectrum(acc, self.frequencies)

    @property
    def source_count(self) -> int:
        return len(self.ensemble)

    @property
    def frequencies(self) -> np.ndarray:
        return self.noise.frequencies

    @property
    def mic_count(self) -> int:
        return self.noise.mic_count

    def missing_pairs(self) -> list:
        """The (source, state) pairs without training frames, sorted."""
        return [
            (n, state)
            for n in sorted(self.ensemble)
            for state in range(self.state_count)
            if (n, state) not in self.per_state
        ]


def _outer_sums(frames, labels, group_count):
    """Per-group sums (G, F, M, M) of x[t,f] x[t,f]^H over complex frames (T, F, M)
    labeled in [0, G), one zgemm batch per cache-sized bin chunk, and counts (G,)."""
    counts = np.bincount(labels, minlength=group_count)
    _, f_count, m_count = frames.shape
    sums = np.empty((group_count, f_count, m_count, m_count), dtype=np.complex128)
    for group in range(group_count):
        # A group holding every frame reads the frames in place.
        rows = slice(None) if counts[group] == len(labels) else np.flatnonzero(labels == group)
        # Equal chunks of at least two bins: a one-bin copy of one microphone
        # would hand BLAS unit-stride vectors, which it sums in another order.
        parts = max(1, f_count // max(2, block_length(counts[group] * m_count * 16)))
        for k in range(parts):
            bins = slice(k * f_count // parts, (k + 1) * f_count // parts)
            x = frames[rows, bins].transpose(1, 2, 0)  # (bins, M, T_g)
            np.matmul(x, x.conj().transpose(0, 2, 1), out=sums[group, bins])
    return sums, counts


def sample_covariance(frames, frequencies) -> HermitianSpectrum:
    """Per-bin average of frame outer products: (1/T) sum_t x[t,f] x[t,f]^H.

    frames: complex (T, F, M) with T >= 1.
    """
    frames = np.asarray(frames, dtype=np.complex128)
    if frames.ndim != 3:
        raise ValueError(f"frames must have shape (T, F, M), got {frames.shape}")
    if frames.shape[0] == 0:
        raise ValueError("cannot estimate a covariance from an empty frame subset")
    sums, counts = _outer_sums(frames, np.zeros(frames.shape[0], dtype=np.int64), 1)
    return HermitianSpectrum(sums[0] / counts[0], frequencies)


def train(source_renders, noise_render: RenderedScene) -> CovarianceSet:
    """Estimate the per-state and noise covariances from training renders; the
    returned set derives the ensemble from the per-state cells.

    source_renders: any iterable of one RenderedScene per source, each with
    exactly that source active, its frames grouped by its own truth_states
    labels; each is reduced to its sums and dropped before the next is drawn.
    noise_render: a render with no active sources; it sets states and bins.
    """
    if noise_render.active_sources:
        raise ValueError("the noise render must have no active sources")
    state_count = noise_render.truth_states.state_count
    omega = noise_render.mixture.bin_omega
    per_state_covs = {}
    counts = {}
    indices = []
    for render in source_renders:
        if len(render.active_sources) != 1:
            raise ValueError(
                f"training renders must have exactly one active source, "
                f"got {render.active_sources}"
            )
        if render.truth_states.state_count != state_count:
            raise ValueError("training renders disagree on the number of states")
        n = render.active_sources[0]
        indices.append(n)
        sums, sizes = _outer_sums(render.mixture.frames, render.truth_states.labels,
                                  state_count)
        del render
        for state in np.flatnonzero(sizes).tolist():
            counts[(n, state)] = int(sizes[state])
            sums[state] /= sizes[state]
            per_state_covs[(n, state)] = HermitianSpectrum(sums[state], omega)
    if not indices or sorted(indices) != list(range(len(indices))):
        raise ValueError(f"source renders must cover sources 0..N-1, N >= 1, got {indices}")
    noise = sample_covariance(noise_render.mixture.frames, omega)
    return CovarianceSet(
        per_state=per_state_covs,
        frame_counts=counts,
        noise=noise,
        state_count=state_count,
    )


def pilot_templates(covs: CovarianceSet, pilot_bins) -> dict:
    """Per-state covariance templates at the pilot bins, one spectrum per state.

    Template bin n of state s is source n's trained covariance in state s at
    that source's pilot bin pilot_bins[n], so a test frame (all pilots
    active at once) can be matched bin by bin.
    """
    if pilot_bins is None or len(pilot_bins) != covs.source_count:
        raise ValueError(
            f"pilot templates need one pilot bin per source ({covs.source_count}), "
            f"got {pilot_bins!r} (pilot disabled?)"
        )
    missing = covs.missing_pairs()
    if missing:
        raise ValueError(f"no training frames for (source, state) pairs: {missing}")
    sources = sorted(covs.ensemble)
    omega = covs.frequencies[list(pilot_bins)]
    return {
        state: HermitianSpectrum(
            np.stack([covs.per_state[(n, state)].bins[pilot_bins[n]] for n in sources]), omega
        )
        for state in range(covs.state_count)
    }


def estimate_states(mixture: SpectralFrameTensor, templates: dict,
                    smoothing: int = PILOT_SMOOTHING,
                    epsilon_rel: float = PILOT_EPSILON_REL) -> StateSequence:
    """Classify each frame's motion state from the pilot bins.

    Each frame's pilot-bin outer product, averaged over +-smoothing frames
    and diagonally loaded, is compared against every diagonally loaded state
    template R_s: the state with the smallest total Gaussian divergence over
    the pilot bins wins, ties going to the lower state index. The score is
    sum_bins [tr(R_s^-1 R_t) + log det R_s], which is twice that divergence
    plus sum_bins [M + log det R_t], a term every state shares, so no
    snapshot R_t is decomposed.
    """
    if not templates:
        raise ValueError("state estimation requires pilot templates (pilot disabled?)")
    state_count = max(templates) + 1
    any_template = next(iter(templates.values()))
    omega_grid = mixture.bin_omega
    bins = [int(np.argmin(np.abs(omega_grid - w))) for w in any_template.frequencies]
    spacing = omega_grid[1] - omega_grid[0]
    if np.abs(omega_grid[bins] - any_template.frequencies).max() > 0.5 * spacing:
        raise ValueError("template frequencies do not lie on the mixture bin grid")

    x = mixture.frames[:, bins, :]  # (T, B, M)
    inst = np.einsum("tbm,tbn->tbmn", x, x.conj())
    # Mean over frames t-smoothing..t+smoothing, clipped to the frame range,
    # as a difference of cumulative sums, built in place.
    cumulative = np.empty((inst.shape[0] + 1, *inst.shape[1:]), dtype=inst.dtype)
    cumulative[0] = 0.0
    np.cumsum(inst, axis=0, out=cumulative[1:])
    del inst
    frame = np.arange(len(cumulative) - 1)
    lo, hi = np.maximum(frame - smoothing, 0), np.minimum(frame + smoothing + 1, len(frame))
    smoothed = cumulative[hi]
    smoothed -= cumulative[lo]
    smoothed /= (hi - lo)[:, None, None, None]
    smoothed = regularize(smoothed, epsilon_rel)

    # tr(A B) = sum_ij A_ij B_ji: each state's trace term is one product of
    # the flattened snapshots with its flattened, transposed inverses.
    flat = smoothed.reshape(len(frame), -1)
    scores = np.full((len(frame), state_count), np.inf)
    for state, template in templates.items():
        loaded = regularize(template.bins, epsilon_rel)
        inverse_t = np.linalg.inv(loaded).swapaxes(-1, -2).reshape(-1)
        scores[:, state] = (flat @ inverse_t).real + np.linalg.slogdet(loaded)[1].sum()
    return StateSequence(np.argmin(scores, axis=1), state_count)
