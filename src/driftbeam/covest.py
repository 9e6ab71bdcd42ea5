"""Sample spatial covariance estimation from training renders, plus
pilot-band identification of the array pose at test time.

Training expects one render per source with that source isolated and one
source-free render for the noise statistics. training_renders draws them for a
scene: each source noiseless, so each cell is the covariance of a source image
alone, and the noise enters only through the source-free render.
Every covariance comes from one grouped outer-product estimator; the ensemble
is the frame-weighted mixture of the per-state covariances.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .covmath import HermitianSpectrum, regularize
from .scene import RenderedScene, SceneSpec, StateSequence, render
from .stft import SpectralFrameTensor, StftConfig, block_length
from .worker import on_two_threads

# Loading applied to near-rank-one pilot snapshots before matching.
PILOT_EPSILON_REL = 1e-2
# Frames averaged on each side of the current frame when matching.
PILOT_SMOOTHING = 2


@dataclass
class CovarianceSet:
    """Trained second-order statistics of a scene, as read-only arrays.

    cells (N, S, F, M, M) holds source n's covariance in motion state s and
    frame_counts (N, S) the training frames behind it; a count of 0 marks a
    missing cell, which must be all zeros. noise (F, M, M) comes from a
    source-free render; frequencies (F,) are the bins in rad/s. cells and
    noise are validated once each. ensemble (N, F, M, M) is derived: source
    n's state-averaged covariance sum_s (c_s / C_n) R_{n,s}, summed in state
    order over its nonzero counts c_s with total C_n, so in a one-state scene
    (static or jitter) it equals the state-0 cell bit for bit.
    """

    cells: np.ndarray
    frame_counts: np.ndarray
    noise: np.ndarray
    frequencies: np.ndarray
    ensemble: np.ndarray = field(init=False)

    def __post_init__(self):
        counts = np.asarray(self.frame_counts)
        shape = np.shape(self.cells)
        if len(shape) != 5 or np.shape(self.noise) != shape[2:]:
            raise ValueError(f"cells {shape} and noise {np.shape(self.noise)} must have "
                             "shapes (N, S, F, M, M) and (F, M, M)")
        if counts.shape != shape[:2] or counts.dtype.kind not in "iu" or (counts < 0).any():
            raise ValueError(f"frame_counts must be nonnegative ints of shape {shape[:2]}, "
                             f"got {counts.dtype} {counts.shape}")
        cells = HermitianSpectrum(self.cells, self.frequencies).bins
        noise = HermitianSpectrum(self.noise, self.frequencies)
        missing = counts == 0
        stray = np.argwhere(missing)[cells[missing].any(axis=(1, 2, 3))]
        if len(stray):
            raise ValueError("cells with a zero frame count must be zero, not "
                             f"{[tuple(p) for p in stray.tolist()]}")
        starved = np.flatnonzero(missing.all(axis=1)).tolist()
        if not len(counts) or starved:
            raise ValueError("covariance cells must hold at least one source, each with "
                             f"training frames (none for sources {starved})")
        ensemble = np.empty((shape[0], *shape[2:]), dtype=np.complex128)
        for n, row in enumerate(counts):
            states = np.flatnonzero(row)
            total = row.sum()
            np.multiply(row[states[0]] / total, cells[n, states[0]], out=ensemble[n])
            for state in states[1:]:
                ensemble[n] += (row[state] / total) * cells[n, state]
        # Read-only views: an in-place edit raises instead of racing a
        # concurrent save of the same arrays.
        for name, value in (("cells", cells), ("frame_counts", counts), ("noise", noise.bins),
                            ("frequencies", noise.frequencies), ("ensemble", ensemble)):
            value = value.view()
            value.flags.writeable = False
            setattr(self, name, value)

    @property
    def source_count(self) -> int:
        return self.cells.shape[0]

    @property
    def state_count(self) -> int:
        return self.cells.shape[1]

    @property
    def mic_count(self) -> int:
        return self.cells.shape[-1]

    def missing_pairs(self) -> list:
        """The (source, state) pairs without training frames, sorted."""
        return [tuple(pair) for pair in np.argwhere(self.frame_counts == 0).tolist()]


def _outer_sums(frames, labels, group_count, out=None):
    """Per-group sums (G, F, M, M) of x[t,f] x[t,f]^H over complex frames (T, F, M)
    labeled in [0, G) (into out when given; an empty group sums to zeros), one
    zgemm batch per cache-sized bin chunk, and counts (G,). Each chunk's runs of
    consecutive frames are copied into complex128 scratch, so complex64 frames
    are summed as their exact complex128 values. This thread and a helper take
    alternate chunks; each chunk is one product over all of its group's frames,
    so no sum depends on which thread made it."""
    counts = np.bincount(labels, minlength=group_count)
    _, f_count, m_count = frames.shape
    sums = np.empty((group_count, f_count, m_count, m_count), dtype=np.complex128) \
        if out is None else out
    chunks = []  # (group, its runs of consecutive frames as (start, stop) rows, bins)
    for group in range(group_count):
        runs = np.flatnonzero(np.diff(np.r_[False, labels == group, False])).reshape(-1, 2)
        # Equal chunks of at least two bins: a one-bin copy of one microphone
        # would hand BLAS unit-stride vectors, which it sums in another order.
        parts = max(1, f_count // max(2, block_length(counts[group] * m_count * 16)))
        chunks += [(group, runs, slice(k * f_count // parts, (k + 1) * f_count // parts))
                   for k in range(parts)]
    # Per thread, a chunk's gathered frames and their conjugates, allocated here
    # (see on_two_threads).
    size = max(counts[group] * (bins.stop - bins.start) for group, _, bins in chunks) * m_count
    scratch = np.empty((2, 2, size), dtype=np.complex128)

    def add_chunks(half):
        gathered, conjugated = scratch[half]
        for group, runs, bins in chunks[half::2]:
            shape = (counts[group], bins.stop - bins.start, m_count)
            x = gathered[:math.prod(shape)].reshape(shape)
            filled = 0
            for start, stop in runs.tolist():
                x[filled:filled + stop - start] = frames[start:stop, bins]
                filled += stop - start
            xh = np.conjugate(x, out=conjugated[:x.size].reshape(shape))
            np.matmul(x.transpose(1, 2, 0), xh.transpose(1, 0, 2), out=sums[group, bins])

    on_two_threads(add_chunks)
    return sums, counts


def training_renders(spec: SceneSpec, duration_s: float, cfg: StftConfig, sample_rate: float,
                     seed: int):
    """train's input for spec: a generator of noiseless renders of each source
    alone, source n at seed + 1 + n, each drawn when asked, and a source-free
    render at seed + 1 + N, drawn now, that alone carries spec's noise."""
    noiseless = replace(spec, noise_level_db=None)
    sources = (render(noiseless, duration_s, cfg, sample_rate, seed=seed + 1 + n,
                      active_sources=[n]) for n in range(spec.source_count))
    return sources, render(spec, duration_s, cfg, sample_rate, seed=seed + 1 + spec.source_count,
                           active_sources=[])


def train(source_renders, noise_render: RenderedScene) -> CovarianceSet:
    """Estimate the per-state and noise covariances from training renders; the
    returned set derives the ensemble from the per-state cells.

    source_renders: any iterable of one RenderedScene per source, each with
    exactly that source active, its frames grouped by its own truth_states
    labels; each is reduced to its sums in the cell tensor and dropped
    before the next is drawn.
    noise_render: a render with no active sources; its scene's source count,
    its states and bins size that (N, S, F, M, M) tensor up front, and the
    noise covariance is the mean outer product of all of its frames.
    """
    if noise_render.active_sources:
        raise ValueError("the noise render must have no active sources")
    source_count = noise_render.source_count
    state_count = noise_render.truth_states.state_count
    _, f_count, m_count = noise_render.mixture.frames.shape
    cells = np.empty((source_count, state_count, f_count, m_count, m_count), dtype=np.complex128)
    counts = np.zeros((source_count, state_count), dtype=np.int64)
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
        if n >= source_count:
            break  # rejected by the coverage check below, as is a repeated source
        _, counts[n] = _outer_sums(render.mixture.frames, render.truth_states.labels,
                                   state_count, out=cells[n])
        del render
        for state in np.flatnonzero(counts[n]).tolist():
            cells[n, state] /= counts[n, state]
    if sorted(indices) != list(range(source_count)):
        raise ValueError(f"source renders must cover sources 0..N-1 of the noise render's "
                         f"scene (N = {source_count}), got {indices}")
    noise = noise_render.mixture
    sums, (count,) = _outer_sums(noise.frames, np.zeros(noise.frame_count, dtype=np.int64), 1)
    sums /= count
    return CovarianceSet(cells, counts, sums[0], noise.bin_omega)


def pilot_templates(covs: CovarianceSet, pilot_bins) -> np.ndarray:
    """Per-state covariance templates at the pilot bins, (S, N, M, M).

    Template s, row n is source n's trained covariance in state s at that
    source's pilot bin pilot_bins[n], so a test frame (all pilots active at
    once) can be matched bin by bin.
    """
    if pilot_bins is None or len(pilot_bins) != covs.source_count:
        raise ValueError(
            f"pilot templates need one pilot bin per source ({covs.source_count}), "
            f"got {pilot_bins!r} (pilot disabled?)"
        )
    missing = covs.missing_pairs()
    if missing:
        raise ValueError(f"no training frames for (source, state) pairs: {missing}")
    return covs.cells.swapaxes(0, 1)[:, np.arange(covs.source_count), list(pilot_bins)]


def estimate_states(mixture: SpectralFrameTensor, templates, pilot_bins,
                    smoothing: int = PILOT_SMOOTHING,
                    epsilon_rel: float = PILOT_EPSILON_REL) -> StateSequence:
    """Classify each frame's motion state from the pilot bins.

    templates (S, B, M, M) holds state s's covariance at each of the B
    mixture bins pilot_bins (see pilot_templates). Each frame's pilot-bin
    outer product, taken in complex128, averaged over +-smoothing frames and
    diagonally loaded, is compared against every diagonally loaded state
    template R_s: the state with the smallest total Gaussian divergence over
    the pilot bins wins, ties going to the lower state index. The score is
    sum_bins [tr(R_s^-1 R_t) + log det R_s], which is twice that divergence
    plus sum_bins [M + log det R_t], a term every state shares, so no
    snapshot R_t is decomposed.
    """
    if pilot_bins is None or len(templates) == 0:
        raise ValueError("state estimation requires pilot templates (pilot disabled?)")
    x = mixture.frames[:, list(pilot_bins), :].astype(np.complex128, copy=False)  # (T, B, M)
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
    # the flattened snapshots with its flattened, transposed inverses (per
    # state: one product over all states may round differently).
    flat = smoothed.reshape(len(frame), -1)
    scores = np.empty((len(frame), len(templates)))
    for state, template in enumerate(templates):
        loaded = regularize(template, epsilon_rel)
        inverse_t = np.linalg.inv(loaded).swapaxes(-1, -2).reshape(-1)
        scores[:, state] = (flat @ inverse_t).real + np.linalg.slogdet(loaded)[1].sum()
    return StateSequence(np.argmin(scores, axis=1), len(templates))
