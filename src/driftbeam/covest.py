"""Sample spatial covariance estimation from training renders, plus
pilot-band identification of the array pose at test time.

Training expects one render per source with that source isolated and one
source-free render for the noise statistics. training_renders draws them for a
scene: each source noiseless, so each cell is the covariance of a source image
alone, and the noise enters only through the source-free render.
Every covariance comes from one grouped outer-product estimator and is kept
packed, as the upper triangles of its Hermitian matrices (covmath.pack); the
ensemble is the frame-weighted mixture of the per-state covariances.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .covmath import pack, packed_order, regularize, unpack
from .scene import RenderedScene, SceneSpec, StateSequence, render, render_states
from .stft import SpectralFrameTensor, StftConfig, block_length
from .worker import on_two_threads

# Loading applied to near-rank-one pilot snapshots before matching.
PILOT_EPSILON_REL = 1e-2
# Frames averaged on each side of the current frame when matching.
PILOT_SMOOTHING = 2


@dataclass
class CovarianceSet:
    """Trained second-order statistics of a scene, as read-only arrays, each
    M x M Hermitian matrix packed as its upper triangle, row by row, in
    P = M(M+1)/2 entries (covmath.pack; covmath.unpack restores the matrix).

    cells (N, S, F, P) holds source n's covariance in motion state s and
    frame_counts (N, S) the training frames behind it, at least one each: a
    state without frames has no beamformer. noise (F, P) comes from a
    source-free render; frequencies (F,) are the bins in rad/s. Only shapes
    and counts are checked; the matrices are trusted as given: train's are
    Hermitian PSD by construction, load_covariances checks a container's, and
    a set built by hand (from covmath.pack) is trusted as it is. ensemble
    (N, F, P) is derived: source n's state-averaged covariance
    sum_s (c_s / C_n) R_{n,s}, summed in state order over its counts c_s with
    total C_n, so in a one-state scene (static or jitter) it equals the state-0
    cell bit for bit. Full matrices are made only where a consumer needs them:
    one state's cells, one divergence slot or the pilot bins at a time.
    """

    cells: np.ndarray
    frame_counts: np.ndarray
    noise: np.ndarray
    frequencies: np.ndarray
    ensemble: np.ndarray = field(init=False)

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=np.complex128)
        noise = np.asarray(self.noise, dtype=np.complex128)
        frequencies = np.asarray(self.frequencies, dtype=np.float64)
        counts = np.asarray(self.frame_counts)
        shape = cells.shape
        if len(shape) != 4 or noise.shape != shape[2:] or frequencies.shape != shape[2:3]:
            raise ValueError(f"cells {shape}, noise {noise.shape} and frequencies "
                             f"{frequencies.shape} must have shapes (N, S, F, P), "
                             "(F, P) and (F,)")
        packed_order(cells)
        if counts.shape != shape[:2] or counts.dtype.kind not in "iu" or (counts < 0).any():
            raise ValueError(f"frame_counts must be nonnegative ints of shape {shape[:2]}, "
                             f"got {counts.dtype} {counts.shape}")
        missing = [tuple(pair) for pair in np.argwhere(counts == 0).tolist()]
        if missing or not counts.size:
            raise ValueError(f"no training frames for (source, state) pairs: {missing}" if missing
                             else "covariance cells must hold at least one source and state")
        ensemble = np.empty((shape[0], *shape[2:]), dtype=np.complex128)
        for n, row in enumerate(counts):
            total = row.sum()
            np.multiply(row[0] / total, cells[n, 0], out=ensemble[n])
            for state in range(1, len(row)):
                ensemble[n] += (row[state] / total) * cells[n, state]
        # Read-only views: an in-place edit raises instead of racing a
        # concurrent save of the same arrays.
        for name, value in (("cells", cells), ("frame_counts", counts), ("noise", noise),
                            ("frequencies", frequencies), ("ensemble", ensemble)):
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
        return packed_order(self.cells)


def _outer_sums(frames, labels, group_count, out=None):
    """Per-group sums (G, F, P) of x[t,f] x[t,f]^H, packed (covmath.pack), over
    complex frames (T, F, M) labeled in [0, G) (into out when given; an empty
    group sums to zeros), one zgemm batch per cache-sized bin chunk, and counts
    (G,). Each chunk's runs of consecutive frames are copied into complex128
    scratch, so complex64 frames are summed as their exact complex128 values,
    and its product lands in (bins, M, M) scratch, whose upper triangles are
    packed into the sums. This thread and a helper take alternate chunks; each
    chunk is one product over all of its group's frames, so no sum depends on
    which thread made it."""
    counts = np.bincount(labels, minlength=group_count)
    _, f_count, m_count = frames.shape
    sums = np.empty((group_count, f_count, m_count * (m_count + 1) // 2),
                    dtype=np.complex128) if out is None else out
    chunks = []  # (group, its runs of consecutive frames as (start, stop) rows, bins)
    for group in range(group_count):
        runs = np.flatnonzero(np.diff(np.r_[False, labels == group, False])).reshape(-1, 2)
        # Equal chunks of at least two bins: a one-bin copy of one microphone
        # would hand BLAS unit-stride vectors, which it sums in another order.
        parts = max(1, f_count // max(2, block_length(counts[group] * m_count * 16)))
        chunks += [(group, runs, slice(k * f_count // parts, (k + 1) * f_count // parts))
                   for k in range(parts)]
    # Per thread, a chunk's gathered frames, their conjugates and their product,
    # allocated here (see on_two_threads).
    size = max(counts[group] * (bins.stop - bins.start) for group, _, bins in chunks) * m_count
    scratch = np.empty((2, 2, size), dtype=np.complex128)
    width = max(bins.stop - bins.start for _, _, bins in chunks)
    products = np.empty((2, width, m_count, m_count), dtype=np.complex128)

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
            product = products[half, :shape[1]]
            np.matmul(x.transpose(1, 2, 0), xh.transpose(1, 0, 2), out=product)
            pack(product, out=sums[group, bins])

    on_two_threads(add_chunks)
    return sums, counts


def training_renders(spec: SceneSpec, duration_s: float, cfg: StftConfig, sample_rate: float,
                     seed: int):
    """train's input for spec: a generator of noiseless renders of each source
    alone, source n at seed + 1 + n, each drawn when asked, and a source-free
    render at seed + 1 + N, drawn now, that alone carries spec's noise and
    transforms every source for its power reference. It raises first, before
    any render, if the training track misses a state.

    The generator keeps the sources' signals, not spec: source n's render is
    drawn from a noiseless spec in which only source n carries its signal,
    and the generator drops that signal once the render is drawn. So a caller
    that holds no signal itself frees each one after its source's render.
    """
    track = render_states(spec.motion, duration_s, cfg, sample_rate)
    visited = set(track.labels.tolist())
    unvisited = [k for k in range(min(track.state_count, len(visited) + 8)) if k not in visited]
    if unvisited:
        raise ValueError(f"training visits {len(visited)} of {track.state_count} motion states; "
                         f"the first unvisited are {unvisited}")
    noise = render(spec, duration_s, cfg, sample_rate, seed=seed + 1 + spec.source_count,
                   active_sources=[])
    signals = [source.signal for source in spec.sources]
    bare = replace(spec, noise_level_db=None,
                   sources=tuple(replace(source, signal=()) for source in spec.sources))

    def alone(n):
        source = replace(bare.sources[n], signal=signals[n])
        signals[n] = None
        return replace(bare, sources=bare.sources[:n] + (source,) + bare.sources[n + 1:])

    return (render(alone(n), duration_s, cfg, sample_rate, seed=seed + 1 + n, active_sources=[n])
            for n in range(len(signals))), noise


def train(source_renders, noise_render: RenderedScene) -> CovarianceSet:
    """Estimate the per-state and noise covariances from training renders; the
    returned set derives the ensemble from the per-state cells.

    source_renders: any iterable of one RenderedScene per source, each with
    exactly that source active, its frames grouped by its own truth_states
    labels; each is reduced to its sums in the cell tensor and dropped
    before the next is drawn.
    noise_render: a render with no active sources; its scene's source count,
    its states and bins size that packed (N, S, F, P) tensor up front, and the
    noise covariance is the mean outer product of all of its frames.
    """
    if noise_render.active_sources:
        raise ValueError("the noise render must have no active sources")
    source_count = noise_render.source_count
    state_count = noise_render.truth_states.state_count
    _, f_count, m_count = noise_render.mixture.frames.shape
    cells = np.empty((source_count, state_count, f_count, m_count * (m_count + 1) // 2),
                     dtype=np.complex128)
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
        # Each cell is scaled by its count's reciprocal, which gives the same
        # values as a division by the count: numpy divides a complex array by
        # a real in a scalar loop that can run several times slower after a
        # BLAS product.
        for state in np.flatnonzero(counts[n]).tolist():
            cells[n, state] *= 1.0 / counts[n, state]
    if sorted(indices) != list(range(source_count)):
        raise ValueError(f"source renders must cover sources 0..N-1 of the noise render's "
                         f"scene (N = {source_count}), got {indices}")
    noise = noise_render.mixture
    sums, (count,) = _outer_sums(noise.frames, np.zeros(noise.frame_count, dtype=np.int64), 1)
    sums *= 1.0 / count
    return CovarianceSet(cells, counts, sums[0], noise.bin_omega)


def pilot_templates(covs: CovarianceSet, pilot_bins) -> np.ndarray:
    """Per-state covariance templates at the pilot bins, (S, N, M, M), unpacked.

    Template s, row n is source n's trained covariance in state s at that
    source's pilot bin pilot_bins[n], so a test frame (all pilots active at
    once) can be matched bin by bin; a CovarianceSet has no untrained cell.
    """
    if pilot_bins is None or len(pilot_bins) != covs.source_count:
        raise ValueError(
            f"pilot templates need one pilot bin per source ({covs.source_count}), "
            f"got {pilot_bins!r} (pilot disabled?)"
        )
    return unpack(covs.cells.swapaxes(0, 1)[:, np.arange(covs.source_count), list(pilot_bins)])


def estimate_states(mixture: SpectralFrameTensor, templates, pilot_bins) -> StateSequence:
    """Classify each frame's motion state from the pilot bins.

    templates (S, B, M, M) holds state s's covariance at each of the B
    mixture bins pilot_bins (see pilot_templates). Each frame's pilot-bin
    outer product, taken in complex128, averaged over +-PILOT_SMOOTHING frames
    and loaded by PILOT_EPSILON_REL, is compared against every state template
    R_s, loaded the same way: the state with the smallest total Gaussian
    divergence over the pilot bins wins, ties going to the lower state index.
    The score is sum_bins [tr(R_s^-1 R_t) + log det R_s], which is twice that
    divergence plus sum_bins [M + log det R_t], a term every state shares, so
    no snapshot R_t is decomposed.
    """
    if pilot_bins is None or len(templates) == 0:
        raise ValueError("state estimation requires pilot templates (pilot disabled?)")
    return StateSequence(np.argmin(_state_scores(mixture.frames, templates, pilot_bins), axis=1),
                         len(templates))


def _state_scores(frames, templates, pilot_bins):
    """estimate_states' scores (T, S) of frames (T, F, M), one cache-sized block
    of frames at a time.

    A smoothed snapshot is a difference of cumulative sums of the pilot-bin
    outer products. The sums a block needs, from PILOT_SMOOTHING frames before
    it to PILOT_SMOOTHING after, sit in one buffer: the last 2 PILOT_SMOOTHING
    + 1 are carried to the front for the next block, and each new sum is the
    one before it plus the next snapshot, so every sum is the sequential sum a
    whole-array np.cumsum gives.
    """
    bins, k = list(pilot_bins), PILOT_SMOOTHING
    t_count, _, m_count = frames.shape
    terms = []  # per state: its flattened, transposed loaded inverses and log-determinant sum
    for template in templates:
        loaded = regularize(template, PILOT_EPSILON_REL)
        terms.append((np.linalg.inv(loaded).swapaxes(-1, -2).reshape(-1),
                      np.linalg.slogdet(loaded)[1].sum()))
    rows = min(block_length(len(bins) * m_count * m_count * 16), t_count)
    # cumulative[c - first] is the sum of snapshots 0..c-1, for c = first..last.
    cumulative = np.empty((rows + 2 * k + 1, len(bins), m_count, m_count), dtype=np.complex128)
    cumulative[0] = 0.0
    first, last = 0, 0
    scores = np.empty((t_count, len(terms)))
    for a in range(0, t_count, rows):
        frame = np.arange(a, min(a + rows, t_count))
        lo = np.maximum(frame - k, 0)
        hi = np.minimum(frame + k + 1, t_count)
        held = last + 1 - lo[0]
        cumulative[:held] = cumulative[lo[0] - first:last + 1 - first]
        first = lo[0]
        x = frames[last:hi[-1], bins].astype(np.complex128, copy=False)  # (new sums, B, M)
        if len(x):
            new = np.einsum("tbm,tbn->tbmn", x, x.conj(), out=cumulative[held:held + len(x)])
            if last:
                new[0] += cumulative[held - 1]
            np.cumsum(new, axis=0, out=new)
        last = hi[-1]
        # Mean over frames t-PILOT_SMOOTHING..t+PILOT_SMOOTHING, clipped to the
        # frame range.
        smoothed = cumulative[hi - first]
        smoothed -= cumulative[lo - first]
        smoothed *= (1.0 / (hi - lo))[:, None, None, None]  # not a division: see train
        flat = regularize(smoothed, PILOT_EPSILON_REL).reshape(len(frame), -1)
        # tr(A B) = sum_ij A_ij B_ji: each state's trace term is a row-wise dot
        # of the flattened snapshots with its flattened, transposed inverses.
        # numpy reduces each row on this thread; a matrix-vector product this
        # large would wake BLAS's thread pool, which then spins on the other core.
        for state, (inverse_t, log_det) in enumerate(terms):
            scores[a:a + len(frame), state] = np.vecdot(inverse_t.conj(), flat).real + log_det
    return scores
