"""Multichannel Wiener filters built from trained covariance sets.

Row n of each per-bin weight matrix estimates source n as observed at the
reference microphone:

    W[f] = [e_ref^T R_n[f]]_n  (sum_k R_k[f] + R_v[f])^{-1}

The static bank uses the state-averaged (ensemble) covariances, the dynamic
bank holds one weight set per motion state and looks it up frame by frame,
and the rank-one variant replaces each ensemble covariance by its principal
eigenpair before solving.
"""

from dataclasses import dataclass

import numpy as np

from .covmath import DEFAULT_EPSILON_REL, check_condition, regularize
from .covest import CovarianceSet
from .scene import StateSequence
from .stft import SpectralFrameTensor, block_length

MODES = ("static", "dynamic", "rank1")


class StarvedStateError(ValueError):
    """Raised when the dynamic beamformer lacks training data for some state."""


@dataclass(frozen=True)
class BeamformerBank:
    """Per-frequency weight matrices, one set per motion state.

    weights is an (S, F, N, M) array: S is the state count for a dynamic
    bank and 1 for static and rank1 banks, which ignore state sequences when
    applied.
    """

    mode: str
    weights: np.ndarray
    reference: int
    frequencies: np.ndarray

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        bad = np.flatnonzero(~np.isfinite(self.weights).all(axis=(1, 2, 3))).tolist()
        if bad:
            raise ValueError(f"non-finite beamformer weights for states {bad}")

    @property
    def source_count(self) -> int:
        return self.weights.shape[2]

    @property
    def mic_count(self) -> int:
        return self.weights.shape[3]


def mwf_weights(sources, noise, reference: int,
                epsilon_rel: float = DEFAULT_EPSILON_REL) -> np.ndarray:
    """Wiener weights (..., F, N, M) from source covariances (..., N, F, M, M)
    and a noise covariance (F, M, M), Hermitian PSD per bin as a CovarianceSet holds them.

    Their sum is diagonally loaded by epsilon_rel, which bounds its condition number
    by 1 + M/epsilon_rel (test_loaded_condition_number_bounded); only an unloaded
    solve (epsilon_rel 0, e.g. exact model covariances) runs check_condition, and a
    negative epsilon_rel is rejected. Each leading index (a dynamic bank's state)
    is solved on its own, with the temporaries of one (F, M, M) stack.
    """
    sources = np.asarray(sources, dtype=np.complex128)
    noise = np.asarray(noise, dtype=np.complex128)
    if sources.ndim < 4 or sources.shape[-4] == 0:
        raise ValueError("at least one source covariance is required")
    if noise.ndim != 3 or sources.shape[-3:] != noise.shape:
        raise ValueError("source and noise covariances must share one bin grid")
    if not 0 <= reference < noise.shape[-1]:
        raise ValueError(f"reference index {reference} out of range")
    if not epsilon_rel >= 0:
        raise ValueError(f"epsilon_rel must be >= 0, got {epsilon_rel!r}")

    batch, (n_count, f_count, m_count) = sources.shape[:-4], sources.shape[-4:-1]
    weights = np.empty((*batch, f_count, n_count, m_count), dtype=np.complex128)
    for index in np.ndindex(batch):
        total = noise.copy()
        for cov in sources[index]:
            total += cov
        if epsilon_rel > 0:
            total = regularize(total, epsilon_rel)
        else:
            check_condition(total, "unloaded summed covariance"
                            + (f" at leading index {index}" if index else ""))
        rows = np.ascontiguousarray(sources[index][:, :, reference, :].swapaxes(0, 1))  # (F, N, M)
        np.matmul(rows, np.linalg.inv(total), out=weights[index])
    return weights


def _principal_component(covs):
    """Each matrix of the stack covs (..., M, M) replaced by its principal
    eigenpair's rank-one part."""
    eigvals, eigvecs = np.linalg.eigh(covs)
    lam = np.maximum(eigvals[..., -1], 0.0)
    u = eigvecs[..., -1]
    return lam[..., None, None] * np.einsum("...m,...n->...mn", u, u.conj())


def build(covs: CovarianceSet, mode: str, reference: int = 0) -> BeamformerBank:
    """Build a beamformer bank of the requested mode from trained covariances:
    one mwf_weights call, loaded by DEFAULT_EPSILON_REL, on the state-major
    cells, the ensemble or its rank-one parts."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose one of {MODES}")
    if mode == "dynamic":
        missing = covs.missing_pairs()
        if missing:
            raise StarvedStateError(
                f"no training frames for (source, state) pairs: {missing}"
            )
        weights = mwf_weights(covs.cells.swapaxes(0, 1), covs.noise, reference)
    else:
        sources = covs.ensemble if mode == "static" else _principal_component(covs.ensemble)
        weights = mwf_weights(sources, covs.noise, reference)[None]
    return BeamformerBank(mode, weights, reference, covs.frequencies.copy())


def apply_bank(bank: BeamformerBank, mixture: SpectralFrameTensor,
               states: StateSequence | None = None) -> np.ndarray:
    """Filter the mixture, returning source estimates of shape (T, F, N) in
    the mixture's precision: each weight set used is cast to it once.

    A bank with one weight set (static, rank1, or the dynamic bank of a
    one-state scene) ignores the state argument; a dynamic bank with several
    weight sets requires a state label for every frame.
    """
    x = mixture.frames
    if bank.frequencies.shape != mixture.bin_omega.shape or \
            not np.allclose(bank.frequencies, mixture.bin_omega):
        raise ValueError("mixture bin grid does not match the beamformer bank")
    if x.shape[2] != bank.mic_count:
        raise ValueError("mixture channel count does not match the beamformer bank")
    if len(bank.weights) == 1:
        return _filter(bank.weights[0].astype(x.dtype, copy=False), x)
    if states is None:
        raise ValueError("a dynamic bank needs a state sequence to apply")
    if states.frame_count != x.shape[0]:
        raise ValueError("state sequence length does not match the mixture")
    missing = sorted(set(states.labels.tolist()) - set(range(len(bank.weights))))
    if missing:
        raise ValueError(f"no weights for states {missing}")
    out = np.empty((x.shape[0], x.shape[1], bank.source_count), dtype=x.dtype)
    # Each state's frames are gathered and filtered in order, a chunk of at
    # most one block at a time. BLAS may round a column differently by where
    # it falls in a product (whole tiles of up to 8 columns, then the rest),
    # and numpy takes a matrix-vector product for a single column, so chunks
    # hold a multiple of 8 frames and a lone last frame joins the chunk before
    # it: every frame gets the bits of one product over all its state's frames.
    chunk = 8 * max(1, (block_length(x[0].nbytes) - 1) // 8)
    for state in np.unique(states.labels):
        weights = bank.weights[int(state)].astype(x.dtype, copy=False)
        frames = np.flatnonzero(states.labels == state)
        starts = list(range(0, len(frames), chunk))
        if len(starts) > 1 and len(frames) - starts[-1] == 1:
            starts.pop()
        for a, b in zip(starts, starts[1:] + [len(frames)]):
            rows = frames[a:b]
            out[rows] = _filter(weights, x[rows])
    return out


def _filter(weights, frames):
    """Source estimates (T, F, N) of frames (T, F, M) under weights (F, N, M)
    of the same precision, one batched cgemm or zgemm over (F, N, M) x (F, M, T)."""
    return (weights @ frames.transpose(1, 2, 0)).transpose(2, 0, 1)
