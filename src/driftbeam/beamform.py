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

from .covmath import DEFAULT_EPSILON_REL, HermitianSpectrum, check_condition, regularize
from .covest import CovarianceSet
from .scene import StateSequence
from .stft import SpectralFrameTensor, block_length

MODES = ("static", "dynamic", "rank1")


class StarvedStateError(ValueError):
    """Raised when the dynamic beamformer lacks training data for some state."""


@dataclass(frozen=True)
class BeamformerBank:
    """Per-frequency weight matrices, keyed by motion state for dynamic mode.

    weights maps a state index to an (F, N, M) array; static banks store one
    entry under key 0 and ignore state sequences when applied.
    """

    mode: str
    weights: dict
    reference: int
    frequencies: np.ndarray

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        for state, w in self.weights.items():
            if not np.isfinite(w).all():
                raise ValueError(f"non-finite beamformer weights for state {state}")

    @property
    def source_count(self) -> int:
        return next(iter(self.weights.values())).shape[1]

    @property
    def mic_count(self) -> int:
        return next(iter(self.weights.values())).shape[2]


def mwf_weights(source_covs, noise_cov: HermitianSpectrum, reference: int,
                epsilon_rel: float = DEFAULT_EPSILON_REL) -> np.ndarray:
    """Wiener weights (F, N, M) from per-source and noise covariance spectra.

    The summed covariance is diagonally loaded by epsilon_rel before
    inversion (pass 0 to disable, e.g. with exact model covariances).
    """
    if not source_covs:
        raise ValueError("at least one source covariance is required")
    m_count = noise_cov.mic_count
    for cov in source_covs:
        if cov.bins.shape != noise_cov.bins.shape:
            raise ValueError("source and noise covariances must share one bin grid")
        if not np.allclose(cov.frequencies, noise_cov.frequencies):
            raise ValueError("source and noise covariances must share one bin grid")
    if not 0 <= reference < m_count:
        raise ValueError(f"reference index {reference} out of range")

    total = noise_cov.bins.copy()
    for cov in source_covs:
        total += cov.bins
    if epsilon_rel > 0:
        total = regularize(total, epsilon_rel)
    check_condition(total, "summed covariance after loading")

    rows = np.stack([cov.bins[:, reference, :] for cov in source_covs], axis=1)  # (F, N, M)
    return rows @ np.linalg.inv(total)


def _principal_component(spectrum: HermitianSpectrum) -> HermitianSpectrum:
    eigvals, eigvecs = np.linalg.eigh(spectrum.bins)
    lam = np.maximum(eigvals[:, -1], 0.0)  # (F,)
    u = eigvecs[:, :, -1]  # (F, M)
    rank_one = lam[:, None, None] * np.einsum("fm,fn->fmn", u, u.conj())
    return HermitianSpectrum(rank_one, spectrum.frequencies)


def build(covs: CovarianceSet, mode: str, reference: int = 0,
          epsilon_rel: float = DEFAULT_EPSILON_REL) -> BeamformerBank:
    """Build a beamformer bank of the requested mode from trained covariances."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose one of {MODES}")
    sources = sorted(covs.ensemble)
    if mode == "dynamic":
        missing = covs.missing_pairs()
        if missing:
            raise StarvedStateError(
                f"no training frames for (source, state) pairs: {missing}"
            )
        weights = {
            state: mwf_weights(
                [covs.per_state[(n, state)] for n in sources],
                covs.noise, reference, epsilon_rel,
            )
            for state in range(covs.state_count)
        }
    elif mode == "static":
        weights = {0: mwf_weights([covs.ensemble[n] for n in sources],
                                  covs.noise, reference, epsilon_rel)}
    else:
        rank_one = [_principal_component(covs.ensemble[n]) for n in sources]
        weights = {0: mwf_weights(rank_one, covs.noise, reference, epsilon_rel)}
    return BeamformerBank(
        mode=mode,
        weights=weights,
        reference=reference,
        frequencies=covs.frequencies.copy(),
    )


def apply_bank(bank: BeamformerBank, mixture: SpectralFrameTensor,
               states: StateSequence | None = None) -> np.ndarray:
    """Filter the mixture, returning source estimates of shape (T, F, N).

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
        return _filter(next(iter(bank.weights.values())), x)
    if states is None:
        raise ValueError("a dynamic bank needs a state sequence to apply")
    if states.frame_count != x.shape[0]:
        raise ValueError("state sequence length does not match the mixture")
    missing = sorted(set(states.labels.tolist()) - set(bank.weights))
    if missing:
        raise ValueError(f"no weights for states {missing}")
    out = np.empty((x.shape[0], x.shape[1], bank.source_count), dtype=np.complex128)
    # Each state's frames are gathered and filtered in order, a chunk of at
    # most one block at a time. BLAS may round a column differently by where
    # it falls in a product (whole tiles of up to 8 columns, then the rest),
    # and numpy takes a matrix-vector product for a single column, so chunks
    # hold a multiple of 8 frames and a lone last frame joins the chunk before
    # it: every frame gets the bits of one product over all its state's frames.
    chunk = 8 * max(1, (block_length(x[0].nbytes) - 1) // 8)
    for state in np.unique(states.labels):
        frames = np.flatnonzero(states.labels == state)
        starts = list(range(0, len(frames), chunk))
        if len(starts) > 1 and len(frames) - starts[-1] == 1:
            starts.pop()
        for a, b in zip(starts, starts[1:] + [len(frames)]):
            rows = frames[a:b]
            out[rows] = _filter(bank.weights[int(state)], x[rows])
    return out


def _filter(weights, frames):
    """Source estimates (T, F, N) of frames (T, F, M) under weights (F, N, M),
    one batched zgemm over (F, N, M) x (F, M, T)."""
    return (weights @ frames.transpose(1, 2, 0)).transpose(2, 0, 1)
