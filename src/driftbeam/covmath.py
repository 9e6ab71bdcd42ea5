"""Hermitian covariance utilities for spatial statistics.

Gaussian divergence between zero-mean complex distributions, diagonal
loading, and the closed-form effect of random per-microphone delay offsets
on steering-vector covariances.
"""

from dataclasses import dataclass

import numpy as np

from .stft import block_length

# Relative tolerance for the Hermitian-symmetry check of covariance bins.
HERMITIAN_RTOL = 1e-12
# Eigenvalues may undershoot zero by this fraction of the mean eigenvalue.
PSD_RTOL = 1e-10
# Condition-number guard for covariance inversion.
CONDITION_LIMIT = 1e12
# Default diagonal-loading fraction of the mean eigenvalue.
DEFAULT_EPSILON_REL = 1e-3


class IllConditionedError(ValueError):
    """Raised when a covariance matrix is too ill-conditioned to invert."""


@dataclass(frozen=True)
class HermitianSpectrum:
    """One Hermitian PSD matrix per frequency bin, or a stack of such spectra.

    Attributes:
        bins: complex array of shape (..., F, M, M)
        frequencies: physical frequency of each bin in rad/s, shape (F,)

    The checks run one cache-sized block of matrices at a time, so a whole
    tensor is validated once without whole-tensor temporaries.
    """

    bins: np.ndarray
    frequencies: np.ndarray

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.complex128)
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        if bins.ndim < 3 or bins.shape[-1] != bins.shape[-2]:
            raise ValueError(f"bins must have shape (..., F, M, M), got {bins.shape}")
        if freqs.shape != (bins.shape[-3],):
            raise ValueError(
                f"frequencies length {freqs.shape} does not match bin count {bins.shape[-3]}"
            )
        m = bins.shape[-1]
        matrices = bins.reshape(-1, m, m)
        step = block_length(m * m * matrices.itemsize)
        for lo in range(0, len(matrices), step):
            _check_block(matrices[lo:lo + step], lo, bins.shape[:-2])
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "frequencies", freqs)

    @property
    def bin_count(self) -> int:
        return self.bins.shape[-3]

    @property
    def mic_count(self) -> int:
        return self.bins.shape[-1]


def _check_block(block, offset, stack_shape):
    """Raise unless every matrix of block (K, M, M), the matrices offset..
    offset+K-1 of a stack shaped stack_shape, is finite, Hermitian and PSD;
    name the first failures by bin, or by index tuple in a deeper stack."""
    if not np.isfinite(block).all():
        raise ValueError("bins contain non-finite entries")
    defect = np.abs(block - block.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    scale = np.abs(block).max(axis=(1, 2))
    bad, kind = defect > HERMITIAN_RTOL * np.maximum(scale, np.finfo(float).tiny), "Hermitian"
    if not bad.any():
        mean_eig = np.trace(block, axis1=1, axis2=2).real / block.shape[1]
        delta = PSD_RTOL * np.maximum(mean_eig, 0.0)
        # A Cholesky of bins + (delta/2) I succeeds only when the smallest
        # eigenvalue is above -delta/2, so success settles the check at a
        # fraction of an eigvalsh; on failure eigvalsh decides and names the bins.
        try:
            np.linalg.cholesky(block + 0.5 * delta[:, None, None] * np.eye(block.shape[1]))
            return
        except np.linalg.LinAlgError:
            bad, kind = np.linalg.eigvalsh(block)[:, 0] < -delta, "positive semidefinite"
    if bad.any():
        flat = offset + np.flatnonzero(bad)[:8]
        where = flat.tolist() if len(stack_shape) == 1 else \
            list(zip(*(axis.tolist() for axis in np.unravel_index(flat, stack_shape))))
        raise ValueError(f"bins not {kind} at indices {where}")


def _square(r, name):
    r = np.asarray(r, dtype=np.complex128)
    if r.ndim < 2 or r.shape[-1] != r.shape[-2]:
        raise ValueError(f"{name} must be square matrices, got shape {r.shape}")
    return r


def check_condition(r, name):
    """Raise IllConditionedError naming the bins of the stack r (..., M, M)
    whose smallest eigenvalue is not positive or whose condition number
    exceeds CONDITION_LIMIT. A safety check before an inversion, so it runs
    a full eigvalsh."""
    eigs = np.linalg.eigvalsh(r)
    bad = (eigs[..., 0] <= 0) | (eigs[..., -1] > CONDITION_LIMIT * eigs[..., 0])
    if bad.any():
        raise IllConditionedError(
            f"{name} is singular or has condition number above {CONDITION_LIMIT:.0e} "
            f"at bins {np.flatnonzero(bad)[:8].tolist()}; apply regularize() "
            "before inverting"
        )


def gaussian_divergence(r1, r2):
    """Divergence in nats between zero-mean Gaussians with covariances r1, r2.

    Equal to 0.5 * [trace(R1 R2^{-1} - I) - ln(det R1 / det R2)], evaluated
    as 0.5 * sum(lam - log1p(lam)) over the eigenvalues lam of the whitened
    difference R2^{-1/2} (R1 - R2) R2^{-H/2}. The log1p form stays accurate
    when r1 and r2 are nearly equal, where the trace and log-determinant
    terms would cancel catastrophically. A matrix with an eigenvalue below
    lam = -0.5 is far from r2, with a divergence of at least 0.097 nats, so
    nothing cancels there: its log terms are taken together as
    ln det R1 - ln det R2, each from the diagonal of a Cholesky factor, and
    an r1 far smaller than r2 still gets a finite divergence. When r1 has no
    Cholesky factor (singular or indefinite), those logarithms come from the
    eigenvalues of the whitened R1 instead, and such an r1 gets inf.

    r1 and r2 are matrices or stacks (..., M, M) that broadcast against each
    other; the result has the broadcast stack shape, and is a float for two
    plain matrices.
    """
    r1 = _square(r1, "r1")
    r2 = _square(r2, "r2")
    if r1.shape[-1] != r2.shape[-1]:
        raise ValueError(f"dimension mismatch: {r1.shape} vs {r2.shape}")
    check_condition(r2, "r2")
    chol = np.linalg.cholesky(r2)
    inv_chol = np.linalg.inv(chol)
    lam = np.linalg.eigvalsh(_hermitian_part(
        inv_chol @ (r1 - r2) @ inv_chol.conj().swapaxes(-1, -2)))
    div = np.asarray(0.5 * np.sum(lam - np.log1p(np.maximum(lam, -0.5)), axis=-1))
    far = lam[..., 0] < -0.5  # eigvalsh ascends
    if far.any():
        stack = lam.shape[:-1] + r1.shape[-2:]
        r1_far, lam_far = np.broadcast_to(r1, stack)[far], lam[far]
        try:
            div[far] = 0.5 * (np.sum(lam_far, axis=-1) - _log_det(np.linalg.cholesky(r1_far))
                              + _log_det(np.broadcast_to(chol, stack)[far]))
        except np.linalg.LinAlgError:
            # A singular or indefinite r1: take log(mu) from the eigenvalues mu
            # of the whitened r1, clipped at 0 so that it gets inf (lam = mu - 1
            # would keep a small mu only to an ulp of 1); both spectra ascend,
            # so mu pairs with lam index by index.
            inv_far = np.broadcast_to(inv_chol, stack)[far]
            mu = np.linalg.eigvalsh(_hermitian_part(
                inv_far @ r1_far @ inv_far.conj().swapaxes(-1, -2)))
            with np.errstate(divide="ignore"):  # singular r1: infinite divergence
                log1p_lam = np.where(lam_far < -0.5, np.log(np.maximum(mu, 0.0)),
                                     np.log1p(np.maximum(lam_far, -0.5)))
            div[far] = 0.5 * np.sum(lam_far - log1p_lam, axis=-1)
    return float(div) if div.ndim == 0 else div


def _log_det(chol):
    """ln det R of each matrix R = L L^H of a stack, from its Cholesky factors L."""
    return 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real), axis=-1)


def _hermitian_part(r):
    return 0.5 * (r + r.conj().swapaxes(-1, -2))


def _check_sigma(sigma):
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")


def perturbed_covariance(r, omega, sigma) -> np.ndarray:
    """Ensemble covariance of a unit-diagonal source covariance under random delays.

    With each microphone delayed by an independent N(0, sigma^2) offset (sigma
    in seconds, finite and nonnegative), every off-diagonal entry shrinks by
    exp(-(omega*sigma)^2) and the lost energy moves onto the diagonal, which
    is preserved exactly:

        out = exp(-omega^2 sigma^2) * r + (1 - exp(-omega^2 sigma^2)) * I
    """
    _check_sigma(sigma)
    r = _square(r, "r")
    if r.ndim != 2:
        raise ValueError(f"r must be a single matrix, got shape {r.shape}")
    if np.abs(np.diagonal(r) - 1.0).max() > 1e-8:
        raise ValueError("perturbed_covariance expects a unit-diagonal (power-normalized) matrix")
    att = np.exp(-((omega * sigma) ** 2))
    out = att * r + (1.0 - att) * np.eye(r.shape[0])
    np.fill_diagonal(out, np.diagonal(r))
    return out


def far_field_divergence(tau1, tau2, omega, sigma):
    """Closed-form divergence between two randomly-offset rank-one source covariances.

    tau1 and tau2 are the (M,) arrival delays of two plane waves in seconds,
    omega a grid of angular frequencies, and sigma the std of the independent
    Gaussian delay offsets, finite and positive. At each omega both
    covariances are the perturbed outer products of the unit-modulus steering
    vectors a = exp(j*omega*tau), so their determinants coincide and the
    divergence reduces to

        (M^2 - |a1^H a2|^2) / (2 (e^x - 1) (e^x - 1 + M)),   x = (omega*sigma)^2.

    Returns an array shaped like omega. Decreasing in sigma, and in frequency
    for fixed steering phases; zero when the steering vectors match.
    """
    _check_sigma(sigma)
    if sigma == 0:
        raise ValueError(
            "sigma must be positive: the unperturbed covariances are rank one "
            "and the divergence is unbounded"
        )
    tau1 = np.asarray(tau1, dtype=np.float64)
    tau2 = np.asarray(tau2, dtype=np.float64)
    if tau1.ndim != 1 or tau1.shape != tau2.shape:
        raise ValueError(
            f"delays must be two equal-length vectors, got {tau1.shape} and {tau2.shape}"
        )
    omega = np.asarray(omega, dtype=np.float64)
    m = tau1.shape[0]
    a1 = np.exp(1j * omega[..., None] * tau1)
    a2 = np.exp(1j * omega[..., None] * tau2)
    overlap = np.abs(a1.conj()[..., None, :] @ a2[..., :, None])[..., 0, 0] ** 2
    em1 = np.expm1((omega * sigma) ** 2)
    return np.maximum(m * m - overlap, 0.0) / (2.0 * em1 * (em1 + m))


def regularize(r, epsilon_rel: float = DEFAULT_EPSILON_REL) -> np.ndarray:
    """Diagonal loading: r + eps*I with eps = epsilon_rel * trace(r)/M.

    Falls back to the absolute floor eps = epsilon_rel for zero-trace input.
    Accepts a single matrix or a stack (..., M, M).
    """
    if epsilon_rel <= 0:
        raise ValueError("epsilon_rel must be positive")
    r = _square(r, "r")
    m = r.shape[-1]
    tr = np.trace(r, axis1=-2, axis2=-1).real
    eps = np.where(tr > 0, epsilon_rel * tr / m, epsilon_rel)
    return r + eps[..., None, None] * np.eye(m)
