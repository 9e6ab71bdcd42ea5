"""Hermitian covariance utilities for spatial statistics.

Packed storage of Hermitian matrices (pack, unpack) and the check of packed
spectra, Gaussian divergence between zero-mean complex distributions, diagonal
loading, and the closed-form effect of random per-microphone delay offsets
on steering-vector covariances.
"""

import functools
import math
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


def pack(h, out=None) -> np.ndarray:
    """The upper triangles (..., P), P = M(M+1)/2, of matrices h (..., M, M),
    row by row (into out when given); the strict lower triangles are not read."""
    h = _square(h, "h")
    m = h.shape[-1]
    upper = _layout(m)[0]
    if out is None:
        out = np.empty((*h.shape[:-2], len(upper)), dtype=np.complex128)
    return np.take(h.reshape(*h.shape[:-2], m * m), upper, axis=-1, out=out, mode="clip")


def unpack(packed, out=None) -> np.ndarray:
    """Hermitian matrices (..., M, M) from their packed upper triangles (..., P)
    (see pack), into out when given, which must be C-contiguous: one
    cache-sized block of matrices at a time, each entry is gathered from the
    packed triangle and each strict lower entry conjugated, so the strict
    lower triangle is exactly the conjugate of the upper."""
    packed = np.asarray(packed, dtype=np.complex128)
    m = packed_order(packed)
    if out is None:
        out = np.empty((*packed.shape[:-1], m, m), dtype=np.complex128)
    elif out.shape != (*packed.shape[:-1], m, m) or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {packed.shape[:-1]} "
                         f"+ ({m}, {m})")
    stack, full = (packed, out) if packed.ndim > 1 else (packed[None], out[None])
    step = block_length(m * m * full.itemsize)
    for index in np.ndindex(stack.shape[:-2]):
        for lo in range(0, stack.shape[-2], step):
            _unpack_into(stack[index][lo:lo + step], full[index][lo:lo + step])
    return out


def packed_order(packed) -> int:
    """M of a packed stack (..., P) with P = M(M+1)/2 and M >= 1."""
    p = packed.shape[-1] if packed.ndim else 0
    m = (math.isqrt(8 * p + 1) - 1) // 2
    if m < 1 or m * (m + 1) // 2 != p:
        raise ValueError(f"packed Hermitian matrices need a last axis of M(M+1)/2 entries, "
                         f"got shape {packed.shape}")
    return m


@functools.cache
def _layout(m):
    """Read-only index tables of the packed M x M layout: the row-major
    positions of the upper triangle, in packed order; for each row-major
    position, the packed index of its entry, or of its upper partner below
    the diagonal; and the factors of the real and imaginary parts, -1 on the
    imaginary parts below the diagonal and +1 elsewhere, that conjugate those
    partners. The diagonal's packed indices are mirror[::m + 1]."""
    rows, cols = np.indices((m, m))
    upper = rows <= cols
    index = np.zeros((m, m), dtype=np.intp)
    index[upper] = np.arange(m * (m + 1) // 2)
    mirror = np.where(upper, index, index.T).ravel()
    signs = np.ones((m * m, 2))
    signs[~upper.ravel(), 1] = -1.0
    tables = np.flatnonzero(upper), mirror, signs.ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


def _unpack_into(packed, full):
    """Unpack a block: packed (K, P) into the C-contiguous full (K, M, M). One
    gather fills every entry and one product with the sign table conjugates
    the strict lower ones, both with long inner loops over the block."""
    m = full.shape[-1]
    _, mirror, signs = _layout(m)
    flat = full.reshape(len(full), m * m)
    np.take(packed, mirror, axis=-1, out=flat, mode="clip")
    parts = flat.view(np.float64)
    parts *= signs


@dataclass(frozen=True)
class HermitianSpectrum:
    """One Hermitian PSD matrix per frequency bin, or a stack of such spectra,
    each matrix packed as its upper triangle (see pack).

    Attributes:
        bins: complex array of shape (..., F, P), P = M(M+1)/2
        frequencies: physical frequency of each bin in rad/s, shape (F,)

    Off the diagonal a packed matrix is Hermitian by construction, so the
    Hermitian check is the diagonal's: twice an imaginary part, the defect
    |r - r^H| there, must stay within HERMITIAN_RTOL of the matrix's largest
    entry modulus. The finite check runs on the packed entries and the PSD
    check on each cache-sized block of matrices, unpacked into reused scratch,
    with no whole-tensor temporaries. containers.load_covariances runs the
    checks on the cells and noise of each container, where covariances enter
    the program.
    """

    bins: np.ndarray
    frequencies: np.ndarray

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.complex128)
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        if bins.ndim < 2:
            raise ValueError(f"bins must have shape (..., F, P), got {bins.shape}")
        m = packed_order(bins)
        if freqs.shape != (bins.shape[-2],):
            raise ValueError(
                f"frequencies length {freqs.shape} does not match bin count {bins.shape[-2]}"
            )
        matrices = bins.reshape(-1, bins.shape[-1])
        step = block_length(m * m * matrices.itemsize)
        scratch = np.empty((min(step, len(matrices)), m, m), dtype=np.complex128)
        for lo in range(0, len(matrices), step):
            _check_block(matrices[lo:lo + step], scratch, lo, bins.shape[:-1])
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "frequencies", freqs)


def _check_block(block, scratch, offset, stack_shape):
    """Raise unless every packed matrix of block (K, P), the matrices offset..
    offset+K-1 of a stack shaped stack_shape, is finite, Hermitian and PSD,
    unpacking them into scratch (>= K, M, M); name the first failures by bin,
    or by index tuple in a deeper stack."""
    if not np.isfinite(block).all():
        raise ValueError("bins contain non-finite entries")
    m = scratch.shape[-1]
    diagonal = block[:, _layout(m)[1][::m + 1]]
    defect = 2.0 * np.abs(diagonal.imag).max(axis=1)
    scale = np.abs(block).max(axis=1)
    bad, kind = defect > HERMITIAN_RTOL * np.maximum(scale, np.finfo(float).tiny), "Hermitian"
    if not bad.any():
        full = scratch[:len(block)]
        _unpack_into(block, full)
        delta = PSD_RTOL * np.maximum(diagonal.real.sum(axis=1) / m, 0.0)
        # A Cholesky of bins + (delta/2) I succeeds only when the smallest
        # eigenvalue is above -delta/2, so success settles the check at a
        # fraction of an eigvalsh; on failure eigvalsh decides and names the bins.
        full.reshape(len(block), m * m)[:, ::m + 1] += 0.5 * delta[:, None]
        try:
            np.linalg.cholesky(full)
            return
        except np.linalg.LinAlgError:
            _unpack_into(block, full)  # the matrices again, unloaded
            bad, kind = np.linalg.eigvalsh(full)[:, 0] < -delta, "positive semidefinite"
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
