import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_triangular

from driftbeam import covmath, stft
from driftbeam.covmath import (
    PSD_RTOL,
    HermitianSpectrum,
    IllConditionedError,
    far_field_divergence,
    gaussian_divergence,
    pack,
    perturbed_covariance,
    regularize,
    unpack,
)


def random_psd(rng, m, rank=None):
    rank = rank or m
    a = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    return a @ a.conj().T / rank


def random_delays(rng, m, omega):
    """Arrival delays whose steering phases at omega are uniform on (-pi, pi)."""
    return rng.uniform(-np.pi, np.pi, m) / omega


def reference_divergence(r1, r2):
    """Scalar divergence by triangular solves, independent of the batched kernel."""
    chol = np.linalg.cholesky(r2)
    half = solve_triangular(chol, r1 - r2, lower=True)
    sym = solve_triangular(chol, half.conj().T, lower=True).conj().T
    lam = np.linalg.eigvalsh(0.5 * (sym + sym.conj().T))
    lam = np.maximum(lam, -1.0 + 1e-18)
    return float(0.5 * np.sum(lam - np.log1p(lam)))


@st.composite
def psd_stacks(draw, count, m):
    """(count, m, m) PSD matrices of random rank, scaled to unit trace and
    loaded with DEFAULT_EPSILON_REL as the divergence curves load them."""
    rank = draw(st.integers(1, m))
    parts = draw(hnp.arrays(np.int64, (2, count, m, rank), elements=st.integers(-9, 9)))
    a = parts[0] + 1j * parts[1]
    r = a @ a.conj().transpose(0, 2, 1)
    trace = np.trace(r, axis1=1, axis2=2).real
    r /= np.where(trace > 0, trace, 1.0)[:, None, None]
    return regularize(r)


@st.composite
def divergence_inputs(draw):
    """(r1 stack, r2) with r2 either one matrix or a stack as long as r1."""
    m = draw(st.integers(1, 6))
    count = draw(st.integers(1, 5))
    r1 = draw(psd_stacks(count, m))
    r2 = draw(psd_stacks(count, m)) if draw(st.booleans()) else draw(psd_stacks(1, m))[0]
    return r1, r2


@st.composite
def hermitian_stacks(draw):
    """(stack, M): exactly Hermitian matrices (..., M, M), M in 1..16, over a
    stack shape of up to three axes: complex entries from small integers
    scaled by a power of two, each strict lower entry the conjugate of its
    upper partner (a zero's imaginary sign included) and a real diagonal."""
    m = draw(st.integers(1, 16))
    shape = draw(st.sampled_from([(), (1,), (7,), (3, 5), (2, 3, 4)]))
    parts = draw(hnp.arrays(np.int64, (2, *shape, m, m), elements=st.integers(-99, 99)))
    a = (parts[0] + 1j * parts[1]) * 2.0 ** draw(st.integers(-40, 40))
    h = np.where(np.triu(np.ones((m, m), bool), 1), a, a.swapaxes(-1, -2).conj())
    return np.where(np.eye(m, dtype=bool), a.real.astype(complex), h), m


class TestPacking:
    @settings(max_examples=60, deadline=None)
    @given(case=hermitian_stacks())
    def test_unpack_of_pack_is_exact(self, case):
        h, m = case
        packed = pack(h)
        assert packed.shape == (*h.shape[:-2], m * (m + 1) // 2)
        np.testing.assert_array_equal(unpack(packed).view(np.uint64), h.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(case=hermitian_stacks(), imaginary_diagonal=st.booleans())
    def test_pack_of_unpack_is_exact(self, case, imaginary_diagonal):
        # Any packed array, even one whose diagonal has imaginary parts, is
        # kept entry for entry.
        h, m = case
        packed = pack(h) + (1j if imaginary_diagonal else 0.0)
        np.testing.assert_array_equal(pack(unpack(packed)).view(np.uint64),
                                      packed.view(np.uint64))

    @settings(max_examples=60, deadline=None)
    @given(case=hermitian_stacks())
    def test_lower_triangle_is_the_conjugate_of_the_upper(self, case):
        h, m = case
        # Break the symmetry of h: pack reads only the upper triangle.
        skewed = h + np.tril(np.ones((m, m)), -1)
        full = unpack(pack(skewed))
        lower = np.tril_indices(m, -1)
        np.testing.assert_array_equal(full[..., lower[0], lower[1]],
                                      full[..., lower[1], lower[0]].conj())
        np.testing.assert_array_equal(np.triu(full), np.triu(h))

    @settings(max_examples=40, deadline=None)
    @given(case=hermitian_stacks(), matrices=st.sampled_from([1, 2, 5, 455, 1 << 30]))
    def test_blocks_equal_one_shot(self, case, matrices):
        h, m = case
        packed = pack(h)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stft, "BLOCK_BYTES", 1 << 62)
            whole = unpack(packed)
            patch.setattr(stft, "BLOCK_BYTES", matrices * m * m * 16)
            blocked = unpack(packed)
        np.testing.assert_array_equal(blocked.view(np.uint64), whole.view(np.uint64))

    def test_strided_stacks_unpack_as_their_copies(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 3, 6, 5, 5)) + 1j * rng.standard_normal((4, 3, 6, 5, 5))
        packed = pack(a @ a.conj().swapaxes(-1, -2))
        for view in (packed[:, 1], packed.swapaxes(0, 1), packed[::2, :, ::3]):
            np.testing.assert_array_equal(unpack(view), unpack(view.copy()))

    @pytest.mark.parametrize("p", [0, 2, 4, 7])
    def test_a_last_axis_that_is_no_triangle_rejected(self, p):
        with pytest.raises(ValueError, match=r"M\(M\+1\)/2"):
            unpack(np.zeros((3, p), complex))


class TestGaussianDivergence:
    def test_identical_matrices_zero(self):
        assert gaussian_divergence(np.eye(3), np.eye(3)) == pytest.approx(0.0, abs=1e-12)

    def test_identity_vs_twice_identity(self):
        # 0.5 * [trace(0.5 I - I) - ln(1/4)] = ln 2 - 0.5
        d = gaussian_divergence(np.eye(2), 2.0 * np.eye(2))
        assert d == pytest.approx(np.log(2.0) - 0.5, abs=1e-12)

    def test_zero_for_random_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            r = regularize(random_psd(rng, 5), 1e-6)
            assert abs(gaussian_divergence(r, r)) < 1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = rng.integers(2, 7)
            r1 = regularize(random_psd(rng, m), 1e-4)
            r2 = regularize(random_psd(rng, m), 1e-4)
            assert gaussian_divergence(r1, r2) >= -1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            gaussian_divergence(np.eye(2), np.eye(3))

    def test_singular_second_argument(self):
        singular = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(IllConditionedError, match="regularize"):
            gaussian_divergence(np.eye(2), singular)

    def test_ill_conditioned_second_argument(self):
        bad = np.diag([1.0, 1e-14]).astype(complex)
        with pytest.raises(IllConditionedError):
            gaussian_divergence(np.eye(2), bad)

    @settings(max_examples=200, deadline=None)
    @given(divergence_inputs())
    def test_stack_matches_scalar(self, inputs):
        r1, r2 = inputs
        batch = gaussian_divergence(r1, r2)
        r2_stack = np.broadcast_to(r2, r1.shape)
        single = [reference_divergence(a, b) for a, b in zip(r1, r2_stack)]
        assert batch.shape == (r1.shape[0],)
        np.testing.assert_allclose(batch, single, rtol=1e-10, atol=1e-12)
        assert (batch >= 0).all()
        assert np.abs(gaussian_divergence(r1, r1)).max() < 1e-10

    def test_plain_matrices_give_a_float(self):
        assert isinstance(gaussian_divergence(np.eye(2), 2.0 * np.eye(2)), float)

    def test_tiny_r1_keeps_its_log_determinant(self):
        # 1 + lam is 1 - 1 in float64 here, so the log must come from r1 itself.
        m = 3
        d = gaussian_divergence(1e-20 * np.eye(m), np.eye(m))
        assert d == pytest.approx(0.5 * m * (1e-20 - 1.0 - np.log(1e-20)), rel=1e-14)
        stack = np.stack([1e-20 * np.eye(m), 0.25 * np.eye(m), np.diag([4.0, 1e-20, 1.0])])
        np.testing.assert_allclose(
            gaussian_divergence(stack, np.eye(m)),
            [d, 0.5 * m * (-0.75 - np.log(0.25)),
             0.5 * (3.0 - np.log(4.0) + 1e-20 - 1.0 - np.log(1e-20))], rtol=1e-14)

    def test_singular_r1_gives_infinity(self):
        assert gaussian_divergence(np.diag([1.0, 0.0]), np.eye(2)) == np.inf

    def test_indefinite_r1_gives_infinity(self):
        # Two negative eigenvalues make a positive determinant, so a signed
        # log-determinant would give a finite divergence here.
        r1 = np.diag([1.0, -1e-3, -1e-3, 1.0])
        assert gaussian_divergence(r1, np.eye(4)) == np.inf
        # The other member of the stack keeps its finite divergence.
        stacked = gaussian_divergence(np.stack([r1, 0.25 * np.eye(4)]), 2.0 * np.eye(4))
        assert stacked[0] == np.inf
        assert stacked[1] == pytest.approx(2.0 * (0.125 - 1.0 - np.log(0.125)), rel=1e-14)

    def test_far_matrices_take_no_second_eigensolve(self, monkeypatch):
        # One eigvalsh checks r2's condition and one gives the whitened
        # difference; a far r1 with a Cholesky factor needs no third.
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        d = gaussian_divergence(np.stack([0.01 * np.eye(3), np.eye(3)]), 2.0 * np.eye(3))
        assert len(calls) == 2
        np.testing.assert_allclose(d, [1.5 * (0.005 - 1.0 - np.log(0.005)),
                                       1.5 * (0.5 - 1.0 - np.log(0.5))], rtol=1e-14)

    def test_far_near_and_tiny_members_match_the_closed_form(self):
        # r1 = U diag(a) U^H against r2 = U diag(b) U^H diverge by
        # 0.5 * sum(x - 1 - ln x) over the ratios x = a / b.
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        b = np.array([1.0, 2.0, 3.0, 0.5])
        ratios = np.array([
            [0.2, 1.0, 1.2, 0.05],               # far: some x < 0.5
            [1.2, 0.9, 1.1, 0.55],               # near: no x below 0.5
            [1e-20, 2e-20, 5e-21, 1e-20],        # tiny: 1 + lam is 1 - 1 in float64
            [3.0, 0.4, 1.0, 1.0],                # far with a larger x
        ])
        r1 = (u * (b * ratios)[:, None, :]) @ u.conj().T
        r2 = (u * b) @ u.conj().T
        expected = 0.5 * np.sum(ratios - 1.0 - np.log(ratios), axis=1)
        np.testing.assert_allclose(gaussian_divergence(r1, r2), expected, rtol=1e-12)
        np.testing.assert_allclose(gaussian_divergence(r1, np.broadcast_to(r2, r1.shape)),
                                   expected, rtol=1e-12)

    def test_ill_conditioned_stack_member_rejected(self):
        stack = np.stack([np.eye(2), np.diag([1.0, 1e-14])]).astype(complex)
        with pytest.raises(IllConditionedError):
            gaussian_divergence(np.eye(2), stack)


class TestPerturbedCovariance:
    def test_zero_sigma_is_identity_map(self):
        rng = np.random.default_rng(3)
        a = np.exp(1j * rng.uniform(-np.pi, np.pi, 5))
        r = np.outer(a, a.conj())
        out = perturbed_covariance(r, 2000.0, 0.0)
        np.testing.assert_array_equal(out, r)

    def test_large_sigma_approaches_identity(self):
        rng = np.random.default_rng(4)
        a = np.exp(1j * rng.uniform(-np.pi, np.pi, 4))
        r = np.outer(a, a.conj())
        np.fill_diagonal(r, 1.0)
        out = perturbed_covariance(r, 10.0, 1.0)
        assert np.abs(out - np.eye(4)).max() < 1e-40

    def test_diagonal_preserved_exactly(self):
        rng = np.random.default_rng(5)
        a = np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
        r = np.outer(a, a.conj())
        out = perturbed_covariance(r, 1234.5, 1e-4)
        np.testing.assert_array_equal(np.diagonal(out), np.diagonal(r))

    def test_off_diagonal_attenuation_against_monte_carlo(self):
        # Two microphones, omega*sigma = 1: the off-diagonal scale factor is
        # E[exp(j*omega*(d1 - d2))] = exp(-1), checked against a brute-force
        # average over a million Gaussian delay draws.
        omega, sigma = 2.0 * np.pi * 1000.0, 1.0 / (2.0 * np.pi * 1000.0)
        a = np.array([1.0, np.exp(1j * np.pi / 4)])
        out = perturbed_covariance(np.outer(a, a.conj()), omega, sigma)
        assert abs(out[0, 1]) == pytest.approx(np.exp(-1.0), abs=1e-12)

        rng = np.random.default_rng(6)
        draws = rng.normal(0.0, sigma, (1_000_000, 2))
        samples = np.exp(1j * omega * (draws[:, 0] - draws[:, 1]))
        se = samples.real.std() / np.sqrt(len(samples))
        assert abs(samples.mean().real - np.exp(-1.0)) < 3.0 * se
        assert abs(samples.mean().imag) < 3.0 * se

    def test_output_hermitian_psd_for_sigma_grid(self):
        rng = np.random.default_rng(7)
        a = np.exp(1j * rng.uniform(-np.pi, np.pi, 5))
        r = np.outer(a, a.conj())
        for sigma in (0.0, 1e-6, 1e-4, 1e-2):
            out = perturbed_covariance(r, 5000.0, sigma)
            assert np.abs(out - out.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(out).min() > -1e-10

    def test_nonunit_diagonal_rejected(self):
        with pytest.raises(ValueError, match="unit-diagonal"):
            perturbed_covariance(2.0 * np.eye(3), 100.0, 1e-4)

    def test_ensemble_average_matches_monte_carlo_entrywise(self):
        # Brute-force ensemble of perturbed rank-one outer products against
        # the closed form, entrywise within three standard errors.
        rng = np.random.default_rng(8)
        m, omega = 3, 2.0 * np.pi * 3000.0
        sigma = 0.8 / omega
        a = np.exp(1j * rng.uniform(-np.pi, np.pi, m))
        theory = perturbed_covariance(np.outer(a, a.conj()), omega, sigma)
        draws = rng.normal(0.0, sigma, (100_000, m))
        b = a[None, :] * np.exp(1j * omega * draws)
        outers = np.einsum("km,kn->kmn", b, b.conj())
        mc = outers.mean(axis=0)
        se = np.sqrt((outers.real.var(axis=0) + outers.imag.var(axis=0)) / len(b))
        assert (np.abs(mc - theory) <= 3.0 * se + 1e-12).all()


class TestFarFieldDivergence:
    def test_identical_steering_vectors(self):
        tau = random_delays(np.random.default_rng(9), 5, 4000.0)
        assert far_field_divergence(tau, tau, 4000.0, 1e-4) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_hand_value(self):
        # M = 4, orthogonal steering, exp(omega^2 sigma^2) = 2:
        # 16 / (2 * 1 * 5) = 1.6
        tau1 = np.zeros(4)
        tau2 = np.array([0.0, np.pi, 0.0, np.pi])
        d = far_field_divergence(tau1, tau2, 1.0, np.sqrt(np.log(2.0)))
        assert d == pytest.approx(1.6, abs=1e-12)

    def test_matches_divergence_of_perturbed_covariances(self):
        rng = np.random.default_rng(10)
        for m in (2, 3, 4, 5, 6, 7, 8):
            for _ in range(15):
                omega = rng.uniform(500.0, 50000.0)
                sigma = rng.uniform(0.1, 3.0) / omega
                tau1 = random_delays(rng, m, omega)
                tau2 = random_delays(rng, m, omega)
                closed = far_field_divergence(tau1, tau2, omega, sigma)
                a1, a2 = np.exp(1j * omega * tau1), np.exp(1j * omega * tau2)
                r1 = perturbed_covariance(np.outer(a1, a1.conj()), omega, sigma)
                r2 = perturbed_covariance(np.outer(a2, a2.conj()), omega, sigma)
                composed = gaussian_divergence(r1, r2)
                assert closed == pytest.approx(composed, rel=1e-9)

    def test_zero_sigma_rejected(self):
        rng = np.random.default_rng(11)
        tau1, tau2 = random_delays(rng, 3, 100.0), random_delays(rng, 3, 100.0)
        with pytest.raises(ValueError, match="sigma"):
            far_field_divergence(tau1, tau2, 100.0, 0.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1e-4])
    def test_sigma_must_be_finite_and_nonnegative(self, sigma):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            far_field_divergence(np.zeros(3), np.zeros(3), 100.0, sigma)

    @pytest.mark.parametrize("m", [1, 5, 12])
    def test_grid_equals_the_per_bin_vdot_form(self, m):
        # One call over a frequency grid gives, float for float, the closed
        # form evaluated one bin at a time with np.vdot.
        rng = np.random.default_rng(14)
        tau1, tau2 = rng.uniform(-1e-3, 1e-3, (2, m))
        omegas = 2.0 * np.pi * np.linspace(62.5, 8000.0, 128)
        sigma = 2e-5
        grid = far_field_divergence(tau1, tau2, omegas, sigma)
        assert grid.shape == omegas.shape
        for w, value in zip(omegas, grid):
            a1, a2 = np.exp(1j * w * tau1), np.exp(1j * w * tau2)
            em1 = np.expm1((w * sigma) ** 2)
            overlap = np.abs(np.vdot(a1, a2)) ** 2
            assert value == max(m * m - overlap, 0.0) / (2.0 * em1 * (em1 + m))

    def test_delay_length_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        tau = random_delays(rng, 3, 100.0)
        with pytest.raises(ValueError, match="equal-length"):
            far_field_divergence(tau, tau[:2], 100.0, 1e-4)

    def test_strictly_decreasing_in_frequency_and_sigma(self):
        # Fixed steering phases, the frequency enters only through the
        # attenuation exponent.
        rng = np.random.default_rng(13)
        phases1 = rng.uniform(-np.pi, np.pi, 6)
        phases2 = rng.uniform(-np.pi, np.pi, 6)
        sigma = 2e-5
        omegas = np.linspace(500.0, 60000.0, 40)
        curve = [far_field_divergence(phases1 / w, phases2 / w, w, sigma) for w in omegas]
        assert (np.diff(curve) < 0).all()

        omega = 10000.0
        sigmas = np.linspace(1e-6, 1e-4, 40)
        curve = [far_field_divergence(phases1 / omega, phases2 / omega, omega, s) for s in sigmas]
        assert (np.diff(curve) < 0).all()


@st.composite
def spectra_with_min_eigenvalue(draw, ratio):
    """(bins, index): a PSD stack whose bin `index` has smallest eigenvalue
    ratio * delta, delta being that bin's PSD_RTOL * mean eigenvalue. The
    other bins are full rank, rank one or all zero."""
    m = draw(st.integers(2, 6))
    count = draw(st.integers(1, 5))
    index = draw(st.integers(0, count - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bins = np.empty((count, m, m), complex)
    for k in range(count):
        q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        eigs = rng.uniform(0.1, 10.0, m) * 10.0 ** draw(st.integers(-6, 6))
        kind = "target" if k == index else draw(st.sampled_from(["full", "rank_one", "zero"]))
        if kind == "target":
            # Solve lam = ratio * PSD_RTOL * (sum(others) + lam) / m for lam.
            eigs[0] = ratio * PSD_RTOL * eigs[1:].sum() / (m - ratio * PSD_RTOL)
        elif kind == "rank_one":
            eigs[1:] = 0.0
        elif kind == "zero":
            eigs[:] = 0.0
        r = (q * eigs) @ q.conj().T
        bins[k] = 0.5 * (r + r.conj().T)
    return bins, index


class TestRegularize:
    def test_identity_scaling(self):
        out = regularize(np.eye(3), 0.001)
        np.testing.assert_allclose(out, 1.001 * np.eye(3), rtol=0, atol=1e-15)

    def test_rank_one_loading_eigenvalues(self):
        # trace = 2, M = 2: eps = 0.1 * 2 / 2 = 0.1, eigenvalues {2.1, 0.1}
        a = np.array([1.0, 1.0], complex)
        out = regularize(np.outer(a, a.conj()), 0.1)
        np.testing.assert_allclose(np.linalg.eigvalsh(out), [0.1, 2.1], atol=1e-12)

    def test_zero_trace_uses_absolute_floor(self):
        out = regularize(np.zeros((4, 4)), 0.01)
        np.testing.assert_allclose(out, 0.01 * np.eye(4), atol=1e-15)

    def test_output_positive_definite(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            r = random_psd(rng, 5, rank=2)
            out = regularize(r, 1e-3)
            assert np.linalg.eigvalsh(out).min() > 0

    def test_batched_input(self):
        rng = np.random.default_rng(15)
        stack = np.stack([random_psd(rng, 3) for _ in range(4)])
        out = regularize(stack, 1e-2)
        for i in range(4):
            np.testing.assert_allclose(out[i], regularize(stack[i], 1e-2))

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon_rel"):
            regularize(np.eye(2), 0.0)

    @settings(max_examples=100, deadline=None)
    @given(case=st.one_of(spectra_with_min_eigenvalue(-0.99),
                          spectra_with_min_eigenvalue(0.0)),
           log_epsilon=st.floats(-6.0, 0.0))
    def test_loaded_condition_number_bounded(self, case, log_epsilon):
        # Loading by eps = epsilon_rel * trace / M puts the largest eigenvalue at
        # most trace + eps and the smallest at least eps, so the condition number
        # is at most 1 + M / epsilon_rel. Stacks that HermitianSpectrum accepts
        # may reach down to -PSD_RTOL * trace / M, which loosens the bound by a
        # factor of about 1 + 2 PSD_RTOL / epsilon_rel; 1e-8 more covers eigvalsh
        # rounding.
        bins, _ = case
        epsilon_rel = 10.0 ** log_epsilon
        m = bins.shape[-1]
        checked = HermitianSpectrum(pack(bins), np.zeros(len(bins))).bins
        eigs = np.linalg.eigvalsh(regularize(unpack(checked), epsilon_rel))
        slack = 2.0 * PSD_RTOL / epsilon_rel + 1e-8
        assert (eigs[:, 0] > 0).all()
        assert (eigs[:, -1] / eigs[:, 0] <= (1.0 + m / epsilon_rel) * (1.0 + slack)).all()


class TestPsdCheck:
    @settings(max_examples=150, deadline=None)
    @given(case=st.one_of(spectra_with_min_eigenvalue(-0.5),
                          spectra_with_min_eigenvalue(-0.99),
                          spectra_with_min_eigenvalue(0.0)))
    def test_eigenvalues_above_minus_delta_accepted(self, case):
        bins, _ = case
        spec = HermitianSpectrum(pack(bins), np.zeros(len(bins)))
        np.testing.assert_array_equal(unpack(spec.bins), bins)

    @settings(max_examples=150, deadline=None)
    @given(case=spectra_with_min_eigenvalue(-2.0))
    def test_eigenvalue_below_minus_delta_rejected_and_named(self, case):
        bins, index = case
        with pytest.raises(ValueError, match=rf"semidefinite at indices \[{index}\]"):
            HermitianSpectrum(pack(bins), np.zeros(len(bins)))

    def test_zero_and_rank_one_stacks_accepted(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        rank_one = 7.0 * np.einsum("fm,fn->fmn", u, u.conj())
        HermitianSpectrum(pack(np.zeros((3, 5, 5), complex)), np.zeros(3))
        HermitianSpectrum(pack(rank_one), np.zeros(4))
        HermitianSpectrum(pack(np.concatenate([rank_one, np.zeros((1, 5, 5))])), np.zeros(5))

    def test_positive_definite_stack_needs_no_eigenvalues(self, monkeypatch):
        def no_eigvalsh(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        rng = np.random.default_rng(4)
        bins = np.stack([random_psd(rng, 6) for _ in range(9)])
        monkeypatch.setattr(covmath.np.linalg, "eigvalsh", no_eigvalsh)
        HermitianSpectrum(pack(bins), np.zeros(9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bins_rejected(self, bad):
        bins = np.stack([np.eye(3, dtype=complex)] * 2)
        bins[1, 1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            HermitianSpectrum(pack(bins), np.zeros(2))


class TestBlockedValidation:
    @pytest.mark.parametrize("shape, position", [((24,), "23"), ((2, 3, 4), r"\(1, 2, 3\)")],
                             ids=["bins", "tensor"])
    @pytest.mark.parametrize("defect", ["non_hermitian", "indefinite"])
    def test_last_block_defect_named(self, monkeypatch, shape, position, defect):
        # Five 3x3 matrices a block: 24 matrices take blocks at 0, 5, ..., 20,
        # and the defect sits in the last matrix of the last block.
        rng = np.random.default_rng(17)
        bins = np.stack([random_psd(rng, 3) for _ in range(24)])
        if defect == "non_hermitian":
            bins[-1, 2, 2] += 1j
            message = "not Hermitian"
        else:
            bins[-1] = np.diag([1.0, 1.0, -1.0])
            message = "not positive semidefinite"
        offsets = []
        check = covmath._check_block

        def recorded(block, scratch, offset, stack_shape):
            offsets.append(offset)
            check(block, scratch, offset, stack_shape)

        monkeypatch.setattr(stft, "BLOCK_BYTES", 5 * bins[0].nbytes)
        monkeypatch.setattr(covmath, "_check_block", recorded)
        with pytest.raises(ValueError, match=rf"{message} at indices \[{position}\]"):
            HermitianSpectrum(pack(bins).reshape(*shape, 6), np.zeros(shape[-1]))
        assert offsets == [0, 5, 10, 15, 20]


class TestTypes:
    def test_hermitian_spectrum_accepts_valid(self):
        rng = np.random.default_rng(16)
        bins = np.stack([random_psd(rng, 4) for _ in range(8)])
        freqs = np.linspace(0.0, 1000.0, 8)
        spec = HermitianSpectrum(pack(bins), freqs)
        np.testing.assert_array_equal(spec.bins, pack(bins))
        np.testing.assert_array_equal(spec.frequencies, freqs)

    @staticmethod
    def with_imaginary_diagonal(part):
        # Off the diagonal a packed matrix is Hermitian by construction; on it,
        # the defect |r - r^H| is twice the imaginary part, and it may reach
        # HERMITIAN_RTOL times the largest entry modulus, here 4.
        bins = np.zeros((2, 3, 3), complex)
        bins[:] = np.diag([4.0, 2.0, 1.0])
        bins[1, 2, 2] += 1j * part * covmath.HERMITIAN_RTOL * 4.0
        return pack(bins)

    def test_hermitian_spectrum_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match=r"not Hermitian at indices \[1\]"):
            HermitianSpectrum(self.with_imaginary_diagonal(0.6), np.zeros(2))

    def test_hermitian_spectrum_accepts_a_diagonal_defect_within_tolerance(self):
        HermitianSpectrum(self.with_imaginary_diagonal(0.4), np.zeros(2))

    def test_hermitian_spectrum_rejects_indefinite(self):
        bins = pack(np.stack([np.diag([1.0, -0.5]).astype(complex)]))
        with pytest.raises(ValueError, match="semidefinite"):
            HermitianSpectrum(bins, np.zeros(1))

    def test_hermitian_spectrum_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            HermitianSpectrum(np.zeros((2, 3), complex), np.zeros(3))

    @pytest.mark.parametrize("shape", [(2, 4), (2, 0), (5,)])
    def test_hermitian_spectrum_rejects_a_last_axis_that_is_no_triangle(self, shape):
        with pytest.raises(ValueError, match=r"M\(M\+1\)/2|\(\.\.\., F, P\)"):
            HermitianSpectrum(np.zeros(shape, complex), np.zeros(2))

    def test_perturbation_model_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="nonnegative"):
            perturbed_covariance(np.eye(3), 100.0, -1e-9)
