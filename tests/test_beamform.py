import tracemalloc

import numpy as np
import pytest

from driftbeam import beamform, covest, covmath, scene, stft
from driftbeam.beamform import BeamformerBank, StarvedStateError, apply_bank, build, mwf_weights
from driftbeam.stft import SpectralFrameTensor, StftConfig

CFG = StftConfig(fft_size=256, hop=128)
FS = 16000


def spectrum(bins):
    return np.asarray(bins, dtype=np.complex128)


def rank_one_source(a, power=1.0):
    outer = power * np.outer(a, a.conj())
    return spectrum(outer[None, :, :])


class TestMwfWeights:
    def test_single_rank_one_source_in_white_noise(self):
        # Sherman-Morrison closed form: row = a_ref * a^H / (sigma^2 + M)
        rng = np.random.default_rng(0)
        m, sigma2 = 6, 0.5
        a = np.exp(1j * rng.uniform(-np.pi, np.pi, m))
        noise = spectrum(sigma2 * np.eye(m)[None, :, :])
        w = mwf_weights([rank_one_source(a)], noise, reference=2, epsilon_rel=0.0)
        expected = a[2] * a.conj()[None, :] / (sigma2 + m)
        np.testing.assert_allclose(w[0], expected, atol=1e-12)

    def test_single_mic_scalar_wiener(self):
        powers = np.array([1.0, 0.5, 0.25])
        sigma2 = 0.2
        sources = [spectrum(np.full((1, 1, 1), p)) for p in powers]
        noise = spectrum(np.full((1, 1, 1), sigma2))
        w = mwf_weights(sources, noise, reference=0, epsilon_rel=0.0)
        np.testing.assert_allclose(
            w[0, :, 0], powers / (powers.sum() + sigma2), atol=1e-14
        )

    def test_equal_diagonal_sources_split_evenly(self):
        diag = spectrum(np.broadcast_to(np.eye(3), (2, 3, 3)).copy())
        noise = spectrum(np.zeros((2, 3, 3)))
        w = mwf_weights([diag, diag], noise, reference=1, epsilon_rel=0.0)
        expected = np.zeros((2, 3)); expected[:, 1] = 0.5
        np.testing.assert_allclose(w[:, 0, :], expected, atol=1e-14)
        np.testing.assert_allclose(w[:, 1, :], expected, atol=1e-14)

    def test_mismatched_grids_rejected(self):
        a = spectrum(np.eye(2)[None])
        b = spectrum(np.eye(3)[None])
        with pytest.raises(ValueError, match="bin grid"):
            mwf_weights([a], b, reference=0)

    def test_singular_total_rejected_with_bin_index(self):
        bins = np.zeros((3, 2, 2), complex)
        bins[0] = np.eye(2)
        bins[2] = np.eye(2)
        src = spectrum(bins)
        noise = spectrum(np.zeros((3, 2, 2)))
        with pytest.raises(covmath.IllConditionedError, match=r"\[1\]"):
            mwf_weights([src], noise, reference=0, epsilon_rel=0.0)

    def test_negative_loading_rejected(self):
        # 0 is the unloaded solve; a negative loading is an error, as in regularize.
        eye = spectrum(np.broadcast_to(np.eye(2), (4, 2, 2)).copy())
        with pytest.raises(ValueError, match="epsilon_rel"):
            mwf_weights([eye], eye, 0, epsilon_rel=-0.5)


def trained_covs(motion=None, duration=4.0, mic_count=4, azimuths=(30.0, 120.0),
                 seed=50):
    motion = motion or scene.MotionModel.static()
    samples = int(duration * FS)
    signals = scene.pseudorandom_signals(len(azimuths), samples, seed)
    geometry = scene.ArrayGeometry(scene.linear_positions(mic_count, 0.04))
    spec = scene.SceneSpec(
        geometry=geometry,
        sources=tuple(scene.Source(az, s) for az, s in zip(azimuths, signals)),
        motion=motion,
        noise_level_db=-30.0,
    )
    return covest.train(*covest.training_renders(spec, duration, CFG, FS, seed)), spec


class TestBuild:
    @pytest.mark.parametrize("motion", [
        scene.MotionModel.static(), scene.MotionModel.gaussian_jitter(0.005),
    ], ids=["static", "gaussian_jitter"])
    def test_single_state_static_equals_dynamic(self, motion):
        covs, _ = trained_covs(motion=motion)
        static = build(covs, "static")
        dynamic = build(covs, "dynamic")
        assert dynamic.weights.shape[0] == 1
        np.testing.assert_allclose(static.weights[0], dynamic.weights[0], atol=1e-12)

    def test_rank_one_on_truly_rank_one_ensemble_matches_static(self):
        rng = np.random.default_rng(2)
        f, m = 8, 4
        omega = np.linspace(100.0, 800.0, f)
        a = np.exp(1j * rng.uniform(-np.pi, np.pi, (f, m)))
        bins = 2.0 * np.einsum("fm,fn->fmn", a, a.conj())
        noise = np.broadcast_to(0.3 * np.eye(m), (f, m, m))
        covs = covest.CovarianceSet(bins[None, None], np.ones((1, 1), dtype=np.int64), noise,
                                    omega)
        static = build(covs, "static")
        rank_one = build(covs, "rank1")
        np.testing.assert_allclose(rank_one.weights[0], static.weights[0], atol=1e-9)

    def test_ten_state_dynamic_bank_structure(self):
        motion = scene.MotionModel.rotation_sweep(-45.0, 45.0, period_s=4.0,
                                                  state_count=10)
        covs, _ = trained_covs(motion=motion)
        bank = build(covs, "dynamic")
        assert bank.weights.shape == (10, CFG.bin_count, 2, 4)

    def test_dynamic_bank_bits_equal_per_state_solves(self):
        # One batched solve over the state-major cells gives each state the
        # bits of its own mwf_weights call on cells[:, s].
        motion = scene.MotionModel.rotation_sweep(-45.0, 45.0, period_s=4.0,
                                                  state_count=10)
        covs, _ = trained_covs(motion=motion)
        bank = build(covs, "dynamic")
        for state in range(covs.state_count):
            expected = mwf_weights(covs.cells[:, state], covs.noise, 0)
            np.testing.assert_array_equal(bank.weights[state].view(np.uint64),
                                          expected.view(np.uint64))

    def test_rank_one_parts_bits_equal_per_source(self):
        covs, _ = trained_covs(azimuths=(30.0, 80.0, 120.0))
        batched = beamform._principal_component(covs.ensemble)
        for n in range(covs.source_count):
            single = beamform._principal_component(covs.ensemble[n])
            np.testing.assert_array_equal(batched[n].view(np.uint64), single.view(np.uint64))

    def test_starved_state_error_lists_pairs(self):
        motion = scene.MotionModel.rotation_sweep(-45.0, 45.0, period_s=4.0, state_count=4)
        covs, _ = trained_covs(motion=motion)
        cells, counts = covs.cells.copy(), covs.frame_counts.copy()
        cells[1, 0] = 0.0
        counts[1, 0] = 0
        starved = covest.CovarianceSet(cells, counts, covs.noise, covs.frequencies)
        with pytest.raises(StarvedStateError, match=r"\(1, 0\)"):
            build(starved, "dynamic")

    def test_unknown_mode_rejected(self):
        covs, _ = trained_covs()
        with pytest.raises(ValueError, match="mode"):
            build(covs, "mvdr")


@pytest.fixture(scope="module")
def dynamic_case():
    """A four-state dynamic bank at the default scene's bin, source and channel
    counts, a mixture of 200 frames and a shuffled state track whose per-state
    counts leave 1, 2, 1 and 4 frames after whole chunks of 8."""
    rng = np.random.default_rng(9)
    f, n, m = 513, 5, 12
    counts = [57, 50, 41, 52]
    weights = np.stack([
        rng.standard_normal((f, n, m)) + 1j * rng.standard_normal((f, n, m))
        for _ in counts
    ])
    frames = rng.standard_normal((sum(counts), f, m)) + 1j * rng.standard_normal((sum(counts), f, m))
    mixture = SpectralFrameTensor(frames, FS, 1024, 512)
    labels = rng.permutation(np.repeat(np.arange(len(counts)), counts))
    bank = BeamformerBank(mode="dynamic", weights=weights, reference=0,
                          frequencies=mixture.bin_omega)
    return bank, mixture, scene.StateSequence(labels, len(counts))


def as_complex64(mixture):
    return SpectralFrameTensor(mixture.frames.astype(np.complex64), mixture.sample_rate,
                               mixture.fft_size, mixture.hop)


def assert_one_product_per_state(bank, mixture, states):
    """apply_bank's estimates equal, bit for bit, one product over all of each
    state's frames by its weights in the frames' precision."""
    x = mixture.frames
    expected = np.empty((x.shape[0], x.shape[1], bank.source_count), dtype=x.dtype)
    for state in range(states.state_count):
        rows = np.flatnonzero(states.labels == state)
        weights = bank.weights[state].astype(x.dtype)
        expected[rows] = (weights @ x[rows].transpose(1, 2, 0)).transpose(2, 0, 1)
    got = apply_bank(bank, mixture, states)
    assert got.dtype == x.dtype
    np.testing.assert_array_equal(got.view(np.uint8), expected.view(np.uint8))


def traced_apply(bank, mixture, states):
    """apply_bank's estimates and the peak of the memory it allocates."""
    tracemalloc.start()
    try:
        out = apply_bank(bank, mixture, states)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


class TestApply:
    def test_identity_bank_passthrough(self):
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((6, 5, 3)) + 1j * rng.standard_normal((6, 5, 3))
        mixture = SpectralFrameTensor(frames, FS, 8, 4)
        bank = BeamformerBank(
            mode="static",
            weights=np.broadcast_to(np.eye(3), (1, 5, 3, 3)).astype(complex),
            reference=0,
            frequencies=mixture.bin_omega,
        )
        np.testing.assert_array_equal(apply_bank(bank, mixture), frames)

    def test_zero_mixture_zero_output(self):
        covs, _ = trained_covs()
        bank = build(covs, "static")
        mixture = SpectralFrameTensor(
            np.zeros((4, CFG.bin_count, 4), complex), FS, CFG.fft_size, CFG.hop
        )
        assert not apply_bank(bank, mixture).any()

    def test_oracle_single_source_reconstruction(self):
        # Exact model covariances, no noise: the filter recovers the desired
        # signal up to the loading-limited error, at least 40 dB down.
        duration, az = 4.0, 60.0
        samples = int(duration * FS)
        signal = scene.pseudorandom_signals(1, samples, 4)[0]
        geometry = scene.ArrayGeometry(scene.linear_positions(6, 0.05))
        spec = scene.SceneSpec(geometry=geometry, sources=(scene.Source(az, signal),),
                               motion=scene.MotionModel.static(), noise_level_db=None)
        rendered = scene.render(spec, duration, CFG, FS, seed=5)
        omega = rendered.mixture.bin_omega
        window_energy = np.sum(CFG.window ** 2)
        rel = geometry.positions - geometry.positions[0]
        a = np.stack([np.exp(1j * w * scene.propagation_delays(rel, az)) for w in omega])
        source = window_energy * np.einsum("fm,fn->fmn", a, a.conj())
        noise = np.zeros((omega.shape[0], 6, 6), complex)
        weights = mwf_weights([source], noise, reference=0, epsilon_rel=1e-3)
        bank = BeamformerBank(mode="static", weights=weights[None], reference=0,
                              frequencies=omega)
        estimate = apply_bank(bank, rendered.mixture)[:, :, 0]
        err = np.sum(np.abs(estimate - rendered.desired[:, :, 0]) ** 2)
        ref = np.sum(np.abs(rendered.desired[:, :, 0]) ** 2)
        assert 10.0 * np.log10(ref / err) > 40.0

    def test_dynamic_requires_states(self):
        motion = scene.MotionModel.rotation_sweep(-45.0, 45.0, period_s=4.0,
                                                  state_count=5)
        covs, spec = trained_covs(motion=motion)
        bank = build(covs, "dynamic")
        rendered = scene.render(spec, 1.0, CFG, FS, seed=6)
        with pytest.raises(ValueError, match="state sequence"):
            apply_bank(bank, rendered.mixture)

    def test_dynamic_missing_state_weights_rejected(self):
        motion = scene.MotionModel.rotation_sweep(-45.0, 45.0, period_s=4.0,
                                                  state_count=5)
        covs, spec = trained_covs(motion=motion)
        bank = build(covs, "dynamic")
        crippled = BeamformerBank(
            mode="dynamic",
            weights=bank.weights[:3],
            reference=0,
            frequencies=bank.frequencies,
        )
        rendered = scene.render(spec, 4.0, CFG, FS, seed=7)
        with pytest.raises(ValueError, match=r"\[3, 4\]"):
            apply_bank(crippled, rendered.mixture, rendered.truth_states)

    def test_matches_naive_per_frame_reference(self):
        # Small instances: apply() against an explicit per-frame loop.
        rng = np.random.default_rng(8)
        t, f, n, m = 8, 4, 2, 3
        weights = np.stack([
            rng.standard_normal((f, n, m)) + 1j * rng.standard_normal((f, n, m))
            for _ in range(3)
        ])
        frames = rng.standard_normal((t, f, m)) + 1j * rng.standard_normal((t, f, m))
        mixture = SpectralFrameTensor(frames, FS, 6, 3)
        labels = scene.StateSequence(rng.integers(0, 3, t), 3)
        bank = BeamformerBank(mode="dynamic", weights=weights, reference=0,
                              frequencies=mixture.bin_omega)
        fast = apply_bank(bank, mixture, labels)
        naive = np.zeros_like(fast)
        for ti in range(t):
            for fi in range(f):
                naive[ti, fi] = weights[int(labels.labels[ti])][fi] @ frames[ti, fi]
        np.testing.assert_allclose(fast, naive, atol=1e-12)

    def test_dynamic_bank_bytes_equal_one_product_per_state(self, dynamic_case):
        # Chunked filtering gives every frame the bits of one product over all
        # of its state's frames, with state counts that leave lone last frames.
        assert_one_product_per_state(*dynamic_case)

    def test_complex64_dynamic_bank_bytes_equal_one_product_per_state(self, dynamic_case):
        # Complex64 frames are filtered by each state's weights rounded to complex64.
        bank, mixture, states = dynamic_case
        assert_one_product_per_state(bank, as_complex64(mixture), states)

    def test_dynamic_bank_holds_one_block_beyond_its_output(self, dynamic_case):
        # Frames are gathered and filtered a block at a time, so the peak above
        # the call's start is its output plus one block of frames and that
        # block's estimates (N/M of a block), whatever the frame count.
        bank, mixture, states = dynamic_case
        out, peak = traced_apply(bank, mixture, states)
        n, m = bank.source_count, bank.mic_count
        assert peak <= out.nbytes + stft.BLOCK_BYTES + stft.BLOCK_BYTES * n // m

    def test_complex64_dynamic_bank_holds_one_block_beyond_its_output(self, dynamic_case):
        # As above, plus one state's weights cast to complex64 at a time.
        bank, mixture, states = dynamic_case
        out, peak = traced_apply(bank, as_complex64(mixture), states)
        assert out.dtype == np.complex64
        n, m = bank.source_count, bank.mic_count
        cast = bank.weights[0].astype(np.complex64).nbytes
        assert peak <= out.nbytes + stft.BLOCK_BYTES + stft.BLOCK_BYTES * n // m + cast

    def test_mmse_optimality_against_perturbed_weights(self):
        # With exact model covariances no perturbed weight matrix reaches a
        # lower empirical squared error than the closed-form solution.
        rng = np.random.default_rng(9)
        m, n, f, t = 3, 2, 4, 20000
        steering = np.exp(1j * rng.uniform(-np.pi, np.pi, (f, n, m)))
        steering[:, :, 0] = 1.0
        powers = np.array([1.0, 0.7])
        sigma2 = 0.3
        sources = [
            powers[k] * np.einsum("fm,fn->fmn", steering[:, k], steering[:, k].conj())
            for k in range(n)
        ]
        noise = np.broadcast_to(sigma2 * np.eye(m), (f, m, m))
        weights = mwf_weights(sources, noise, reference=0, epsilon_rel=0.0)
        s = (rng.standard_normal((t, f, n, 2)) @ [1, 1j]) * np.sqrt(powers / 2.0)
        v = (rng.standard_normal((t, f, m, 2)) @ [1, 1j]) * np.sqrt(sigma2 / 2.0)
        x = np.einsum("fnm,tfn->tfm", steering, s) + v

        def empirical_mse(w):
            y = np.einsum("fnm,tfm->tfn", w, x)
            return np.sum(np.abs(y - s) ** 2)

        base = empirical_mse(weights)
        for _ in range(120):
            delta = rng.standard_normal(weights.shape) + 1j * rng.standard_normal(weights.shape)
            delta *= 0.1 * np.linalg.norm(weights) / np.linalg.norm(delta)
            assert empirical_mse(weights + delta) > base

    def test_nonfinite_weights_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            BeamformerBank(mode="static", weights=np.full((1, 2, 1, 1), np.nan),
                           reference=0, frequencies=np.zeros(2))
