import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from driftbeam import beamform, cli, covest, covmath, scene, stft
from driftbeam.stft import StftConfig, analyze

CFG = StftConfig(fft_size=256)
FS = 16000


def build_spec(mic_count=4, azimuths=(30.0, 120.0), duration=2.0, motion=None,
               noise_level_db=-30.0, pilot=None, spacing=0.04, seed=0):
    samples = int(duration * FS)
    signals = scene.pseudorandom_signals(len(azimuths), samples, seed)
    motion = motion or scene.MotionModel.static()
    geometry = scene.ArrayGeometry(scene.linear_positions(mic_count, spacing))
    return scene.SceneSpec(
        geometry=geometry,
        sources=tuple(scene.Source(az, s) for az, s in zip(azimuths, signals)),
        motion=motion,
        noise_level_db=noise_level_db,
        pilot=pilot,
    )


def training_renders(spec, duration):
    """The library's training renders of spec on this module's STFT grid."""
    return covest.training_renders(spec, duration, CFG, FS, seed=100)


@st.composite
def labeled_frames(draw):
    """Complex (T, F, M) frames with labels drawn from [0, G)."""
    t = draw(st.integers(1, 12))
    f = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    groups = draw(st.integers(1, 4))
    parts = draw(hnp.arrays(np.float64, (2, t, f, m),
                            elements=st.floats(-100.0, 100.0, allow_subnormal=False)))
    labels = draw(hnp.arrays(np.int64, t, elements=st.integers(0, groups - 1)))
    return parts[0] + 1j * parts[1], labels, groups


class TestOuterSums:
    @settings(max_examples=200, deadline=None)
    @given(labeled_frames())
    def test_matches_per_frame_outer_products(self, case):
        frames, labels, groups = case
        sums, counts = covest._outer_sums(frames, labels, groups)
        m = frames.shape[2]
        expected = np.zeros((groups, frames.shape[1], m, m), dtype=complex)
        for t, group in enumerate(labels):
            for f in range(frames.shape[1]):
                expected[group, f] += np.outer(frames[t, f], frames[t, f].conj())
        np.testing.assert_array_equal(counts, np.bincount(labels, minlength=groups))
        scale = max(np.abs(frames).max() ** 2, 1.0)
        np.testing.assert_allclose(sums, covmath.pack(expected), rtol=0,
                                   atol=1e-12 * scale * len(labels))


    def test_single_frame_is_outer_product(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 5, 3)) + 1j * rng.standard_normal((1, 5, 3))
        sums, counts = covest._outer_sums(x, np.zeros(1, dtype=np.int64), 1)
        assert counts.tolist() == [1]
        for f in range(5):
            np.testing.assert_allclose(sums[0, f], covmath.pack(np.outer(x[0, f], x[0, f].conj())),
                                       atol=1e-14)

    def test_static_source_principal_eigenvector_matches_steering(self):
        spec = build_spec(azimuths=(80.0,), noise_level_db=-40.0, duration=4.0)
        rendered = scene.render(spec, 4.0, CFG, FS, seed=2)
        frames = rendered.mixture.frames
        sums, counts = covest._outer_sums(frames, np.zeros(len(frames), dtype=np.int64), 1)
        cov = covmath.unpack(sums[0] / counts[0])
        rel = spec.geometry.positions - spec.geometry.positions[0]
        for f in (20, 60, 100):
            sv = np.exp(1j * rendered.mixture.bin_omega[f] * scene.propagation_delays(rel, 80.0))
            principal = np.linalg.eigh(cov[f])[1][:, -1]
            cosine = np.abs(np.vdot(sv, principal)) / np.linalg.norm(sv)
            assert cosine > 0.999


class TestOuterSumChunks:
    @pytest.mark.parametrize("mic_count", [1, 3])
    def test_chunk_width_never_changes_bits(self, monkeypatch, mic_count):
        # F = 37 bins in chunks from two bins up to all of them, for one group
        # holding every frame, and for three groups plus an empty fourth.
        rng = np.random.default_rng(7)
        t, f = 40, 37
        parts = rng.standard_normal((2, t, f, mic_count))
        frames = parts[0] + 1j * parts[1]
        bin_bytes = t * mic_count * 16
        for labels, groups in ((np.zeros(t, dtype=np.int64), 1), (rng.integers(0, 3, t), 4)):
            # The whole-array products: one batched zgemm per group over every bin.
            expected = np.empty((groups, f, mic_count, mic_count), dtype=np.complex128)
            for group in range(groups):
                x = (frames if groups == 1 else frames[labels == group]).transpose(1, 2, 0)
                np.matmul(x, x.conj().transpose(0, 2, 1), out=expected[group])
            for budget in (1, 2 * bin_bytes, 5 * bin_bytes, f * bin_bytes):
                monkeypatch.setattr(stft, "BLOCK_BYTES", budget)
                sums, _ = covest._outer_sums(frames, labels, groups)
                np.testing.assert_array_equal(sums.view(np.uint64),
                                              covmath.pack(expected).view(np.uint64))


class TestOuterSumThreads:
    """This thread and a helper take alternate bin chunks; no cell depends on
    the split."""

    T, F, M = 60, 37, 3
    # Four groups in runs of consecutive frames, group 3 in one run, and an
    # empty fifth group.
    LABELS = np.repeat([0, 1, 2, 1, 0, 3, 2], [8, 9, 7, 10, 6, 12, 8])

    def frames(self):
        parts = np.random.default_rng(11).standard_normal((2, self.T, self.F, self.M))
        return parts[0] + 1j * parts[1]

    def test_two_threads_equal_whole_group_products(self, monkeypatch):
        # Chunks of two or three bins, 90 in all, each sum filled over NaN.
        frames = self.frames()
        expected = np.empty((5, self.F, self.M, self.M), dtype=np.complex128)
        for group in range(5):
            x = frames[self.LABELS == group].transpose(1, 2, 0)
            np.matmul(x, x.conj().transpose(0, 2, 1), out=expected[group])
        expected = covmath.pack(expected)
        monkeypatch.setattr(stft, "BLOCK_BYTES", 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                sums = np.full_like(expected, np.nan)
                _, counts = covest._outer_sums(frames, self.LABELS, 5, out=sums)
                np.testing.assert_array_equal(sums.view(np.uint64), expected.view(np.uint64))
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(counts, [14, 19, 15, 12, 0])

    def test_complex64_frames_sum_as_their_complex128_values(self):
        # Every chunk is upcast into the complex128 scratch before its product:
        # group 3 lies in one run of frames, the others are gathered from several.
        frames = self.frames().astype(np.complex64)
        upcast = frames.astype(np.complex128)
        expected = np.empty((5, self.F, self.M, self.M), dtype=np.complex128)
        for group in range(5):
            x = upcast[self.LABELS == group].transpose(1, 2, 0)
            np.matmul(x, x.conj().transpose(0, 2, 1), out=expected[group])
        sums, _ = covest._outer_sums(frames, self.LABELS, 5)
        np.testing.assert_array_equal(sums.view(np.uint64),
                                      covmath.pack(expected).view(np.uint64))

    def test_failing_chunk_reraises_in_the_caller_and_leaves_no_thread(self, monkeypatch,
                                                                       raised_within):
        frames = self.frames()
        matmul = np.matmul

        def fail_on_the_helper(*args, **kwargs):
            if threading.current_thread().name != "caller":
                raise RuntimeError("injected failure")
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", fail_on_the_helper)
        monkeypatch.setattr(stft, "BLOCK_BYTES", 1)
        threads = threading.active_count()
        error = raised_within(lambda: covest._outer_sums(frames, self.LABELS, 5))
        assert isinstance(error, RuntimeError) and str(error) == "injected failure"
        assert threading.active_count() == threads


class TestTrain:
    def test_static_scene_per_state_equals_ensemble(self):
        spec = build_spec()
        covs = covest.train(*training_renders(spec, 2.0))
        assert covs.state_count == 1
        np.testing.assert_allclose(covs.cells[:, 0], covs.ensemble, atol=1e-12)

    def test_under_visited_training_rejected_before_any_render(self, monkeypatch):
        # One second of a 20 s sweep reaches only the first of four states.
        calls = []
        monkeypatch.setattr(covest, "render", lambda *args, **kwargs: calls.append(args))
        motion = scene.MotionModel.rotation_sweep(-45.0, 45.0, period_s=20.0, state_count=4)
        with pytest.raises(ValueError, match=r"training visits 1 of 4 motion states; "
                                             r"the first unvisited are \[1, 2, 3\]"):
            training_renders(build_spec(motion=motion, duration=1.0), 1.0)
        assert calls == []

    def test_rotation_sweep_populates_all_states(self):
        motion = scene.MotionModel.rotation_sweep(-45.0, 45.0, period_s=4.0, state_count=10)
        spec = build_spec(motion=motion, duration=4.0)
        covs = covest.train(*training_renders(spec, 4.0))
        assert covs.frame_counts.shape == (2, 10)
        assert (covs.frame_counts > 0).all()

    def test_ensemble_is_weighted_average(self):
        motion = scene.MotionModel.rotation_sweep(-45.0, 45.0, period_s=3.0, state_count=5)
        spec = build_spec(motion=motion, duration=3.0)
        covs = covest.train(*training_renders(spec, 3.0))
        for n in range(2):
            total = covs.frame_counts[n].sum()
            avg = sum(covs.frame_counts[n, s] * covs.cells[n, s] for s in range(5)) / total
            scale = np.abs(covs.ensemble[n]).max()
            assert np.abs(avg - covs.ensemble[n]).max() < 1e-9 * scale

    def test_cells_and_noise_are_sums_divided_by_counts(self):
        motion = scene.MotionModel.rotation_sweep(-45.0, 45.0, period_s=3.0, state_count=5)
        renders, noise = training_renders(build_spec(motion=motion, duration=3.0), 3.0)
        renders = list(renders)
        covs = covest.train(renders, noise)
        assert len(set(covs.frame_counts.ravel().tolist())) > 1
        for n, render in enumerate(renders):
            sums, counts = covest._outer_sums(render.mixture.frames, render.truth_states.labels, 5)
            np.testing.assert_array_equal(covs.cells[n], sums / counts[:, None, None])
        sums, counts = covest._outer_sums(noise.mixture.frames,
                                          np.zeros(noise.mixture.frame_count, dtype=np.int64), 1)
        np.testing.assert_array_equal(covs.noise, sums[0] / counts[0])

    def test_split_half_ensembles_agree(self):
        # Two disjoint halves of the training data give ensemble estimates
        # within sampling error of each other.
        spec = build_spec(duration=40.0, noise_level_db=-30.0)
        rendered = scene.render(spec, 40.0, CFG, FS, seed=3, active_sources=[0])
        frames = rendered.mixture.frames
        half = frames.shape[0] // 2
        omega = rendered.mixture.bin_omega
        # Groups 0 and 1 are the halves; an odd last frame is group 2.
        sums, counts = covest._outer_sums(frames, np.arange(len(frames)) // half, 3)
        first, second = covmath.unpack(sums[:2] / counts[:2, None, None])
        hz = omega / (2.0 * np.pi)
        low = hz < 2000.0
        for f in np.flatnonzero(low):
            d = covmath.gaussian_divergence(
                covmath.regularize(first[f], 1e-3),
                covmath.regularize(second[f], 1e-3),
            )
            assert d < 0.1

    def test_noise_covariance_is_the_noise_level_times_identity(self):
        # The source-free render's frames are the noise stream's draws at the
        # scene's noise level, in every bin: their bin-averaged covariance is
        # that level times the identity, within three standard errors.
        spec = build_spec(duration=10.0)
        covs = covest.train(*training_renders(spec, 10.0))
        powers = [np.mean(np.abs(analyze(src.signal, CFG, FS).frames[:, :, 0]) ** 2)
                  for src in spec.sources]
        variance = float(np.mean(powers)) * 10.0 ** (spec.noise_level_db / 10.0)
        t, f, m = covs.frame_counts[0, 0], len(covs.frequencies), covs.mic_count
        se = 1.0 / np.sqrt(t * f)
        noise = covmath.unpack(covs.noise).mean(axis=0)
        assert np.abs(noise / variance - np.eye(m)).max() < 3.0 * se

    def test_jitter_state_cell_is_the_ensemble(self):
        motion = scene.MotionModel.gaussian_jitter(0.004)
        spec = build_spec(motion=motion)
        renders, noise = training_renders(spec, 2.0)
        covs = covest.train(renders, noise)
        assert covs.state_count == 1
        assert covs.frame_counts.shape == (2, 1)
        np.testing.assert_array_equal(covs.cells[:, 0], covs.ensemble)
        for n in range(2):
            assert covs.frame_counts[n, 0] == noise.mixture.frame_count

    def test_multi_source_render_rejected(self):
        spec = build_spec()
        bad = scene.render(spec, 1.0, CFG, FS, seed=4)
        noise = scene.render(spec, 1.0, CFG, FS, seed=5, active_sources=[])
        with pytest.raises(ValueError, match="exactly one"):
            covest.train([bad, bad], noise)

    def test_noise_render_must_be_source_free(self):
        spec = build_spec()
        renders = list(training_renders(spec, 1.0)[0])
        with pytest.raises(ValueError, match="no active sources"):
            covest.train(renders, renders[0])


def static_cli_training(tmp_path, azimuths):
    """The CLI's training set for a static 4-mic scene at -30 dB noise, without
    pilot tones, with each source's exact image covariance: the frame mean of
    x x^H over its image frames x = S_n[t,f] a, S_n the source's reference
    spectrum and a its steering vector, with S_n and each x rounded to
    complex64 as the render rounds them."""
    config = cli.load_config(None, {
        "seed": 9, "out_dir": str(tmp_path),
        "stft": {"fft_size": 256, "hop": 128},
        "geometry": {"mic_count": 4, "spacing": 0.04},
        "sources": {"azimuths_deg": list(azimuths)},
        "train_duration_s": 2.0,
        "pilot": {"enabled": False},
    })
    assert config["noise_level_db"] == -30.0
    covs, _ = cli.run_train(config)
    spec = cli._scene_spec(config, scene.pseudorandom_signals(
        len(azimuths), int(2.0 * config["sample_rate"]), config["seed"]))
    rel = spec.geometry.positions - spec.geometry.positions[0]
    omega = covs.frequencies
    exact = []
    for source in spec.sources:
        spectrum = analyze(source.signal, cli._stft_config(config),
                           config["sample_rate"]).frames[:, :, 0]
        a = np.exp(1j * omega[:, None] * scene.propagation_delays(rel, source.azimuth_deg))
        image = (spectrum.astype(np.complex64)[:, :, None] * a).astype(np.complex64)
        exact.append(np.einsum("tfm,tfn->fmn", image.astype(np.complex128),
                               image.conj().astype(np.complex128)) / len(image))
    return covs, exact


class TestCliTraining:
    """The CLI trains each source on its noiseless image; only the
    source-free render carries noise."""

    def test_static_cell_is_the_image_covariance(self, tmp_path):
        covs, exact = static_cli_training(tmp_path, (30.0, 120.0))
        assert covs.frame_counts.shape == (2, 1)
        for n, image in enumerate(exact):
            scale = np.abs(image).max()
            np.testing.assert_allclose(covmath.unpack(covs.cells[n, 0]), image, rtol=0,
                                       atol=1e-12 * scale)
        assert np.trace(covmath.unpack(covs.noise), axis1=1, axis2=2).real.min() > 0

    def test_weights_match_exact_images_plus_trained_noise(self, tmp_path):
        covs, exact = static_cli_training(tmp_path, (30.0, 120.0))
        noise = covmath.unpack(covs.noise)
        trained = beamform.mwf_weights(covmath.unpack(covs.ensemble), noise, 0)
        expected = beamform.mwf_weights(exact, noise, 0)
        np.testing.assert_allclose(trained, expected, rtol=0,
                                   atol=1e-8 * np.abs(expected).max())


def unit_cells(counts):
    """Packed identity cells (N, S, 4, 3), 2 x 2 matrices, for frame counts
    (N, S), zero where a count is 0."""
    counts = np.asarray(counts, dtype=np.int64)
    cells = np.zeros((*counts.shape, 4, 2, 2), dtype=complex)
    cells[counts > 0] = np.eye(2)
    return covmath.pack(cells)


UNIT_NOISE = covmath.pack(np.stack([np.eye(2, dtype=complex)] * 4))


def unit_set(cells, counts):
    return covest.CovarianceSet(cells, np.asarray(counts, dtype=np.int64), UNIT_NOISE,
                                np.arange(4.0))


class TestCovarianceSet:
    @pytest.mark.parametrize("cells, counts, message", [
        (unit_cells([[2], [2]]), [[2]], r"frame_counts must be .* of shape \(2, 1\)"),
        (unit_cells([[2], [2]]), [[2], [0]],
         r"no training frames for \(source, state\) pairs: \[\(1, 0\)\]"),
        (unit_cells([[2, 2], [0, 0], [2, 2]]), [[2, 2], [0, 0], [2, 2]],
         r"no training frames for \(source, state\) pairs: \[\(1, 0\), \(1, 1\)\]"),
        (unit_cells(np.zeros((0, 1))), np.zeros((0, 1)), "at least one source"),
    ], ids=["key_mismatch", "zero_count", "source_gap", "empty"])
    def test_bad_cells_rejected(self, cells, counts, message):
        with pytest.raises(ValueError, match=message):
            unit_set(cells, counts)

    @pytest.mark.parametrize("cells, noise, frequencies", [
        (covmath.unpack(unit_cells([[2]])), covmath.unpack(UNIT_NOISE), np.arange(4.0)),
        (unit_cells([[2]]), UNIT_NOISE, np.arange(5.0)),
        (unit_cells([[2]])[0], UNIT_NOISE, np.arange(4.0)),
    ], ids=["full_matrices", "frequencies_length", "three_axes"])
    def test_bad_shapes_rejected(self, cells, noise, frequencies):
        with pytest.raises(ValueError, match=r"must have shapes \(N, S, F, P\), "
                                             r"\(F, P\) and \(F,\)"):
            covest.CovarianceSet(cells, np.ones((1, 1), dtype=np.int64), noise, frequencies)

    def test_a_last_axis_that_is_no_triangle_rejected(self):
        with pytest.raises(ValueError, match=r"M\(M\+1\)/2 entries"):
            covest.CovarianceSet(np.zeros((1, 1, 4, 2), complex), np.ones((1, 1), dtype=np.int64),
                                 np.zeros((4, 2), complex), np.arange(4.0))

    @pytest.mark.parametrize("name", ["cells", "frame_counts", "noise", "ensemble"])
    def test_trained_arrays_are_read_only(self, name):
        covs = covest.train(*training_renders(build_spec(duration=1.0), 1.0))
        with pytest.raises(ValueError, match="read-only"):
            getattr(covs, name)[0] = 0


def streamed_renders(renders, released):
    """Yield each of the renders, drawn on demand, and append to released,
    once render k is handed back and before the next is drawn, whether its
    mixture frames are already gone."""
    for render in renders:
        last = weakref.ref(render.mixture.frames)
        yield render
        del render
        released.append(last() is None)


class TestStreamingTrain:
    MOTION = scene.MotionModel.rotation_sweep(-45.0, 45.0, period_s=3.0, state_count=5)

    def test_each_render_released_before_the_next_is_drawn(self):
        spec = build_spec(azimuths=(30.0, 80.0, 120.0), motion=self.MOTION, duration=3.0)
        renders, noise = training_renders(spec, 3.0)
        released = []
        covest.train(streamed_renders(renders, released), noise)
        assert released == [True, True, True]

    def test_generator_equals_list_bit_for_bit(self):
        spec = build_spec(motion=self.MOTION, duration=3.0)
        renders, noise = training_renders(spec, 3.0)
        expected = covest.train(list(training_renders(spec, 3.0)[0]), noise)
        covs = covest.train(streamed_renders(renders, []), noise)
        assert covs.state_count == expected.state_count == 5
        for name in ("cells", "frame_counts", "noise", "frequencies", "ensemble"):
            np.testing.assert_array_equal(getattr(covs, name), getattr(expected, name))

    @pytest.mark.parametrize("sources", [[0, 0], [1], []], ids=["duplicate", "gap", "empty"])
    def test_sources_must_cover_0_to_n_minus_1(self, sources):
        spec = build_spec()
        noise = scene.render(spec, 1.0, CFG, FS, seed=5, active_sources=[])
        renders = (scene.render(spec, 1.0, CFG, FS, seed=10 + k, active_sources=[n])
                   for k, n in enumerate(sources))
        with pytest.raises(ValueError, match=r"must cover sources 0\.\.N-1"):
            covest.train(renders, noise)

    def test_state_count_disagreement_rejected(self):
        rotation = build_spec(motion=self.MOTION, duration=1.0)
        static_noise = scene.render(build_spec(duration=1.0), 1.0, CFG, FS, seed=5,
                                    active_sources=[])
        renders = (scene.render(rotation, 1.0, CFG, FS, seed=10 + n, active_sources=[n])
                   for n in range(2))
        with pytest.raises(ValueError, match="disagree on the number of states"):
            covest.train(renders, static_noise)


def render_pass_templates(source_renders):
    """Oracle templates from a second pass over the training renders: the
    sample covariance of source n's frames in each state at its pilot bin,
    as an (S, N, M, M) stack."""
    state_count = source_renders[0].truth_states.state_count
    renders = sorted(source_renders, key=lambda r: r.active_sources[0])
    bins = [r.pilot_bins[r.active_sources[0]] for r in renders]
    grouped = [
        covest._outer_sums(render.mixture.frames[:, [pilot_bin], :],
                           render.truth_states.labels, state_count)
        for render, pilot_bin in zip(renders, bins)
    ]
    return covmath.unpack(np.stack([
        np.stack([sums[state, 0] / counts[state] for sums, counts in grouped])
        for state in range(state_count)
    ]))


class TestPilotTemplates:
    @pytest.mark.parametrize("motion", [
        scene.MotionModel.static(),
        scene.MotionModel.rotation_sweep(-45.0, 45.0, period_s=3.0, state_count=5),
    ], ids=["static", "rotation"])
    def test_equal_to_render_pass_bit_for_bit(self, motion):
        spec = build_spec(motion=motion, duration=3.0, pilot=scene.Pilot(7000.0, -10.0))
        renders, noise = training_renders(spec, 3.0)
        renders = list(renders)
        templates = covest.pilot_templates(covest.train(renders, noise), noise.pilot_bins)
        np.testing.assert_array_equal(templates, render_pass_templates(renders))

    @staticmethod
    def two_source_covs(counts):
        return unit_set(unit_cells(counts), counts)

    def test_wrong_pilot_bin_count_rejected(self):
        covs = self.two_source_covs([[3, 3], [3, 3]])
        with pytest.raises(ValueError, match="one pilot bin per source"):
            covest.pilot_templates(covs, (1,))

    def test_missing_cell_rejected(self):
        # No set with a missing cell reaches pilot_templates.
        with pytest.raises(ValueError, match=r"no training frames for \(source, state\) "
                                             r"pairs: \[\(1, 1\)\]"):
            self.two_source_covs([[3, 3], [3, 0]])


@pytest.fixture(scope="module")
def rotation_setup():
    motion = scene.MotionModel.rotation_sweep(-45.0, 45.0, period_s=20.0,
                                              state_count=10)
    spec = build_spec(mic_count=6, azimuths=(30.0, 120.0), duration=20.0,
                      motion=motion, noise_level_db=None,
                      pilot=scene.Pilot(7000.0, -10.0), spacing=0.02)
    cfg = StftConfig()
    covs = covest.train(*covest.training_renders(spec, 20.0, cfg, FS, seed=400))
    test = scene.render(spec, 20.0, cfg, FS, seed=444)
    templates = covest.pilot_templates(covs, test.pilot_bins)
    return templates, test


def divergence_argmin_states(mixture, templates, pilot_bins, smoothing=covest.PILOT_SMOOTHING,
                             epsilon_rel=covest.PILOT_EPSILON_REL):
    """Oracle track: argmin over states of the summed Gaussian divergence of
    each loaded, smoothed pilot snapshot from the loaded state template."""
    x = mixture.frames[:, list(pilot_bins), :]
    t_count = x.shape[0]
    scores = np.full((t_count, len(templates)), np.inf)
    snapshots = []
    for t in range(t_count):
        window = x[max(t - smoothing, 0):t + smoothing + 1]
        snapshots.append(np.einsum("tbm,tbn->bmn", window, window.conj()) / len(window))
    smoothed = covmath.regularize(np.stack(snapshots), epsilon_rel)
    for state, template in enumerate(templates):
        loaded = covmath.regularize(template, epsilon_rel)
        scores[:, state] = covmath.gaussian_divergence(smoothed, loaded).sum(axis=1)
    return np.argmin(scores, axis=1)


class TestEstimateStates:
    def test_track_is_the_divergence_argmin(self, rotation_setup):
        templates, test = rotation_setup
        est = covest.estimate_states(test.mixture, templates, test.pilot_bins)
        np.testing.assert_array_equal(
            est.labels, divergence_argmin_states(test.mixture, templates, test.pilot_bins))

    def test_equal_templates_tie_to_the_lower_state(self, rotation_setup):
        templates, test = rotation_setup
        # States 4 and 5 share one template.
        tied = templates[[4 if state == 5 else state for state in range(10)]]
        est = covest.estimate_states(test.mixture, tied, test.pilot_bins)
        assert 4 in est.labels and 5 not in est.labels
        np.testing.assert_array_equal(
            est.labels, divergence_argmin_states(test.mixture, tied, test.pilot_bins))

    def test_static_scene_constant_estimate(self):
        spec = build_spec(pilot=scene.Pilot(7000.0, -10.0), noise_level_db=None,
                          duration=4.0)
        covs = covest.train(*training_renders(spec, 4.0))
        test = scene.render(spec, 4.0, CFG, FS, seed=7)
        templates = covest.pilot_templates(covs, test.pilot_bins)
        est = covest.estimate_states(test.mixture, templates, test.pilot_bins)
        assert est.state_count == 1
        assert not est.labels.any()

    def test_rotation_sweep_accuracy(self, rotation_setup):
        templates, test = rotation_setup
        est = covest.estimate_states(test.mixture, templates, test.pilot_bins)
        agreement = (est.labels == test.truth_states.labels).mean()
        assert agreement >= 0.95

    def test_missing_templates_rejected(self):
        spec = build_spec()
        test = scene.render(spec, 1.0, CFG, FS, seed=8)
        with pytest.raises(ValueError, match="pilot"):
            covest.estimate_states(test.mixture, np.empty((0, 2, 4, 4), complex),
                                   test.pilot_bins)

    def test_templates_require_pilots(self):
        spec = build_spec(pilot=None)
        renders, noise = training_renders(spec, 1.0)
        with pytest.raises(ValueError, match="pilot"):
            covest.pilot_templates(covest.train(renders, noise), noise.pilot_bins)


def whole_array_scores(frames, templates, pilot_bins):
    """estimate_states' (T, S) scores computed over the whole array at once:
    every pilot snapshot, one np.cumsum over all of them, and every smoothed
    snapshot loaded and scored together."""
    k = covest.PILOT_SMOOTHING
    x = frames[:, list(pilot_bins), :].astype(np.complex128, copy=False)
    inst = np.einsum("tbm,tbn->tbmn", x, x.conj())
    cumulative = np.empty((inst.shape[0] + 1, *inst.shape[1:]), dtype=inst.dtype)
    cumulative[0] = 0.0
    np.cumsum(inst, axis=0, out=cumulative[1:])
    frame = np.arange(len(frames))
    lo = np.maximum(frame - k, 0)
    hi = np.minimum(frame + k + 1, len(frame))
    smoothed = cumulative[hi]
    smoothed -= cumulative[lo]
    smoothed *= (1.0 / (hi - lo))[:, None, None, None]
    flat = covmath.regularize(smoothed, covest.PILOT_EPSILON_REL).reshape(len(frame), -1)
    scores = np.empty((len(frame), len(templates)))
    for state, template in enumerate(templates):
        loaded = covmath.regularize(template, covest.PILOT_EPSILON_REL)
        inverse_t = np.linalg.inv(loaded).swapaxes(-1, -2).reshape(-1)
        scores[:, state] = np.vecdot(inverse_t.conj(), flat).real \
            + np.linalg.slogdet(loaded)[1].sum()
    return scores


def random_templates(rng, state_count, bin_count, mic_count):
    a = rng.standard_normal((state_count, bin_count, mic_count, mic_count)) \
        + 1j * rng.standard_normal((state_count, bin_count, mic_count, mic_count))
    return a @ a.conj().swapaxes(-1, -2)


class TestStateScoreBlocks:
    """State scores are computed one block of frames at a time, with the
    cumulative snapshot sums carried from block to block: every score keeps
    the bits of the whole-array computation."""

    BINS, MICS = (5, 7, 9), 4

    # (frames per block, frame count): a single frame; fewer frames than one
    # smoothing window (2 PILOT_SMOOTHING + 1 = 5); one frame either side of
    # the first and second block boundaries; one-frame and two-frame blocks.
    @pytest.mark.parametrize("rows, frame_count", [
        (6, 1), (6, 3), (6, 4), (6, 5), (6, 6), (6, 7), (6, 11), (6, 12), (6, 13),
        (1, 9), (2, 9), (None, 40)])
    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_equal_to_the_whole_array_scores(self, monkeypatch, rows, frame_count, dtype):
        rng = np.random.default_rng(frame_count)
        templates = random_templates(rng, 5, len(self.BINS), self.MICS)
        shape = (frame_count, 12, self.MICS)
        frames = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
        if rows is not None:
            monkeypatch.setattr(stft, "BLOCK_BYTES", rows * len(self.BINS) * self.MICS ** 2 * 16)
        scores = covest._state_scores(frames, templates, self.BINS)
        expected = whole_array_scores(frames, templates, self.BINS)
        assert scores.tobytes() == expected.tobytes()
        mixture = stft.SpectralFrameTensor(frames, FS, 22)
        labels = covest.estimate_states(mixture, templates, self.BINS).labels
        assert labels.tolist() == np.argmin(expected, axis=1).tolist()

    def test_peak_memory_is_a_few_blocks(self):
        # The default scene's pilot snapshots (5 bins, 12 microphones) over 624
        # frames take 6.9 blocks; the whole-array computation held about four
        # such arrays at once, the blocked one a few blocks whatever the length.
        rng = np.random.default_rng(6)
        bins, shape = (30, 32, 34, 36, 38), (624, 40, 12)
        templates = random_templates(rng, 10, len(bins), shape[2])
        frames = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)
        mixture = stft.SpectralFrameTensor(frames, FS, 78)
        tracemalloc.start()
        try:
            states = covest.estimate_states(mixture, templates, bins)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        scores_bytes = states.labels.nbytes * len(templates)
        assert peak <= states.labels.nbytes + scores_bytes + 6 * stft.BLOCK_BYTES
