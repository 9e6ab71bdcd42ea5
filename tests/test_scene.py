import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbeam import cli, covmath, scene, stft
from driftbeam.stft import StftConfig

CFG = StftConfig(fft_size=256, hop=128)
FS = 16000


def simple_spec(mic_count=4, azimuths=(30.0, 120.0), duration=2.0,
                noise_level_db=-30.0, motion=None, pilot=None, spacing=0.04,
                seed=0):
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


def noise_part(spec, duration, seed):
    """The complex128 noise that render(spec, duration, seed=seed) adds its
    images to: each frame's float32 standard normal draws from its own noise
    stream, as complex64, scaled to the scene's noise level."""
    samples = int(round(duration * FS))
    t_count = (samples - CFG.fft_size) // CFG.hop + 1
    powers = [np.mean(np.abs(stft.analyze(src.signal[:samples], CFG, FS).frames[:, :, 0]) ** 2)
              for src in spec.sources]
    variance = float(np.mean(powers)) * 10.0 ** (spec.noise_level_db / 10.0)
    noise = np.empty((t_count, CFG.bin_count, spec.geometry.mic_count), dtype=np.complex128)
    for t in range(t_count):
        stream = np.random.SeedSequence(seed, spawn_key=(scene._NOISE_STREAM, t))
        draws = np.random.default_rng(stream).standard_normal(
            (CFG.bin_count, spec.geometry.mic_count, 2), dtype=np.float32)
        noise[t] = draws.view(np.complex64)[..., 0]
    edges = noise[:, [0, -1], :].real * np.sqrt(variance)
    noise *= np.sqrt(variance / 2.0)
    noise[:, [0, -1], :] = edges
    return noise


def image_part(spec, rendered, seed):
    """The complex128 image of the one active source of a render of spec at
    seed: its complex64 desired column times the steering phases, exact for a
    static array and from the render's phase kernel for a moving one."""
    (n,) = rendered.active_sources
    spectrum = rendered.desired
    t_count, f_count, _ = spectrum.shape
    omega = rendered.mixture.bin_omega
    rel = scene._frame_relative_positions(spec, t_count, FS / CFG.hop, seed)
    if rel is None:
        pose = spec.geometry.positions
        tau = scene.propagation_delays(pose - pose[spec.geometry.reference],
                                       spec.sources[n].azimuth_deg)
        return spectrum * np.exp(1j * omega[:, None] * tau[None, :])
    tau = scene.propagation_delays(rel, spec.sources[n].azimuth_deg)
    image = np.zeros((t_count, f_count, tau.shape[1]), dtype=np.complex128)
    table = np.empty(scene._table_size(t_count, f_count, tau.shape[1]), dtype=np.complex128)
    scene._add_moving_image(image, spectrum, omega, tau, table)
    return image


def isolated_parts(spec, duration, seed):
    """The complex128 parts that render(spec, duration, seed=seed) adds before
    it rounds the mixture: each source's image and the noise. Each part rounds
    to the mixture of an isolated render: noiseless with one source active, or
    source-free."""
    noiseless = dataclasses.replace(spec, noise_level_db=None)
    images = []
    for n in range(spec.source_count):
        alone = scene.render(noiseless, duration, CFG, FS, seed=seed, active_sources=[n])
        images.append(image_part(spec, alone, seed))
        np.testing.assert_array_equal(alone.mixture.frames, images[-1].astype(np.complex64))
    noise = noise_part(spec, duration, seed)
    quiet = scene.render(spec, duration, CFG, FS, seed=seed, active_sources=[]).mixture.frames
    np.testing.assert_array_equal(quiet, noise.astype(np.complex64))
    return images, noise


class TestSteeringVector:
    def test_single_mic_at_origin(self):
        sv = np.exp(1j * 2.0 * np.pi * 1000.0 * scene.propagation_delays(np.zeros((1, 2)), 37.0))
        np.testing.assert_allclose(sv, [1.0 + 0.0j])

    def test_broadside_equal_entries(self):
        positions = np.array([[0.0, -0.1], [0.0, 0.2]])
        sv = np.exp(1j * 2.0 * np.pi * 2000.0 * scene.propagation_delays(positions, 0.0))
        np.testing.assert_allclose(sv[0], sv[1])

    def test_endfire_phase_difference(self):
        positions = np.array([[0.0, 0.0], [0.1, 0.0]])
        sv = np.exp(1j * 2.0 * np.pi * 1000.0 * scene.propagation_delays(positions, 0.0, c=343.0))
        phase = np.angle(sv[1] / sv[0])
        assert phase == pytest.approx(2.0 * np.pi * 1000.0 * 0.1 / 343.0, abs=1e-12)

    def test_unit_modulus(self):
        rng = np.random.default_rng(0)
        positions = rng.standard_normal((8, 2))
        sv = np.exp(1j * 2.0 * np.pi * 5000.0 * scene.propagation_delays(positions, 123.0))
        np.testing.assert_allclose(np.abs(sv), 1.0, atol=1e-13)


class TestStateSequence:
    def test_static_constant(self):
        seq = scene.state_sequence(scene.MotionModel.static(), 50, 31.25)
        assert seq.state_count == 1
        assert not seq.labels.any()

    def test_rotation_sweep_visits_all_states(self):
        motion = scene.MotionModel.rotation_sweep(-45.0, 45.0, period_s=20.0, state_count=10)
        seq = scene.state_sequence(motion, 625, 31.25)
        assert sorted(np.unique(seq.labels)) == list(range(10))

    def test_rotation_sweep_triangle_symmetry(self):
        motion = scene.MotionModel.rotation_sweep(0.0, 90.0, period_s=10.0, state_count=5)
        seq = scene.state_sequence(motion, 320, 32.0)
        # one full period: rises to the top state and returns
        assert seq.labels[0] == 0
        top = np.flatnonzero(seq.labels == 4)
        assert 0 < top.min() < top.max() < 319

    def test_jitter_is_one_state(self):
        motion = scene.MotionModel.gaussian_jitter(0.002)
        seq = scene.state_sequence(motion, 40, 31.25)
        assert seq.state_count == 1
        np.testing.assert_array_equal(seq.labels, np.zeros(40))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="frame_count"):
            scene.state_sequence(scene.MotionModel.static(), 0, 31.25)

    @pytest.mark.parametrize("span", [(10.0, 10.0), (20.0, -20.0), (float("nan"), 10.0)],
                             ids=["empty", "reversed", "nan"])
    def test_rotation_sweep_without_a_span_rejected(self, span):
        with pytest.raises(ValueError, match="min_deg < max_deg"):
            scene.MotionModel.rotation_sweep(*span, period_s=5.0, state_count=4)

    @pytest.mark.parametrize("period", [0.0, -5.0, float("nan"), float("inf")])
    def test_rotation_period_must_be_finite_and_positive(self, period):
        with pytest.raises(ValueError, match="finite positive period"):
            scene.MotionModel.rotation_sweep(-10.0, 10.0, period_s=period, state_count=4)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1e-3])
    def test_jitter_sigma_must_be_finite_and_nonnegative(self, sigma):
        with pytest.raises(ValueError, match="sigma_pos"):
            scene.MotionModel.gaussian_jitter(sigma)


class TestRender:
    def test_mixture_is_sum_of_parts(self):
        spec = simple_spec(pilot=scene.Pilot(7000.0))
        rendered = scene.render(spec, 2.0, CFG, FS, seed=1)
        images, noise = isolated_parts(spec, 2.0, seed=1)
        # Noise first, then the images in source order: the render's own order.
        np.testing.assert_array_equal(rendered.mixture.frames,
                                      (noise + images[0] + images[1]).astype(np.complex64))

    def test_deterministic_under_seed(self):
        spec = simple_spec(motion=scene.MotionModel.gaussian_jitter(0.003))
        a = scene.render(spec, 2.0, CFG, FS, seed=9)
        b = scene.render(spec, 2.0, CFG, FS, seed=9)
        np.testing.assert_array_equal(a.mixture.frames, b.mixture.frames)
        c = scene.render(spec, 2.0, CFG, FS, seed=10)
        assert not np.array_equal(a.mixture.frames, c.mixture.frames)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["static", "gaussian_jitter", "rotation_sweep"]))
    def test_same_seed_renders_identical_bytes(self, seed, kind):
        motion = {
            "static": scene.MotionModel.static(),
            "gaussian_jitter": scene.MotionModel.gaussian_jitter(0.004),
            "rotation_sweep": scene.MotionModel.rotation_sweep(-30.0, 30.0, 0.25, 3),
        }[kind]
        spec = simple_spec(mic_count=3, duration=0.25, motion=motion,
                           pilot=scene.Pilot(7000.0))
        first = scene.render(spec, 0.25, CFG, FS, seed=seed)
        scene.render(spec, 0.25, CFG, FS, seed=seed ^ 1)  # no state carries over
        again = scene.render(spec, 0.25, CFG, FS, seed=seed)
        assert first.mixture.frames.tobytes() == again.mixture.frames.tobytes()
        assert first.desired.tobytes() == again.desired.tobytes()
        np.testing.assert_array_equal(first.truth_states.labels, again.truth_states.labels)

    def test_single_noiseless_source_mixture_equals_image(self):
        spec = simple_spec(azimuths=(60.0,), noise_level_db=None)
        rendered = scene.render(spec, 2.0, CFG, FS, seed=2)
        rel = spec.geometry.positions - spec.geometry.positions[0]
        tau = scene.propagation_delays(rel, 60.0)
        phases = np.exp(1j * rendered.mixture.bin_omega[:, None] * tau[None, :])
        image = rendered.desired[:, :, :1] * phases[None, :, :]
        np.testing.assert_array_equal(rendered.mixture.frames, image.astype(np.complex64))
        np.testing.assert_array_equal(
            rendered.desired[:, :, 0], rendered.mixture.frames[:, :, 0]
        )

    @pytest.mark.parametrize("fft_size", [256, 32], ids=["129_bins", "17_bins"])
    @pytest.mark.parametrize("motion", [
        scene.MotionModel.rotation_sweep(-60.0, 60.0, period_s=0.5, state_count=6),
        scene.MotionModel.gaussian_jitter(0.01),
    ], ids=["rotation_sweep", "gaussian_jitter"])
    def test_moving_noiseless_source_matches_exact_phases(self, motion, fft_size):
        # Moving-array phases are built per bin chunk; compare with exact
        # per-frame exponentials, for bin counts that are not a multiple of
        # the chunk width and smaller than it.
        cfg = StftConfig(fft_size=fft_size, hop=fft_size // 2)
        spec = simple_spec(mic_count=6, azimuths=(70.0,), noise_level_db=None,
                           motion=motion, spacing=0.08)
        rendered = scene.render(spec, 2.0, cfg, FS, seed=14)
        t_count = rendered.mixture.frames.shape[0]
        rel = scene._frame_relative_positions(spec, t_count, FS / cfg.hop, seed=14)
        tau = scene.propagation_delays(rel, 70.0)  # (T, M)
        omega = rendered.mixture.bin_omega
        assert omega.shape[0] == fft_size // 2 + 1
        image = np.empty_like(rendered.mixture.frames)
        for t in range(t_count):
            phases = np.exp(1j * omega[:, None] * tau[t][None, :])  # (F, M)
            image[t] = rendered.desired[t, :, :1] * phases
        peak = np.abs(image).max()
        np.testing.assert_allclose(rendered.mixture.frames, image, rtol=0, atol=1e-13 * peak)

    def test_zero_jitter_matches_static(self):
        static = scene.render(simple_spec(), 1.0, CFG, FS, seed=3)
        jitter = scene.render(
            simple_spec(motion=scene.MotionModel.gaussian_jitter(0.0)), 1.0, CFG, FS, seed=3
        )
        np.testing.assert_allclose(
            static.mixture.frames, jitter.mixture.frames, atol=1e-12
        )

    def test_desired_is_reference_channel(self):
        spec = simple_spec(pilot=scene.Pilot(7200.0))
        rendered = scene.render(spec, 2.0, CFG, FS, seed=4)
        images, _ = isolated_parts(spec, 2.0, seed=4)
        for col, n in enumerate(rendered.active_sources):
            np.testing.assert_array_equal(rendered.desired[:, :, col], images[n][:, :, 0])

    def test_five_source_twelve_mic_layout(self):
        spec = simple_spec(mic_count=12, azimuths=(0.0, 45.0, 90.0, 135.0, 180.0),
                           duration=1.0)
        rendered = scene.render(spec, 1.0, CFG, FS, seed=5)
        assert rendered.mixture.mic_count == 12
        assert rendered.desired.shape[-1] == 5
        images, noise = isolated_parts(spec, 1.0, seed=5)
        assert [image.shape[-1] for image in images] == [12] * 5
        np.testing.assert_array_equal(rendered.mixture.frames,
                                      sum(images, noise).astype(np.complex64))

    def test_active_sources_subset(self):
        spec = simple_spec()
        rendered = scene.render(spec, 1.0, CFG, FS, seed=6, active_sources=[1])
        assert rendered.active_sources == (1,)
        assert rendered.desired.shape[-1] == 1
        images, noise = isolated_parts(spec, 1.0, seed=6)
        np.testing.assert_array_equal(rendered.mixture.frames,
                                      (noise + images[1]).astype(np.complex64))

    def test_noise_level_shared_across_active_sets(self):
        spec = simple_spec()
        full = scene.render(spec, 1.0, CFG, FS, seed=7)
        first = scene.render(spec, 1.0, CFG, FS, seed=7, active_sources=[0])
        images, noise = isolated_parts(spec, 1.0, seed=7)
        np.testing.assert_array_equal(full.mixture.frames,
                                      (noise + images[0] + images[1]).astype(np.complex64))
        np.testing.assert_array_equal(first.mixture.frames, (noise + images[0]).astype(np.complex64))

    @pytest.mark.parametrize("active", [[0, 0], [1, 0, 1]], ids=["pair", "among_others"])
    def test_duplicate_active_sources_rejected(self, active):
        with pytest.raises(ValueError, match=r"repeat sources \[\d\]"):
            scene.render(simple_spec(), 1.0, CFG, FS, seed=6, active_sources=active)

    def test_noisy_scene_without_sources_rejected(self):
        spec = dataclasses.replace(simple_spec(), sources=(), noise_level_db=None)
        with pytest.raises(ValueError, match="needs a source to set the noise level"):
            dataclasses.replace(spec, noise_level_db=-30.0)
        quiet = scene.render(spec, 1.0, CFG, FS, seed=6)
        assert not quiet.mixture.frames.any()

    @pytest.mark.parametrize("motion", [
        scene.MotionModel.static(),
        scene.MotionModel.gaussian_jitter(0.004),
        scene.MotionModel.rotation_sweep(-30.0, 30.0, period_s=0.5, state_count=3),
    ], ids=["static", "gaussian_jitter", "rotation_sweep"])
    def test_noise_does_not_depend_on_the_active_set(self, motion):
        # A noisy render is the noise of its source-free render plus the image
        # of its noiseless render: noise level and noise stream are the same
        # whatever is active.
        spec = simple_spec(azimuths=(30.0, 80.0, 120.0), motion=motion)
        images, noise = isolated_parts(spec, 1.0, seed=12)
        for n in range(3):
            noisy = scene.render(spec, 1.0, CFG, FS, seed=12, active_sources=[n])
            np.testing.assert_array_equal(noisy.mixture.frames,
                                          (noise + images[n]).astype(np.complex64))

    @pytest.mark.parametrize("duration", [1.0, 0.3, 256 / FS], ids=["1s", "0.3s", "one_frame"])
    def test_noiseless_source_free_render_is_zero_frames(self, duration):
        spec = simple_spec(noise_level_db=None, motion=scene.MotionModel.gaussian_jitter(0.004))
        rendered = scene.render(spec, duration, CFG, FS, seed=3, active_sources=[])
        t_count = (int(round(duration * FS)) - CFG.fft_size) // CFG.hop + 1
        shape = (t_count, CFG.bin_count, spec.geometry.mic_count)
        assert rendered.mixture.frames.shape == shape
        assert not rendered.mixture.frames.any()
        assert rendered.desired.shape == (t_count, CFG.bin_count, 0)
        assert rendered.truth_states.frame_count == t_count
        with_noise = scene.render(dataclasses.replace(spec, noise_level_db=-30.0), duration,
                                  CFG, FS, seed=3, active_sources=[])
        assert with_noise.mixture.frames.shape == shape

    def test_short_source_rejected(self):
        samples = int(0.5 * FS)
        signals = scene.pseudorandom_signals(1, samples, 0)
        spec = scene.SceneSpec(
            geometry=scene.ArrayGeometry(scene.linear_positions(3, 0.04)),
            sources=(scene.Source(10.0, signals[0]),),
            motion=scene.MotionModel.static(),
        )
        with pytest.raises(ValueError, match="samples"):
            scene.render(spec, 1.0, CFG, FS, seed=0)

    def test_single_source_sample_covariance_is_rank_one(self):
        # Static, noiseless: the outer-product energy concentrates on the
        # steering direction; remaining eigenvalues are numerical dust.
        spec = simple_spec(azimuths=(75.0,), noise_level_db=None, duration=4.0)
        rendered = scene.render(spec, 4.0, CFG, FS, seed=8)
        x = rendered.mixture.frames
        f = 40
        cov = np.einsum("tm,tn->mn", x[:, f], x[:, f].conj()) / x.shape[0]
        eigs = np.linalg.eigvalsh(cov)
        assert eigs[-1] / max(eigs[-2], 1e-300) > 1e6
        rel = spec.geometry.positions - spec.geometry.positions[0]
        sv = np.exp(1j * rendered.mixture.bin_omega[f] * scene.propagation_delays(rel, 75.0))
        principal = np.linalg.eigh(cov)[1][:, -1]
        alignment = np.abs(np.vdot(sv, principal)) / np.linalg.norm(sv)
        assert alignment > 0.999999

    def test_jitter_ensemble_matches_perturbation_model(self):
        # Long-run sample covariance of a jittered source against the
        # closed-form attenuation, entrywise within three standard errors.
        sigma_pos = 0.01
        motion = scene.MotionModel.gaussian_jitter(sigma_pos, jitter_reference=True)
        spec = simple_spec(mic_count=3, azimuths=(50.0,), noise_level_db=None,
                           duration=32.0, motion=motion)
        rendered = scene.render(spec, 32.0, CFG, FS, seed=11)
        x = rendered.mixture.frames
        f = 64
        omega = rendered.mixture.bin_omega[f]
        rel = spec.geometry.positions - spec.geometry.positions[0]
        sv = np.exp(1j * omega * scene.propagation_delays(rel, 50.0))
        base = np.outer(sv, sv.conj())
        np.fill_diagonal(base, 1.0)
        theory = covmath.perturbed_covariance(base, omega, sigma_pos / 343.0)
        outers = np.einsum("tm,tn->tmn", x[:, f], x[:, f].conj())
        weights = np.abs(rendered.desired[:, f, 0]) ** 2
        diffs = outers - weights[:, None, None] * theory
        se = np.sqrt(
            (diffs.real.var(axis=0) + diffs.imag.var(axis=0)) / x.shape[0]
        )
        gap = np.abs(diffs.mean(axis=0))
        assert (gap <= 3.0 * se + 1e-12).all()

    @pytest.mark.parametrize("jitter_reference", [False, True])
    def test_jitter_reference_sets_which_pairs_decorrelate(self, jitter_reference):
        # A fixed reference is one jitter draw away from each other microphone,
        # two moving ones two draws apart: broadside at 3-5 kHz and 5 mm, mean
        # coherence about 0.93 against 0.87. A jittered reference moves like
        # the rest, so every pair reads about 0.87.
        motion = scene.MotionModel.gaussian_jitter(0.005, jitter_reference)
        spec = simple_spec(azimuths=(90.0,), duration=5.0, noise_level_db=None,
                           motion=motion, spacing=0.05)
        mixture = scene.render(spec, 5.0, CFG, FS, seed=0).mixture
        x = mixture.frames[:, (mixture.bin_hz >= 3000) & (mixture.bin_hz <= 5000)]
        cross = np.einsum("tfi,tfj->fij", x, x.conj())
        power = np.einsum("fii->fi", cross).real
        coherence = (np.abs(cross) / np.sqrt(power[:, :, None] * power[:, None, :])).mean(axis=0)
        reference_pairs = coherence[0, 1:].mean()
        other_pairs = coherence[np.triu_indices(4, 1)][3:].mean()
        if jitter_reference:
            assert abs(reference_pairs - other_pairs) < 0.03
        else:
            assert reference_pairs - other_pairs > 0.04

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_source_sample_rejected(self, bad):
        signal = scene.pseudorandom_signals(1, FS, 0)[0]
        signal[100] = bad
        with pytest.raises(ValueError, match="non-finite"):
            scene.Source(10.0, signal)

    def test_pilot_bins_assigned_per_source(self):
        spec = simple_spec(pilot=scene.Pilot(7000.0))
        rendered = scene.render(spec, 1.0, CFG, FS, seed=12)
        width = FS / CFG.fft_size
        base = round(7000.0 / width)
        assert rendered.pilot_bins == (base, base + 2)

    def test_pilot_out_of_band_rejected(self):
        spec = simple_spec(pilot=scene.Pilot(5000.0))
        with pytest.raises(ValueError, match="pilot frequency"):
            scene.render(spec, 1.0, CFG, FS, seed=0)

    def test_pilot_tone_energy_at_its_bin(self):
        # Noiseless renders of source 0 alone: each mixture is that source's image.
        quiet = scene.render(simple_spec(noise_level_db=None), 2.0, CFG, FS, seed=13,
                             active_sources=[0])
        loud = scene.render(
            simple_spec(noise_level_db=None, pilot=scene.Pilot(7000.0, -10.0)),
            2.0, CFG, FS, seed=13, active_sources=[0],
        )
        b = loud.pilot_bins[0]
        added = np.abs(loud.mixture.frames[:, b, 0]) ** 2 - \
            np.abs(quiet.mixture.frames[:, b, 0]) ** 2
        source_power = np.mean(np.sum(np.abs(quiet.desired[:, :, 0]) ** 2, axis=1))
        assert added.mean() == pytest.approx(0.1 * source_power, rel=0.3)


@pytest.fixture
def analyze_calls(monkeypatch):
    """Count the STFT analyses render makes."""
    calls = []

    original = scene.analyze

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scene, "analyze", counted)
    return calls


class TestRenderTransforms:
    """A render transforms a source only when its image or the noise level
    needs it."""

    SPEC = simple_spec(azimuths=(30.0, 80.0, 120.0), duration=1.0)

    @pytest.mark.parametrize("active", [[0], [2]])
    def test_noiseless_render_transforms_its_active_source(self, analyze_calls, active):
        noiseless = dataclasses.replace(self.SPEC, noise_level_db=None)
        scene.render(noiseless, 1.0, CFG, FS, seed=1, active_sources=active)
        assert len(analyze_calls) == 1

    def test_noiseless_source_free_render_transforms_nothing(self, analyze_calls):
        noiseless = dataclasses.replace(self.SPEC, noise_level_db=None)
        scene.render(noiseless, 1.0, CFG, FS, seed=1, active_sources=[])
        assert analyze_calls == []

    @pytest.mark.parametrize("active", [[0], [], None], ids=["one", "none", "all"])
    def test_noisy_render_transforms_every_source(self, analyze_calls, active):
        scene.render(self.SPEC, 1.0, CFG, FS, seed=1, active_sources=active)
        assert len(analyze_calls) == 3

    def test_cli_training_transforms_each_source_twice(self, analyze_calls, tmp_path):
        # N noiseless isolated-source renders (one transform each) plus the
        # noisy source-free render (N transforms).
        config = cli.load_config(None, {
            "seed": 4, "out_dir": str(tmp_path),
            "stft": {"fft_size": 256, "hop": 128},
            "geometry": {"mic_count": 3, "spacing": 0.04},
            "sources": {"azimuths_deg": [20.0, 70.0, 140.0]},
            "train_duration_s": 0.5,
        })
        cli.run_train(config)
        assert len(analyze_calls) == 2 * 3


class TestRenderBlocks:
    """A render fills its mixture one block of frames at a time; the block
    length never changes a byte of it."""

    @pytest.mark.parametrize("noise_level_db", [-30.0, None], ids=["noisy", "noiseless"])
    @pytest.mark.parametrize("motion", [
        scene.MotionModel.static(),
        scene.MotionModel.gaussian_jitter(0.004),
        scene.MotionModel.rotation_sweep(-30.0, 30.0, period_s=0.5, state_count=3),
    ], ids=["static", "gaussian_jitter", "rotation_sweep"])
    def test_block_length_never_changes_bytes(self, monkeypatch, motion, noise_level_db):
        spec = simple_spec(mic_count=3, azimuths=(30.0, 80.0, 120.0), motion=motion,
                           noise_level_db=noise_level_db, pilot=scene.Pilot(7000.0))
        default = scene.render(spec, 2.0, CFG, FS, seed=4).mixture.frames
        # A frame of the render's complex128 scratch is twice a complex64 frame.
        t_count, frame_bytes = default.shape[0], 2 * default[0].nbytes
        assert t_count % 5 != 0
        for rows in (1, 5, t_count, 3 * t_count):
            monkeypatch.setattr(stft, "BLOCK_BYTES", rows * frame_bytes)
            blocked = scene.render(spec, 2.0, CFG, FS, seed=4).mixture.frames
            np.testing.assert_array_equal(blocked.view(np.uint64), default.view(np.uint64))


    @pytest.mark.parametrize("blocks", ["one", "many"])
    @pytest.mark.parametrize("motion", [
        scene.MotionModel.static(),
        scene.MotionModel.rotation_sweep(-30.0, 30.0, period_s=0.5, state_count=3),
    ], ids=["static", "rotation_sweep"])
    def test_noisy_render_matches_serial_reference(self, monkeypatch, motion, blocks):
        # Each frame's noise drawn from its own stream and scaled as the
        # render does, plus each image in active order, rounded once.
        spec = simple_spec(mic_count=3, azimuths=(30.0, 80.0, 120.0), motion=motion,
                           pilot=scene.Pilot(7000.0))
        images, expected = isolated_parts(spec, 2.0, seed=4)
        frame_bytes = images[0][0].nbytes  # a frame of the render's complex128 scratch
        rows = len(images[0]) if blocks == "one" else 4
        monkeypatch.setattr(stft, "BLOCK_BYTES", rows * frame_bytes)
        rendered = scene.render(spec, 2.0, CFG, FS, seed=4).mixture.frames
        for image in images:
            expected += image
        assert rendered.shape == expected.shape
        np.testing.assert_array_equal(rendered.view(np.uint64),
                                      expected.astype(np.complex64).view(np.uint64))

    @pytest.mark.parametrize("rows, serial", [(1, False), (7, False), (7, True)],
                             ids=["1_frame", "7_frames", "serial"])
    def test_noise_is_each_frame_drawn_from_its_own_stream(self, monkeypatch, rows, serial):
        # A source-free render is its noise alone: bit for bit the frames drawn
        # one at a time from their own streams, whatever the block length and
        # whichever thread draws a frame (serial: this thread draws them all).
        motion = scene.MotionModel.rotation_sweep(-30.0, 30.0, period_s=0.5, state_count=3)
        spec = simple_spec(mic_count=3, azimuths=(30.0, 80.0), motion=motion)
        expected = noise_part(spec, 2.0, seed=4).astype(np.complex64)
        monkeypatch.setattr(stft, "BLOCK_BYTES", rows * 2 * expected[0].nbytes)
        if serial:
            monkeypatch.setattr(scene, "on_two_threads", lambda fn: [fn(half) for half in (0, 1)])
        quiet = scene.render(spec, 2.0, CFG, FS, seed=4, active_sources=[]).mixture.frames
        np.testing.assert_array_equal(quiet.view(np.uint64), expected.view(np.uint64))

    def test_concurrent_renders_under_a_short_switch_interval(self, monkeypatch):
        # Four renders at once, each with its own helper (eight threads on
        # fewer cores), and a thread switch every few microseconds: every
        # frame and block handout still gives the bytes of a render run alone.
        motion = scene.MotionModel.rotation_sweep(-30.0, 30.0, period_s=0.5, state_count=3)
        spec = simple_spec(mic_count=3, azimuths=(30.0, 80.0, 120.0), motion=motion,
                           pilot=scene.Pilot(7000.0))
        alone = scene.render(spec, 2.0, CFG, FS, seed=4).mixture.frames
        monkeypatch.setattr(stft, "BLOCK_BYTES", 2 * 2 * alone[0].nbytes)  # 2 frames
        results = [None] * 4

        def run(k):
            results[k] = scene.render(spec, 2.0, CFG, FS, seed=4).mixture.frames

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for frames in results:
            np.testing.assert_array_equal(frames.view(np.uint64), alone.view(np.uint64))


class TestRenderMemory:
    def test_noisy_render_holds_one_complex128_spectrum_beyond_its_outputs(self):
        # The complex64 mixture and desired, the two threads' complex128
        # scratch and one complex128 (T, F) source spectrum at a time, written
        # into desired as it is made. The rest fits in that bound, about 1 MB
        # below it in this 3 MB-spectrum scene: the image kernels' iterator
        # buffers and, before the scratch exists, the transform's windowed
        # frames. A desired stacked in complex128 from every source's spectrum
        # would pass it by 20 MB.
        spec = simple_spec(mic_count=6, azimuths=(0.0, 45.0, 90.0, 135.0, 180.0),
                           duration=12.0, pilot=scene.Pilot(7000.0))
        tracemalloc.start()
        try:
            rendered = scene.render(spec, 12.0, CFG, FS, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mixture, desired = rendered.mixture.frames, rendered.desired
        assert mixture.dtype == desired.dtype == np.complex64
        t_count, f_count, m_count = mixture.shape
        rows = stft.block_length(f_count * m_count * 16)
        scratch = 2 * 16 * (rows * f_count * m_count + scene._table_size(rows, f_count, m_count))
        assert peak <= mixture.nbytes + desired.nbytes + scratch + 16 * t_count * f_count


MOTIONS = [
    scene.MotionModel.static(),
    scene.MotionModel.gaussian_jitter(0.004),
    scene.MotionModel.rotation_sweep(-30.0, 30.0, period_s=0.5, state_count=3),
]


class TestRenderThreads:
    """This thread adds the images of a render's even blocks and a helper
    those of its odd blocks; no byte depends on the split."""

    @pytest.mark.parametrize("noise_level_db", [-30.0, None], ids=["noisy", "noiseless"])
    @pytest.mark.parametrize("motion", MOTIONS, ids=["static", "gaussian_jitter", "rotation_sweep"])
    def test_two_threads_equal_one_thread(self, monkeypatch, motion, noise_level_db):
        # The reference is the whole render as one block, with the helper's
        # half run here as well: it has no block, so this thread adds every image.
        spec = simple_spec(mic_count=3, azimuths=(30.0, 80.0, 120.0), motion=motion,
                           noise_level_db=noise_level_db, pilot=scene.Pilot(7000.0))
        with monkeypatch.context() as serial:
            serial.setattr(scene, "on_two_threads", lambda add: [add(half) for half in (0, 1)])
            serial.setattr(stft, "BLOCK_BYTES", 1 << 40)
            reference = scene.render(spec, 2.0, CFG, FS, seed=4).mixture.frames
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for rows in (1, 2, 7):
                monkeypatch.setattr(stft, "BLOCK_BYTES", rows * 2 * reference[0].nbytes)
                split = scene.render(spec, 2.0, CFG, FS, seed=4).mixture.frames
                np.testing.assert_array_equal(split.view(np.uint64), reference.view(np.uint64))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("failing", ["helper image", "noise draw"])
    def test_failure_reraises_in_the_caller_and_leaves_no_thread(self, monkeypatch, failing,
                                                                  raised_within):
        # An odd block's image fails on the helper; or a noise draw fails on
        # the helper, then on this thread. The other thread's first draw waits
        # for the failure, so each thread surely takes a frame.
        spec = simple_spec(mic_count=3, motion=MOTIONS[2], pilot=scene.Pilot(7000.0))
        monkeypatch.setattr(stft, "BLOCK_BYTES", 3 * 129 * 3 * 16)  # 3 frames, many blocks
        threads = threading.active_count()

        def reraises_and_leaves_no_thread():
            error = raised_within(lambda: scene.render(spec, 2.0, CFG, FS, seed=4))
            assert isinstance(error, RuntimeError) and str(error) == "injected failure"
            assert threading.active_count() == threads

        if failing == "helper image":
            add = scene._add_moving_image

            def fail_on_the_helper(*args):
                if threading.current_thread().name != "caller":
                    raise RuntimeError("injected failure")
                add(*args)

            monkeypatch.setattr(scene, "_add_moving_image", fail_on_the_helper)
            reraises_and_leaves_no_thread()
            return
        default_rng = np.random.default_rng
        for on_the_caller in (False, True):
            failed = threading.Event()

            class DrawFails:
                def __init__(self, seed):
                    self.rng = default_rng(seed)

                def standard_normal(self, **kwargs):
                    if (threading.current_thread().name == "caller") == on_the_caller:
                        failed.set()
                        raise RuntimeError("injected failure")
                    assert failed.wait(timeout=60)
                    return self.rng.standard_normal(**kwargs)

            monkeypatch.setattr(np.random, "default_rng", DrawFails)
            reraises_and_leaves_no_thread()


class TestGeometry:
    def test_linear_positions_reference_at_origin(self):
        pos = scene.linear_positions(5, 0.1, reference=0)
        np.testing.assert_array_equal(pos[0], [0.0, 0.0])
        assert pos.shape == (5, 2)
        np.testing.assert_allclose(np.diff(sorted(pos[1:, 0])), 0.1)

    @pytest.mark.parametrize("reference", [3, -1])
    @pytest.mark.parametrize("layout", [scene.linear_positions], ids=["linear"])
    def test_reference_out_of_range_rejected(self, layout, reference):
        with pytest.raises(ValueError,
                           match=rf"reference {reference} out of range for 3 microphones"):
            layout(3, reference=reference)

    def test_rotations_keep_reference_fixed(self):
        base = scene.linear_positions(4, 0.05)
        poses = scene._rotated(base, 0, [-30.0, 0.0, 30.0])
        assert poses.shape == (3, 4, 2)
        for k in range(3):
            np.testing.assert_array_equal(poses[k, 0], base[0])
        np.testing.assert_allclose(poses[1], base, atol=1e-15)

    def test_rotation_preserves_pairwise_distances(self):
        base = scene.linear_positions(5, 0.03)
        moved = scene._rotated(base, 0, [17.0])[0][1:]
        orig = base[1:]
        dist = lambda p: np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)
        np.testing.assert_allclose(dist(moved), dist(orig), atol=1e-12)

    def test_duplicate_azimuths_rejected(self):
        signals = scene.pseudorandom_signals(2, FS, 0)
        with pytest.raises(ValueError, match="distinct"):
            scene.SceneSpec(
                geometry=scene.ArrayGeometry(scene.linear_positions(3, 0.05)),
                sources=(scene.Source(5.0, signals[0]), scene.Source(5.0, signals[1])),
                motion=scene.MotionModel.static(),
            )
