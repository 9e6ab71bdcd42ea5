"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Trend criteria run on desk-scale simulated scenes: a 12-microphone linear
array (0.05 m spacing, fixed reference at the origin) observing five sources
45 degrees apart on a half circle, either rotating +-45 degrees over ten
quantized states or jittering with 5 mm per-frame position noise.
"""

import time

import numpy as np
import pytest
from scipy.io import wavfile

from driftbeam import beamform, cli, covest, covmath, evaluate, scene
from driftbeam.stft import StftConfig, analyze, synthesize

FS = 16000
CFG = StftConfig()
AZIMUTHS = (0.0, 45.0, 90.0, 135.0, 180.0)
WIENER_FLOOR_DB = 10.0 * np.log10(5.0)
OCTAVE_BANDS = ((500.0, 1000.0), (1000.0, 2000.0), (2000.0, 4000.0), (4000.0, 8000.0))


def report(name, elapsed, detail=""):
    print(f"\nPASS {name} ({elapsed:.1f} s) {detail}")


def random_delays(rng, m, omega):
    """Arrival delays whose steering phases at omega are uniform on (-pi, pi)."""
    return rng.uniform(-np.pi, np.pi, m) / omega


def five_source_spec(motion, spacing=0.05, noise_level_db=-30.0, pilot=None,
                     duration=20.0, seed=10):
    samples = int(duration * FS)
    signals = scene.pseudorandom_signals(len(AZIMUTHS), samples, seed)
    geometry = scene.ArrayGeometry(scene.linear_positions(12, spacing))
    return scene.SceneSpec(
        geometry=geometry,
        sources=tuple(scene.Source(az, s) for az, s in zip(AZIMUTHS, signals)),
        motion=motion,
        noise_level_db=noise_level_db,
        pilot=pilot,
    )


@pytest.fixture(scope="module")
def rotation_experiment():
    motion = scene.MotionModel.rotation_sweep(-45.0, 45.0, period_s=20.0, state_count=10)
    spec = five_source_spec(motion, pilot=scene.Pilot(7000.0, -20.0))
    covs = covest.train(*covest.training_renders(spec, 20.0, CFG, FS, seed=100))
    test = scene.render(spec, 20.0, CFG, FS, seed=777)
    return covs, covest.pilot_templates(covs, test.pilot_bins), test


@pytest.fixture(scope="module")
def jitter_experiment():
    motion = scene.MotionModel.gaussian_jitter(0.005)
    spec = five_source_spec(motion, seed=11)
    covs = covest.train(*covest.training_renders(spec, 20.0, CFG, FS, seed=200))
    test = scene.render(spec, 20.0, CFG, FS, seed=888)
    return covs, test


def gain_of(bank, test, states=None):
    estimates = beamform.apply_bank(bank, test.mixture, states)
    return evaluate.gain(
        estimates, test.mixture.frames[:, :, 0], test.desired, test.mixture.bin_hz
    )


def test_c01_closed_form_divergence_oracle():
    # Closed form against gaussian_divergence of the perturbed covariances,
    # 120 random steering pairs, within 1e-9 relative.
    start = time.time()
    rng = np.random.default_rng(1)
    checked = 0
    worst = 0.0
    for m in (2, 4, 8, 12):
        for _ in range(30):
            omega = rng.uniform(200.0, 50000.0)
            sigma = rng.uniform(0.1, 3.0) / omega
            tau1, tau2 = random_delays(rng, m, omega), random_delays(rng, m, omega)
            closed = covmath.far_field_divergence(tau1, tau2, omega, sigma)
            a1, a2 = np.exp(1j * omega * tau1), np.exp(1j * omega * tau2)
            r1 = covmath.perturbed_covariance(np.outer(a1, a1.conj()), omega, sigma)
            r2 = covmath.perturbed_covariance(np.outer(a2, a2.conj()), omega, sigma)
            composed = covmath.gaussian_divergence(r1, r2)
            rel = abs(closed - composed) / abs(closed)
            worst = max(worst, rel)
            checked += 1
    assert checked >= 100
    assert worst < 1e-9
    elapsed = time.time() - start
    assert elapsed < 5.0
    report("criterion 1 (closed-form divergence oracle)", elapsed,
           f"worst rel {worst:.2e} over {checked} pairs")


def test_c02_perturbed_covariance_monte_carlo():
    # Ensemble average of perturbed rank-one covariances over 1e5 Gaussian
    # delay draws, entrywise within three standard errors. M = 4.
    start = time.time()
    rng = np.random.default_rng(2)
    m, omega, draws = 4, 2.0 * np.pi * 4000.0, 100_000
    for omega_sigma in (0.3, 1.0, 2.0):
        sigma = omega_sigma / omega
        entries = np.exp(1j * rng.uniform(-np.pi, np.pi, m))
        base = np.outer(entries, entries.conj())
        theory = covmath.perturbed_covariance(base, omega, sigma)
        delays = rng.normal(0.0, sigma, (draws, m))
        perturbed = entries[None, :] * np.exp(1j * omega * delays)
        outers = np.einsum("km,kn->kmn", perturbed, perturbed.conj())
        mc = outers.mean(axis=0)
        se = np.sqrt((outers.real.var(axis=0) + outers.imag.var(axis=0)) / draws)
        assert (np.abs(mc - theory) <= 3.0 * se + 1e-12).all()
    elapsed = time.time() - start
    assert elapsed < 30.0
    report("criterion 2 (perturbation model Monte Carlo)", elapsed,
           f"{draws} draws x 3 deformation scales")


def test_c03_stft_perfect_reconstruction():
    start = time.time()
    rng = np.random.default_rng(3)
    guard = CFG.fft_size

    def residual_db(x):
        y = synthesize(analyze(x, CFG), CFG)[:, 0]
        err = y[guard:len(x) - guard] - x[guard:-guard]
        return 10.0 * np.log10(np.sum(err ** 2) / np.sum(x[guard:-guard] ** 2))

    noise = rng.standard_normal(10 * FS)
    t = np.arange(10 * FS) / FS
    pitch = 150.0 + 30.0 * np.sin(2.0 * np.pi * 0.5 * t)
    phase = 2.0 * np.pi * np.cumsum(pitch) / FS
    speech = (0.3 + 0.7 * np.abs(np.sin(2.0 * np.pi * 1.1 * t))) * sum(
        np.sin(k * phase) / k for k in range(1, 10)
    )
    db_noise, db_speech = residual_db(noise), residual_db(speech)
    assert db_noise < -100.0 and db_speech < -100.0
    elapsed = time.time() - start
    assert elapsed < 5.0
    report("criterion 3 (perfect reconstruction)", elapsed,
           f"noise {db_noise:.0f} dB, speech-like {db_speech:.0f} dB")


def test_c04_mwf_closed_form():
    # Single rank-one source in white noise, steering phased against the
    # reference (a_ref = 1): W = conj(a_ref) * a^H / (sigma^2 + M).
    start = time.time()
    rng = np.random.default_rng(4)
    m, sigma2 = 12, 0.4
    entries = np.exp(1j * rng.uniform(-np.pi, np.pi, m))
    entries[0] = 1.0
    source = np.outer(entries, entries.conj())[None]
    noise = sigma2 * np.eye(m)[None]
    weights = beamform.mwf_weights([source], noise, reference=0, epsilon_rel=0.0)
    expected = np.conj(entries[0]) * entries.conj()[None, :] / (sigma2 + m)
    np.testing.assert_allclose(weights[0], expected, rtol=0, atol=1e-9)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report("criterion 4 (Wiener closed form)", elapsed)


def test_c05_scalar_wiener_baseline():
    # One microphone, five equal-power uncorrelated sources: per-bin gain is
    # 10 log10(5) within +-0.5 dB.
    start = time.time()
    duration = 60.0
    samples = int(duration * FS)
    signals = scene.pseudorandom_signals(5, samples, seed=42,
                                         stream=scene.TEST_SIGNAL_STREAM)
    spec = scene.SceneSpec(
        geometry=scene.ArrayGeometry(np.zeros((1, 2))),
        sources=tuple(scene.Source(az, s) for az, s in zip((-90.0, -45.0, 0.0, 45.0, 90.0), signals)),
        motion=scene.MotionModel.static(),
        noise_level_db=None,
    )
    rendered = scene.render(spec, duration, CFG, FS, seed=7)
    omega = rendered.mixture.bin_omega
    flat = np.ones((omega.shape[0], 1, 1), complex)
    silent = np.zeros((omega.shape[0], 1, 1), complex)
    weights = beamform.mwf_weights([flat] * 5, silent, reference=0, epsilon_rel=0.0)
    bank = beamform.BeamformerBank(mode="static", weights=weights[None], reference=0,
                                   frequencies=omega)
    gains = gain_of(bank, rendered)
    deviation = np.abs(gains.gain_db - WIENER_FLOOR_DB)
    assert not gains.flagged.any()
    assert deviation.max() < 0.5
    elapsed = time.time() - start
    assert elapsed < 30.0
    report("criterion 5 (scalar Wiener baseline)", elapsed,
           f"max per-bin deviation {deviation.max():.2f} dB")


def test_c06_divergence_trend(rotation_experiment):
    # Rotating array: above 4 kHz, between-source divergence within one
    # state is at least 10x the ensemble between-source divergence, and the
    # extreme states of the central source diverge more than the ensembles.
    start = time.time()
    covs, _, _ = rotation_experiment
    central = len(AZIMUTHS) // 2
    table = evaluate.divergence_curve(covs, {
        "ensemble": evaluate.outer_vs_central_pairs(5),
        "within_state": evaluate.outer_vs_central_pairs(5, state=5),
        "between_state": [((central, 0), (central, 9))],
    })
    high = table["frequency_hz"] > 4000.0
    ens = table["ensemble"][high].mean()
    within = table["within_state"][high].mean()
    between = table["between_state"][high].mean()
    assert within >= 10.0 * ens
    assert between > ens
    elapsed = time.time() - start
    assert elapsed < 300.0
    report("criterion 6 (divergence trend)", elapsed,
           f"within/ensemble {within / ens:.1f}x, between-state/ensemble {between / ens:.1f}x")


def test_c07_dynamic_beats_static(rotation_experiment):
    # Rotation exceeding the source spacing: the state-tracking beamformer
    # outgains the static one by at least 2 dB below 4 kHz, with states
    # estimated from the pilot band.
    start = time.time()
    covs, templates, test = rotation_experiment
    static = beamform.build(covs, "static")
    dynamic = beamform.build(covs, "dynamic")
    states = covest.estimate_states(test.mixture, templates, test.pilot_bins)
    static_gain = gain_of(static, test).band_mean(0.0, 4000.0)
    dynamic_gain = gain_of(dynamic, test, states).band_mean(0.0, 4000.0)
    margin = dynamic_gain - static_gain
    assert margin >= 2.0
    elapsed = time.time() - start
    assert elapsed < 600.0
    report("criterion 7 (dynamic vs static)", elapsed,
           f"static {static_gain:.1f} dB, dynamic {dynamic_gain:.1f} dB, margin {margin:.1f} dB")


def test_c08_full_rank_beats_rank_one(jitter_experiment):
    # 5 mm jitter: the full-rank static beamformer outgains the rank-one one
    # in every octave band from 500 Hz up (below that the deformation is a
    # negligible fraction of the wavelength and the two models coincide up to
    # sampling noise) and overall; at the top bins both sink toward the
    # single-channel Wiener floor: the excess over the floor falls to at most
    # half its peak-octave value, without dropping more than 2 dB below it.
    start = time.time()
    covs, test = jitter_experiment
    full = gain_of(beamform.build(covs, "static"), test)
    rank_one = gain_of(beamform.build(covs, "rank1"), test)
    for lo, hi in OCTAVE_BANDS:
        assert full.band_mean(lo, hi) > rank_one.band_mean(lo, hi), (lo, hi)
    assert full.band_mean(0.0, FS) > rank_one.band_mean(0.0, FS)
    top_lo = 0.9 * FS / 2.0
    for mode in (full, rank_one):
        peak_excess = max(mode.band_mean(lo, hi) for lo, hi in OCTAVE_BANDS) - WIENER_FLOOR_DB
        top_excess = mode.band_mean(top_lo, FS) - WIENER_FLOOR_DB
        assert top_excess <= 0.5 * peak_excess
        assert top_excess >= -2.0
    elapsed = time.time() - start
    assert elapsed < 600.0
    report("criterion 8 (full-rank vs rank-one)", elapsed,
           f"octave margins {[round(full.band_mean(lo, hi) - rank_one.band_mean(lo, hi), 2) for lo, hi in OCTAVE_BANDS]} dB")


def test_c09_monotonicity():
    start = time.time()
    # Closed form: strictly decreasing in frequency and deformation scale for
    # fixed steering phases.
    rng = np.random.default_rng(9)
    p1 = rng.uniform(-np.pi, np.pi, 8)
    p2 = rng.uniform(-np.pi, np.pi, 8)
    omegas = np.linspace(300.0, 50000.0, 60)
    sigma = 2e-5
    curve = [covmath.far_field_divergence(p1 / w, p2 / w, w, sigma) for w in omegas]
    assert (np.diff(curve) < 0).all()
    sigmas = np.linspace(2e-6, 2e-4, 60)
    curve = [covmath.far_field_divergence(p1 / 10000.0, p2 / 10000.0, 10000.0, s)
             for s in sigmas]
    assert (np.diff(curve) < 0).all()

    # Measured: per-bin ensemble between-source divergence non-increasing in
    # jitter scale across 0, 2, 5, 10 mm for bins above 500 Hz.
    cfg = StftConfig(fft_size=512, hop=256)
    duration = 60.0
    samples = int(duration * FS)
    curves = {}
    for sigma_mm in (0, 2, 5, 10):
        motion = (scene.MotionModel.static() if sigma_mm == 0
                  else scene.MotionModel.gaussian_jitter(sigma_mm / 1000.0))
        signals = scene.pseudorandom_signals(2, samples, seed=50)
        spec = scene.SceneSpec(
            geometry=scene.ArrayGeometry(scene.linear_positions(6, 0.05)),
            sources=(scene.Source(45.0, signals[0]), scene.Source(135.0, signals[1])),
            motion=motion,
            noise_level_db=-50.0,
        )
        covs = covest.train(*covest.training_renders(spec, duration, cfg, FS, seed=300))
        table = evaluate.divergence_curve(covs, {"d": [((0, None), (1, None))]},
                                          epsilon_rel=1e-4)
        curves[sigma_mm] = (np.asarray(table["frequency_hz"]), table["d"])
    high = curves[0][0] > 500.0
    for small, large in ((0, 2), (2, 5), (5, 10)):
        assert (curves[large][1][high] <= curves[small][1][high]).all(), (small, large)
    elapsed = time.time() - start
    assert elapsed < 300.0
    report("criterion 9 (monotonicity)", elapsed)


def test_c10_small_instance_brute_force():
    # apply() and gain() against naive per-frame scalar loops on M <= 3,
    # F <= 4, T <= 8 instances.
    start = time.time()
    rng = np.random.default_rng(10)
    t, f, n, m = 8, 4, 2, 3
    weights = np.stack([
        rng.standard_normal((f, n, m)) + 1j * rng.standard_normal((f, n, m))
        for _ in range(3)
    ])
    frames = rng.standard_normal((t, f, m)) + 1j * rng.standard_normal((t, f, m))
    from driftbeam.stft import SpectralFrameTensor

    mixture = SpectralFrameTensor(frames, FS, 6, 3)
    labels = scene.StateSequence(rng.integers(0, 3, t), 3)
    bank = beamform.BeamformerBank(mode="dynamic", weights=weights, reference=1,
                                   frequencies=mixture.bin_omega)
    fast = beamform.apply_bank(bank, mixture, labels)
    naive = np.zeros((t, f, n), complex)
    for ti in range(t):
        w = weights[int(labels.labels[ti])]
        for fi in range(f):
            for ni in range(n):
                acc = 0.0 + 0.0j
                for mi in range(m):
                    acc += w[fi, ni, mi] * frames[ti, fi, mi]
                naive[ti, fi, ni] = acc
    assert np.abs(fast - naive).max() < 1e-12

    desired = rng.standard_normal((t, f, n)) + 1j * rng.standard_normal((t, f, n))
    ref = frames[:, :, 1]
    fast_gain = evaluate.gain(fast, ref, desired, np.linspace(100, 400, f))
    for fi in range(f):
        acc = 0.0
        for ni in range(n):
            num = sum(abs(ref[ti, fi] - desired[ti, fi, ni]) ** 2 for ti in range(t))
            den = sum(abs(fast[ti, fi, ni] - desired[ti, fi, ni]) ** 2 for ti in range(t))
            acc += 10.0 * np.log10(num / den)
        assert fast_gain.gain_db[fi] == pytest.approx(acc / n, abs=1e-12)
    elapsed = time.time() - start
    assert elapsed < 1.0
    report("criterion 10 (brute-force equivalence)", elapsed)


def test_c11_determinism(tmp_path):
    # Same seed, two runs: WAV and CSV artifacts are byte-identical.
    start = time.time()

    def run(tag):
        out = tmp_path / tag
        config = cli.load_config(None, {
            "seed": 13,
            "out_dir": str(out),
            "stft": {"fft_size": 256, "hop": 128},
            "geometry": {"mic_count": 4, "spacing": 0.04},
            "sources": {"azimuths_deg": [30.0, 120.0]},
            "train_duration_s": 2.0,
            "test_duration_s": 2.0,
            "modes": ["static"],
        })
        cli.run_simulate(config)
        cli.run_pipeline(config)
        artifacts = sorted(
            p for p in out.iterdir() if p.suffix in (".wav", ".csv")
        )
        return {p.name: p.read_bytes() for p in artifacts}

    first = run("a")
    second = run("b")
    assert first.keys() == second.keys()
    assert len([k for k in first if k.endswith(".wav")]) >= 3
    assert len([k for k in first if k.endswith(".csv")]) >= 3
    for name in first:
        assert first[name] == second[name], name
    elapsed = time.time() - start
    assert elapsed < 300.0
    report("criterion 11 (determinism)", elapsed,
           f"{len(first)} artifacts byte-identical across runs")
