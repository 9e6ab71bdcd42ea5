import tracemalloc

import numpy as np
import pytest

from driftbeam import covest, evaluate, scene, stft
from driftbeam.covmath import gaussian_divergence, regularize
from driftbeam.evaluate import divergence_curve, gain, outer_vs_central_pairs, theory_curve, write_table
from driftbeam.stft import StftConfig

CFG = StftConfig(fft_size=256, hop=128)
FS = 16000


def random_series(rng, t, f, n):
    return rng.standard_normal((t, f, n)) + 1j * rng.standard_normal((t, f, n))


class TestGain:
    def test_passthrough_is_exactly_zero_db(self):
        rng = np.random.default_rng(0)
        t, f, n = 20, 8, 3
        desired = random_series(rng, t, f, n)
        ref = rng.standard_normal((t, f)) + 1j * rng.standard_normal((t, f))
        outputs = np.repeat(ref[:, :, None], n, axis=2)
        report = gain(outputs, ref, desired, np.linspace(0, 4000, f))
        np.testing.assert_array_equal(report.gain_db, 0.0)
        assert not report.flagged.any()

    def test_exact_outputs_flagged_as_infinite(self):
        rng = np.random.default_rng(1)
        t, f, n = 10, 6, 2
        desired = random_series(rng, t, f, n)
        ref = rng.standard_normal((t, f)) + 1j * rng.standard_normal((t, f))
        report = gain(desired.copy(), ref, desired, np.linspace(0, 4000, f))
        assert report.flagged.all()
        assert np.isposinf(report.gain_db).all()

    def test_non_finite_bins_flagged(self):
        rng = np.random.default_rng(5)
        t, f, n = 10, 6, 2
        desired = random_series(rng, t, f, n)
        ref = rng.standard_normal((t, f)) + 1j * rng.standard_normal((t, f))
        outputs = random_series(rng, t, f, n)
        outputs[3, 2, 1] = np.nan
        report = gain(outputs, ref, desired, np.linspace(0, 4000, f))
        np.testing.assert_array_equal(report.flagged, np.arange(f) == 2)
        assert np.isnan(report.gain_db[2])
        assert np.isfinite(np.delete(report.gain_db, 2)).all()

    def test_scaling_both_series_preserves_gain(self):
        rng = np.random.default_rng(2)
        t, f = 30, 5
        desired = random_series(rng, t, f, 1)
        ref = rng.standard_normal((t, f)) + 1j * rng.standard_normal((t, f))
        outputs = random_series(rng, t, f, 1)
        base = gain(outputs, ref, desired, np.linspace(0, 4000, f)).gain_db
        # scaling both error series by one factor leaves the ratio alone
        out2 = desired + 2.5 * (outputs - desired)
        ref2 = desired[:, :, 0] + 2.5 * (ref - desired[:, :, 0])
        with_scale = gain(out2, ref2, desired, np.linspace(0, 4000, f)).gain_db
        np.testing.assert_allclose(with_scale, base, atol=1e-10)
        # scaling only the output errors changes it
        changed = gain(out2, ref, desired, np.linspace(0, 4000, f)).gain_db
        assert np.abs(changed - base).max() > 1.0

    def test_five_equal_sources_single_mic_wiener(self):
        # Scalar Wiener on five equal-power uncorrelated sources: the mean
        # squared error improves by a factor of five, about 6.99 dB.
        rng = np.random.default_rng(3)
        t, f, n = 40000, 3, 5
        s = random_series(rng, t, f, n) / np.sqrt(2.0)
        x = s.sum(axis=2)
        outputs = np.repeat((x / n)[:, :, None], n, axis=2)
        report = gain(outputs, x, s, np.linspace(100, 300, f))
        np.testing.assert_allclose(report.gain_db, 10.0 * np.log10(5.0), atol=0.2)

    def test_band_mean_excludes_flagged(self):
        freqs = np.array([100.0, 200.0, 300.0])
        report = evaluate.GainReport(
            frequencies_hz=freqs,
            gain_db=np.array([1.0, np.inf, 3.0]),
            numerators=np.ones((1, 3)),
            denominators=np.ones((1, 3)),
            flagged=np.array([False, True, False]),
        )
        assert report.band_mean(0.0, 400.0) == pytest.approx(2.0)
        assert report.flagged.sum() == 1

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="outputs"):
            gain(random_series(rng, 5, 4, 2), np.zeros((5, 4)),
                 random_series(rng, 5, 4, 3), np.zeros(4))


class TestGainBlocks:
    @pytest.mark.parametrize("rows", [1, 7, 50, None], ids=["1", "7", "all", "default"])
    def test_equal_to_the_whole_array_formula(self, monkeypatch, rows):
        # numpy's axis-0 sum adds one frame after another whenever a frame
        # holds more than one value, as every (F >= 2)-bin grid does.
        rng = np.random.default_rng(8)
        t, f, n = 50, 9, 3
        outputs, desired = random_series(rng, t, f, n), random_series(rng, t, f, n)
        reference = random_series(rng, t, f, 1)[:, :, 0]
        outputs[:, 2, 1] = desired[:, 2, 1]
        if rows is not None:
            monkeypatch.setattr(stft, "BLOCK_BYTES", rows * f * n * 16)
        report = gain(outputs, reference, desired, np.arange(f))
        num = np.sum(np.abs(reference[:, :, None] - desired) ** 2, axis=0).T
        den = np.sum(np.abs(outputs - desired) ** 2, axis=0).T
        ok = (den != 0).all(axis=0)
        for got, expected in ((report.numerators, num), (report.denominators, den),
                              (report.gain_db[ok],
                               np.mean(10.0 * np.log10(num[:, ok] / den[:, ok]), axis=0))):
            assert got.tobytes() == np.ascontiguousarray(expected).tobytes()
        assert report.flagged.tolist() == (~ok).tolist()

    def test_peak_memory_is_a_fraction_of_the_outputs(self):
        rng = np.random.default_rng(9)
        t, f, n = 800, 257, 5
        outputs, desired = random_series(rng, t, f, n), random_series(rng, t, f, n)
        reference = random_series(rng, t, f, 1)[:, :, 0]
        tracemalloc.start()
        try:
            gain(outputs, reference, desired, np.arange(f))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * outputs.nbytes


def small_covset():
    rng = np.random.default_rng(5)
    f, m = 6, 3
    omega = np.linspace(100.0, 600.0, f) * 2.0 * np.pi

    def psd():
        a = rng.standard_normal((f, m, m)) + 1j * rng.standard_normal((f, m, m))
        return a @ a.conj().transpose(0, 2, 1) / m

    cells = np.stack([np.stack([psd(), psd()]) for _ in range(2)])
    return covest.CovarianceSet(cells, np.full((2, 2), 5), psd(), omega)


class TestDivergenceCurve:
    def test_same_slot_is_zero(self):
        covs = small_covset()
        table = divergence_curve(covs, {"self": [((0, None), (0, None))]})
        np.testing.assert_allclose(table["self"], 0.0, atol=1e-10)

    def test_single_state_scene_state_equals_ensemble_curve(self):
        covs = small_covset()
        single = covest.CovarianceSet(covs.ensemble[:, None], np.full((2, 1), 10), covs.noise,
                                      covs.frequencies)
        table = divergence_curve(single, {
            "state": [((0, 0), (1, 0))],
            "ens": [((0, None), (1, None))],
        })
        np.testing.assert_allclose(table["state"], table["ens"], atol=1e-12)

    def test_missing_entries_named(self):
        covs = small_covset()
        with pytest.raises(ValueError, match=r"\(0, 7\)"):
            divergence_curve(covs, {"bad": [((0, 7), (1, 0))]})

    def test_aggregate_is_mean_of_pairs(self):
        covs = small_covset()

        def loaded(slot):
            source, state = slot
            return regularize(covs.ensemble[source] if state is None else covs.cells[source, state])

        # The second input's second slots interleave (X, Y, X): its rows are
        # computed per second slot and must still add up in pair order.
        for pairs in ([((0, None), (1, None)), ((0, 0), (1, 0))],
                      [((0, None), (1, None)), ((0, 0), (1, 0)), ((1, 1), (1, None))]):
            table = divergence_curve(covs, {"agg": pairs})
            acc = np.zeros(covs.frequencies.shape[0])
            for slot1, slot2 in pairs:
                acc += gaussian_divergence(loaded(slot1), loaded(slot2))
            assert np.array_equal(table["agg"], acc / len(pairs))

    def test_outer_vs_central_pairs(self):
        assert outer_vs_central_pairs(5) == [
            ((0, None), (2, None)), ((1, None), (2, None)),
            ((3, None), (2, None)), ((4, None), (2, None)),
        ]
        assert outer_vs_central_pairs(3, state=4) == [((0, 4), (1, 4)), ((2, 4), (1, 4))]


class TestTheoryCurve:
    def test_identical_azimuths_zero_curve(self):
        positions = scene.linear_positions(4, 0.05)
        table = theory_curve(positions, {"same": [(40.0, 40.0)]}, [1e-5],
                             np.linspace(100.0, 8000.0, 32))
        np.testing.assert_allclose(table["same_sigma_1e-05"], 0.0, atol=1e-9)

    def test_small_frequency_first_order_expansion(self):
        # As the frequency drops, the curve approaches
        # (M^2 - |a1^H a2|^2) / (2 omega^2 sigma^2 M), at every point of a grid.
        positions = scene.linear_positions(4, 0.05)
        sigma = 1e-5
        freqs_hz = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        table = theory_curve(positions, {"d": [(30.0, 110.0)]}, [sigma], freqs_hz)
        for f_hz, value in zip(freqs_hz, table["d_sigma_1e-05"]):
            omega = 2.0 * np.pi * f_hz
            a1 = np.exp(1j * omega * scene.propagation_delays(positions, 30.0))
            a2 = np.exp(1j * omega * scene.propagation_delays(positions, 110.0))
            first_order = (16.0 - abs(np.vdot(a1, a2)) ** 2) / (2.0 * omega ** 2 * sigma ** 2 * 4.0)
            assert value == pytest.approx(first_order, rel=1e-3)

    def test_zero_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            theory_curve(scene.linear_positions(3, 0.05), {"d": [(0.0, 90.0)]},
                         [0.0], [1000.0])

    def test_repeated_column_name_rejected(self):
        # 1e-5 and 1.0000001e-5 both render as 1e-05.
        with pytest.raises(ValueError, match="repeat a column name"):
            theory_curve(scene.linear_positions(3, 0.05), {"d": [(0.0, 90.0)]},
                         [1e-5, 2e-5, 1.0000001e-5], [1000.0])

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            theory_curve(scene.linear_positions(3, 0.05), {"d": [(0.0, 90.0)]},
                         [1e-5], [0.0, 1000.0])


class TestTheoryMatchesMeasurement:
    def test_jitter_scene_agreement(self):
        # Independent per-microphone delay jitter: the measured ensemble
        # divergence between two sources tracks the closed form within 20%
        # wherever both exceed 0.01 nats. Needs a lot of frames, so segments
        # are trained one at a time and their cells averaged by frame count.
        sigma_pos = 0.010
        seg_duration, segments = 50.0, 12
        azimuths = (40.0, 140.0)
        positions = scene.linear_positions(3, 0.06)
        geometry = scene.ArrayGeometry(positions)
        motion = scene.MotionModel.gaussian_jitter(sigma_pos, jitter_reference=True)
        samples = int(seg_duration * FS)

        sums, counts = 0.0, 0
        for k in range(segments):
            signals = scene.pseudorandom_signals(2, samples, seed=900 + k)
            spec = scene.SceneSpec(
                geometry=geometry,
                sources=(scene.Source(azimuths[0], signals[0]),
                         scene.Source(azimuths[1], signals[1])),
                motion=motion,
                noise_level_db=-60.0,
            )
            segment = covest.train(*covest.training_renders(spec, seg_duration, CFG, FS,
                                                            seed=999 + 10 * k))
            sums = sums + segment.cells * segment.frame_counts[..., None, None, None]
            counts = counts + segment.frame_counts

        covs = covest.CovarianceSet(sums / counts[..., None, None, None], counts,
                                    segment.noise, segment.frequencies)
        measured = divergence_curve(covs, {"d": [((0, None), (1, None))]},
                                    epsilon_rel=1e-5)["d"][1:]
        hz = segment.frequencies[1:] / (2.0 * np.pi)
        theory = theory_curve(positions, {"d": [azimuths]}, [sigma_pos / 343.0], hz)
        theory = theory[f"d_sigma_{sigma_pos / 343.0:g}"]
        both = (measured > 0.01) & (theory > 0.01)
        assert both.sum() > 50
        rel = np.abs(measured[both] - theory[both]) / theory[both]
        assert rel.max() < 0.2


class TestWriteTable:
    def test_round_trip_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table(path, {
            "frequency_hz": np.array([0.0, 125.5, 250.0]),
            "value": np.array([1.0, np.inf, 0.125]),
        })
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "frequency_hz,value"
        assert lines[1] == "0,1"
        assert lines[2] == "125.5,inf"
        assert lines[3] == "250,0.125"

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="equally long"):
            write_table(tmp_path / "bad.csv",
                        {"a": np.zeros(3), "b": np.zeros(2)})

    def test_special_values_and_integer_boundary(self, tmp_path):
        path = tmp_path / "table.csv"
        write_table(path, {
            "value": np.array([np.inf, -np.inf, np.nan, -0.0, 3.0, -7.0,
                               999999999999999.0, 1e15, -1e15, 2.5e15, 1.0 / 3.0]),
            "count": np.array([0, 1, -2, 7, 10**15 - 1, 10**15, -(10**15), 2**53 + 1,
                               42, 5, 6], dtype=np.int64),
        })
        rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
        assert [value for value, _ in rows] == [
            "inf", "-inf", "nan", "0", "3", "-7",
            "999999999999999", "1e+15", "-1e+15", "2.5e+15", "0.333333333333",
        ]
        assert [count for _, count in rows] == [
            "0", "1", "-2", "7", "999999999999999", "1e+15", "-1e+15",
            "9.00719925474e+15", "42", "5", "6",
        ]
