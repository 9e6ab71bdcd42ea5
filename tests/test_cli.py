import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from driftbeam import beamform, cli, containers, evaluate, scene
from driftbeam.stft import StftConfig, synthesize


def tiny_config(out_dir, **overrides):
    """A scene small enough for fast end-to-end runs."""
    config = {
        "seed": 5,
        "out_dir": str(out_dir),
        "stft": {"fft_size": 256, "hop": 128},
        "geometry": {"mic_count": 4, "spacing": 0.04},
        "sources": {"azimuths_deg": [30.0, 120.0]},
        "train_duration_s": 2.0,
        "test_duration_s": 2.0,
        "modes": ["static"],
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    return cli.load_config(None, config)


class TestConfig:
    def test_seed_required(self):
        with pytest.raises(ValueError, match="seed"):
            cli.load_config(None, {})

    def test_defaults_applied(self):
        config = cli.load_config(None, {"seed": 1})
        assert config["stft"]["fft_size"] == 1024
        assert config["modes"] == ["static"]

    def test_file_and_overrides_merge(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 3, "pilot": {"level_db": -25.0}, "out_dir": "x"}))
        config = cli.load_config(path, {"out_dir": "elsewhere"})
        assert config["seed"] == 3
        assert config["pilot"] == {"enabled": True, "frequency_hz": 7000.0, "level_db": -25.0}
        assert config["stft"]["fft_size"] == 1024
        assert config["out_dir"] == "elsewhere"

    def test_missing_wav_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            cli.load_config(None, {
                "seed": 1,
                "sources": {"wav_paths": [str(tmp_path / "missing.wav")]},
            })

    @pytest.mark.parametrize("modes", [
        ["statc"], ["rank_one_static", "rank1"], ["static", "static"], "static",
    ])
    def test_modes_must_be_distinct_cli_names(self, modes):
        with pytest.raises(ValueError, match="modes must be a list of distinct names"):
            cli.load_config(None, {"seed": 1, "modes": modes})

    def test_section_error_then_unknown_keys_then_first_bad_kind(self, tmp_path):
        # The file is read before the overrides, but a non-object section
        # wins over an unknown key, and an unknown key over a wrong kind,
        # wherever each is given.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"threads": 2, "stft": {"fft_size": "256"}}))
        with pytest.raises(ValueError, match=r"^pilot must be an object, got False$"):
            cli.load_config(path, {"seed": 1, "pilot": False})
        with pytest.raises(ValueError, match=r"^unknown config keys \['motion.knd', 'threads'\]$"):
            cli.load_config(path, {"seed": 1, "motion": {"knd": "static"}})
        path.write_text(json.dumps({"stft": {"fft_size": "256"}, "modes": "static"}))
        with pytest.raises(ValueError, match=r"^stft.fft_size must be an int >= 1, got '256'$"):
            cli.load_config(path, {"seed": 1})

    def test_unknown_keys_named_by_dotted_path(self):
        with pytest.raises(ValueError,
                           match=r"unknown config keys \['modez', 'motion.knd'\]"):
            cli.load_config(None, {
                "seed": 1,
                "motion": {"knd": "rotation_sweep"},
                "modez": ["dynamic"],
            })


class TestWav:
    def test_rate_mismatch_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        wavfile.write(path, 8000, np.zeros(100, dtype=np.float32))
        with pytest.raises(ValueError, match="sample rate"):
            cli.read_wav(path, 16000)

    def test_int16_scaling(self, tmp_path):
        path = tmp_path / "x.wav"
        wavfile.write(path, 16000, np.array([0, 16384, -32768], dtype=np.int16))
        data = cli.read_wav(path, 16000)
        np.testing.assert_allclose(data, [0.0, 0.5, -1.0])

    def test_float_round_trip(self, tmp_path):
        path = tmp_path / "x.wav"
        rng = np.random.default_rng(0)
        x = rng.standard_normal(200).astype(np.float32)
        cli.write_wav(path, x, 16000)
        np.testing.assert_array_equal(cli.read_wav(path, 16000), x.astype(np.float64))

    @pytest.mark.parametrize("shape", [(200,), (200, 12), (1,)],
                             ids=["mono", "twelve_channels", "one_sample"])
    def test_write_matches_scipy_bytes(self, tmp_path, shape):
        x = np.random.default_rng(1).standard_normal(shape)
        cli.write_wav(tmp_path / "ours.wav", x, 16000)
        wavfile.write(tmp_path / "scipy.wav", 16000, x.astype(np.float32))
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()

    @pytest.mark.parametrize("samples, expected", [
        (np.array([0, 1 << 30, -(1 << 31)], dtype=np.int32), [0.0, 0.5, -1.0]),
        (np.array([0.25, -1.5, 1e-300], dtype=np.float64), [0.25, -1.5, 1e-300]),
    ], ids=["int32", "float64"])
    def test_read_scales_int32_and_keeps_float64(self, tmp_path, samples, expected):
        path = tmp_path / "x.wav"
        wavfile.write(path, 16000, samples)
        np.testing.assert_array_equal(cli.read_wav(path, 16000), expected)

    def test_multichannel_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        wavfile.write(path, 16000, np.zeros((100, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="mono"):
            cli.read_wav(path, 16000)

    def test_non_finite_sample_rejected(self, tmp_path):
        path = tmp_path / "x.wav"
        x = np.zeros(100, dtype=np.float32)
        x[37] = np.nan
        wavfile.write(path, 16000, x)
        with pytest.raises(ValueError, match="non-finite"):
            cli.read_wav(path, 16000)


class TestSimulate:
    def test_writes_expected_artifacts(self, tmp_path):
        config = tiny_config(tmp_path / "out",
                             geometry={"mic_count": 12},
                             sources={"azimuths_deg": [0.0, 45.0, 90.0, 135.0, 180.0]},
                             test_duration_s=1.0)
        cli.run_simulate(config)
        out = tmp_path / "out"
        rate, mixture = wavfile.read(out / "mixture.wav")
        assert rate == 16000
        assert mixture.shape[1] == 12
        # overlap-add synthesis spans the analyzed frames
        assert abs(mixture.shape[0] - 16000) < config["stft"]["fft_size"]
        for n in range(5):
            assert (out / f"image_{n:02d}.wav").is_file()
        states = (out / "states.csv").read_text().strip().split("\n")
        assert states[0] == "frame,state"
        manifest = json.loads((out / "simulate_manifest.json").read_text())
        assert str(out / "mixture.wav") in manifest["outputs"]
        assert manifest["config"]["seed"] == 5

    def test_zero_duration_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            tiny_config(tmp_path / "out", test_duration_s=0.0)

    def test_same_seed_byte_identical(self, tmp_path):
        config_a = tiny_config(tmp_path / "a", test_duration_s=1.0)
        config_b = tiny_config(tmp_path / "b", test_duration_s=1.0)
        cli.run_simulate(config_a)
        cli.run_simulate(config_b)
        wav_a = (tmp_path / "a" / "mixture.wav").read_bytes()
        wav_b = (tmp_path / "b" / "mixture.wav").read_bytes()
        assert wav_a == wav_b

    def test_source_wavs_are_the_scene_signals(self, tmp_path):
        # One float32 and one int16 WAV of the test length drive the test
        # scene in place of the seeded noise.
        rng = np.random.default_rng(3)
        wavs = [tmp_path / "float.wav", tmp_path / "int16.wav"]
        cli.write_wav(wavs[0], 0.1 * rng.standard_normal(16000), 16000)
        wavfile.write(wavs[1], 16000, rng.integers(-3000, 3000, 16000).astype(np.int16))
        config = tiny_config(tmp_path / "out", test_duration_s=1.0,
                             sources={"wav_paths": [str(w) for w in wavs]})
        cli.run_simulate(config)
        spec = scene.SceneSpec(
            geometry=scene.ArrayGeometry(scene.linear_positions(4, 0.04), 0),
            sources=tuple(scene.Source(az, cli.read_wav(w, 16000))
                          for az, w in zip([30.0, 120.0], wavs)),
            motion=scene.MotionModel.static(),
            noise_level_db=-30.0,
            pilot=scene.Pilot(frequency_hz=7000.0, level_db=-20.0),
        )
        cfg = StftConfig(fft_size=256, hop=128)
        rendered = scene.render(spec, 1.0, cfg, 16000, seed=5)
        cli.write_wav(tmp_path / "expected.wav", synthesize(rendered.mixture, cfg), 16000)
        written = (tmp_path / "out" / "mixture.wav").read_bytes()
        assert written == (tmp_path / "expected.wav").read_bytes()


class TestPipeline:
    def test_static_only_single_gain_csv(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        cli.run_pipeline(config)
        out = tmp_path / "out"
        assert (out / "gain_static.csv").is_file()
        assert not (out / "gain_dynamic.csv").exists()
        assert (out / "covariances.npz").is_file()
        assert (out / "bank_static.npz").is_file()
        assert (out / "divergence.csv").is_file()
        header = (out / "gain_static.csv").read_text().split("\n")[0]
        assert header == "frequency_hz,gain_db,flagged"

    def test_three_modes_on_rotation_scene(self, tmp_path):
        config = tiny_config(
            tmp_path / "out",
            motion={"kind": "rotation_sweep", "min_deg": -45.0, "max_deg": 45.0,
                    "period_s": 2.0, "state_count": 4},
            modes=["static", "dynamic", "rank1"],
        )
        cli.run_pipeline(config)
        out = tmp_path / "out"
        for mode in ("static", "dynamic", "rank1"):
            assert (out / f"gain_{mode}.csv").is_file()
            assert (out / f"bank_{mode}.npz").is_file()
        table = (out / "divergence.csv").read_text().split("\n")[0].split(",")
        assert "div_between_source_ensemble" in table
        assert "div_between_state" in table

    def test_jitter_dynamic_gain_equals_static(self, tmp_path):
        # Jitter is a one-state scene: its dynamic bank is the static one.
        config = tiny_config(
            tmp_path / "out",
            motion={"kind": "gaussian_jitter", "sigma_pos_m": 0.005},
            modes=["static", "dynamic"],
        )
        cli.run_pipeline(config)
        out = tmp_path / "out"
        assert (out / "gain_dynamic.csv").read_bytes() == (out / "gain_static.csv").read_bytes()

    def test_single_state_divergence_has_ensemble_column_only(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        cli.run_pipeline(config)
        header = (tmp_path / "out" / "divergence.csv").read_text().split("\n")[0]
        assert header == "frequency_hz,div_between_source_ensemble"

    def test_manifest_lists_all_outputs(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        outputs = cli.run_pipeline(config)
        manifest = json.loads((tmp_path / "out" / "pipeline_manifest.json").read_text())
        for path in outputs:
            if path.name != "pipeline_manifest.json":
                assert str(path) in manifest["outputs"]

    def test_report_merges_gain_tables(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        cli.run_pipeline(config)
        cli.run_report(config)
        header = (tmp_path / "out" / "report.csv").read_text().split("\n")[0]
        assert header.startswith("frequency_hz,gain_db_static")


class TestTrainingMemory:
    def test_run_train_never_holds_every_render(self, tmp_path):
        # Holding all N source renders and the noise render at once takes
        # N + 1 mixtures; streaming holds about two. numpy reports its
        # buffers to tracemalloc.
        sources = [0.0, 45.0, 90.0, 135.0, 180.0]
        config = tiny_config(tmp_path / "out", sources={"azimuths_deg": sources},
                             train_duration_s=4.0,
                             motion={"kind": "rotation_sweep", "period_s": 4.0})
        tracemalloc.start()
        try:
            covs, _ = cli.run_train(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        frames = covs.frame_counts[0].sum()
        mixture_bytes = frames * len(covs.frequencies) * covs.mic_count * 16
        assert peak < (len(sources) + 1) * mixture_bytes

    def test_training_holds_two_mixtures_and_the_cells(self, tmp_path):
        # While a source render is reduced, it and the noise render are alive;
        # the sums copy cache-sized chunks of bins, never the whole render.
        config = tiny_config(tmp_path / "out", geometry={"mic_count": 16},
                             train_duration_s=8.0,
                             motion={"kind": "gaussian_jitter", "sigma_pos_m": 0.005})
        tracemalloc.start()
        try:
            covs, _ = cli.run_train(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mixture_bytes = covs.frame_counts[0, 0] * len(covs.frequencies) * covs.mic_count * 16
        cell_bytes = covs.noise.nbytes + covs.cells.nbytes + covs.ensemble.nbytes
        assert peak < 2 * mixture_bytes + cell_bytes + 0.25 * mixture_bytes


class TestOtherCommands:
    def test_arc_layout_simulate(self, tmp_path):
        # Reference at the origin, the other 11 on a half circle of radius 0.2 m.
        angles = np.deg2rad(np.linspace(0.0, 180.0, 11))
        arc = [[0.0, 0.0]] + [[0.2 * np.cos(a), 0.2 * np.sin(a)] for a in angles]
        config = tiny_config(tmp_path / "out", geometry={"positions": arc},
                             sources={"azimuths_deg": [0.0, 45.0, 90.0, 135.0, 180.0]},
                             test_duration_s=1.0)
        cli.run_simulate(config)
        _, mixture = wavfile.read(tmp_path / "out" / "mixture.wav")
        assert mixture.shape[1] == 12

    def test_theory_curves(self, tmp_path):
        config = tiny_config(tmp_path / "out", theory={"sigmas_s": [1e-5], "points": 16})
        cli.run_theory(config)
        lines = (tmp_path / "out" / "theory.csv").read_text().strip().split("\n")
        assert lines[0] == "frequency_hz,div_outer_vs_central_sigma_1e-05"
        assert len(lines) == 17

    def test_rotation_theory_describes_the_min_deg_start_pose(self, tmp_path):
        # A sweep starts from the configured pose rotated to min_deg, and the
        # closed form describes that pose, not the configured one.
        config = tiny_config(tmp_path / "out",
                             motion={"kind": "rotation_sweep", "min_deg": 20.0, "max_deg": 60.0,
                                     "period_s": 2.0, "state_count": 3},
                             sources={"azimuths_deg": [0.0, 50.0, 130.0]},
                             theory={"sigmas_s": [1e-5, 4e-5], "points": 16})
        cli.run_theory(config)
        base = scene.linear_positions(4, 0.04)
        poses = {"start": scene._rotated(base, 0, [20.0])[0], "configured": base}
        for name, positions in poses.items():
            evaluate.write_table(tmp_path / f"{name}.csv", evaluate.theory_curve(
                positions, {"div_outer_vs_central": [(0.0, 50.0), (130.0, 50.0)]},
                [1e-5, 4e-5], np.linspace(500.0, 8000.0, 16)))
        written = (tmp_path / "out" / "theory.csv").read_bytes()
        assert written == (tmp_path / "start.csv").read_bytes()
        assert written != (tmp_path / "configured.csv").read_bytes()

    def test_beamform_writes_enhanced_wavs(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        cli.run_train(config)
        cli.run_beamform(config)
        out = tmp_path / "out"
        for n in range(2):
            rate, data = wavfile.read(out / f"enhanced_static_{n:02d}.wav")
            assert rate == 16000 and data.ndim == 1

    def test_beamform_without_training_rejected(self, tmp_path):
        config = tiny_config(tmp_path / "out")
        with pytest.raises(ValueError, match="not found"):
            cli.run_beamform(config)


class TestMain:
    def test_simulate_via_argv(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "stft": {"fft_size": 256, "hop": 128},
            "geometry": {"mic_count": 3, "spacing": 0.04},
            "sources": {"azimuths_deg": [20.0, 100.0]},
            "test_duration_s": 1.0,
        }))
        code = cli.main([
            "--config", str(config_path), "--seed", "9",
            "--out", str(tmp_path / "out"), "simulate",
        ])
        assert code == 0
        assert (tmp_path / "out" / "mixture.wav").is_file()

    def test_missing_seed_is_an_error(self, tmp_path, capsys):
        code = cli.main(["--out", str(tmp_path / "out"), "simulate"])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_stage_label_in_errors(self, tmp_path, capsys, monkeypatch):
        def fail(source_renders, noise_render):
            raise ValueError("training failed")

        monkeypatch.setattr(cli.covest, "train", fail)
        path = self.write_config(tmp_path)
        code = cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "analyze"])
        assert code == 1
        err = capsys.readouterr().err
        assert "[train] training failed" in err

    def test_failed_container_save_is_a_train_error(self, tmp_path, capsys, monkeypatch):
        # analyze saves the container on a worker thread; its failure still
        # exits 1 as [train], and the worker is gone when main returns.
        def fail(path, covs):
            raise OSError("disk full")

        monkeypatch.setattr(cli.containers, "save_covariances", fail)
        threads = threading.active_count()
        path = self.write_config(tmp_path)
        code = cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "analyze"])
        assert code == 1
        assert "[train] disk full" in capsys.readouterr().err
        assert threading.active_count() == threads

    def test_failed_container_save_wins_over_a_test_phase_error(self, tmp_path, capsys,
                                                                 monkeypatch):
        # In serial order the save comes before the test render, so its error
        # is the one reported when both fail.
        def fail_save(path, covs):
            raise OSError("disk full")

        def fail_render(config, spec, active_sources=None):
            raise ValueError("render failed")

        monkeypatch.setattr(cli.containers, "save_covariances", fail_save)
        monkeypatch.setattr(cli, "_test_render", fail_render)
        threads = threading.active_count()
        path = self.write_config(tmp_path)
        code = cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "analyze"])
        assert code == 1
        err = capsys.readouterr().err
        assert "[train] disk full" in err and "render failed" not in err
        assert threading.active_count() == threads

    def test_container_save_starts_after_the_test_render(self, tmp_path, monkeypatch):
        # The test render keeps both cores busy, so the save waits for it and
        # runs beside the mode stages.
        events, save_started = [], threading.Event()
        render, save = cli._test_render, cli.containers.save_covariances

        def traced_render(config, spec, active_sources=None):
            rendered = render(config, spec, active_sources)
            save_started.wait(0.25)  # a save begun beside the render is recorded first
            events.append("render returned")
            return rendered

        def traced_save(path, covs):
            events.append("save started")
            save_started.set()
            return save(path, covs)

        monkeypatch.setattr(cli, "_test_render", traced_render)
        monkeypatch.setattr(cli.containers, "save_covariances", traced_save)
        path = self.write_config(tmp_path)
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "analyze"]) == 0
        assert events == ["render returned", "save started"]

    def test_failed_test_render_still_writes_the_container(self, tmp_path, capsys, monkeypatch):
        def fail_render(config, spec, active_sources=None):
            raise ValueError("render failed")

        monkeypatch.setattr(cli, "_test_render", fail_render)
        threads = threading.active_count()
        path = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "analyze"]) == 1
        assert "[simulate] render failed" in capsys.readouterr().err
        assert (out / "train_manifest.json").is_file()
        assert containers.load_covariances(out / "covariances.npz").source_count == 2
        assert threading.active_count() == threads

    def test_beamform_manifest_hashes_the_container_once(self, tmp_path, monkeypatch):
        path = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "train"]) == 0
        hashed, sha256 = [], cli._sha256
        monkeypatch.setattr(cli, "_sha256", lambda p: hashed.append(Path(p)) or sha256(p))
        assert cli.main(["--config", str(path), "--out", str(out), "beamform"]) == 0
        container = out / "covariances.npz"
        manifest = json.loads((out / "beamform_manifest.json").read_text())
        assert manifest["inputs"][str(container)] == \
            hashlib.sha256(container.read_bytes()).hexdigest()
        assert hashed.count(container) == 1

    @pytest.mark.parametrize("fault, message", [
        ("truncated_container", "[beamform] File is not a zip file"),
        ("failing_hash", "[beamform] read failed"),
        # The hash came last in serial order, so a mode's error wins over its own.
        ("failing_hash_and_mode", "[beamform:static] build failed"),
    ])
    def test_beamform_failure_joins_the_hash_worker(self, tmp_path, capsys, monkeypatch,
                                                     fault, message):
        path = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "train"]) == 0
        container = out / "covariances.npz"
        if fault == "truncated_container":
            container.write_bytes(container.read_bytes()[:container.stat().st_size // 2])
        else:
            def fail(*args, **kwargs):
                raise OSError("read failed")

            def fail_build(*args, **kwargs):
                raise ValueError("build failed")

            monkeypatch.setattr(cli, "_sha256", fail)
            if fault == "failing_hash_and_mode":
                monkeypatch.setattr(cli.beamform, "build", fail_build)
        threads = threading.active_count()
        assert cli.main(["--config", str(path), "--out", str(out), "beamform"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        if fault != "failing_hash":
            assert not list(out.glob("enhanced_*.wav"))
        assert threading.active_count() == threads

    @pytest.mark.parametrize("rank1_rows", ["0,1.5,0\n50,2.5,0\n", "0,1.5,0\n"],
                             ids=["values", "length"])
    def test_report_rejects_gain_csvs_on_different_grids(self, tmp_path, capsys, rank1_rows):
        path = self.write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        header = "frequency_hz,gain_db,flagged\n"
        (out / "gain_static.csv").write_text(header + "0,1.5,0\n100,2.5,0\n")
        (out / "gain_rank1.csv").write_text(header + rank1_rows)
        code = cli.main(["--config", str(path), "--out", str(out), "--mode", "static,rank1",
                         "report"])
        assert code == 1
        err = capsys.readouterr().err
        assert "[report]" in err and "gain_static.csv" in err and "gain_rank1.csv" in err
        assert not (out / "report.csv").exists()

    def write_config(self, tmp_path, **fields):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "seed": 1,
            "stft": {"fft_size": 256, "hop": 128},
            "geometry": {"mic_count": 3, "spacing": 0.04},
            "sources": {"azimuths_deg": [20.0, 100.0]},
            "test_duration_s": 1.0,
            "train_duration_s": 1.0,
            **fields,
        }))
        return path

    def test_bad_mode_rejected_before_any_work(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["--config", str(path), "--out", str(out),
                         "--mode", "statc", "analyze"])
        assert code == 1
        assert "[config]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fields", [
        {"stft": {"hop": 0}},
        {"theory": {"points": 0}},
        {"train_duration_s": 0.0},
        {"test_duration_s": -1.0},
        {"motion": {"kind": "rotation_sweep", "period_s": 0}},
        {"motion": {"kind": "rotation_sweep", "state_count": 1}},
        {"motion": {"kind": "spin"}},
        {"geometry": {"mic_count": 0}},
        {"motion": {"kind": "gaussian_jitter", "sigma_pos_m": float("nan")}},
        {"noise_level_db": float("nan")},
        {"speed_of_sound": 0},
        {"speed_of_sound": -343.0},
        {"speed_of_sound": float("inf")},
        {"motion": {"kind": "rotation_sweep", "min_deg": 10.0, "max_deg": 10.0}},
        {"motion": {"kind": "rotation_sweep", "period_s": float("nan")}},
        {"motion": {"kind": "rotation_sweep", "period_s": float("inf")}},
        {"theory": {"sigmas_s": [float("nan"), 1e-5]}},
        {"theory": {"sigmas_s": [0.0, 1e-5]}},
        {"theory": {"sigmas_s": []}},
        {"theory": {"sigmas_s": [1e-5, 1e-5, 1.0000001e-5, 2e-5]}},
        {"pilot": {"frequency_hz": 3000}},
        {"pilot": {"level_db": float("nan")}},
        # Bins 511, 513, ..., 519 of five sources run past the last usable bin 511.
        {"pilot": {"frequency_hz": 7990}, "stft": {"fft_size": 1024, "hop": 512},
         "sources": {"azimuths_deg": [0.0, 45.0, 90.0, 135.0, 180.0]}},
        {"sources": {"azimuths_deg": [0.0, float("nan")]}},
        {"sources": {"azimuths_deg": [10.0, 10.0]}},
        {"sources": {"azimuths_deg": []}},
        {"geometry": {"positions": [[0.0, 0.0], [0.04, float("nan")], [0.08, 0.0]]}},
        {"sample_rate": 0, "pilot": {"enabled": False}},
        {"train_duration_s": 0.01},
        {"test_duration_s": 0.01},
        {"theory": {"points": 2.5}},
        {"theory": {"points": True}},
        {"sample_rate": 16000.5},
        {"noise_level_db": None, "sources": {"azimuths_deg": []}},
        {"seed": 1.7},
        {"seed": -1},
        {"seed": True},
        {"state_oracle": "false"},
        {"pilot": {"enabled": "false"}},
        {"motion": {"kind": "gaussian_jitter", "sigma_pos_m": 0.005, "jitter_reference": "no"}},
        {"geometry": {"reference": 1.0}},
        {"motion": {"kind": "rotation_sweep", "state_count": 4.5}},
        {"motion": {"kind": "rotation_sweep", "state_count": True}},
        {"geometry": {"mic_count": 3, "reference": 3}},
    ], ids=["hop", "theory_points", "train_duration", "test_duration", "rotation_period",
            "rotation_state_count", "motion_kind", "mic_count", "sigma_pos_nan",
            "noise_level_nan", "speed_of_sound_zero", "speed_of_sound_negative",
            "speed_of_sound_inf", "rotation_empty_span", "rotation_period_nan",
            "rotation_period_inf", "theory_sigma_nan", "theory_sigma_zero",
            "theory_sigmas_empty", "theory_sigmas_duplicate", "pilot_below_band",
            "pilot_level_nan", "pilot_bins_past_nyquist", "azimuth_nan", "azimuths_repeated",
            "azimuths_empty", "positions_nan", "sample_rate_zero", "train_shorter_than_frame",
            "test_shorter_than_frame", "theory_points_fraction", "theory_points_bool",
            "sample_rate_fraction", "azimuths_empty_noiseless", "seed_fraction",
            "seed_negative", "seed_bool", "state_oracle_string", "pilot_enabled_string",
            "jitter_reference_string", "reference_float", "state_count_float",
            "state_count_bool", "reference_past_linear"])
    def test_bad_value_rejected_before_any_work(self, tmp_path, capsys, fields):
        path = self.write_config(tmp_path, **fields)
        out = tmp_path / "out"
        code = cli.main(["--config", str(path), "--out", str(out), "analyze"])
        assert code == 1
        assert "[config]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "analyze", "beamform"])
    @pytest.mark.parametrize("rate, seconds, message", [
        (16000, 0.5, "8000 samples, the test scene needs 16000"),
        (8000, 1.0, "sample rate 8000 Hz does not match the configured 16000 Hz"),
    ], ids=["short", "wrong_rate"])
    def test_bad_source_wav_rejected_before_any_output(self, tmp_path, capsys, command,
                                                       rate, seconds, message):
        wavs = [str(tmp_path / f"source_{n}.wav") for n in range(2)]
        for wav in wavs:
            cli.write_wav(wav, np.zeros(int(rate * seconds)), rate)
        path = self.write_config(tmp_path, sources={"azimuths_deg": [20.0, 100.0],
                                                    "wav_paths": wavs})
        args = []
        if command == "beamform":  # training reads no source WAV
            trained = tmp_path / "trained"
            assert cli.main(["--config", str(path), "--out", str(trained), "train"]) == 0
            args = ["--covariances", str(trained / "covariances.npz")]
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), command, *args]) == 1
        assert f"error: [{command}] {wavs[0]}: {message}" in capsys.readouterr().err
        assert not out.exists()

    # An object in place of each value, then values that once got past the
    # config checks, then a section that is not an object.
    WRONG_KINDS = [(key, {}) for key in cli.CONFIG] + [
        ("stft.fft_size", "256"), ("geometry.mic_count", 3.0), ("stft.hop", 128.0),
        ("pilot.level_db", "x"), ("pilot.frequency_hz", "7000"), ("geometry.spacing", "x"),
        ("motion.min_deg", "a"), ("sources.azimuths_deg", 5), ("sources.azimuths_deg", "ab"),
        ("geometry.positions", "abc"), ("out_dir", 5), ("sources.wav_paths", ["one.wav"]),
        ("pilot", False),
    ]

    @pytest.mark.parametrize("key, value", [pytest.param(key, value, id=f"{key}={value!r}")
                                            for key, value in WRONG_KINDS])
    def test_wrong_kind_names_its_key_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                      key, value):
        # No --out: out_dir comes from the config, so a bad one is checked too.
        # Two azimuths and one WAV check the count of sources.wav_paths.
        monkeypatch.chdir(tmp_path)
        cli.write_wav(tmp_path / "one.wav", np.zeros(16000), 16000)
        fields = {"out_dir": "out"}
        section, _, name = key.rpartition(".")
        (fields.setdefault(section, {}) if section else fields)[name] = value
        path = self.write_config(tmp_path, **fields)
        assert cli.main(["--config", str(path), "analyze"]) == 1
        err = capsys.readouterr().err
        assert f"[config] {key} " in err
        assert sorted(os.listdir(tmp_path)) == ["config.json", "one.wav"]

    def test_analyze_rejects_training_that_misses_a_state(self, tmp_path, capsys):
        # One second of a 20 s sweep reaches only the first of four states.
        path = self.write_config(tmp_path, motion={**self.ROTATION, "period_s": 20.0})
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "analyze"]) == 1
        assert ("[train] training visits 1 of 4 motion states; the first unvisited are "
                "[1, 2, 3]") in capsys.readouterr().err
        assert not out.exists()

    def test_beamform_without_container_leaves_no_out_directory(self, tmp_path, capsys):
        # A container that is missing, unloadable or of another scene fails
        # before the first write, so --out is never made.
        path = self.write_config(tmp_path)
        trained = tmp_path / "trained"
        assert cli.main(["--config", str(path), "--out", str(trained), "train"]) == 0
        container = trained / "covariances.npz"
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(container.read_bytes()[:container.stat().st_size // 2])
        cases = [
            ("missing", {}, tmp_path / "missing.npz",
             "[beamform] covariance container not found"),
            ("truncated", {}, truncated, "[beamform] File is not a zip file"),
            ("source_count", {"sources": {"azimuths_deg": [20.0, 100.0, 160.0]}}, container,
             "[beamform] covariance container holds 2 sources, the scene has 3"),
            # 129 bins at 8 kHz as at 16 kHz, on another frequency grid.
            ("bin_grid", {"sample_rate": 8000, "pilot": {"enabled": False}}, container,
             "[beamform:static] mixture bin grid does not match the beamformer bank"),
        ]
        for name, fields, covariances, message in cases:
            (tmp_path / name).mkdir()
            scene_path = self.write_config(tmp_path / name, **fields)
            out = tmp_path / name / "out"
            code = cli.main(["--config", str(scene_path), "--out", str(out), "beamform",
                             "--covariances", str(covariances)])
            assert code == 1, name
            assert capsys.readouterr().err.startswith(f"error: {message}"), name
            assert not out.exists(), name

    def test_report_without_gain_csvs_leaves_no_out_directory(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "report"]) == 1
        assert "[report] missing gain CSV" in capsys.readouterr().err
        assert not out.exists()

    def test_theory_failure_labelled_without_traceback(self, tmp_path, capsys):
        path = self.write_config(tmp_path, sources={"azimuths_deg": [20.0]})
        code = cli.main(["--config", str(path), "--out", str(tmp_path / "out"), "theory"])
        assert code == 1
        err = capsys.readouterr().err
        assert "[theory]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "theory"])
    def test_one_source_fails_before_any_work(self, tmp_path, capsys, command):
        path = self.write_config(tmp_path, sources={"azimuths_deg": [20.0]})
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), command]) == 1
        err = capsys.readouterr().err
        assert f"[{command}] " in err and "at least two source azimuths" in err
        assert not out.exists()

    def test_one_source_simulate_train_and_beamform_work(self, tmp_path):
        path = self.write_config(tmp_path, sources={"azimuths_deg": [20.0]})
        out = tmp_path / "out"
        for command in ("simulate", "train", "beamform"):
            assert cli.main(["--config", str(path), "--out", str(out), command]) == 0
        assert (out / "enhanced_static_00.wav").is_file()

    def test_beamform_failure_carries_mode_label(self, tmp_path, capsys):
        # A multi-state scene without pilots has no state track for dynamic.
        path = self.write_config(tmp_path, pilot={"enabled": False}, motion=self.ROTATION)
        out = str(tmp_path / "out")
        assert cli.main(["--config", str(path), "--out", out, "train"]) == 0
        code = cli.main(["--config", str(path), "--out", out,
                         "--mode", "dynamic", "beamform"])
        assert code == 1
        err = capsys.readouterr().err
        assert "[beamform:dynamic]" in err
        assert "Traceback" not in err

    ROTATION = {"kind": "rotation_sweep", "min_deg": -45.0, "max_deg": 45.0,
                "period_s": 1.0, "state_count": 4}

    def test_static_training_serves_dynamic_beamform(self, tmp_path):
        path = self.write_config(tmp_path, motion=self.ROTATION)
        out = str(tmp_path / "out")
        assert cli.main(["--config", str(path), "--out", out, "train"]) == 0
        assert cli.main(["--config", str(path), "--out", out,
                         "--mode", "dynamic", "beamform"]) == 0
        assert (tmp_path / "out" / "enhanced_dynamic_00.wav").is_file()

    # Runs in a fresh interpreter: this test module itself imports scipy.
    SCIPY_FREE_RUN = """
import sys
from driftbeam import cli
config, out = sys.argv[1:]
for command in (["analyze"], ["theory"], ["simulate"], ["beamform"]):
    assert cli.main(["--config", config, "--out", out,
                     "--mode", "static,dynamic,rank1", *command]) == 0, command
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

    def test_commands_without_source_wavs_never_import_scipy(self, tmp_path):
        path = self.write_config(tmp_path, motion=self.ROTATION)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", self.SCIPY_FREE_RUN, str(path), str(tmp_path / "out")],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"
        assert len(list((tmp_path / "out").glob("enhanced_*.wav"))) == 6

    def test_state_oracle_filters_with_the_true_state_track(self, tmp_path):
        # Without pilots a sweep has no state estimate; the oracle needs none.
        path = self.write_config(tmp_path, pilot={"enabled": False}, motion=self.ROTATION,
                                 state_oracle=True)
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out),
                         "--mode", "dynamic", "analyze"]) == 0
        config = cli.load_config(path, {"out_dir": str(out)})
        rendered = cli._test_render(config, cli._test_spec(config, []))
        covs = containers.load_covariances(out / "covariances.npz")
        estimates = beamform.apply_bank(beamform.build(covs, "dynamic"), rendered.mixture,
                                        rendered.truth_states)
        report = evaluate.gain(estimates, rendered.mixture.frames[:, :, 0], rendered.desired,
                               rendered.mixture.bin_hz)
        evaluate.write_table(tmp_path / "expected.csv", report.table())
        assert (out / "gain_dynamic.csv").read_bytes() == \
            (tmp_path / "expected.csv").read_bytes()

    def test_jitter_training_serves_dynamic_beamform(self, tmp_path):
        path = self.write_config(tmp_path,
                                 motion={"kind": "gaussian_jitter", "sigma_pos_m": 0.005})
        out = str(tmp_path / "out")
        assert cli.main(["--config", str(path), "--out", out, "train"]) == 0
        assert cli.main(["--config", str(path), "--out", out,
                         "--mode", "dynamic", "beamform"]) == 0
        assert (tmp_path / "out" / "enhanced_dynamic_00.wav").is_file()

    def test_one_state_dynamic_needs_no_pilot(self, tmp_path):
        # A static scene has one state, so its dynamic track is all 0 without pilots.
        path = self.write_config(tmp_path, pilot={"enabled": False})
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out),
                         "--mode", "static,dynamic", "analyze"]) == 0
        assert (out / "gain_dynamic.csv").read_bytes() == (out / "gain_static.csv").read_bytes()

    @pytest.mark.parametrize("scene_fields", [
        {"sources": {"azimuths_deg": [20.0, 100.0, 160.0]}},
        # 129 bins at 8 kHz as at 16 kHz, on another frequency grid.
        {"sample_rate": 8000, "pilot": {"enabled": False}},
    ], ids=["source_count", "sample_rate"])
    def test_beamform_rejects_a_container_of_another_scene(self, tmp_path, capsys, scene_fields):
        trained = self.write_config(tmp_path)
        (tmp_path / "scene").mkdir()
        path = self.write_config(tmp_path / "scene", **scene_fields)
        out = tmp_path / "out"
        assert cli.main(["--config", str(trained), "--out", str(out), "train"]) == 0
        assert cli.main(["--config", str(path), "--out", str(out), "beamform"]) == 1
        assert "[beamform" in capsys.readouterr().err
        assert not list(out.glob("enhanced_*.wav"))

    @pytest.mark.parametrize("key, fields", [
        ("threads", {"threads": 2}),
        ("stft.window", {"stft": {"fft_size": 256, "hop": 128, "window": "sqrt_hann"}}),
        ("geometry.layout", {"geometry": {"mic_count": 3, "spacing": 0.04, "layout": "arc"}}),
    ], ids=["threads", "stft.window", "geometry.layout"])
    def test_threads_key_rejected(self, tmp_path, capsys, key, fields):
        # Keys that once existed fail like any unknown key.
        path = self.write_config(tmp_path, **fields)
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "analyze"]) == 1
        assert f"[config] unknown config keys ['{key}']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", " must hold a JSON object, got list"),
        ('"x"', " must hold a JSON object, got str"),
        ("null", " must hold a JSON object, got NoneType"),
        ('{"seed": 1, ', ": Expecting property name enclosed in double quotes: "
                         "line 1 column 13 (char 12)"),
    ], ids=["list", "string", "null", "truncated"])
    def test_config_file_that_is_no_object_names_its_path(self, tmp_path, capsys, text,
                                                         message):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "analyze"]) == 1
        assert capsys.readouterr().err == f"error: [config] {path}{message}\n"
        assert not out.exists()

    def test_train_rejects_training_that_misses_a_state(self, tmp_path, capsys):
        # One second of a 20 s sweep reaches only the first state: train fails
        # as analyze does, before it writes anything.
        path = self.write_config(tmp_path, motion={**self.ROTATION, "period_s": 20.0})
        out = tmp_path / "out"
        assert cli.main(["--config", str(path), "--out", str(out), "train"]) == 1
        assert ("[train] training visits 1 of 4 motion states; the first unvisited are "
                "[1, 2, 3]") in capsys.readouterr().err
        assert not out.exists()
