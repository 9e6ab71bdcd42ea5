"""Tests of the benchmark itself, on a scene small enough to run in seconds."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import LAYERS  # noqa: E402

TINY = {
    "geometry": {"mic_count": 4},
    "sources": {"azimuths_deg": [0, 90, 180]},
    "train_duration_s": 2.0,
    "test_duration_s": 2.0,
    "motion": {"period_s": 2.0, "state_count": 3},
    "stft": {"fft_size": 256, "hop": 128},
}
SEED = 1000
MODES = ("static", "dynamic", "rank1")


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload's scene, keep work and results under tmp_path and
    return the reference table the gain check uses, so a test can set it (the
    tiny scene's gains are far from the README scene's)."""
    for spec in run.WORKLOADS.values():
        monkeypatch.setitem(spec, "scene", run.merge(spec["scene"], TINY))
    reference = {w: {m: {"mean": 0.0, "sd": 0.0, "tolerance": 1e9} for m in MODES}
                 for w in run.WORKLOADS}
    monkeypatch.setattr(run, "load_reference", lambda: reference)
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    return reference


def bench(capsys, workload, trace, seed=SEED):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace)])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, summary


def test_smoke_every_metric_and_span_present(tiny, capsys):
    spec = run.bench_spec()
    code, summary = bench(capsys, "jitter_analyze", 0)
    assert code == 0 and summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= 2
    assert set(summary["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    result = json.loads((run.RESULTS / f"jitter_analyze-s{SEED}-t0.json").read_text())
    assert {"wall_s", "cpu_s", "peak_rss_mb", "setup_s", "failed_share",
            "gain_db.static", "gain_db.rank1"} <= set(result["metrics"])
    assert result["env"]["nproc"] and result["env"]["numpy"] and result["env"]["src_lines"] > 0

    span_names = set()
    for workload in run.WORKLOADS:
        code, summary = bench(capsys, workload, 1)
        assert code == 0 and summary["correct"]
        assert set(summary["metrics"]) == {m["name"] for m in spec["per_layer"]}
        layers = json.loads((run.RESULTS / f"{workload}-s{SEED}-t1.json").read_text())["layers"]
        for layer in LAYERS:
            for key in ("calls", "busy_s", "self_s"):
                assert f"{layer}.{key}" in layers
        for name in ("trace.overhead_s", "trace.interpreter_s", "trace.exit_s"):
            assert name in layers
        assert layers["trace.interpreter_s"] > 0 and layers["trace.exit_s"] > 0
        # Start-up, exit and the spans' self times leave little of the wall uncovered.
        assert abs(layers["trace.unaccounted_s"]) < 0.1 * layers["trace.wall_s"]
        spans = json.loads((run.RESULTS / f"{workload}-s{SEED}-t1.spans.json").read_text())
        assert all({"name", "start", "end", "parent", "run"} <= set(s) for s in spans)
        span_names |= {s["name"] for s in spans}
    assert set(LAYERS) | {"cli.import", "cli.main"} == span_names

    assert run.main(["--compare", str(run.RESULTS), str(run.RESULTS)]) == 0
    assert "covest.train.busy_s" in capsys.readouterr().out


def test_corrupted_gain_csv_fails_the_run(tiny, monkeypatch, capsys):
    original = run.run_invocation

    def corrupting(workload, seed, cwd, env, trace_id=None):
        sample = original(workload, seed, cwd, env, trace_id)
        path = cwd / "out" / "gain_static.csv"
        lines = path.read_text().splitlines()
        freq = lines[5].split(",")[0]
        lines[5] = f"{freq},nan,0"
        path.write_text("\n".join(lines) + "\n")
        return sample

    monkeypatch.setattr(run, "run_invocation", corrupting)
    code, summary = bench(capsys, "rotation_analyze", 0, SEED + 1)
    assert code != 0
    assert summary["correct"] is False and summary["failed"] == summary["attempted"]


def test_rebeam_gain_off_its_reference_fails_the_run(tiny, capsys):
    tiny["rotation_rebeam"]["dynamic"] = {"mean": 100.0, "sd": 0.0, "tolerance": 1.0}
    code, summary = bench(capsys, "rotation_rebeam", 0, SEED + 2)
    assert code != 0
    assert summary["correct"] is False and summary["failed"] == summary["attempted"]
