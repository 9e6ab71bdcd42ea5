import json
import os
import subprocess
import sys
from pathlib import Path

from driftbeam import cli

ROOT = Path(__file__).resolve().parent.parent
ROTATION = {"stft": {"fft_size": 256, "hop": 128},
            "geometry": {"mic_count": 3, "spacing": 0.04},
            "sources": {"azimuths_deg": [20.0, 100.0]},
            "motion": {"kind": "rotation_sweep", "period_s": 1.0, "state_count": 4},
            "train_duration_s": 1.0, "test_duration_s": 1.0}
STAGES = ["imports", "config", "analyze", "train", "simulate",
          "beamform:static", "analyze:static", "beamform:dynamic", "analyze:dynamic",
          "beamform:rank1", "analyze:rank1", "train", "analyze:divergence"]


def test_every_stage_has_a_row_and_the_outputs_are_a_plain_runs(tmp_path):
    config = tmp_path / "rot.json"
    config.write_text(json.dumps(ROTATION))
    args = ["--config", str(config), "--seed", "1", "--mode", "static,dynamic,rank1"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "rss_timeline.py"), "--",
         *args, "--out", str(tmp_path / "timed"), "analyze"],
        env=env, capture_output=True, text=True, check=True)
    lines = run.stdout.splitlines()
    assert lines[0].split() == ["stage", "start_s", "wall_s", "rss_max_mb", "traced_peak_mb"]
    rows = [line.split() for line in lines[1:-1]]
    assert [row[0] for row in rows] == STAGES
    assert all(float(row[3]) > 0 for row in rows)
    assert lines[-1].startswith("process peak RSS ")

    assert cli.main([*args, "--out", str(tmp_path / "plain"), "analyze"]) == 0
    timed = sorted(p.name for p in (tmp_path / "timed").iterdir())
    assert timed == sorted(p.name for p in (tmp_path / "plain").iterdir())
    for name in timed:
        if name.endswith((".csv", ".npz")):
            assert (tmp_path / "timed" / name).read_bytes() == \
                (tmp_path / "plain" / name).read_bytes()
