"""Benchmark of the driftbeam command line on the README default scene.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare OLD NEW

A single client runs the real `driftbeam` CLI as a closed loop: one
subprocess at a time, each started when the previous one has ended, for
about S seconds (at least two invocations, so outputs can be compared
between them). Every invocation is checked: exit status, finite or flagged
gain rows, mean gains within absolute per-mode tolerances of
perfbench/reference.json and byte-identical outputs across invocations.
rotation_rebeam's bank weights must equal those of the analyze run that wrote
its covariance container, and its enhanced WAVs are scored against the source
images that `simulate` writes for the same seed; its gain_db.* are those
time-domain gains, where the analyze workloads report the CLI's per-bin mean
gain from gain_*.csv.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics named in BENCHMARK.json; with --trace 1 untraced and
traced invocations alternate and the metrics are the per-layer ones, read
from spans that perfbench/tracer.py records around each layer's public
functions. A full result file and the spans of the run are written under
.perfbench_work/results/; the run's other outputs are deleted unless a check
failed. --compare prints every metric of two result files
(or two directories of them, matched by workload and trace mode, medians
across seeds) side by side with its delta.

The exit status is nonzero when any check fails or the checkout has no
driftbeam sources. BLAS and thread settings are left as a user gets them.
"""

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import zipfile
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from tracer import LAYERS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
RESULTS = WORK / "results"

ALL_MODES = "static,dynamic,rank1"
ROTATION = {"motion": {"kind": "rotation_sweep"}}
# Why each workload exists is recorded in BENCHMARK.json. Every scene is the
# README default except for the motion model; only the seed varies.
WORKLOADS = {
    "rotation_analyze": {
        "scene": ROTATION,
        "steps": [["--mode", ALL_MODES, "analyze"]],
        "modes": ALL_MODES.split(","),
    },
    "jitter_analyze": {
        "scene": {"motion": {"kind": "gaussian_jitter", "sigma_pos_m": 0.005}},
        "steps": [["--mode", "static,rank1", "analyze"], ["theory"]],
        "modes": ["static", "rank1"],
    },
    "rotation_rebeam": {
        "scene": ROTATION,
        # Untimed, with the same seed: analyze writes the container and the
        # banks rebeam must reproduce; simulate writes the source images that
        # rebeam's enhanced WAVs are scored against.
        "prepare": [["--mode", ALL_MODES, "analyze"], ["simulate"]],
        "steps": [["--mode", ALL_MODES, "beamform",
                   "--covariances", "../prepare/out/covariances.npz"]],
        "modes": ALL_MODES.split(","),
    },
}
REFERENCE_MIC = 0  # the README default geometry's reference microphone
SETUP_REPEATS = 7
SETUP_CODE = "import sys, driftbeam.cli as c; c.load_config(sys.argv[1])"
BANK_RTOL = 1e-9
ENV_CODE = r"""
import ctypes, json, platform, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
with open("/proc/self/maps") as fh:
    libs = sorted({l.split()[-1] for l in fh if "openblas" in l.lower() and "/" in l})
for lib in libs:
    handle = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if hasattr(handle, sym):
            threads = getattr(handle, sym)()
            break
print(json.dumps({"numpy": numpy.__version__, "blas": blas.get("openblas configuration",
      blas.get("name")), "blas_threads": threads, "python": platform.python_version()}))
"""


class CheckError(Exception):
    """An invocation's outputs are wrong."""


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------- running


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def invoke(argv, cwd, env):
    """Run one child to completion; return its wall time, user+sys CPU time,
    peak RSS and exit code, and the monotonic clock at launch and at exit.

    os.wait4 gives this child's own rusage; RUSAGE_CHILDREN would report the
    largest child seen so far instead."""
    with open(cwd / "child.log", "ab") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": end - start, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode,
            "launch": start, "exit_time": end}


def cli_argv(seed, step):
    return [sys.executable, "-m", "driftbeam.cli", "--config", "../config.json",
            "--seed", str(seed), "--out", "out", *step]


def run_invocation(workload, seed, cwd, env, trace_id=None):
    """Run the workload's steps once in cwd, under the tracer when trace_id is
    given; return a sample dict."""
    if cwd.exists():
        shutil.rmtree(cwd)
    cwd.mkdir(parents=True)
    sample = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "exit": 0, "traces": []}
    for n, step in enumerate(WORKLOADS[workload]["steps"]):
        argv = cli_argv(seed, step)
        if trace_id is not None:
            run_id = f"{trace_id}.{n}"
            step_spans = cwd.parent / f"spans-{run_id}.json"
            argv = [sys.executable, str(HERE / "tracer.py"), str(step_spans), run_id, "--"] + argv[3:]
        child = invoke(argv, cwd, env)
        sample["wall_s"] += child["wall_s"]
        sample["cpu_s"] += child["cpu_s"]
        sample["peak_rss_mb"] = max(sample["peak_rss_mb"], child["rss_mb"])
        if trace_id is not None and step_spans.is_file():
            sample["traces"].append({**json.loads(step_spans.read_text()), "child": child})
        if child["exit"] != 0:
            sample["exit"] = child["exit"]
            break
    return sample


def measure_setup(run_dir, env):
    """Median wall time of interpreter start + import driftbeam.cli + config load."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = invoke([sys.executable, "-c", SETUP_CODE, "config.json"], run_dir, env)
        if child["exit"] != 0:
            raise CheckError(f"setup probe exited with status {child['exit']}")
        times.append(child["wall_s"])
    return statistics.median(times)


def environment(env):
    out = subprocess.run([sys.executable, "-c", ENV_CODE], env=env, capture_output=True,
                         text=True, check=True)
    info = json.loads(out.stdout)
    rev = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        rev = git.stdout.strip() or None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    info.update(git_rev=rev, nproc=os.cpu_count(), src_lines=src_lines,
                openblas_num_threads_env=os.environ.get("OPENBLAS_NUM_THREADS"))
    return info


# ---------------------------------------------------------------- checks


def read_gain_csv(path):
    """Mean gain over unflagged bins; raises CheckError on a malformed table."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "frequency_hz,gain_db,flagged":
        raise CheckError(f"{path.name}: unexpected header")
    gains = []
    for line in lines[1:]:
        try:
            freq, value, flagged = line.split(",")
            freq, value, flagged = float(freq), float(value), int(flagged)
        except ValueError as err:
            raise CheckError(f"{path.name}: bad row {line!r}") from err
        if flagged not in (0, 1) or not np.isfinite(freq):
            raise CheckError(f"{path.name}: bad row {line!r}")
        if not flagged:
            if not np.isfinite(value):
                raise CheckError(f"{path.name}: unflagged non-finite gain in row {line!r}")
            gains.append(value)
    if not gains:
        raise CheckError(f"{path.name}: no unflagged bins")
    return float(np.mean(gains))


def check_finite_csv(path):
    rows = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    if rows.size == 0 or not np.isfinite(rows).all():
        raise CheckError(f"{path.name}: empty or non-finite values")


def check_reference(gains, reference):
    """reference: {mode: {"mean": dB, "tolerance": dB, ...}} from reference.json."""
    for mode, gain in gains.items():
        ref = reference[mode]
        if abs(gain - ref["mean"]) > ref["tolerance"]:
            raise CheckError(f"{mode} gain {gain:.4f} dB is more than {ref['tolerance']} dB "
                             f"from the reference {ref['mean']} dB")


def read_wav(path):
    return wavfile.read(path)[1].astype(np.float64)


def read_images(images):
    """Reference-microphone signals of `simulate`'s mixture.wav and image_NN.wav:
    {"mixture": samples, "sources": {"NN.wav": samples}}."""
    return {
        "mixture": read_wav(images / "mixture.wav")[:, REFERENCE_MIC],
        "sources": {p.name[len("image_"):]: read_wav(p)[:, REFERENCE_MIC]
                    for p in sorted(images.glob("image_*.wav"))},
    }


def wav_gains(out, images, modes):
    """{mode: mean over sources of 10 log10(|mixture - image|^2 / |enhanced - image|^2)}.

    The time-domain counterpart of the CLI's gain: each enhanced_<mode>_NN.wav
    in out is scored against source NN's image at the reference microphone;
    images is what read_images returns."""
    mixture, sources = images["mixture"], images["sources"]
    gains = {}
    for mode in modes:
        got = sorted(p.name[len(f"enhanced_{mode}_"):] for p in out.glob(f"enhanced_{mode}_*.wav"))
        if got != sorted(sources):
            raise CheckError(f"enhanced_{mode}_*.wav: sources {got} instead of {sorted(sources)}")
        per_source = []
        for name, image in sources.items():
            enhanced = read_wav(out / f"enhanced_{mode}_{name}")
            if enhanced.shape != image.shape or not np.isfinite(enhanced).all():
                raise CheckError(f"enhanced_{mode}_{name}: shape {enhanced.shape} or "
                                 f"non-finite samples (image shape {image.shape})")
            per_source.append(10 * np.log10(np.sum((mixture - image) ** 2)
                                             / np.sum((enhanced - image) ** 2)))
        gains[mode] = float(np.mean(per_source))
    return gains


def check_banks(out, reference_out, modes):
    for mode in modes:
        with np.load(out / f"bank_{mode}.npz") as got, np.load(reference_out / f"bank_{mode}.npz") as ref:
            if sorted(got.files) != sorted(ref.files):
                raise CheckError(f"bank_{mode}.npz: fields differ from the analyze bank")
            for key in ref.files:
                a, b = got[key], ref[key]
                if a.dtype.kind in "fc":
                    equal = a.shape == b.shape and np.allclose(a, b, rtol=BANK_RTOL, atol=0)
                else:
                    equal = np.array_equal(a, b)
                if not equal:
                    raise CheckError(f"bank_{mode}.npz: {key} differs from the analyze bank")


def same_tree(a, b):
    """Names of files that differ between two output directories."""
    names_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    names_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if names_a != names_b:
        return ["<file list>"]
    return [str(n) for n in names_a if not filecmp.cmp(a / n, b / n, shallow=False)]


def check_invocation(workload, sample, cwd, first_out, ctx):
    """Raise CheckError when the invocation in cwd is wrong; return its gains."""
    if sample["exit"] != 0:
        raise CheckError(f"exit status {sample['exit']} (see {cwd / 'child.log'})")
    out = cwd / "out"
    modes = WORKLOADS[workload]["modes"]
    if workload == "jitter_analyze":
        check_finite_csv(out / "theory.csv")
    if "prepare" in WORKLOADS[workload]:
        check_banks(out, ctx["prepared"], modes)
        gains = wav_gains(out, ctx["images"], modes)
    else:
        check_finite_csv(out / "divergence.csv")
        gains = {mode: read_gain_csv(out / f"gain_{mode}.csv") for mode in modes}
    check_reference(gains, ctx["reference"])
    if first_out is not None:
        differ = same_tree(first_out, out)
        if differ:
            raise CheckError(f"outputs differ from the first invocation: {differ[:5]}")
    return gains


# ---------------------------------------------------------------- spans


def layer_stats(spans):
    """Per-name calls, busy and self time and counts for one traced process.

    Self time is a span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    stats = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["busy_s"] += s["end"] - s["start"]
        st["self_s"] += s["end"] - s["start"] - child_time[i]
        for key in ("cells", "rss_step_mb", "frames", "correct", "flagged_bins", "bytes"):
            if key in s:
                st[key] = st.get(key, 0) + s[key]
    return stats


def invocation_layers(sample):
    """Flat per-layer metrics of one traced invocation (all of its steps).

    Start and exit of each traced child are timed against the parent's clock:
    trace.interpreter_s runs from launch to the tracer's first statement,
    trace.exit_s from the tracer's last statement (spans written) to the exit
    the parent sees. trace.unaccounted_s is the traced wall time that neither
    these nor the spans' self times cover; it is not zero by construction."""
    merged = {}
    interpreter = exit_s = 0.0
    for trace in sample["traces"]:
        child = trace["child"]
        interpreter += trace["origin"] - child["launch"]
        exit_s += child["exit_time"] - (trace["origin"] + trace["written"])
        for name, st in layer_stats(trace["spans"]).items():
            acc = merged.setdefault(name, {})
            for key, value in st.items():
                acc[key] = acc.get(key, 0) + value
    metrics = {}
    for name in LAYERS:
        st = merged.get(name, {})
        metrics[f"{name}.calls"] = st.get("calls", 0)
        metrics[f"{name}.busy_s"] = st.get("busy_s", 0.0)
        metrics[f"{name}.self_s"] = st.get("self_s", 0.0)
    # cli.self_s is cli.main's own orchestration time, set below.
    for module in sorted({name.split(".")[0] for name in LAYERS} - {"cli"}):
        names = [n for n in LAYERS if n.startswith(module + ".")]
        metrics[f"{module}.self_s"] = sum(metrics[f"{n}.self_s"] for n in names)
    render = merged.get("scene.render", {})
    metrics["scene.render.cells"] = render.get("cells", 0)
    metrics["scene.render.rss_step_mb"] = render.get("rss_step_mb", 0.0)
    metrics["covest.train.frames"] = merged.get("covest.train", {}).get("frames", 0)
    states = merged.get("covest.estimate_states", {})
    metrics["covest.estimate_states.accuracy"] = (
        states["correct"] / states["frames"] if states.get("frames") else 0.0)
    metrics["evaluate.gain.flagged_bins"] = merged.get("evaluate.gain", {}).get("flagged_bins", 0)
    metrics["containers.save_covariances.bytes"] = merged.get(
        "containers.save_covariances", {}).get("bytes", 0)
    metrics["cli.import_s"] = merged["cli.import"]["busy_s"]
    metrics["cli.self_s"] = merged.get("cli.main", {}).get("self_s", 0.0)
    metrics["trace.interpreter_s"] = interpreter
    metrics["trace.exit_s"] = exit_s
    metrics["trace.wall_s"] = sample["wall_s"]
    metrics["trace.unaccounted_s"] = sample["wall_s"] - sum(
        [metrics[f"{name}.self_s"] for name in LAYERS]
        + [metrics[k] for k in ("cli.self_s", "cli.import_s", "trace.interpreter_s", "trace.exit_s")])
    return metrics


# ---------------------------------------------------------------- workload run


def load_reference():
    """{workload: {mode: {"mean": dB, "sd": dB, "tolerance": dB}}}."""
    return json.loads((HERE / "reference.json").read_text())["gain_db"]


def prepare(workload, seed, run_dir, env):
    config = merge(WORKLOADS[workload]["scene"], {"seed": seed})
    (run_dir / "config.json").write_text(json.dumps(config))
    ctx = {"reference": load_reference()[workload]}
    steps = WORKLOADS[workload].get("prepare", [])
    if steps:
        cwd = run_dir / "prepare"
        cwd.mkdir()
        for step in steps:
            code = invoke(cli_argv(seed, step), cwd, env)["exit"]
            if code != 0:
                raise CheckError(f"preparing {step[-1]} run exited with status {code}")
        ctx["prepared"] = cwd / "out"
        ctx["images"] = read_images(cwd / "out")
    return ctx


def middle(values):
    """Median; for counts, the lower middle value, so a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def merge(base, override):
    merged = dict(base)
    for key, value in override.items():
        merged[key] = merge(merged.get(key, {}), value) if isinstance(value, dict) else value
    return merged


def run_workload(workload, args):
    seed = args.seed
    env = child_env()
    run_dir = WORK / f"{workload}-s{seed}-t{args.trace}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    RESULTS.mkdir(parents=True, exist_ok=True)

    info = environment(env)
    ctx = prepare(workload, seed, run_dir, env)
    setup_s = None if args.trace else measure_setup(run_dir, env)

    samples, problems, first_out = [], [], None
    start = time.perf_counter()
    while True:
        n = len(samples)
        traced = bool(args.trace) and n % 2 == 1
        cwd = run_dir / ("first" if n == 0 else "again")
        sample = run_invocation(workload, seed, cwd, env, n if traced else None)
        sample["traced"] = traced
        try:
            sample["gains"] = check_invocation(workload, sample, cwd, first_out, ctx)
        except (CheckError, OSError, ValueError, zipfile.BadZipFile) as err:
            sample["error"] = str(err)
            problems.append(f"invocation {n}: {err}")
        if n == 0:
            first_out = cwd / "out"
        samples.append(sample)
        elapsed = time.perf_counter() - start
        typical = statistics.median(s["wall_s"] for s in samples)
        if len(samples) >= 2 and elapsed + typical > args.seconds:
            break

    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"] and "error" not in s]
    e2e = {
        "wall_s": statistics.median(s["wall_s"] for s in untraced),
        "cpu_s": statistics.median(s["cpu_s"] for s in untraced),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
    }
    if setup_s is not None:
        e2e["setup_s"] = setup_s
    good = [s["gains"] for s in samples if "gains" in s]
    for mode in ("static", "dynamic", "rank1"):
        if good and mode in good[0]:
            e2e[f"gain_db.{mode}"] = good[0][mode]
    e2e["failed_share"] = len(problems) / len(samples)

    layers = {}
    spans_out = []
    if traced:
        per_run = [invocation_layers(s) for s in traced]
        layers = {k: middle([r[k] for r in per_run]) for k in per_run[0]}
        # Each traced invocation against the untraced one just before it.
        pairs = [samples[n]["wall_s"] - samples[n - 1]["wall_s"]
                 for n in range(1, len(samples), 2)
                 if "error" not in samples[n] and "error" not in samples[n - 1]]
        layers["trace.overhead_s"] = statistics.median(pairs) if pairs else float("nan")
        spans_out = [span for s in traced for trace in s["traces"] for span in trace["spans"]]

    result = {
        "workload": workload, "seed": seed, "trace": args.trace, "seconds": args.seconds,
        "env": info, "invocations": len(samples),
        "walls_s": [s["wall_s"] for s in samples], "traced": [s["traced"] for s in samples],
        "problems": problems, "metrics": e2e, "layers": layers,
    }
    stem = RESULTS / f"{workload}-s{seed}-t{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1))
    if spans_out:
        stem.with_suffix(".spans.json").write_text(json.dumps(spans_out))
    if not problems:  # outputs of a failed run stay for inspection
        shutil.rmtree(run_dir)
    return result


# ---------------------------------------------------------------- output


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def unit_of(name):
    if name.startswith("gain_db."):
        return "dB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_share", ".accuracy")):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def report(result):
    print(f"workload {result['workload']}  seed {result['seed']}  closed loop, 1 client, "
          f"{result['invocations']} invocations ({sum(result['traced'])} traced)")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, value in result["metrics"].items():
        print(f"  {name:<40} {value:>14.6g} {unit_of(name)}")
    if result["layers"]:
        print("  per layer (median over traced invocations):")
        for name, value in sorted(result["layers"].items()):
            print(f"    {name:<46} {value:>14.6g} {unit_of(name)}")
        l = result["layers"]
        self_total = sum(l[f"{name}.self_s"] for name in LAYERS)
        print(f"  accounting: layer self {self_total:.4f} s + cli.self_s {l['cli.self_s']:.4f} s"
              f" + cli.import_s {l['cli.import_s']:.4f} s + interpreter {l['trace.interpreter_s']:.4f} s"
              f" + exit {l['trace.exit_s']:.4f} s; traced wall {l['trace.wall_s']:.4f} s;"
              f" unaccounted {l['trace.unaccounted_s']:.4f} s")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def summary_line(result, spec):
    section = "per_layer" if result["trace"] else "end_to_end"
    values = result["layers"] if result["trace"] else result["metrics"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section] if m["name"] in values}  # a failed run may lack some
    return json.dumps({"correct": not result["problems"], "attempted": result["invocations"],
                       "failed": len(result["problems"]), "metrics": metrics})


def load_results(path):
    """{(workload, trace): {metric: median across files}} for a result file or
    a directory of them."""
    path = Path(path)
    files = sorted(path.glob("*-t[01].json")) if path.is_dir() else [path]
    grouped = {}
    for f in files:
        r = json.loads(f.read_text())
        grouped.setdefault((r["workload"], r["trace"]), []).append({**r["metrics"], **r["layers"]})
    return {key: {m: statistics.median(run[m] for run in runs if m in run)
                  for m in sorted({m for run in runs for m in run})}
            for key, runs in grouped.items()}


def compare(old_path, new_path):
    old, new = load_results(old_path), load_results(new_path)
    print(f"  {'metric':<46} {'old':>12} {'new':>12} {'delta':>12} {'share':>8} unit")
    for key in sorted(set(old) | set(new)):
        print(f"{key[0]} ({'per layer' if key[1] else 'end to end'})")
        a, b = old.get(key, {}), new.get(key, {})
        for name in sorted(set(a) | set(b)):
            va, vb = a.get(name), b.get(name)
            if va is None or vb is None:
                print(f"  {name:<46} {va!s:>12} {vb!s:>12}")
                continue
            share = f"{(vb - va) / abs(va):+.1%}" if va else "n/a"
            print(f"  {name:<46} {va:>12.5g} {vb:>12.5g} {vb - va:>+12.5g} {share:>8} {unit_of(name)}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if not (ROOT / "src" / "driftbeam" / "cli.py").is_file():
        return fail(f"no driftbeam sources under {ROOT / 'src'}")
    code = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            result = run_workload(workload, args)
        except (CheckError, OSError, ValueError, subprocess.CalledProcessError) as err:
            code = fail(f"{workload}: {err}")
            continue
        report(result)
        print(summary_line(result, bench_spec()))
        code = code or (1 if result["problems"] else 0)
    return code


if __name__ == "__main__":
    sys.exit(main())
