"""Alternating benchmark pairs of a parent revision against the working tree.

    python3 tools/pairs.py PARENT_REV --pairs N --seed S --seconds T \
        [--workload W ...] --out BENCH_<n>.json [--append] [--what TEXT]

The parent is exported with `git archive` into .pairs_work/ (gitignored); the
change is this checkout's working tree. For each workload (default: every
workload of BENCHMARK.json), pair k runs `perfbench/run.py --workload W
--seed S --seconds T --trace 0` once from each tree, the parent first on even
k and the change first on odd k, and reads the JSON summary on the last line
of its standard output. Nothing under perfbench/ is changed.

Each run's environment holds only PATH, HOME and, when the caller sets it,
OPENBLAS_NUM_THREADS; whether it was set is recorded, as is the OpenBLAS core
type that `OPENBLAS_VERBOSE=2` prints when numpy is imported in that
environment (the kernels, and so the timings, depend on the host). Since the
driftbeam command may choose its own BLAS thread count when the variable is
unset, each side also records the OpenBLAS thread count that a process sees
after `import driftbeam.cli` from that side's tree in the runs' environment.

The output holds, per workload: the raw values of every end-to-end metric on
each side, their medians and interquartile ranges (quartiles interpolated
linearly between order statistics), the number of pairs in which the change
is lower and in which the two are equal, and each side's correctness and
failed operations. The src/ line counts of both trees are recorded. With
--append, the runs are added to an existing file of the same parent.

Exit status 0 when every run of both sides is correct, 1 otherwise.
"""

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".pairs_work"
SIDES = ("parent", "change")


def blas_env(environ):
    """The runs' environment: PATH and HOME, and OPENBLAS_NUM_THREADS only if set."""
    env = {name: environ[name] for name in ("PATH", "HOME") if name in environ}
    if "OPENBLAS_NUM_THREADS" in environ:
        env["OPENBLAS_NUM_THREADS"] = environ["OPENBLAS_NUM_THREADS"]
    return env


def openblas_core(text):
    """The core type from OpenBLAS's verbose start-up message, or None."""
    match = re.search(r"Core: (\S+)", text)
    return match.group(1) if match else None


def environment_record(env):
    """What a reader needs to repeat the runs: the variables passed (not their
    paths), the BLAS thread setting, PYTHONDONTWRITEBYTECODE and the core type."""
    probe = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                           text=True, env={**env, "OPENBLAS_VERBOSE": "2"})
    return {
        "variables": sorted(env),
        "OPENBLAS_NUM_THREADS": env.get("OPENBLAS_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS_set": "OPENBLAS_NUM_THREADS" in env,
        "PYTHONDONTWRITEBYTECODE": env.get("PYTHONDONTWRITEBYTECODE"),
        "openblas_core": openblas_core(probe.stdout + probe.stderr),
    }


# The OpenBLAS thread count after `import driftbeam.cli`, read with the getter
# that perfbench/run.py's environment probe uses; None without OpenBLAS.
CLI_BLAS_CODE = r"""
import ctypes, json, driftbeam.cli
threads = None
with open("/proc/self/maps") as fh:
    libs = sorted({l.split()[-1] for l in fh if "openblas" in l.lower() and "/" in l})
for lib in libs:
    handle = ctypes.CDLL(lib)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        if threads is None and hasattr(handle, sym):
            getter = getattr(handle, sym)
            getter.argtypes, getter.restype = [], ctypes.c_int
            threads = getter()
print(json.dumps(threads))
"""


def cli_blas_threads(tree, env):
    """The OpenBLAS thread count of a process that imports tree's driftbeam.cli in env."""
    probe = subprocess.run([sys.executable, "-c", CLI_BLAS_CODE], cwd=tree, check=True,
                           env={**env, "PYTHONPATH": str(Path(tree) / "src")},
                           capture_output=True, text=True)
    return json.loads(probe.stdout)


def run_perfbench(tree, workload, seed, seconds, env):
    """One benchmark run from tree; returns its JSON summary line as a dict."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"{tree}: {' '.join(argv[1:])} printed no summary "
                           f"(exit {run.returncode}): {run.stderr.strip()[-500:]}") from None


def iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def metric_record(parent, change):
    """Both sides' values of one metric, pair by pair, and their statistics."""
    return {
        "parent": parent,
        "change": change,
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_iqr": iqr(parent),
        "change_iqr": iqr(change),
        "change_lower_pairs": sum(c < p for p, c in zip(parent, change)),
        "equal_pairs": sum(c == p for p, c in zip(parent, change)),
    }


def measure(trees, workload, seed, seconds, pairs, env, runner=run_perfbench,
            probe=cli_blas_threads):
    """Run the pairs of one workload, alternating the side that goes first."""
    if pairs < 2:
        raise ValueError("an interquartile range needs at least two pairs")
    summaries = {side: [] for side in SIDES}
    first = []
    for k in range(pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            print(f"{workload} seed {seed} pair {k}: {side}", file=sys.stderr, flush=True)
            summaries[side].append(runner(trees[side], workload, seed, seconds, env))
    names = [name for name in summaries["parent"][0]["metrics"]
             if all(name in s["metrics"] for side in SIDES for s in summaries[side])]
    values = {side: {name: [s["metrics"][name]["value"] for s in summaries[side]]
                     for name in names} for side in SIDES}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "pairs": pairs,
        "first": first,
        "correct": {side: all(s["correct"] for s in summaries[side]) for side in SIDES},
        "attempted": {side: sum(s["attempted"] for s in summaries[side]) for side in SIDES},
        "failed": {side: sum(s["failed"] for s in summaries[side]) for side in SIDES},
        "cli_blas_threads": {side: probe(trees[side], env) for side in SIDES},
        "metrics": {name: {"unit": summaries["parent"][0]["metrics"][name]["unit"],
                           **metric_record(values["parent"][name], values["change"][name])}
                    for name in names},
    }


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev):
    """A fresh tree of rev's committed files under WORK; returns it and rev's commit."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    tree = WORK / f"parent-{commit[:12]}"
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(tree)], input=git("archive", commit), check=True)
    return tree, commit


def src_lines(tree):
    return sum(len(path.read_bytes().splitlines()) for path in (tree / "src").rglob("*.py"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_REV")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json (repeatable; default: all)")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--append", action="store_true",
                        help="add the runs to an existing output file of the same parent")
    parser.add_argument("--what", help="a sentence saying what the change is")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in
                                  json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    previous = json.loads(args.out.read_text()) if args.append and args.out.exists() else None
    tree, commit = export(args.parent)
    if previous and previous["parent"]["commit"] != commit:
        parser.error(f"{args.out} holds pairs against {previous['parent']['commit']}")
    env = blas_env(os.environ)
    environment = environment_record(env)
    runs = [{**measure({"parent": tree, "change": ROOT}, workload, args.seed, args.seconds,
                       args.pairs, env), "environment": environment}
            for workload in workloads]
    result = previous or {"tool": "tools/pairs.py"}
    if args.what:
        result["what"] = args.what
    result.update({
        "host": {"machine": platform.machine(), "cpu_count": os.cpu_count(),
                 "python": platform.python_version()},
        "parent": {"rev": args.parent, "commit": commit, "src_lines": src_lines(tree)},
        "change": {"commit": git("rev-parse", "HEAD").decode().strip(),
                   "uncommitted": bool(git("status", "--porcelain", "--", "src")),
                   "src_lines": src_lines(ROOT)},
    })
    result["runs"] = result.get("runs", []) + runs
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for run in runs:
        print(f"{run['workload']} seed {run['seed']} "
              f"(OPENBLAS_NUM_THREADS {run['environment']['OPENBLAS_NUM_THREADS']}, "
              f"CLI BLAS threads {run['cli_blas_threads']}):")
        for name, m in run["metrics"].items():
            print(f"  {name:<16} {m['parent_median']:>10.4g} -> {m['change_median']:>10.4g} "
                  f"(parent IQR {m['parent_iqr']:.3g}), change lower in "
                  f"{m['change_lower_pairs']} of {run['pairs']}")
    return 0 if all(all(run["correct"].values()) for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
