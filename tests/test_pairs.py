import importlib.util
import json
import os
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

TREES = {"parent": Path("parent-tree"), "change": Path("change-tree")}


def stub_runner(values, calls):
    """A runner whose k-th run of a side reports that side's k-th values."""
    seen = {side: 0 for side in TREES}

    def run(tree, workload, seed, seconds, env):
        side = next(side for side, path in TREES.items() if path == tree)
        calls.append((side, workload, seed, seconds, env))
        k = seen[side]
        seen[side] += 1
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {name: {"value": series[side][k], "unit": "s"}
                            for name, series in values.items()}}
    return run


def stub_probe(threads, calls):
    """A CLI BLAS probe that reports threads[side] for each side's tree."""
    def probe(tree, env):
        side = next(side for side, path in TREES.items() if path == tree)
        calls.append((side, env))
        return threads[side]
    return probe


class TestMeasure:
    VALUES = {"cpu_s": {"parent": [1.0, 4.0, 2.0, 3.0], "change": [0.5, 4.0, 2.5, 1.0]},
              "wall_s": {"parent": [2.0, 2.0, 2.0, 2.0], "change": [1.0, 1.0, 1.0, 1.0]}}

    def measured(self, calls, probes=None):
        return pairs.measure(TREES, "rotation_rebeam", 7, 4.0, 4, {"PATH": "p"},
                             runner=stub_runner(self.VALUES, calls),
                             probe=stub_probe({"parent": 2, "change": 1},
                                              [] if probes is None else probes))

    def test_sides_alternate_going_first(self):
        calls = []
        result = self.measured(calls)
        assert [side for side, *_ in calls] == ["parent", "change", "change", "parent",
                                                "parent", "change", "change", "parent"]
        assert result["first"] == ["parent", "change", "parent", "change"]
        assert all(call[1:] == ("rotation_rebeam", 7, 4.0, {"PATH": "p"}) for call in calls)

    def test_schema_and_statistics(self):
        result = json.loads(json.dumps(self.measured([])))
        assert set(result) == {"workload", "seed", "seconds", "pairs", "first", "correct",
                               "attempted", "failed", "cli_blas_threads", "metrics"}
        assert result["correct"] == {"parent": True, "change": True}
        assert result["attempted"] == {"parent": 12, "change": 12}
        assert result["failed"] == {"parent": 0, "change": 0}
        cpu = result["metrics"]["cpu_s"]
        assert cpu["unit"] == "s"
        assert cpu["parent"] == [1.0, 4.0, 2.0, 3.0]
        assert cpu["change"] == [0.5, 4.0, 2.5, 1.0]
        assert cpu["parent_median"] == 2.5 and cpu["change_median"] == 1.75
        # Sorted 1, 2, 3, 4: quartiles at positions 0.75 and 2.25, 1.75 and 3.25.
        assert cpu["parent_iqr"] == pytest.approx(1.5)
        # Sorted 0.5, 1, 2.5, 4: quartiles 0.875 and 2.875.
        assert cpu["change_iqr"] == pytest.approx(2.0)
        assert cpu["change_lower_pairs"] == 2 and cpu["equal_pairs"] == 1
        wall = result["metrics"]["wall_s"]
        assert wall["parent_iqr"] == 0.0 and wall["change_lower_pairs"] == 4

    def test_cli_blas_threads_probed_per_side_in_the_runs_environment(self):
        probes = []
        result = self.measured([], probes)
        assert sorted(probes) == [("change", {"PATH": "p"}), ("parent", {"PATH": "p"})]
        assert result["cli_blas_threads"] == {"parent": 2, "change": 1}

    def test_one_pair_has_no_iqr(self):
        with pytest.raises(ValueError, match="at least two pairs"):
            pairs.measure(TREES, "rotation_rebeam", 7, 4.0, 1, {},
                          runner=stub_runner(self.VALUES, []))


class TestEnvironment:
    def test_blas_threads_passed_only_when_set(self):
        base = {"PATH": "/bin", "HOME": "/home/u", "PYTHONDONTWRITEBYTECODE": "1", "X": "y"}
        assert pairs.blas_env(base) == {"PATH": "/bin", "HOME": "/home/u"}
        assert pairs.blas_env({**base, "OPENBLAS_NUM_THREADS": "1"}) == \
            {"PATH": "/bin", "HOME": "/home/u", "OPENBLAS_NUM_THREADS": "1"}

    def test_core_type_read_from_the_verbose_message(self):
        assert pairs.openblas_core("Core: SkylakeX\n") == "SkylakeX"
        assert pairs.openblas_core("") is None


class TestCliBlasProbe:
    @pytest.mark.skipif(not Path("/proc/self/maps").is_file(), reason="reads Linux's /proc")
    @pytest.mark.parametrize("caller, threads", [(None, 1), ("2", 2)], ids=["unset", "two"])
    def test_reads_this_trees_cli_thread_count(self, caller, threads):
        env = pairs.blas_env({name: value for name, value in os.environ.items()
                              if name != "OPENBLAS_NUM_THREADS"})
        if caller is not None:
            env["OPENBLAS_NUM_THREADS"] = caller
        assert pairs.cli_blas_threads(pairs.ROOT, env) == \
            min(threads, len(os.sched_getaffinity(0)))
