"""Run one driftbeam CLI command in this process with a span around every
call into each layer, then write the spans to a JSON file.

    python3 perfbench/tracer.py SPANS.json RUN_ID -- <driftbeam arguments>

RUN_ID labels every span of this command, so spans of several commands can
be merged.

The spans are recorded from outside the package: each public function named
in LAYERS is replaced, in every driftbeam module that holds a reference to
it, by a wrapper that records (name, start, end, parent, run id) plus a few
per-layer counts. Spans stay in memory until the command returns. The file
holds {"run", "origin", "written", "spans"}: origin is time.monotonic() at the
tracer's first statement, so a parent can time the interpreter's start
against it; span times and written (when the spans were dumped) are seconds
after origin. The exit code is the CLI's own.
"""

import importlib
import json
import os
import sys
import threading
import time

# Public functions whose calls are timed, as module.attribute.
LAYERS = (
    "scene.render",
    "stft.analyze",
    "stft.synthesize",
    "covest.train",
    "covest.pilot_templates",
    "covest.estimate_states",
    "covmath.HermitianSpectrum",
    "covmath.gaussian_divergence",
    "beamform.build",
    "beamform.mwf_weights",
    "beamform.apply_bank",
    "evaluate.gain",
    "evaluate.divergence_curve",
    "evaluate.theory_curve",
    "evaluate.write_table",
    "containers.save_covariances",
    "containers.load_covariances",
    "containers.save_bank",
    "cli.write_wav",
    "cli.write_manifest",
)

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def _rss_mb():
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


class Tracer:
    """Collects spans in memory; one thread-local stack gives each span's parent."""

    def __init__(self, run_id, origin):
        self.run_id = run_id
        self.origin = origin
        self.spans = []
        self._local = threading.local()
        self._truth = {}  # id(test mixture) -> true state track, for accuracy

    def call(self, name, fn, *args, **kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        span = {
            "name": name,
            "start": time.monotonic() - self.origin,
            "end": None,
            "parent": stack[-1] if stack else None,
            "run": self.run_id,
        }
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        rss_before = _rss_mb() if name == "scene.render" else None
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.monotonic() - self.origin
            stack.pop()
        if rss_before is not None:
            span["rss_step_mb"] = _rss_mb() - rss_before
        self._count(name, span, args, result)
        return result

    def _count(self, name, span, args, result):
        if name == "scene.render":
            span["cells"] = int(result.mixture.frames.size)
            self._truth[id(result.mixture)] = result.truth_states
        elif name == "covest.train":
            renders = list(args[0]) + [args[1]]
            span["frames"] = sum(r.mixture.frame_count for r in renders)
        elif name == "covest.estimate_states":
            truth = self._truth.get(id(args[0]))
            if truth is not None:
                span["frames"] = int(truth.frame_count)
                span["correct"] = int((result.labels == truth.labels).sum())
        elif name == "evaluate.gain":
            span["flagged_bins"] = int(result.flagged.sum())
        elif name == "containers.save_covariances":
            span["bytes"] = os.path.getsize(args[0])

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self, modules):
        """Replace each layer function by its traced wrapper in every module
        that refers to it (several modules import functions by name)."""
        for layer in LAYERS:
            module_name, attr = layer.split(".")
            original = getattr(modules[module_name], attr)
            if isinstance(original, type):
                original.__init__ = self.wrap(layer, original.__init__)
                continue
            traced = self.wrap(layer, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


def main(argv):
    origin = time.monotonic()
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS.json RUN_ID -- <driftbeam arguments>", file=sys.stderr)
        return 2
    spans_path, run_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(run_id, origin)
    start = time.monotonic() - origin
    names = sorted({layer.split(".")[0] for layer in LAYERS})
    modules = {name: importlib.import_module(f"driftbeam.{name}") for name in names}
    tracer.spans.append({"name": "cli.import", "start": start,
                         "end": time.monotonic() - origin, "parent": None, "run": run_id})
    tracer.install(modules)
    try:
        code = tracer.call("cli.main", modules["cli"].main, cli_args)
    finally:
        trace = {"run": run_id, "origin": origin, "written": time.monotonic() - origin,
                 "spans": tracer.spans}
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
