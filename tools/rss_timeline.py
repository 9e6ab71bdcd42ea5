"""Memory timeline of one driftbeam command, stage by stage.

    python3 tools/rss_timeline.py -- <driftbeam arguments>

for example

    python3 tools/rss_timeline.py -- --config rot.json --seed 7 --out /tmp/rot \
        --mode static,dynamic,rank1 analyze

Runs the command in this process through `driftbeam.cli.main`, with the
driftbeam found on PYTHONPATH. Every `cli.stage` block is wrapped so that
entering and leaving it mark a stage boundary. A sampler thread reads the
resident set size from /proc/self/statm every INTERVAL_S (0.5 ms), and once
more at every boundary; tracemalloc records the peak of the memory
allocated after the imports, which counts numpy's array buffers. Both are
charged to every stage open at the time, so an outer stage's figures cover
its inner stages.

It prints one row per stage, in the order the stages were entered (a label
entered twice, as `analyze`'s `train` is, gets two rows): its start and wall
time, its largest RSS sample, and its traced peak. The first row is the
imports, before any stage; the last line is the process's peak RSS from
getrusage. The RSS figures include tracemalloc's own tables, a few MB, so
compare them only with other runs of this tool. The command's output
directory gets exactly the files a plain run writes; the timeline goes to
standard output only.

Exit status: the command's own.
"""

import os
import resource
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20
INTERVAL_S = 0.0005


class Timeline:
    """Stage records, the stages open now, and the sampler that feeds them."""

    def __init__(self):
        self.origin = time.monotonic()
        self.rows = []  # [label, start_s, end_s, rss_max_mb, traced_peak_mb]
        self.open = []
        self.lock = threading.Lock()
        self.statm = os.open("/proc/self/statm", os.O_RDONLY)
        self.done = threading.Event()
        self.sampler = threading.Thread(target=self._sample_until_done, daemon=True)

    def rss_mb(self):
        return int(os.pread(self.statm, 128, 0).split()[1]) * _PAGE_MB

    def sample(self):
        rss = self.rss_mb()
        with self.lock:
            for row in self.open:
                row[3] = max(row[3], rss)

    def _sample_until_done(self):
        while not self.done.wait(INTERVAL_S):
            self.sample()

    def boundary(self):
        """Charge the traced peak since the last boundary to every open stage,
        then start a new interval."""
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.reset_peak()
        with self.lock:
            for row in self.open:
                row[4] = max(row[4], peak)
        self.sample()

    def enter(self, label):
        self.boundary()
        row = [label, time.monotonic() - self.origin, None, self.rss_mb(),
               tracemalloc.get_traced_memory()[0] / 2**20]
        with self.lock:
            self.rows.append(row)
            self.open.append(row)

    def leave(self):
        self.boundary()
        with self.lock:
            row = self.open.pop()
        row[2] = time.monotonic() - self.origin

    def start(self):
        self.rows.append(["imports", 0.0, time.monotonic() - self.origin, self.rss_mb(), 0.0])
        tracemalloc.start()
        self.sampler.start()

    def stop(self):
        self.done.set()
        self.sampler.join()
        tracemalloc.stop()
        os.close(self.statm)

    def report(self, out):
        out.write(f"{'stage':<24}{'start_s':>9}{'wall_s':>9}{'rss_max_mb':>12}"
                  f"{'traced_peak_mb':>16}\n")
        for label, start, end, rss, traced in self.rows:
            wall = f"{end - start:9.3f}" if end is not None else f"{'-':>9}"
            out.write(f"{label:<24}{start:9.3f}{wall}{rss:12.1f}{traced:16.1f}\n")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out.write(f"process peak RSS {peak:.1f} MB\n")


def main(argv):
    if argv[:1] != ["--"]:
        sys.exit("usage: rss_timeline.py -- <driftbeam arguments>")
    timeline = Timeline()
    from driftbeam import cli  # imported first: it sets OpenBLAS's thread count before numpy

    original = cli.stage

    @contextmanager
    def marked(label):
        timeline.enter(label)
        try:
            with original(label):
                yield
        finally:
            timeline.leave()

    timeline.start()
    cli.stage = marked
    try:
        code = cli.main(argv[1:])
    finally:
        cli.stage = original
        timeline.stop()
    timeline.report(sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
