"""One round of queries in a fresh interpreter, as a user's process would run them.

    python3 perfbench/client.py PLAN OUT [--trace] [--setup-only]

Imports quandlekit from src/, makes one warm-up call, then runs every argv
in PLAN through quandlekit.cli.run one after another (a closed loop with a
single client), capturing each report.  A garbage collection runs before
each query, untimed, so a query pays only for the collections its own
allocations trigger, as it would in a fresh `quandlekit` process.  OUT
receives the exit codes, reports, per-query latencies, the round's wall
and CPU time, the set-up time and the process's peak resident memory;
with --trace also the spans.  Beside the set-up time and each latency
goes the mean time of the speed probe (below) over it.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
WARM_UP = ["invariants", "--dihedral", "3"]
PROBE_INTERVAL_S = 0.02
_CYCLE = (1, 2, 3, 4, 5, 6, 7, 0)
_SWAP = (1, 0, 2, 3, 4, 5, 6, 7)
_R7 = [[(2 * y - x) % 7 for y in range(7)] for x in range(7)]


def _probe_work():
    """A fixed piece of pure-Python work of the two kinds quandlekit does
    most: permutation tuples composed in generator expressions and counted
    in a dict, then the self-distributivity check walked over the table of
    the dihedral quandle R7."""
    images, seen = tuple(range(8)), {}
    for i in range(240):
        images = tuple(images[j] for j in (_CYCLE if i % 3 else _SWAP))
        seen[images] = seen.get(images, 0) + 1
    t, holds = _R7, 0
    for _ in range(8):
        for x in range(7):
            tx = t[x]
            for y in range(7):
                txy = t[tx[y]]
                for z in range(7):
                    holds += txy[z] == t[tx[z]][t[y][z]]
    return len(seen) + holds


class SpeedProbe:
    """Samples how fast this process runs Python code right now.

    The shared host switches a process between speeds about 2x apart,
    often within a second, so a query's latency says as much about the
    host as about quandlekit.  The probe times _probe_work once before and
    once after each measured span and, if `interval_s` is not 0, from a
    timer signal every `interval_s` within it.  The caller divides the
    span by the mean probe time over it, which cancels the host's speed.
    The time the timer's handler takes is kept apart, to be taken out of
    the span.
    """

    def __init__(self, interval_s):
        self.interval_s = interval_s
        for _ in range(4):  # let the interpreter specialise the probe's code first
            _probe_work()
        self.samples = []
        self.handler_s = 0.0
        self._busy = False

    def sample(self):
        start = time.perf_counter()
        _probe_work()
        self.samples.append(time.perf_counter() - start)

    def _on_timer(self, _signum, _frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.sample()
        self.handler_s += time.perf_counter() - start
        self._busy = False

    @contextlib.contextmanager
    def span(self):
        """Probe before, during and after the block.  Yields a dict that
        receives, when the block ends, the mean probe time over it
        (`probe_s`) and the time the handler took within it (`handler_s`)."""
        first, handler0, out = len(self.samples), self.handler_s, {}
        self.sample()
        if self.interval_s:
            previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield out
        finally:
            if self.interval_s:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
            out["handler_s"] = self.handler_s - handler0
            self.sample()
            window = self.samples[first:]
            out["probe_s"] = sum(window) / len(window)


def _call(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = run(argv)
        except Exception:  # a traceback is a failed query, not a crashed round
            rc = -1
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def main(argv) -> int:
    plan_path, out_path = argv[0], argv[1]
    flags = set(argv[2:])
    # In a traced round the probe runs between queries only: a sample taken
    # inside a query would count toward the self time of the span it hit.
    probe = SpeedProbe(0.0 if "--trace" in flags else PROBE_INTERVAL_S)
    clock = time.perf_counter

    with probe.span() as speed:
        start = clock()
        sys.path.insert(0, os.path.join(os.getcwd(), "src"))
        from quandlekit import cli

        _call(cli.run, WARM_UP)
        setup_s = clock() - start
    result = {"setup_s": setup_s - speed["handler_s"], "setup_probe_s": speed["probe_s"]}
    if "--setup-only" in flags:
        with open(out_path, "w") as fh:
            json.dump(result, fh)
        return 0

    with open(plan_path) as fh:
        queries = json.load(fh)
    tracer = None
    if "--trace" in flags:
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    outcomes = []
    wall0, cpu0 = clock(), time.process_time()
    for argv_q in queries:
        gc.collect()
        with probe.span() as speed:
            t0, c0 = clock(), time.process_time()
            rc, stdout, stderr = _call(cli.run, argv_q)
            t1, c1 = clock(), time.process_time()
        handler_s = speed["handler_s"]
        outcomes.append({"rc": rc, "latency_s": t1 - t0 - handler_s,
                         "cpu_s": c1 - c0 - handler_s, "probe_s": speed["probe_s"],
                         "stdout": stdout, "stderr": stderr[-500:]})
    result["wall_s"] = clock() - wall0
    result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["outcomes"] = outcomes
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
