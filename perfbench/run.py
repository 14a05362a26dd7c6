"""Seeded CLI-query benchmark for quandlekit.

    python3 perfbench/run.py --workload aut-groups --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each round is a fresh interpreter
(client.py) that imports quandlekit from src/ and runs one seeded query
list in a closed loop; rounds repeat, each with new relabelings, until
--seconds of round time have been measured.  Every report is checked by
verify.py outside the timed process.  End-to-end times are given at a
reference speed of the host: each is scaled by the speed probe of
client.py.  The last line of standard output is one JSON object: the
end-to-end metrics with --trace 0, or the per-layer metrics of one traced
round (plus an untraced twin for the overhead) with --trace 1.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import plan  # noqa: E402
import tracer  # noqa: E402
from verify import Checker  # noqa: E402

SETUP_SAMPLES = 11
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)
# No round starts once a run has taken this many times --seconds, so set-up
# and checking on a slow machine cannot stretch a run far past --seconds.
RUN_BUDGET_SHARE = 1.25
CHILD_TIMEOUT_S = 170.0
# The speed probe's time at the reference speed: about its time on a 2-vCPU
# Xeon guest running Python 3.11 while the shared host runs slow (it takes
# about half that while the host runs fast).  A time t measured while the
# probe took p seconds is reported as t * PROBE_REF_S / p.
PROBE_REF_S = 0.001


def percentile(values, p):
    """Harrell-Davis estimate of the p-th percentile.

    A weighted mean of all order statistics, with the weights of a
    Beta((n+1)q, (n+1)(1-q)) distribution for q = p/100.  A single order
    statistic jumps when two queries near it swap places across a gap in
    the latencies (as h2 on trivial and on dihedral order-4 bases do at the
    cohomology median); this estimate moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    q = p / 100.0
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint-rule steps per order statistic
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
                           for x in xs) / (steps * n))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail_percentile(count):
    """The highest listed percentile with at least ten of `count` samples beyond it."""
    for p in TAIL_PERCENTILES:
        if count * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


class Bench:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.workdir = f".perfbench_work/{workload}-s{seed}"
        with open(os.path.join(HERE, "golden.json")) as fh:
            golden = json.load(fh)
        with open(os.path.join(HERE, "classes.json")) as fh:
            self.classes = json.load(fh)
        self.checker = Checker(golden, self.classes)
        self.attempted = 0
        self.failures = []
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def child(self, tag, flags, queries=(), files=None):
        for path, text in (files or {}).items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
        os.makedirs(self.workdir, exist_ok=True)
        plan_path = f"{self.workdir}/{tag}.plan.json"
        out_path = f"{self.workdir}/{tag}.out.json"
        with open(plan_path, "w") as fh:
            json.dump([q["argv"] for q in queries], fh)
        subprocess.run(
            [sys.executable, os.path.join(HERE, "client.py"), plan_path, out_path, *flags],
            env=self.env, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S, check=True,
        )
        with open(out_path) as fh:
            return json.load(fh)

    def round(self, index, trace=False):
        """Run and verify one round; the oracle's time is outside the child's timing."""
        queries, files = plan.make_round(self.workload, self.seed, index, self.workdir,
                                         self.classes)
        tag = f"r{index}" + ("t" if trace else "")
        result = self.child(tag, ["--trace"] if trace else [], queries, files)
        for query, outcome in zip(queries, result["outcomes"]):
            self.attempted += 1
            problem = self.checker.check(query, outcome["rc"], outcome["stdout"])
            if problem is not None:
                self.failures.append(f"{' '.join(query['argv'])}: {problem} "
                                     f"{outcome['stderr'].strip()[:200]}")
        return result

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        parent = os.path.dirname(self.workdir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    def setup_times(self):
        """Set-up samples after one unmeasured start, which may write bytecode caches."""
        self.child("setup", ["--setup-only"])
        return [self.child(f"setup{i}", ["--setup-only"])
                for i in range(SETUP_SAMPLES)]


def at_reference_speed(seconds, probe_s):
    return seconds * PROBE_REF_S / probe_s


def end_to_end(bench, seconds, started):
    """Metrics of the median round: each query slot's median over the rounds.

    Every round runs the same families in the same order, so slot j of each
    round is one draw of the same kind of query.  Taking each slot's median
    before summing keeps a burst of load on the shared machine, which hits
    a few queries of a few rounds, out of the figures.  Each time is first
    scaled to the reference speed by the probe taken over it.
    """
    setups = bench.setup_times()
    rounds = []
    measured = 0.0
    budget = RUN_BUDGET_SHARE * seconds
    while not rounds or (measured < seconds and time.monotonic() - started < budget):
        result = bench.round(len(rounds))
        rounds.append(result)
        measured += result["wall_s"]
    slots = len(rounds[0]["outcomes"])
    if any(len(r["outcomes"]) != slots for r in rounds):
        raise RuntimeError("rounds differ in length; the plan is not seed-free")

    def slot_medians(field, scaled=True):
        return [statistics.median(
                    at_reference_speed(o[field], o["probe_s"]) if scaled else o[field]
                    for o in (r["outcomes"][j] for r in rounds))
                for j in range(slots)]

    latency_ms = [v * 1000.0 for v in slot_medians("latency_s")]
    p_tail = tail_percentile(slots)
    setup_s = [at_reference_speed(s["setup_s"], s["setup_probe_s"]) for s in setups]
    metrics = {
        "wall_s": sum(slot_medians("latency_s")),
        "cpu_s": sum(slot_medians("cpu_s")),
        "query_p50_ms": percentile(latency_ms, 50.0),
        "query_tail_ms": percentile(latency_ms, p_tail),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "setup_s": statistics.median(setup_s),
    }
    notes = {
        "round_wall_s": [r["wall_s"] for r in rounds],
        "unscaled_wall_s": sum(slot_medians("latency_s", scaled=False)),
        "unscaled_setup_s": statistics.median(s["setup_s"] for s in setups),
        "probe_ms": 1000.0 * statistics.median(o["probe_s"] for r in rounds
                                                for o in r["outcomes"]),
        "setup_samples_s": setup_s,
        "queries_per_round": slots,
        "tail_percentile": p_tail,
        "failed_ratio": len(bench.failures) / max(bench.attempted, 1),
    }
    return metrics, notes


def per_layer(bench):
    plain = bench.round(0)
    traced = bench.round(0, trace=True)
    # Summed query latencies at the reference speed, so that a change of the
    # host's speed between the two rounds does not show as tracing cost.
    plain_s, traced_s = (sum(at_reference_speed(o["latency_s"], o["probe_s"])
                             for o in r["outcomes"]) for r in (plain, traced))
    metrics = tracer.summarize(traced["trace"])
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    notes = {"untraced_wall_s": plain_s, "traced_wall_s": traced_s,
             "failed_ratio": len(bench.failures) / max(bench.attempted, 1)}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join("src", "quandlekit", "cli.py")):
        print("perfbench: run from a quandlekit checkout (src/quandlekit is missing)",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bench = Bench(args.workload, args.seed)
    shutil.rmtree(bench.workdir, ignore_errors=True)
    try:
        if args.trace:
            measured, notes = per_layer(bench)
        else:
            measured, notes = end_to_end(bench, args.seconds, started)
    finally:
        bench.cleanup()

    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    for problem in bench.failures[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:>14.6g} {entry['unit']}")
    for name, value in notes.items():
        if isinstance(value, list):
            print(f"{name:40s} {' '.join(f'{v:.4f}' for v in value)}")
        else:
            print(f"{name:40s} {value:>14.6g}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
