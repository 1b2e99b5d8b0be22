"""Benchmark entry point.

    python3 bench/run.py --workload {sweep,singular,jsolve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it measures set-up (fresh interpreters), then repeats
whole passes over the workload for S seconds and prints the end-to-end
metrics.  With ``--trace 1`` it alternates untraced and traced in-process
passes and prints the per-layer metrics; the spans are written to
``bench/out/``.  Every pass's outputs are checked as soon as it ends.
The metric names and units must be those BENCHMARK.json lists.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5


def measure_setup(source: str) -> float:
    """Median wall time of a fresh interpreter that imports the package
    and does the workload's warm-up operation."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", source], check=True,
                       env=workloads.child_env(), cwd=workloads.ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def repeat(step, seconds: float) -> None:
    """Run ``step`` while the next one is expected to end within the
    measuring time; at least once."""
    start, steps = time.perf_counter(), 0
    while True:
        step()
        steps += 1
        used = time.perf_counter() - start
        if used + used / steps > seconds:
            return


class Tally:
    """Checks each pass as soon as it ends and keeps only its times and
    failure flags, so that the benchmark's own memory does not grow with
    the number of passes (``peak_rss_mb`` of the in-process workloads is
    that of this process)."""

    def __init__(self, wl):
        self.wl = wl
        self.passes: list[workloads.Pass] = []
        self.problems: list[str] = []

    def add(self, p: workloads.Pass) -> workloads.Pass:
        for msg in self.wl.check(p):
            if msg not in self.problems:
                self.problems.append(msg)
        for op in p.ops:
            op.value = None
        self.passes.append(p)
        return p


def end_to_end(wl, seconds: float) -> tuple[Tally, dict]:
    setup_s = measure_setup(wl.warmup_source)
    if wl.name != "sweep":     # sweep passes are fresh processes
        wl.warm()
    tally = Tally(wl)
    repeat(lambda: tally.add(wl.run_pass()), seconds)
    passes = tally.passes
    child_rss = [p.peak_rss_mb for p in passes if p.peak_rss_mb is not None]
    if child_rss:
        rss = statistics.median(child_rss)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # each operation's median over the passes first, so that a slow
    # spell of the machine during one pass does not move the result
    per_op: dict[str, list[float]] = {}
    for p in passes:
        for op in p.ops:
            per_op.setdefault(op.label, []).append(1e3 * op.seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "op_p50_ms": (statistics.median(
            statistics.median(ms) for ms in per_op.values()), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return tally, metrics


def traced(wl, seconds: float, seed: int) -> tuple[Tally, dict]:
    wl.warm()
    tracer = spans.Tracer()
    tally = Tally(wl)
    plain, traced_passes, layers, kept = [], [], [], []

    def round_trip():
        plain.append(tally.add(wl.run_pass_inprocess()))
        tracer.install()
        try:
            p = wl.run_pass_inprocess()
        finally:
            tracer.uninstall()
        traced_passes.append(tally.add(p))
        taken = tracer.take()
        layers.append(spans.layer_metrics(taken))
        kept.append(taken)

    repeat(round_trip, seconds)
    metrics = {name: (statistics.median(layer[name][0] for layer in layers), unit)
               for name, (_, unit) in layers[0].items()}
    metrics["trace.overhead"] = (
        statistics.median(p.wall_s for p in traced_passes)
        / statistics.median(p.wall_s for p in plain), "ratio")
    os.makedirs(workloads.OUT, exist_ok=True)
    path = os.path.join(workloads.OUT, f"spans-{wl.name}-{seed}.json")
    with open(path, "w") as fh:
        json.dump([[[s.name, s.start, s.end, s.sid, s.parent, s.extra]
                    for s in taken] for taken in kept], fh)
    return tally, metrics


def declared(trace: int) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json lists for this mode."""
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        tally, metrics = traced(wl, args.seconds, args.seed)
    else:
        tally, metrics = end_to_end(wl, args.seconds)
    units = {name: unit for name, (_, unit) in metrics.items()}
    if units != declared(args.trace):
        raise SystemExit(f"metrics {units} differ from BENCHMARK.json "
                         f"{declared(args.trace)}")

    problems = tally.problems
    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    attempted = sum(len(p.ops) for p in tally.passes)
    failed = sum(op.failed for p in tally.passes for op in p.ops)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(tally.passes)} passes, {attempted} operations, {failed} failed, "
          f"{len(problems)} check failures")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
