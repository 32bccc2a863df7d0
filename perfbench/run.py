"""Fixed-work benchmark of orderlab, one workload per run.

    python3 perfbench/run.py --workload mc_cf --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run builds a fixed op list from
--seed (its length is the workload's nominal rate times --seconds, so
the same arguments always do the same work), measures set-up as the
median of several cold starts, runs one untimed warm-up op, then times
every op of the list in this one process, one after another.  An op's
time is the CPU time the process spends in it: the ops compute and never
wait, and on a shared virtual machine wall time would add the host's
stalls, which hit about one op in a hundred.  Every op is checked; the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
layers are wrapped (see tracing.py), the metrics are per-layer figures
per op, and the spans go to perfbench/out/.  The exit code is 1 when a
check fails, and 2 when orderlab cannot be imported from the checkout's
src/ (then nothing is printed on standard output).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
COLD_STARTS = 11
TAIL_PERCENTILES = (99.0, 95.0, 90.0)


def tail_percentile(n: int) -> float:
    """The highest of TAIL_PERCENTILES with at least ten of n samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= 10:
            return p
    raise ValueError(f"{n} samples are too few for a tail percentile")


def _rank(p: float, n: int) -> int:
    """Nearest-rank position (1-based) of percentile p among n samples."""
    return max(1, -(-round(p * 10) * n // 1000))


def percentile(sorted_values: list, p: float):
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def cold_start_seconds(workload: str) -> float:
    """Wall time from spawning a fresh interpreter until it has imported
    orderlab and finished one warm-up op (cold_start.py prints 'ready')."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "cold_start.py"), workload],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"cold start of {workload} failed ({proc.returncode}): {line!r}")
    return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="nominal run length; sizes the fixed op list")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import orderlab from the checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    n = wl.op_count(args.seconds)
    inputs = wl.inputs(args.seed, n)
    if not args.trace:
        setup_s = statistics.median(cold_start_seconds(wl.name) for _ in range(COLD_STARTS))
    x = wl.warmup()
    wl.check(x, wl.op(x))

    op = wl.op
    tracer = None
    patches = contextlib.nullcontext()
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        op = tracer.wrap("op", wl.op)
        patches = tracing.installed(tracer)
    latencies_ns = []
    failed = successes = 0
    with patches:
        for i, x in enumerate(inputs):
            if tracer is not None:
                tracer.op = i
            try:
                start = time.process_time_ns()
                out = op(x)
                latencies_ns.append(time.process_time_ns() - start)
                successes += wl.check(x, out)
            except Exception:  # the loop counts a raising op and goes on
                failed += 1
                if failed <= 3:
                    print(f"op {i} on {x!r} failed:\n{traceback.format_exc()}", file=sys.stderr)

    correct = failed == 0
    try:
        wl.check_run(successes, n)
    except workloads.CheckFailed as exc:
        print(f"run check failed: {exc}", file=sys.stderr)
        correct = False

    if tracer is not None:
        metrics = {
            name: {"value": value, "unit": tracing.UNITS[name]}
            for name, value in tracing.layer_metrics(tracer, n, successes).items()
        }
        os.makedirs(OUT_DIR, exist_ok=True)
        tracing.write_spans(tracer, os.path.join(OUT_DIR, f"spans-{wl.name}-{args.seed}.tsv"))
    else:
        lat = sorted(latencies_ns)
        p_tail = tail_percentile(n)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(lat) / (sum(lat) / 1e9), "unit": "op/s"},
            "op_ms_p50": {"value": statistics.median(lat) / 1e6, "unit": "ms"},
            "op_ms_tail": {"value": percentile(lat, p_tail) / 1e6, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        print(f"{wl.name} seed {args.seed}: {n} ops, {successes} successes, "
              f"op_ms_tail is p{p_tail:g} ({n - _rank(p_tail, n)} samples beyond)",
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
