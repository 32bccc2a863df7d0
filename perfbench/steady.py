"""Two sets of runs of the same code, and each end-to-end metric's spread
against the bound that BENCHMARK.json fixes for it.

    python3 perfbench/steady.py [--base-seed 1000] [--trace]

Run from the root of a checkout.  Set k (0 or 1) runs every workload of
BENCHMARK.json ten times, with the seeds base + 10 k + i, through its
command and its run_seconds.  For each workload and metric it prints the
median of each set, the spread (q3 - q1) / median of each set, and how
much worse set 1's median is than set 0's, the last two as shares of
the bound (marked when over a third of it).  The verdict is "steady"
only if every spread, setup_s's too, is within its bound, the two
medians differ by no more than the bound in either direction, and the
share of failed ops is the same in every run.  With --trace it runs the
first seed of every workload twice untraced and twice traced, and
reports the tracing overhead (untraced ops_per_s over traced) and
whether the self times add up to the traced op time.
Everything is also written to perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
RUNS = 10


def run(command, workload, seed, seconds, trace):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base-seed", type=int, default=1000)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    results = {name: [[] for _ in range(SETS)] for name in names}
    # workloads take turns, so each one's runs spread over the whole set
    for k in range(SETS):
        for i in range(RUNS):
            seed = args.base_seed + k * RUNS + i
            for name in names:
                res = run(bench["command"], name, seed, seconds, 0)
                results[name][k].append(res)
                print(f"set {k} {name} seed {seed}: "
                      + " ".join(f"{m}={v['value']:.5g}" for m, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)

    report = {"runs": RUNS, "sets": SETS, "seconds": seconds, "workloads": {}}
    steady = True
    for name in names:
        sets = results[name]
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        entry = {"failed_shares": sorted(shares), "metrics": {}}
        steady &= len(shares) == 1
        print(f"\n{name}: failed share per run {sorted(shares)}")
        print(f"  {'metric':<12} {'bound':>6} " + " ".join(
            f"{'median' + str(k):>11} {'spread' + str(k):>8}" for k in range(SETS))
            + f" {'worse':>7}")
        for metric in bench["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][m]["value"] for r in s] for s in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (medians[-1] - medians[0]) / medians[0]
            entry["metrics"][m] = {"medians": medians, "spreads": spreads, "worse": worse,
                                   "bound": bound}
            steady &= max(spreads) <= bound and abs(worse) <= bound
            print(f"  {m:<12} {bound:>6} " + " ".join(
                f"{med:>11.5g} {s / bound:>7.2f}b" for med, s in zip(medians, spreads))
                + f" {worse / bound:>6.2f}b"
                + ("" if max(spreads) <= bound / 3 and abs(worse) <= bound / 3 else "  (over b/3)"))
        if args.trace:
            # untraced and traced runs of one seed side by side, in both orders
            ops_per_s = {0: [], 1: []}
            for trace in (0, 1, 1, 0):
                res = run(bench["command"], name, args.base_seed, seconds, trace)["metrics"]
                if trace:
                    traced = res
                    ops_per_s[1].append(1000 / res["pipeline.op_ms"]["value"])
                else:
                    ops_per_s[0].append(res["ops_per_s"]["value"])
            op_ms = traced["pipeline.op_ms"]["value"]
            self_ms = sum(v["value"] for k, v in traced.items()
                          if k.endswith("_ms") and k != "pipeline.op_ms")
            entry["traced"] = {k: v["value"] for k, v in traced.items()}
            entry["trace_overhead"] = (
                statistics.median(ops_per_s[0]) / statistics.median(ops_per_s[1]) - 1
            )
            print(f"  traced op {op_ms:.4g} ms, self times sum to {self_ms:.4g} ms; "
                  f"tracing overhead {entry['trace_overhead']:.1%} of ops_per_s")
        report["workloads"][name] = entry
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    print("\nsteady" if steady else "\nNOT steady: a spread or a drift exceeds its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
