"""Compare this checkout's CPU time per op with another checkout's, in one process.

    python3 tools/paired.py --parent DIR --workload W --seed S --rounds K [--ops N]

Loads this checkout's src/orderlab as `orderlab` and DIR/src/orderlab as a
second package, `orderlab_parent`.  The ops are perfbench/workloads.py's
(imported, never changed): its first N inputs of workload W for seed S
(N defaults to the workload's ops for one second of run.py, at least
100), and its op, which the parent side runs with every orderlab module,
class and function it names bound to the parent package's namesake.

Each round runs every op on both sides.  The side that goes first
alternates op by op, and each round starts on the other side from the
round before.  Each side's time.process_time_ns is summed over the
round, with the garbage collector paused for the round and run between
rounds.  Three untimed runs of the workload's warm-up input per side
come first.

Prints one JSON object: each round's ratio of change over parent CPU
time, their median, a 95% percentile-bootstrap interval for that median
(resampling rounds, seeded, so the same ratios give the same interval),
and the share of rounds won, that is with a ratio below 1.  The
interval covers the noise between the rounds of one process only: two
processes can differ by more, so read a median against the spread of
A/A runs, which pass this checkout as --parent.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import gc
import importlib.util
import json
import random
import statistics
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PARENT = "orderlab_parent"
RESAMPLES = 10_000


def load_package(src: Path, name: str) -> types.ModuleType:
    """Import src/orderlab under another name; its imports are relative."""
    init = src / "orderlab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def counterpart(value, package: str):
    """The namesake in package of an orderlab module, class or function;
    any other value as it is."""
    if isinstance(value, types.ModuleType):
        module = value.__name__
    elif isinstance(value, (type, types.FunctionType)):
        module = value.__module__
    else:
        return value
    if module.split(".")[0] != "orderlab":
        return value
    twin = importlib.import_module(package + module[len("orderlab"):])
    return twin if isinstance(value, types.ModuleType) else getattr(twin, value.__qualname__)


def parent_op(workload, package: str):
    """workload.op against the package: a copy of the workload whose
    orderlab dataclasses (a RunConfig) are rebuilt from the package's
    classes, with the op's globals bound to the package."""
    twin = copy.copy(workload)
    for key, value in vars(workload).items():
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            cls = counterpart(type(value), package)
            setattr(twin, key, cls(**{f.name: getattr(value, f.name) for f in dataclasses.fields(value)}))
    fn = type(workload).op
    namespace = {k: counterpart(v, package) for k, v in fn.__globals__.items()}
    op = types.FunctionType(fn.__code__, namespace, fn.__name__, fn.__defaults__, fn.__closure__)
    return types.MethodType(op, twin)


def run_round(sides, inputs, first: int) -> list[int]:
    """CPU ns per side over one pass of the inputs, sides alternating."""
    clock = time.process_time_ns
    totals = [0, 0]
    gc.disable()
    try:
        for i, x in enumerate(inputs):
            lead = (first + i) % 2
            for side in (lead, 1 - lead):
                t0 = clock()
                sides[side](x)
                totals[side] += clock() - t0
    finally:
        gc.enable()
    gc.collect()
    return totals


def summarize(ratios: list[float]) -> dict:
    rnd = random.Random(0)
    medians = sorted(statistics.median(rnd.choices(ratios, k=len(ratios))) for _ in range(RESAMPLES))
    return {
        "ratios": [round(r, 4) for r in ratios],
        "median": round(statistics.median(ratios), 4),
        "ci95": [round(medians[int(0.025 * RESAMPLES)], 4), round(medians[int(0.975 * RESAMPLES) - 1], 4)],
        "won": round(sum(r < 1 for r in ratios) / len(ratios), 4),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--ops", type=int, default=None)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("need --rounds >= 1")
    sys.dont_write_bytecode = True  # leave perfbench/ and the parent as they are
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    load_package(args.parent.resolve() / "src", PARENT)
    sides = (workload.op, parent_op(workload, PARENT))  # change, parent
    n = workload.op_count(1.0) if args.ops is None else args.ops
    inputs = workload.inputs(args.seed, n)
    warmup = workload.warmup()
    for _ in range(3):
        for op in sides:
            op(warmup)
    totals = [run_round(sides, inputs, k % 2) for k in range(args.rounds)]
    change_ns, parent_ns = (sum(t[side] for t in totals) for side in (0, 1))
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "ops": n,
        "rounds": args.rounds,
        "change_ms_per_op": round(change_ns / (n * args.rounds) / 1e6, 4),
        "parent_ms_per_op": round(parent_ns / (n * args.rounds) / 1e6, 4),
        **summarize([change / parent for change, parent in totals]),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
