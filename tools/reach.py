"""List the lines of each src/orderlab function that the lab's own runs never execute.

    python3 tools/reach.py [--seed S]

Traces, with sys.settrace, everything a user of the lab can run:
  - importing orderlab and perfbench/workloads.py (imported, never changed);
  - the first OPS[w] ops of each workload's op list for seed S;
  - monte_carlo of each of the six strategy x recovery pairs at m = 16,
    ell = 12 (so enumerate meets case-2 offsets), MC_TRIALS trials each;
  - every CLI subcommand through cli.main in process: digest.py's `bound`
    and `table1` commands, and the `simulate`, `sample` and `factor`
    commands below, usage errors and failures included.

A function's lines are those its compiled code maps instructions to, less
its first line (the `def` or first decorator, which raises no line event);
a comprehension's lines count as its enclosing function's.  Prints one JSON
object: how many functions there are, the functions never called, and for
each called function the lines never executed.  Functions are named
module.qualname, a lambda also @ its first line; line numbers are those of
the module's file.  A test oracle or a criterion subject shows up as never
called: no run of the lab reaches it, and it stays because a test compares
against it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time
from inspect import CO_OPTIMIZED
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "orderlab"
OPS = {"mc_cf": 100, "mc_enumerate": 5, "factor": 20, "dist_exact": 2}
MC_M, MC_ELL, MC_TRIALS = 16, 12, 30
_COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def cli_commands(out: str) -> list[list[str]]:
    from digest import BOUND_COMMANDS

    mc = ["--m", str(MC_M), "--ell", str(MC_ELL), "--trials", "20"]
    sample = ["sample", "--r", "13", "--m", "4", "--ell", "4"]
    return [
        *BOUND_COMMANDS,
        ["simulate", *mc, "--format", "json"],
        ["simulate", *mc, "--format", "csv", "--strategy", "enumerate", "--recovery", "tree"],
        ["simulate", *mc, "--strategy", "lattice", "--out", out],
        ["simulate", "--m", str(MC_M), "--ell", "1"],  # invalid: exit 2
        [*sample, "--tmax", "1", "--trials", "13"],
        [*sample, "--trials", "-1"],  # invalid: exit 2
        ["factor", "--N", "3233"],
        ["factor", "--N", "561", "--split-iterations", "0"],  # split_incomplete: exit 1
        ["factor", "--N", "25"],  # a perfect power: exit 2
    ]


def functions() -> dict[str, tuple[str, int, set[int]]]:
    """Every function of src/orderlab by name: its file, its first line
    and its lines."""
    out: dict[str, tuple[str, int, set[int]]] = {}

    def walk(code, module: str, owner: str | None):
        for const in code.co_consts:
            if not hasattr(const, "co_lines"):
                continue
            lines = {line for _, _, line in const.co_lines() if line is not None}
            if const.co_name in _COMPREHENSIONS and owner is not None:
                out[owner][2].update(lines)
                walk(const, module, owner)
            elif const.co_flags & CO_OPTIMIZED:  # a function, not a class body
                name = f"{module}.{const.co_qualname}"
                if "<lambda>" in const.co_name:
                    name += f"@{const.co_firstlineno}"
                out[name] = (const.co_filename, const.co_firstlineno, lines)
                walk(const, module, name)
            else:  # a class body
                walk(const, module, owner)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), path.stem, None)
    return out


def traced_runs(seed: int) -> tuple[set[tuple[str, int]], set[tuple[str, int]]]:
    """The (file, first line) of every src/orderlab code object called and
    the (file, line) of every line executed, over the runs listed above."""
    called: set[tuple[str, int]] = set()
    executed: set[tuple[str, int]] = set()
    prefix = str(SRC) + os.sep
    ours: dict[str, bool] = {}

    def on_line(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        mine = ours.get(filename)
        if mine is None:
            mine = ours[filename] = filename.startswith(prefix)
        if mine:
            called.add((filename, frame.f_code.co_firstlineno))
            return on_line
        return None

    sys.settrace(on_call)
    try:
        from orderlab import cli, pipeline
        from workloads import WORKLOADS

        for name, n in OPS.items():
            workload = WORKLOADS[name]
            for x in workload.inputs(seed, n):
                workload.op(x)
        for strategy in pipeline.STRATEGIES:
            for recovery in ("stack", "tree"):
                config = pipeline.RunConfig(m=MC_M, ell=MC_ELL, strategy=strategy, recovery=recovery)
                pipeline.monte_carlo(config, MC_TRIALS, seed)
        with tempfile.TemporaryDirectory() as tmp:
            for argv in cli_commands(os.path.join(tmp, "report.json")):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv)
    finally:
        sys.settrace(None)
    return called, executed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=8000)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]
    start = time.process_time()
    called, executed = traced_runs(args.seed)
    found = functions()
    never_called, missed = [], {}
    for name, (filename, first, lines) in found.items():
        if (filename, first) not in called:
            never_called.append(name)
            continue
        gaps = sorted(line for line in lines - {first} if (filename, line) not in executed)
        if gaps:
            missed[name] = gaps
    print(json.dumps({
        "seed": args.seed,
        "functions": len(found),
        "never_called": sorted(never_called),
        "missed_lines": dict(sorted(missed.items())),
        "cpu_s": round(time.process_time() - start, 1),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
