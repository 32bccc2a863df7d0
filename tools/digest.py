"""Digest every output of the benchmark's seeded op lists.

    python3 tools/digest.py --seed S

Builds each workload's op list with perfbench/workloads.py (imported,
never changed) for seed S, runs every op once, in op order, and prints
one JSON object with a sha256 digest per workload.  Two checkouts that
print the same digests for a seed produced the same outputs, bit for bit.

  - mc_cf (3000 ops), mc_enumerate (150) and factor (240): each op's
    RunOutcome or FactorReport is fed as repr(sorted(vars(out).items())),
    once whole and once with exponent_bits dropped, so a change that only
    moves the recovery meter shows in the first digest alone.  factor
    also feeds each report as dumps_report(to_dict()), the bytes that
    `orderlab factor` prints, whose factors are sorted: a change in the
    key order of FactorReport.factors alone moves the first two digests
    but not this one.
  - mc_cf_lattice (3000): mc_cf's inputs run with the lattice strategy,
    digested as mc_cf is.
  - dist_exact (100): each op's two arrays, closed form then brute force,
    fed as the significant bytes of each long double (10 of the 16 that
    x86-64 stores; the rest is padding that numpy leaves undefined).

It also digests CLI commands run through cli.main in process: for each
command, its argv, exit status, stdout and stderr.
  - `orderlab factor` on CLI_MODULI, once with --split-iterations 1 and
    once with the default; these do not depend on the seed.
  - `orderlab simulate` for every strategy at m = 32 and 128, as JSON
    and as CSV, and `orderlab sample` at m = 8, 32 and 128, seeded by S.
  - `orderlab bound` in each of its forms, and `orderlab table1`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OPS = {"mc_cf": 3000, "mc_enumerate": 150, "factor": 240, "mc_cf_lattice": 3000, "dist_exact": 100}
# (N, seed, run flags) of the `orderlab factor` commands: the semiprimes at
# seeds 0, 1 and 3 and at seed 5 with two other strategies, then moduli of
# three primes at seeds 0-3
CLI_MODULI = [
    *((N, seed, ()) for N in (15, 21, 391, 3233, 1000000016000000063) for seed in (0, 1, 3)),
    *((N, 5, flags) for N in (15, 21, 391, 3233, 1000000016000000063)
      for flags in (("--strategy", "enumerate", "--recovery", "tree"), ("--strategy", "lattice"))),
    *((N, seed, ()) for N in (105, 255, 561) for seed in range(4)),
]


def _significant_bytes(a: np.ndarray) -> bytes:
    """The value bytes of a long-double array, without the padding."""
    size = a.dtype.itemsize
    width = 10 if a.dtype == np.longdouble and np.finfo(a.dtype).nmant == 63 else size
    raw = np.ascontiguousarray(a).view(np.uint8).reshape(-1, size)
    return raw[:, :width].tobytes()


def digest(workload, seed: int, n: int) -> dict:
    from orderlab.pipeline import dumps_report

    arrays = workload.name == "dist_exact"
    whole, sans_bits, dumped = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for x in workload.inputs(seed, n):
        out = workload.op(x)
        if arrays:  # (closed form, brute force)
            for a in out:
                whole.update(_significant_bytes(a))
            continue
        items = sorted(vars(out).items())
        whole.update(repr(items).encode())
        sans_bits.update(repr([kv for kv in items if kv[0] != "exponent_bits"]).encode())
        if workload.name == "factor":
            dumped.update(dumps_report(out.to_dict()).encode())
    if arrays:
        return {"ops": n, "sha256": whole.hexdigest()}
    result = {"ops": n, "sha256": whole.hexdigest(), "sha256_no_exponent_bits": sans_bits.hexdigest()}
    if workload.name == "factor":
        result["sha256_dumps_report"] = dumped.hexdigest()
    return result


def with_lattice(mc_cf):
    """The mc_cf workload with the lattice strategy: it keeps the name
    mc_cf, which seeds its inputs, so it runs mc_cf's op list."""
    config = dataclasses.replace(mc_cf.config, strategy="lattice")
    return type(mc_cf)(mc_cf.name, mc_cf.rate, config, rho_log2=-(config.m + config.ell) / 2)


def factor_commands(split_flags: tuple[str, ...]) -> list[list[str]]:
    return [["factor", "--N", str(N), "--seed", str(seed), *flags, *split_flags]
            for N, seed, flags in CLI_MODULI]


def simulate_commands(seed: int) -> list[list[str]]:
    """Each strategy at m = 32 (ell = 28) and m = 128 (ell = 120 for
    enumerate, 128 otherwise), as JSON and as CSV."""
    runs = [
        *((32, 28, strategy, recovery, 200) for strategy, recovery in
          (("cf", "stack"), ("lattice", "stack"), ("enumerate", "tree"))),
        (128, 128, "cf", "stack", 100),
        (128, 128, "lattice", "stack", 100),
        (128, 120, "enumerate", "tree", 30),
    ]
    return [["simulate", "--m", str(m), "--ell", str(ell), "--strategy", strategy,
             "--recovery", recovery, "--trials", str(trials), "--seed", str(seed),
             "--format", fmt]
            for m, ell, strategy, recovery, trials in runs for fmt in ("json", "csv")]


def sample_commands(seed: int) -> list[list[str]]:
    orders = ((13, 8, 8, 50), ((1 << 31) + 11, 32, 28, 50), ((1 << 127) + 45, 128, 128, 20),
              (13, 8, 8, 0))
    return [["sample", "--r", str(r), "--m", str(m), "--ell", str(ell), "--trials", str(trials),
             "--seed", str(seed)] for r, m, ell, trials in orders]


BOUND_COMMANDS = [
    ["bound", "--m", "128", "--ell", "128"],
    ["bound", "--m", "128", "--ell", "128", "--elimination", "pow2ell"],
    ["bound", "--m", "32", "--ell", "28", "--B", "5", "--c", "2.5"],
    ["bound", "--m", "128", "--delta", "8"],
    ["bound", "--l", "48"],
    ["bound", "--l", "2048", "--n-primes", "3", "--k", "20", "--sigma", "10"],
    ["bound", "--m", "128"],  # no --ell or --delta: a usage error, exit 2
    ["table1"],
]


def cli_digest(commands: list[list[str]]) -> dict:
    """The digest of every command run through cli.main."""
    from orderlab import cli

    h = hashlib.sha256()
    for argv in commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = cli.main(argv)
        h.update(repr((argv, status, stdout.getvalue(), stderr.getvalue())).encode())
    return {"commands": len(commands), "sha256": h.hexdigest()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    workloads = {**WORKLOADS, "mc_cf_lattice": with_lattice(WORKLOADS["mc_cf"])}
    print(json.dumps({
        "seed": args.seed,
        **{name: digest(workloads[name], args.seed, n) for name, n in OPS.items()},
        "cli_factor_split_iterations_1": cli_digest(factor_commands(("--split-iterations", "1"))),
        "cli_factor_default": cli_digest(factor_commands(())),
        "cli_simulate": cli_digest(simulate_commands(args.seed)),
        "cli_sample": cli_digest(sample_commands(args.seed)),
        "cli_bound_table1": cli_digest(BOUND_COMMANDS),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
