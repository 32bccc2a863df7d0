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
  - dist_exact (100): each op's two arrays, closed form then brute force,
    fed as the significant bytes of each long double (10 of the 16 that
    x86-64 stores; the rest is padding that numpy leaves undefined).

It also digests `orderlab factor` (cli.main, in process) on CLI_MODULI:
each command's argv, exit status, stdout and stderr, once with
--split-iterations 1 and once with the default.  These do not depend on
the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OPS = {"mc_cf": 3000, "mc_enumerate": 150, "factor": 240, "dist_exact": 100}
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


def cli_digest(split_flags: tuple[str, ...]) -> dict:
    """The digest of every CLI_MODULI command run with split_flags."""
    from orderlab import cli

    h = hashlib.sha256()
    for N, seed, flags in CLI_MODULI:
        argv = ["factor", "--N", str(N), "--seed", str(seed), *flags, *split_flags]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = cli.main(argv)
        h.update(repr((argv, status, stdout.getvalue(), stderr.getvalue())).encode())
    return {"commands": len(CLI_MODULI), "sha256": h.hexdigest()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    print(json.dumps({
        "seed": args.seed,
        **{name: digest(WORKLOADS[name], args.seed, n) for name, n in OPS.items()},
        "cli_factor_split_iterations_1": cli_digest(("--split-iterations", "1")),
        "cli_factor_default": cli_digest(()),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
