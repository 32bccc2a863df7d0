"""Digest every output of the benchmark's seeded op lists.

    python3 tools/digest.py --seed S

Builds each workload's op list with perfbench/workloads.py (imported,
never changed) for seed S, runs every op once, in op order, and prints
one JSON object with a sha256 digest per workload.  Two checkouts that
print the same digests for a seed produced the same outputs, bit for bit.

  - mc_cf (3000 ops), mc_enumerate (150) and factor (240): each op's
    RunOutcome or FactorReport is fed as repr(sorted(vars(out).items())),
    once whole and once with exponent_bits dropped, so a change that only
    moves the recovery meter shows in the first digest alone.
  - dist_exact (100): each op's two arrays, closed form then brute force,
    fed as the significant bytes of each long double (10 of the 16 that
    x86-64 stores; the rest is padding that numpy leaves undefined).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OPS = {"mc_cf": 3000, "mc_enumerate": 150, "factor": 240, "dist_exact": 100}


def _significant_bytes(a: np.ndarray) -> bytes:
    """The value bytes of a long-double array, without the padding."""
    size = a.dtype.itemsize
    width = 10 if a.dtype == np.longdouble and np.finfo(a.dtype).nmant == 63 else size
    raw = np.ascontiguousarray(a).view(np.uint8).reshape(-1, size)
    return raw[:, :width].tobytes()


def digest(workload, seed: int, n: int) -> dict:
    arrays = workload.name == "dist_exact"
    whole, sans_bits = hashlib.sha256(), hashlib.sha256()
    for x in workload.inputs(seed, n):
        out = workload.op(x)
        if arrays:  # (closed form, brute force)
            for a in out:
                whole.update(_significant_bytes(a))
            continue
        items = sorted(vars(out).items())
        whole.update(repr(items).encode())
        sans_bits.update(repr([kv for kv in items if kv[0] != "exponent_bits"]).encode())
    if arrays:
        return {"ops": n, "sha256": whole.hexdigest()}
    return {"ops": n, "sha256": whole.hexdigest(), "sha256_no_exponent_bits": sans_bits.hexdigest()}


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
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
