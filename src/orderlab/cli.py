"""Command line interface.

Subcommands:
  bound     analytic success bounds (single-run, enumeration, factoring)
  table1    the reference grid of single-run bounds, floored to 5 decimals
  simulate  Monte Carlo over full runs, reported as JSON or CSV
  sample    raw draws from the measurement distribution
  factor    end-to-end factoring of an odd composite

Exit status: 0 on success (and on a passing simulation), 1 when a
simulation misses its bound or a factorization fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import bounds, pipeline, recovery
from .distribution import Sampler
from .model import Params, Rng


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The run options of `simulate` and `factor`.  A flag left out stays
    out of the parsed namespace, so RunConfig's own default applies."""
    unset = argparse.SUPPRESS
    p.add_argument("--B", type=int, default=unset, help="offset window radius")
    p.add_argument("--c", type=float, default=unset, help="smoothness parameter")
    p.add_argument("--strategy", choices=tuple(pipeline.STRATEGIES), default=unset)
    p.add_argument("--recovery", choices=tuple(recovery._RECOVERY), default=unset)
    p.add_argument("--tmax", dest="t_max", metavar="TMAX", type=int, default=unset,
                   help="offset cap of the sampler walk")


def _run_options(args: argparse.Namespace) -> dict:
    """The parsed flags that name RunConfig fields."""
    fields = {f.name for f in dataclasses.fields(pipeline.RunConfig)}
    return {k: v for k, v in vars(args).items() if k in fields}


def _cmd_bound(args: argparse.Namespace) -> int:
    if args.l is None and (args.m is None or args.ell is None and args.delta is None):
        print("bound: need --m with --ell or --delta (or --l for the factoring bound)",
              file=sys.stderr)
        return 2
    if args.l is not None:
        val = bounds.factoring_success_bound(
            args.l, args.n_primes, args.k, args.sigma, args.B, args.c,
            delta=args.delta,
        )
    elif args.delta is not None:
        val, budget = bounds.lattice_success_bound(args.m, args.delta, args.B, args.c)
        print(f"enumeration_budget: {budget}")
    else:
        val = bounds.single_run_success_bound(
            args.m, args.ell, args.B, args.c, args.elimination
        )
    print(format(float(val), ".12g"))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    table = bounds.success_bound_table()
    cols = bounds.REFERENCE_B_COLUMNS
    rows = bounds.REFERENCE_C_ROWS
    header = "c\\B".ljust(8) + "".join(str(b).rjust(10) for b in cols)
    print(header)
    for c, row in zip(rows, table):
        print(str(c).ljust(8) + "".join(cell.rjust(10) for cell in row))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = pipeline.RunConfig(**_run_options(args))
    report = pipeline.monte_carlo(config, args.trials, args.seed)
    if args.format == "json":
        text = pipeline.dumps_report(report.to_dict()) + "\n"
    else:
        text = pipeline.report_to_csv(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


def _cmd_sample(args: argparse.Namespace) -> int:
    if args.trials < 0:
        raise ValueError(f"need a trial count >= 0, got {args.trials}")
    params = Params(r=args.r, m=args.m, ell=args.ell)
    sampler = Sampler(params, t_max=args.tmax)
    rng = Rng(args.seed)
    print("z,t,j,tail")
    for _ in range(args.trials):
        s = sampler.sample(rng)
        if s.t is None:
            print(f"{s.z},,,true")
        else:
            print(f"{s.z},{s.t},{s.j},false")
    return 0


def _cmd_factor(args: argparse.Namespace) -> int:
    report = pipeline.factor_completely(
        args.N, args.seed, split_iterations=args.split_iterations, **_run_options(args)
    )
    sys.stdout.write(pipeline.dumps_report(report.to_dict()) + "\n")
    return 0 if report.success else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orderlab",
        description="Order-finding measurement simulator and classical post-processing lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="print an analytic success bound")
    p_bound.add_argument("--m", type=int, default=None)
    p_bound.add_argument("--ell", type=int, default=None)
    p_bound.add_argument("--B", type=int, default=pipeline.RunConfig.B)
    p_bound.add_argument("--c", type=float, default=pipeline.RunConfig.c)
    p_bound.add_argument("--delta", type=int, default=None,
                         help="register reduction; selects the enumeration bound")
    p_bound.add_argument("--elimination", choices=("sqrt", "pow2ell"), default="sqrt")
    p_bound.add_argument("--l", type=int, default=None,
                         help="modulus bit length; selects the factoring bound")
    p_bound.add_argument("--n-primes", type=int, default=2,
                         help="number of distinct prime factors (factoring bound)")
    p_bound.add_argument("--k", type=int, default=10,
                         help="splitting iterations (factoring bound)")
    p_bound.add_argument("--sigma", type=float, default=25.0,
                         help="outer smoothness parameter (factoring bound)")
    p_bound.set_defaults(func=_cmd_bound)

    p_table = sub.add_parser("table1", help="print the reference bound grid")
    p_table.set_defaults(func=_cmd_table1)

    p_sim = sub.add_parser("simulate", help="Monte Carlo over full runs")
    p_sim.add_argument("--m", type=int, required=True, help="order register width (bits)")
    p_sim.add_argument("--ell", type=int, required=True, help="extra register width (bits)")
    p_sim.add_argument("--delta", type=int, default=argparse.SUPPRESS,
                       help="register reduction of the enumeration (default m - ell)")
    _add_run_flags(p_sim)
    p_sim.add_argument("--trials", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--format", choices=("json", "csv"), default="json")
    p_sim.add_argument("--out", type=str, default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sample = sub.add_parser("sample", help="draw raw measurement samples")
    p_sample.add_argument("--r", type=int, required=True, help="true order")
    p_sample.add_argument("--m", type=int, required=True)
    p_sample.add_argument("--ell", type=int, required=True)
    p_sample.add_argument("--trials", type=int, default=10)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--tmax", type=int, default=pipeline.RunConfig.t_max)
    p_sample.set_defaults(func=_cmd_sample)

    p_factor = sub.add_parser("factor", help="factor an odd composite end to end")
    p_factor.add_argument("--N", type=int, required=True)
    p_factor.add_argument("--seed", type=int, default=0)
    _add_run_flags(p_factor)
    p_factor.add_argument("--split-iterations", type=int, default=32)
    p_factor.set_defaults(func=_cmd_factor)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
