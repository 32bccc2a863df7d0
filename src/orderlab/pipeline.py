"""End-to-end runs: sample, solve, filter, recover, report.

A run is split at the draw.  run_once clamps the window half-width B
so that it never reaches past the peak cell of the true order, draws
one frequency j from the exact measurement distribution, hands j to
post_process and compares what comes back with the true order.
post_process is blind: from j alone it solves the window j-B..j+B
into order candidates with the configured strategy, filters them with
one smooth power of the generator and recovers the order from the
survivors.  Monte Carlo wraps independent runs into a deterministic
report whose empirical rate is compared against the analytic bound.

Failures carry one of four reasons:
  tail        the sampled frequency fell outside the offset budget;
  no_candidate  no solver candidate landed in [1, 2**m);
  unsmooth_d  candidates existed but none recovered the order
              (canonically: the hidden cofactor was not smooth);
  budget      never booked: no lattice enumeration exceeds its vector
              budget (lattice module docstring); kept because every
              report carries a count for each reason.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import bounds, cf, lattice, recovery
from .distribution import Sampler
from .factorint import factorize, is_probable_prime, perfect_power
from .model import ModNGroup, Params, Rng, SimulatedGroup, centre_out

WILSON_Z99 = 2.5758293035489004  # two-sided 99% normal quantile

FAILURE_REASONS = ("tail", "no_candidate", "unsmooth_d", "budget")


class Strategy(NamedTuple):
    """A solver strategy: a function from the window j-B..j+B to its order
    candidates, one flat list of ints taken centre-out,
    k = 0, +1, -1, ..., +B, -B (by offset for cf and lattice, by the
    window's cones for enumerate: lattice.window_candidates); and the
    elimination mode of the analytic bound covering it."""

    candidates: Callable[[int, Params], list[int]]
    elimination: str


# Each entry looks its solver up through this module's `cf` and `lattice`
# names at call time, so a wrapper installed on those names sees every call.
# The window solvers return their offsets in order -B..B, which their shared
# work needs (cf's shared Euclid steps, lattice's neighbour starts); the cf
# and lattice entries reorder them centre-out, and window_candidates takes
# its cones centre-out.
STRATEGIES = {
    # the last continued-fraction convergent below 2**(n/2) of each offset
    "cf": Strategy(lambda j, p: centre_out(cf.solve_cf_window(j, p.B, p)), "sqrt"),
    # the shortest vector of each offset's reduced frequency lattice
    # (lattice.solve_shortest), the window reduced once
    "lattice": Strategy(
        lambda j, p: [abs(rb.s1.y2) for rb in centre_out(lattice.reduce_window(j, p.B, p))],
        "sqrt",
    ),
    # every short lattice vector, with the reduced register ell = m - delta: the
    # window is reduced once and its candidates taken cone by cone, centre-out
    "enumerate": Strategy(
        lambda j, p: lattice.window_candidates(p, lattice.reduce_window(j, p.B, p)),
        "pow2ell",
    ),
}


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one order-finding run.

    strategy is a key of STRATEGIES and recovery a key of
    recovery._RECOVERY.  delta = None means m - ell; any other value
    must equal m - ell.
    """

    m: int
    ell: int
    B: int = 10
    c: float = 25.0
    delta: int | None = None
    strategy: str = "cf"
    recovery: str = "stack"
    t_max: int = 2 ** 24

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.recovery not in recovery._RECOVERY:
            raise ValueError(f"unknown recovery {self.recovery!r}")
        # at ell = 1 the window clamp of run_once leaves most full-width
        # orders (every r > 2**(m+1)/3) with no offset at all
        if self.ell < 2:
            raise ValueError(f"ell must be >= 2, got {self.ell}")
        if self.B < 1:
            raise ValueError(f"B must be >= 1, got {self.B}")
        if self.c < 1:
            raise ValueError(f"c must be >= 1, got {self.c}")
        if self.delta is not None and (self.delta != self.m - self.ell or self.delta < 0):
            raise ValueError(f"delta={self.delta} inconsistent with m-ell={self.m - self.ell}")
        if self.t_max < self.B:
            raise ValueError(f"t_max={self.t_max} below window B={self.B}")


@dataclass(frozen=True)
class RunOutcome:
    success: bool
    recovered: int | None
    reason: str | None  # one of FAILURE_REASONS when success is False
    z: int | None
    t: int | None
    j: int | None
    exponent_bits: int


@functools.cache
def _smoothness_context(c: float, m: int) -> recovery.SmoothnessContext:
    """The smoothness context of (c, m), built once and then shared.

    A miss looks up `recovery` at call time, so a wrapper installed on
    this module's `recovery` name sees every real build.
    """
    return recovery.SmoothnessContext.build(c, m)


def post_process(
    group, g, j: int, params: Params, config: RunConfig, meter: recovery.ExponentMeter
) -> tuple[int | None, str | None]:
    """The blind classical half of a run: the order recovered from the
    frequency j, and the reason it failed ("no_candidate"), or None.
    It never books "budget", which no enumeration can exceed.

    Never reads params.r; it uses only m, ell and the window half-width B.
    The strategy's candidates of the window j-B..j+B go to the recovery,
    whose filter takes each once, in first-seen order, and skips those
    outside [1, 2**m).
    The cf and lattice strategies give one candidate per offset, which
    neighbouring offsets often share; enumerate repeats one only where a
    case-1 offset splits the window or when 2B + 1 > 2**ell.  It
    recovers the order r of g exactly when some in-range candidate c
    alone has recover(group, g, c, ctx) == r.
    """
    candidates = STRATEGIES[config.strategy].candidates(j, params)
    top = 1 << config.m
    if not any(1 <= cand < top for cand in candidates):
        return None, "no_candidate"
    ctx = _smoothness_context(config.c, config.m)
    order = recovery.solve_candidate_set(
        group, g, candidates, ctx, algorithm=config.recovery, meter=meter
    )
    return order, None


def run_once(group, g, true_r: int, config: RunConfig, rng: Rng) -> RunOutcome:
    """One simulated measurement plus full classical post-processing.

    true_r drives the measurement simulation only; post_process sees
    nothing but the frequency and group elements.  Success means the
    recovered order equals true_r exactly.
    """
    # the window never reaches past the peak cell; tiny registers
    # (small factoring moduli) clamp the requested half-width
    n_reg = 1 << (config.m + config.ell)
    b_eff = min(config.B, (n_reg - true_r) // (2 * true_r))
    params = Params(r=true_r, m=config.m, ell=config.ell, B=b_eff)
    meter = recovery.ExponentMeter()
    drawn = Sampler(params, t_max=config.t_max).sample(rng)
    order, reason = None, "tail"
    if drawn.t is not None:
        order, reason = post_process(group, g, drawn.j, params, config, meter)
        if reason is None and order != true_r:
            reason = "unsmooth_d"
    return RunOutcome(
        reason is None, order, reason, drawn.z, drawn.t, drawn.j, meter.total_bits
    )


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 99% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    p = successes / trials
    z = WILSON_Z99
    zz = z * z / trials
    center = (p + zz / 2) / (1 + zz)
    half = z * math.sqrt(p * (1 - p) / trials + zz / (4 * trials)) / (1 + zz)
    return max(0.0, center - half), min(1.0, center + half)


def default_order_sampler(rng: Rng, m: int) -> int:
    """Uniform odd integer of exactly m bits (m >= 2)."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if m == 2:
        return 3
    return (1 << (m - 1)) | (rng.randrange(1 << (m - 2)) << 1) | 1


@dataclass(frozen=True)
class MonteCarloReport:
    config: RunConfig
    seed: int
    trials: int
    successes: int
    rate: float
    wilson99: tuple[float, float]
    bound: float
    slack: float
    passed: bool
    failure_counts: dict[str, int]
    exponent_bits_mean: float
    exponent_bits_max: int

    def to_dict(self) -> dict:
        cfg = {**dataclasses.asdict(self.config), "seed": self.seed}
        return {
            "config": cfg,
            "trials": self.trials,
            "successes": self.successes,
            "rate": self.rate,
            "wilson99": list(self.wilson99),
            "bound": self.bound,
            "slack": self.slack,
            "pass": self.passed,
            "failure_counts": dict(self.failure_counts),
            "exponent_bits": {
                "mean": self.exponent_bits_mean,
                "max": self.exponent_bits_max,
            },
        }


def analytic_bound(config: RunConfig) -> float:
    """The analytic single-run bound matching the configured strategy."""
    return float(
        bounds.single_run_success_bound(
            config.m, config.ell, config.B, config.c,
            STRATEGIES[config.strategy].elimination,
        )
    )


def monte_carlo(
    config: RunConfig,
    trials: int,
    seed: int,
    r_sampler=None,
) -> MonteCarloReport:
    """Independent seeded runs with freshly drawn orders.

    Each trial gets its own split of the root stream, draws an order
    (uniform odd full-width by default), simulates one measurement of a
    generator of that order, and post-processes blind.  The report
    passes when the empirical rate is no further than
    3 sqrt(bound (1-bound) / trials) below the analytic bound.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    root = Rng(seed)
    successes = 0
    failure_counts = {reason: 0 for reason in FAILURE_REASONS}
    bits_total = 0
    bits_max = 0
    for _ in range(trials):
        rng = root.split()
        r = r_sampler(rng) if r_sampler is not None else default_order_sampler(rng, config.m)
        group = SimulatedGroup(r)
        outcome = run_once(group, group.generator(), r, config, rng)
        if outcome.success:
            successes += 1
        else:
            failure_counts[outcome.reason] += 1
        bits_total += outcome.exponent_bits
        bits_max = max(bits_max, outcome.exponent_bits)
    rate = successes / trials
    bound = analytic_bound(config)
    # the analytic bound can be vacuous (<= 0) for aggressive parameters;
    # clamp only the binomial slack term, never the reported bound
    clamped = min(max(bound, 0.0), 1.0)
    slack = 3 * math.sqrt(clamped * (1 - clamped) / trials)
    return MonteCarloReport(
        config=config,
        seed=seed,
        trials=trials,
        successes=successes,
        rate=rate,
        wilson99=wilson_interval(successes, trials),
        bound=bound,
        slack=slack,
        passed=rate >= bound - slack,
        failure_counts=failure_counts,
        exponent_bits_mean=bits_total / trials,
        exponent_bits_max=bits_max,
    )


def _format_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(x, ".12g")


def dumps_report(obj) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 12 significant
    digits, no whitespace variation across runs."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, int, float)):
        return _format_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_report(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {dumps_report(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def report_to_csv(report: MonteCarloReport) -> str:
    """Header plus one data row: the fields of to_dict() in their order,
    with config's keys bare, the nested counts prefixed (fail_ for the
    failure counts) and the interval split into wilson99_low/high."""
    row = {}
    for key, value in report.to_dict().items():
        if key == "wilson99":
            row["wilson99_low"], row["wilson99_high"] = value
        elif isinstance(value, dict):
            prefix = {"config": "", "failure_counts": "fail_"}.get(key, key + "_")
            row.update({prefix + k: v for k, v in value.items()})
        else:
            row[key] = value
    cells = ("" if v is None else v if isinstance(v, str) else _format_number(v)
             for v in row.values())
    return ",".join(row) + "\n" + ",".join(cells) + "\n"


def _carmichael_primes(factorization: dict[int, int]) -> set[int]:
    """The primes of lambda(N), N the product of p**e over factorization.

    lambda(N) is the lcm of p**(e-1) (p - 1) over p**e || N, so its
    primes are those of each p - 1, and each p with e >= 2.
    """
    primes = {p for p, e in factorization.items() if e >= 2}
    for p in factorization:
        primes.update(factorize(p - 1))
    return primes


def true_order(factorization: dict[int, int], g: int) -> int:
    """Ground-truth multiplicative order of g mod an odd N, given N's
    factorization {p: e}.

    By the CRT the order is the lcm over p**e || N of the order of g
    mod p**e.  Each of those starts from p**(e-1) (p - 1), the order of
    the cyclic group of units mod p**e, and strips each prime q of it,
    _carmichael_primes({p: e}), while g**(order/q) == 1 mod p**e.  The
    primes come from factoring p - 1, never from factoring lambda(N).
    Each q is stripped fully and on its own, so the result is the exact
    order whatever order the primes come in.

    Simulation harness only: the measurement sampler needs the real
    order, which at laboratory scale is obtained classically.  The
    post-processing pipeline never sees this value.
    """
    order = 1
    for p, e in factorization.items():
        pe = p ** e
        local = p ** (e - 1) * (p - 1)
        for q in _carmichael_primes({p: e}):
            while local % q == 0 and pow(g, local // q, pe) == 1:
                local //= q
        order = math.lcm(order, local)
    return order


def _register_for_modulus(N: int) -> tuple[int, int]:
    """Register split (m, ell) of an odd N >= 7: m = bitlen(N) - 1 and
    the least ell with 2**(m+ell) >= N**2 / 4.

    N**2 is odd, so no power of two equals it, and the least k with
    2**k >= N**2 is bitlen(N**2 - 1): ell = bitlen(N**2 - 1) - 2 - m.
    With b = bitlen(N), N > 2**(b-1) gives N**2 - 1 >= 2**(2b-2), so
    bitlen(N**2 - 1) >= 2b - 1 and ell >= b - 2 = m - 1.  So ell >= 2,
    as RunConfig asks, once N >= 9 (m >= 3), and N = 7 gives ell = 2;
    only N = 5 would give 1, and factor_completely rejects 5 as prime.
    """
    m = N.bit_length() - 1
    return m, (N * N - 1).bit_length() - 2 - m


@dataclass(frozen=True)
class FactorReport:
    N: int
    success: bool
    order: int | None
    factors: dict[int, int] | None
    reason: str | None
    seed: int
    split_iterations: int

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "success": self.success,
            "order": self.order,
            "factors": None
            if self.factors is None
            else {str(p): e for p, e in sorted(self.factors.items())},
            "reason": self.reason,
            "seed": self.seed,
            "split_iterations": self.split_iterations,
        }


def _split_with_order(N: int, order: int, rng: Rng, iterations: int) -> dict[int, int] | None:
    """Complete factorization of N from one multiplicative order.

    Ekerå's complete-factoring post-processing (Quantum Inf. Process. 20,
    2021).  Let u be the odd part of the order.  For each random x in
    [2, N - 1] the parts, at first {N}, are refined by gcd(x, N) and by
    gcd(y_i - 1, N) for each y_i = x**(u 2**i) mod N, i < bitlen(N),
    stopping at the first y_i = 1.  Parts are reduced by perfect powers
    and primality until all are prime.  Never factors: it reads only the
    memoized primality and perfect-power verdicts, which it shares with
    factorize.

    - bitlen(N) levels suffice.  Modulo each p**e exactly dividing N the
      units form a cyclic group of order p**(e-1) (p - 1).  Either x**u
      has order 2**a there, with a <= v2(p - 1) < bitlen(N), and a, the
      level of x at p, is the first i with y_i = 1 mod p**e; or x**u never
      reaches 1 there (level infinity).  From i = v2(p - 1) on, y_i has
      the same odd order mod p**e, and y = 1 mod p**k exactly when that
      order divides p**(e-k), so no further square changes a gcd.
    - The law of one x.  For squarefree N, gcd(y_i - 1, N) is the
      product of the primes of level <= i and gcd(x, N) that of the
      primes dividing x.  So one unit x groups the primes of N by level,
      infinity included, and completes the factorization exactly when its
      levels are pairwise distinct; a non-unit x first parts off the
      primes it shares with N.
    - Against the classic split, which walks to the first y_i = 1 and
      splits on gcd(y_(i-1) -+ 1, N), or on gcd(x**(u 2**s) - 1, N) for
      some s >= bitlen(N) when no y_i is 1: every gcd it takes is one of
      these or splits nothing more.  y**2 = 1 makes y = +-1 mod each
      p**e, so gcd(y + 1, N) is N / gcd(y - 1, N); and the stall's gcd
      equals that of y_(bitlen(N) - 1) by the first bullet.  For N = pq
      both separate p and q on exactly the non-units and the units whose
      levels at p and q differ, so every semiprime's report is the same
      under both.  For more primes, or a non-squarefree N, these parts
      refine the classic split's, and refining by d keeps that order
      (A | B gives gcd(A, d) | gcd(B, d) and A / gcd(A, d) | B / gcd(B, d)),
      so a factorization the classic split completes after k draws is
      complete here after at most k.
    - Every prime of N stays in some part: a split replaces a part by two
      whose product it is.  So once every part reduces to a prime, those
      are N's primes, and the exponents counted from N multiply to N.
    """
    u = order >> ((order & -order).bit_length() - 1)

    def split_parts(parts: set[int], d: int) -> set[int]:
        out: set[int] = set()
        for p in parts:
            g1 = math.gcd(p, d)
            if 1 < g1 < p:
                out.add(g1)
                out.add(p // g1)
            else:
                out.add(p)
        return out

    def reduce_part(p: int) -> tuple[int, bool]:
        """The base of p's perfect powers, and its primality verdict; a
        prime is no perfect power, so that verdict ends the reduction."""
        while not (prime := is_probable_prime(p)) and (pp := perfect_power(p)) is not None:
            p = pp[0]
        return p, prime

    parts = {N}
    for _ in range(iterations):
        if all(prime for _, prime in map(reduce_part, parts)):
            break
        x = rng.randrange(N - 2) + 2
        gcds = {math.gcd(x, N)}
        y = pow(x, u, N)
        for _ in range(N.bit_length()):
            if y == 1:
                break
            gcds.add(math.gcd(y - 1, N))
            y = y * y % N
        for d in gcds:
            parts = split_parts(parts, d)

    reduced = [reduce_part(p) for p in parts]
    if not all(prime for _, prime in reduced):
        return None
    out: dict[int, int] = {}
    for p in sorted({b for b, _ in reduced}):
        e = 0
        M = N
        while M % p == 0:
            M //= p
            e += 1
        out[p] = e
    return out


def factor_completely(
    N: int, seed: int, *, split_iterations: int = 32, **run_options
) -> FactorReport:
    """Factor an odd composite N end to end.

    One simulated order-finding run on a random unit (the measurement
    needs the true order, which the harness computes classically: it
    factors N once, for lambda(N) and for true_order; the
    post-processing stays blind), followed by classical gcd splitting
    driven by the recovered order.  Rejects even, prime, prime-power,
    and trivially small N with guidance.  run_options are the RunConfig
    fields B, c, strategy, recovery and t_max; N fixes m and ell, and
    delta stays m - ell.
    """
    if N <= 3 or N % 2 == 0:
        raise ValueError(f"N={N}: need an odd integer above 3")
    if split_iterations < 0:
        raise ValueError(f"need split_iterations >= 0, got {split_iterations}")
    if is_probable_prime(N):
        raise ValueError(f"N={N} is prime; nothing to factor")
    pp = perfect_power(N)
    if pp is not None:
        raise ValueError(
            f"N={N} is a perfect power {pp[0]}**{pp[1]}; reduce the base first"
        )
    m, ell = _register_for_modulus(N)
    config = RunConfig(m=m, ell=ell, delta=None, **run_options)
    rng = Rng(seed)
    factorization = factorize(N)
    group = ModNGroup(N, bounds.carmichael_value(factorization))
    g = group.random_element(rng)
    r = true_order(factorization, g)
    outcome = run_once(group, g, r, config, rng)
    factors, reason = None, outcome.reason
    if outcome.success:
        factors = _split_with_order(N, outcome.recovered, rng, split_iterations)
        if factors is None:
            reason = "split_incomplete"
    return FactorReport(
        N=N,
        success=factors is not None,
        order=outcome.recovered,
        factors=factors,
        reason=reason,
        seed=seed,
        split_iterations=split_iterations,
    )
