"""The four workloads: seeded inputs, the timed op and its checks.

Every input (orders, primes, geometries, per-op seeds) is made here from
the workload seed with Python's own `random`; orderlab receives only the
generated values.  Every check below is computed here too, never by an
orderlab helper: the bounds from their closed formulas in plain floats,
primality by a deterministic Miller-Rabin, and the measurement
distribution from its defining double sum.

Importing this module puts the checkout's `src/` first on `sys.path` and
raises ImportError when orderlab cannot be imported from there, so the
benchmark never measures some other installed copy.
"""

from __future__ import annotations

import math
import os
import random
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import orderlab  # noqa: E402
from orderlab import distribution, pipeline  # noqa: E402
from orderlab.model import Params, Rng, SimulatedGroup  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(orderlab.__file__))) != SRC:
    raise ImportError(f"orderlab came from {orderlab.__file__}, not from {SRC}")

FAILURE_REASONS = ("tail", "no_candidate", "unsmooth_d", "budget")

# every op list holds at least this many ops, so p90 has ten samples beyond it
MIN_OPS = 100


class CheckFailed(Exception):
    """An op returned a result that its correctness check rejects."""


def _eps(B: int) -> float:
    """Relative window mass missed outside offsets -B..B."""
    return (2 / B + 1 / B ** 2 + 1 / (3 * B ** 3)) / math.pi ** 2


def _smooth(c: float, m: int) -> float:
    return 1 - 1 / (c * math.log2(c * m))


def single_run_bound(m: int, ell: int, B: int, c: float, rho_log2: float) -> float:
    """The paper's single-run success bound, with rho = 2**rho_log2."""
    return (1 - _eps(B) - math.pi ** 2 * (2 * B + 1) * 2.0 ** rho_log2) * _smooth(c, m)


def factoring_bound(l: int, n_primes: int, k: int, sigma: float, B: int, c: float) -> float:
    """The paper's bound on factoring an l-bit N completely in one run."""
    m = l - 1
    first = 1 - _eps(B) - math.pi ** 2 * (2 * B + 1) * 2.0 ** -m
    pairs = n_primes * (n_primes - 1) // 2
    third = 1 - 2.0 ** -k * pairs - 1 / (2 * sigma ** 2 * math.log2(sigma * l) ** 2)
    return first * _smooth(c, m) * third


def check_success_count(successes: int, n: int, bound: float) -> None:
    """At least the bound minus three binomial standard deviations."""
    floor = n * bound - 3 * math.sqrt(n * bound * (1 - bound))
    if successes < floor:
        raise CheckFailed(f"{successes}/{n} successes, below {floor:.1f} (bound {bound:.6f})")


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the bases 2..41 are exact below 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    if n >= 3_317_044_064_679_887_385_961_981:
        raise ValueError(f"{n} is beyond the deterministic base set")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def double_sum(r: int, j: int, n: int) -> float:
    """P(j) from its definition (1/N^2) sum_e |sum_b w^(j (e + b r))|^2,
    w = exp(2 pi i / N), over e in [0, r) and b >= 0 with e + b r < N.

    The factor w^(j e) has modulus one, so class e contributes the square
    modulus of the first count_e terms of sum_b w^(a b), a = j r mod N.
    Angles are reduced in integers first and each sum is rounded once.
    """
    N = 1 << n
    a = j * r % N
    total = 0.0
    for count, classes in Counter((N - 1 - e) // r + 1 for e in range(r)).items():
        angles = [2 * math.pi * (a * b % N) / N for b in range(count)]
        re = math.fsum(math.cos(t) for t in angles)
        im = math.fsum(math.sin(t) for t in angles)
        total += classes * (re * re + im * im)
    return total / (N * N)


class Workload:
    """One fixed op list, `rate` ops for each second of `--seconds`."""

    name: str
    rate: float

    def op_count(self, seconds: float) -> int:
        return max(MIN_OPS, round(self.rate * seconds))

    def inputs(self, seed: int, n: int) -> list:
        rnd = random.Random(f"{self.name}:{seed}")
        return [self.make_input(rnd) for _ in range(n)]

    def warmup(self):
        """One input that does not depend on the seed, for the untimed first op."""
        return self.make_input(random.Random(f"{self.name}:warmup"))

    def make_input(self, rnd: random.Random):
        raise NotImplementedError

    def op(self, x):
        raise NotImplementedError

    def check(self, x, out) -> bool:
        """Raise CheckFailed on a wrong result; return whether the method succeeded."""
        raise NotImplementedError

    def check_run(self, successes: int, n: int) -> None:
        """Checks on the whole run; raise CheckFailed when one fails."""


class MonteCarloTrial(Workload):
    """One `run_once` trial on a fresh uniform odd full-width order."""

    def __init__(self, name: str, rate: float, config: pipeline.RunConfig, rho_log2: float):
        self.name = name
        self.rate = rate
        self.config = config
        self.bound = single_run_bound(config.m, config.ell, config.B, config.c, rho_log2)

    def make_input(self, rnd):
        m = self.config.m
        r = (1 << (m - 1)) | (rnd.getrandbits(m - 2) << 1) | 1
        return r, rnd.getrandbits(128)

    def op(self, x):
        r, seed = x
        group = SimulatedGroup(r)
        return pipeline.run_once(group, group.generator(), r, self.config, Rng(seed))

    def check(self, x, out):
        r = x[0]
        if out.success:
            if out.recovered != r or out.reason is not None:
                raise CheckFailed(f"success on r={r} reported {out.recovered}")
            return True
        if out.reason not in FAILURE_REASONS:
            raise CheckFailed(f"r={r}: unknown failure reason {out.reason!r}")
        if out.recovered == r:
            raise CheckFailed(f"r={r}: recovered the order but reported {out.reason}")
        return False

    def check_run(self, successes, n):
        check_success_count(successes, n, self.bound)


class Factor(Workload):
    """`factor_completely` on a 48-bit product of two known 24-bit primes."""

    name = "factor"
    rate = 12.0
    bits = 24
    # factor_completely's defaults; sigma is the default of `orderlab bound`
    B, c, split_iterations, sigma = 10, 25.0, 32, 25.0

    def make_input(self, rnd):
        while True:
            p, q = self._prime(rnd), self._prime(rnd)
            if p != q and (p * q).bit_length() == 2 * self.bits:
                return p, q, rnd.getrandbits(32)

    def _prime(self, rnd):
        while True:
            p = rnd.getrandbits(self.bits) | (1 << (self.bits - 1)) | 1
            if is_prime(p):
                return p

    def op(self, x):
        p, q, seed = x
        return pipeline.factor_completely(p * q, seed=seed)

    def check(self, x, out):
        p, q, _ = x
        if out.N != p * q:
            raise CheckFailed(f"report for N={out.N}, asked {p * q}")
        if not out.success:
            if out.factors is not None:
                raise CheckFailed(f"N={p * q}: failure claims factors {out.factors}")
            return False
        if out.factors != {p: 1, q: 1}:
            raise CheckFailed(f"N={p * q}={p}*{q}: reported {out.factors}")
        if out.order is None or math.lcm(p - 1, q - 1) % out.order:
            raise CheckFailed(f"N={p * q}: order {out.order} does not divide lcm(p-1, q-1)")
        return True

    def check_run(self, successes, n):
        bound = factoring_bound(2 * self.bits, 2, self.split_iterations, self.sigma, self.B, self.c)
        check_success_count(successes, n, bound)


class DistExact(Workload):
    """`full_distribution` and `bruteforce_distribution` of one geometry.

    Every geometry has m = 11, ell = 5 (n = 16) and an 11-bit order, so
    the brute-force inner sums have 33 to 65 terms and no geometry costs
    more than twice another.
    """

    name = "dist_exact"
    rate = 6.0
    m, ell = 11, 5

    def make_input(self, rnd):
        r = rnd.randrange(1 << (self.m - 1), 1 << self.m)
        return r, rnd.randrange(r), rnd.randrange(1 << (self.m + self.ell))

    def op(self, x):
        p = Params(r=x[0], m=self.m, ell=self.ell)
        return distribution.full_distribution(p), distribution.bruteforce_distribution(p)

    def check(self, x, out):
        r, z, j_random = x
        n = self.m + self.ell
        N = 1 << n
        closed, direct = out
        if closed.shape != (N,) or direct.shape != (N,):
            raise CheckFailed(f"r={r}: shapes {closed.shape}, {direct.shape}")
        floor = np.longdouble(2.0) ** (-2 * n)
        scale = np.maximum(np.maximum(np.abs(closed), np.abs(direct)), floor)
        dev = float(np.max(np.abs(closed - direct) / scale))
        if not dev <= 1e-12:
            raise CheckFailed(f"r={r}: closed form and brute force differ by {dev:.3e}")
        for label, dist in (("closed form", closed), ("brute force", direct)):
            total = float(dist.sum())
            if not abs(total - 1) <= 1e-9:
                raise CheckFailed(f"r={r}: {label} sums to {total!r}")
        peak_j = (2 * z * N + r) // (2 * r)  # nearest to z N / r, ties up
        for j in (0, peak_j % N, j_random):
            want = double_sum(r, j, n)
            got = float(closed[j])
            if not abs(got - want) <= 1e-12 * max(abs(got), abs(want), 2.0 ** (-2 * n)):
                raise CheckFailed(f"r={r}, j={j}: closed form {got!r}, double sum {want!r}")
        return True


# The sampler's walk is capped at 2**11 offsets each side: uncapped, its
# length has the tail P(|t| > k) ~ 0.2 / k, and about one run of 10**4
# trials in fifty meets a trial that walks for a minute.  A capped walk
# ends as "tail".
T_MAX = 1 << 11

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # 20000 ops at 20 s: op_ms_tail is p99, which falls in the sampler's
        # heavy tail, so it needs more samples than the other workloads
        MonteCarloTrial(
            "mc_cf",
            1000.0,
            pipeline.RunConfig(
                m=128, ell=128, B=10, c=10, strategy="cf", recovery="stack", t_max=T_MAX
            ),
            rho_log2=-(128 + 128) / 2,
        ),
        MonteCarloTrial(
            "mc_enumerate",
            15.75,
            pipeline.RunConfig(
                m=128, ell=120, B=10, c=10, strategy="enumerate", recovery="tree", delta=8,
                t_max=T_MAX,
            ),
            rho_log2=-120,
        ),
        Factor(),
        DistExact(),
    )
}
