"""Desk-scale integer factorization for verification and ground truth.

Miller-Rabin with base sets that are exact at these sizes, integer
roots, perfect powers, and factorize.  is_probable_prime and
perfect_power are pure functions of n and keep their last
_VERDICT_CACHE = 256 verdicts, so the callers that test the same
integer in turn (factorize, and the pipeline's factoring demo and
split) compute each verdict once.  factorize trial-divides by the
primes below 2**10 and then splits each composite cofactor v that is
not a perfect power:

    v < 2**50   by Hart's one-line method (_hart), a fast pass that may
                find nothing, then, only if it does, by Lehman's method
                (_lehman), a bounded deterministic search that always
                succeeds;
    v >= 2**50  by Brent-cycle rho under a work budget, which turns
                pathological inputs into a distinct timeout.

Sized for the moduli the laboratory factors: order candidates, the
Carmichael values of its moduli, and test semiprimes up to a hundred
bits or so.

Miller-Rabin on the first k primes decides primality exactly for every
n < psi_k, where psi_k is the least strong pseudoprime to all of those
bases (OEIS A014233).  is_probable_prime takes the least k whose psi_k
lies above n, from this table:

    k       psi_k
    1       2047
    2       1373653
    3       25326001
    4       3215031751
    5       2152302898747
    6       3474749660383
    7, 8    341550071728321
    9-11    3825123056546413051
    12      318665857834031151167461
    13      3317044064679887385961981

psi_1 to psi_8 are tabulated in G. Jaeschke, "On strong pseudoprimes to
several bases", Math. Comp. 61 (1993), 915-926; psi_9 to psi_11 are
from Y. Jiang and Y. Deng, Math. Comp. 83 (2014), 2915-2924; psi_12 and
psi_13 from J. Sorenson and J. Webster, "Strong pseudoprimes to twelve
prime bases", Math. Comp. 86 (2017), 985-1003.
Each psi_k is itself a strong pseudoprime to its k bases, so the bound
is strict.  A 24-bit prime takes 3 bases.

Lehman's theorem (R. S. Lehman, "Factoring large integers", Math. Comp.
28 (1974), 637-646), in its form with an integer r, 1 <= r < v**(1/2):
let v = p q be odd, with primes p <= q and p > (v / (r + 1))**(1/2).
Then some k with 1 <= k <= r and some integer a with s = sqrt(4 k v)
<= a <= s + (v / k)**(1/2) / (4 (r + 1)) make a**2 - 4 k v = b**2 a
square, and 1 < gcd(a + b, v) < v.  _lehman takes r = floor(v**(1/3)).
A composite v with no prime factor at or below v**(1/3) is such a p q,
since three such primes multiply to more than v, and r + 1 > v**(1/3)
gives p > v**(1/3) > (v / (r + 1))**(1/2) and a range of a within
s <= a <= s + v**(1/6) / (4 sqrt(k)).

_lehman is exact for v < 2**50.  Trial division up to v**(1/3) < 2**17
runs in float64: when p divides v < 2**53 the quotient v / p is an
exact integer, and a quotient that rounds to an integer is confirmed in
Python ints.  The sweep over k = 1..floor(v**(1/3)), with
s = sqrt(4 k v) < 2**35 and eps = 2**-10:

  * Since (a - s)(a + s) = a**2 - 4 k v, a <= s + v**(1/6) / (4 sqrt(k))
    exactly when a**2 - 4 k v <= v**(2/3) + v**(1/3) / (16 k).  The
    sweep keeps the a with 0 <= a**2 - 4 k v <= D, where
    D = floor(v**(2/3) + v**(1/3) / 16) + 1 >= that bound for every k.
  * For k it tries a = lo .. lo + c - 1, where lo is the floor of
    s + 1 - eps computed in float64: a product, a square root and a sum,
    each correctly rounded, within 2**-16 < eps of the exact value, so
    s - 1 < lo <= ceil(s).
    An a with a**2 - 4 k v <= D has a - s <= D / (2 s), and
    c = floor(D / (2 s0) + 2 eps) + 1 for the first k0 <= k of the
    block, s0 = sqrt(4 k0 v), so lo + c - 1 >= floor(s + D / (2 s)).
    The a tried and kept are therefore exactly those with
    0 <= a**2 - 4 k v <= D, which hold Lehman's range.
  * Each a tried is below 2**35, so a*a - 4 k v in wrapping uint64 is
    the true value mod 2**64.  The true value lies above -2 s > -2**36
    and far below 2**63, so the wrapped value is at most D exactly when
    the true value lies in [0, D].
  * D < 2**34, so such a difference d is exact in float64, and its
    correctly rounded sqrt is an integer exactly when d is a square: a
    non-square d lies strictly between m**2 and (m + 1)**2 for some
    m < 2**17, so its sqrt lies at least 1/(2 m + 2) from both, and
    rounding moves it by at most (m + 1) 2**-53.  Each hit is confirmed
    with math.isqrt and the gcd.

Hart's one-line factoring (W. B. Hart, "A one line factoring
algorithm", J. Aust. Math. Soc. 92 (2012), 61-69), with multiplier
M = 480: for i = 1, 2, ..., let n = M v i, s = ceil(sqrt(n)) and
m = s**2 - n; when m = t**2 is a square, s**2 - t**2 = (s - t)(s + t)
is a multiple of v, and gcd(s - t, v) may be a proper factor.  Hart
gives a heuristic, not a proof, that this finds a factor within about
v**(1/3) steps.  _hart tries i = 1..r, r = floor(v**(1/3)), in blocks
of _BLOCK, and returns the first proper gcd(s - t, v) in i order, or
None; factorize then calls _lehman.  For v < 2**50:

  (a) Any value _hart returns is a proper divisor of v: it is
      gcd(s - t, v), recomputed in Python ints, and strictly between 1
      and v.
  (b) _hart returns exactly the first proper factor in i order.
      M v < 2**59 and i < 2**17 fit in uint64, so M v i in wrapping
      uint64 is n mod 2**64.  n < 2**76 gives s < 2**38, and
      (s - 1)**2 < n gives 0 <= m <= 2 s - 2 < 2**39.  The float64
      sqrt(i * fl(M v)) takes three correctly rounded steps, so it lies
      within 2**-51 sqrt(n) < 2**-13 of sqrt(n), and its ceiling sc is
      s - 1, s or s + 1.  sc**2 - n in wrapping uint64 is the true
      value mod 2**64.  For sc = s - 1 the true value lies in
      [-2 s + 1, -1] and wraps to above 2**64 - 2**39; for sc = s it is
      m, in [0, 2 sc - 2]; for sc = s + 1 it lies in [2 s + 1, 4 s - 1],
      at least 2 sc - 1.  So the wrapped value is m exactly when it is
      at most 2 sc - 2, and every other row is checked in Python ints.
      On the rows kept, m < 2**39 is exact in float64, and its correctly
      rounded sqrt is an integer exactly when m is a square, as for
      Lehman's d above: a non-square lies strictly between j**2 and
      (j + 1)**2 with j < 2**20, its sqrt at least 1/(2 j + 2) from
      both, and rounding moves the sqrt by at most (j + 1) 2**-53.
      Every row that this screen passes is confirmed in Python ints,
      with s from math.isqrt, t = math.isqrt(m) and the gcd.  So no
      square m is missed, and no other row returns.
  (c) The work is bounded: at most ceil(r / _BLOCK) blocks of _BLOCK
      rows, with r < 2**17.  Completeness is Lehman's: when Hart finds
      nothing, _lehman's proven sweep finishes.
"""

from __future__ import annotations

import bisect
import functools
import math
import random

import numpy as np

from .recovery import primes_up_to

_TRIAL_LIMIT = 1 << 10
_SMALL_PRIMES = tuple(primes_up_to(_TRIAL_LIMIT - 1))
# (psi_k, k): Miller-Rabin on the first k primes is exact below psi_k,
# the least k for each distinct psi_k (module docstring)
_MR_BANDS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)
_MR_PSI = tuple(psi for psi, _ in _MR_BANDS)
_MR_BASES = _SMALL_PRIMES[:13]  # 2 .. 41
_MR_EXACT_LIMIT = _MR_PSI[-1]
_MR_SEEDED_ROUNDS = 64
_DEFAULT_RHO_BUDGET = 1 << 24
# composite cofactors below this bound are split by Hart's method, then
# Lehman's if Hart finds nothing, above it by rho; the bound keeps every
# a**2 - 4 k v of Lehman's sweep and every s**2 - M v i of Hart's exact
# in wrapping uint64 and float64 (module docstring)
_LEHMAN_LIMIT = 1 << 50
_BLOCK = 4096  # entries per numpy temporary of the Hart and Lehman splits
_HART_MULTIPLIER = 480  # Hart's M; M v < 2**59 below _LEHMAN_LIMIT
_EPS = 2.0 ** -10  # float-safe margin on the ends of each range of a
_VERDICT_CACHE = 256  # verdicts kept by is_probable_prime and perfect_power each


class FactorizationTimeout(RuntimeError):
    """The factorization work budget ran out before completion."""


@functools.lru_cache(maxsize=_VERDICT_CACHE)
def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Below psi_13 = 3,317,044,064,679,887,385,961,981 the bases are the
    first k primes for the least k with n < psi_k (the module
    docstring's table), which make the verdict exact there: the same
    verdict as all 13 primes 2 .. 41.  From psi_13 up,
    _MR_SEEDED_ROUNDS = 64 bases are drawn from a stream seeded by n
    itself, so verdicts are deterministic per input.  The verdict is a
    pure function of n, memoized for the last _VERDICT_CACHE arguments;
    __wrapped__ is the uncached test.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < _MR_EXACT_LIMIT:
        bases = _MR_BASES[: _MR_BANDS[bisect.bisect_right(_MR_PSI, n)][1]]
    else:
        rng = random.Random(n ^ 0x9E3779B97F4A7C15)
        bases = (rng.randrange(2, n - 1) for _ in range(_MR_SEEDED_ROUNDS))
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def iroot(n: int, k: int) -> int:
    """floor(n ** (1/k)) by Newton iteration on integers."""
    if n < 0 or k < 1:
        raise ValueError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
    if n < 2 or k == 1:
        return n
    x = 1 << (-(-n.bit_length() // k))  # upper estimate
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_exponents(limit: int):
    """The primes k <= limit, in increasing order."""
    for k in _SMALL_PRIMES:
        if k > limit:
            return
        yield k
    # the table suffices for every n below 2**1024; beyond it, trial
    # division by the table is exact for the k below 1031**2
    for k in range(_TRIAL_LIMIT + 1, limit + 1, 2):
        if all(k % p for p in _SMALL_PRIMES):
            yield k


@functools.lru_cache(maxsize=_VERDICT_CACHE)
def perfect_power(n: int) -> tuple[int, int] | None:
    """(base, k) with base**k == n and k >= 2 least, or None.

    Only prime k are tried: when n = b**k for a composite k = k1 * k2,
    then also n = (b**k2)**k1, so the least k is always prime.  The
    result is a pure function of n, memoized for the last
    _VERDICT_CACHE arguments; __wrapped__ is the uncached search.
    """
    if n < 4:
        return None
    for k in _prime_exponents(n.bit_length()):
        b = iroot(n, k)
        if b < 2:
            break
        if b ** k == n:
            return b, k
    return None


@functools.cache
def _lehman_primes() -> np.ndarray:
    """The primes in (2**10, (2**50)**(1/3)), as read-only uint64, built on
    first use."""
    primes = primes_up_to(iroot(_LEHMAN_LIMIT - 1, 3))[len(_SMALL_PRIMES) :]
    table = np.array(primes, dtype=np.uint64)
    table.flags.writeable = False
    return table


def _lehman(v: int) -> int:
    """A proper factor of a composite v < 2**50 that is not a perfect
    power and has no prime factor below 2**10, by Lehman's method.

    Trial division by the primes up to v**(1/3) returns the least prime
    factor there.  Otherwise the sweep runs over k = 1..floor(v**(1/3))
    in blocks and returns the first proper gcd(a + b, v), in (k, a)
    order, with a**2 - 4 k v = b**2 <= D.  The module docstring shows
    that these a hold Lehman's range and that each test is exact.
    """
    third = iroot(v, 3)
    primes = _lehman_primes()
    top = int(primes.searchsorted(np.uint64(third), side="right"))
    for start in range(0, top, _BLOCK):
        q = v / primes[start : min(start + _BLOCK, top)]
        for i in np.flatnonzero(q == np.floor(q)):
            p = int(primes[start + i])
            if v % p == 0:
                return p
    four_v = 4 * v
    D = int(v ** (2 / 3) + v ** (1 / 3) / 16) + 1
    k, k_end = 1, third + 1
    while k < k_end:
        cols = int(D / (2 * math.sqrt(k * four_v)) + 2 * _EPS) + 1
        ks = np.arange(k, min(k + _BLOCK // cols, k_end), dtype=np.uint64)
        lo = (np.sqrt(ks * float(four_v)) + (1 - _EPS)).astype(np.uint64)
        a = lo[:, None] + np.arange(cols, dtype=np.uint64)
        d = a * a - (ks * np.uint64(four_v))[:, None]
        f = np.sqrt(d)
        for i in np.flatnonzero(f == np.floor(f)):
            di = int(d.flat[i])
            b = math.isqrt(di)
            if di <= D and b * b == di:
                g = math.gcd(int(a.flat[i]) + b, v)
                if 1 < g < v:
                    return g
        k += len(ks)
    raise AssertionError(f"Lehman's sweep found no factor of {v}")


def _hart(v: int) -> int | None:
    """A proper factor of a composite v < 2**50, or None, by Hart's
    one-line method with multiplier M = _HART_MULTIPLIER.

    Runs over i = 1..floor(v**(1/3)) in blocks and returns the first
    proper gcd(s - t, v), in i order, with s = ceil(sqrt(M v i)) and
    s**2 - M v i = t**2.  The module docstring shows that each test is
    exact, so that this is the first such factor, and bounds the work.
    """
    mv = _HART_MULTIPLIER * v
    top = iroot(v, 3) + 1
    for start in range(1, top, _BLOCK):
        i = np.arange(start, min(start + _BLOCK, top), dtype=np.uint64)
        sc = np.ceil(np.sqrt(i * float(mv)))
        s = sc.astype(np.uint64)
        m = s * s - i * np.uint64(mv)
        f = np.sqrt(m.astype(np.float64))
        # a square m, or a row whose float ceiling sc is not s
        for j in np.flatnonzero((f == np.floor(f)) | (m >= s + s - 1)):
            n = mv * (start + int(j))
            sj = math.isqrt(n - 1) + 1
            mj = sj * sj - n
            t = math.isqrt(mj)
            if t * t == mj:
                g = math.gcd(sj - t, v)
                if 1 < g < v:
                    return g
    return None


def _brent_rho(n: int, rng: random.Random, budget: list[int]) -> int | None:
    """One Brent-cycle attempt on an odd n (factorize has divided out 2);
    returns a nontrivial factor or None."""
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            budget[0] -= min(m, r - k)
            if budget[0] <= 0:
                raise FactorizationTimeout(f"rho budget exhausted on {n}")
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            budget[0] -= 1
            if budget[0] <= 0:
                raise FactorizationTimeout(f"rho budget exhausted on {n}")
    return g if g != n else None


def factorize(n: int, rho_budget: int = _DEFAULT_RHO_BUDGET) -> dict[int, int]:
    """Complete factorization {prime: exponent}.

    Trial division by the primes below 2**10, then, for each cofactor
    that Miller-Rabin does not certify prime and that is not a perfect
    power, a split by Hart's method below 2**50, by Lehman's method when
    Hart's finds no factor, and by Brent rho from 2**50 up.  Below 2**50
    the work is bounded and deterministic, and rho_budget does not
    apply.  The result is the unique factorization, whichever method
    splits a cofactor.  Raises FactorizationTimeout when the rho
    budget runs out, which callers report distinctly from a wrong-order
    verdict.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    if p * p > n:
        out[n] = out.get(n, 0) + 1
        return out
    budget = [rho_budget]
    rng = None  # seeded by the cofactor n when a part first reaches rho
    stack = [n]
    while stack:
        v = stack.pop()  # > 1: n and every split part are
        if is_probable_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        pp = perfect_power(v)
        if pp is not None:
            base, k = pp
            for _ in range(k):
                stack.append(base)
            continue
        if v < _LEHMAN_LIMIT:
            f = _hart(v) or _lehman(v)
        else:
            if rng is None:
                rng = random.Random(n ^ 0xD1B54A32D192ED03)
            f = None
            while f is None:
                f = _brent_rho(v, rng, budget)
        stack.append(f)
        stack.append(v // f)
    return out

