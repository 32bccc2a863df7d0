"""Desk-scale integer factorization for verification and ground truth.

Trial division by the primes below 2**10, Miller-Rabin, and Brent-cycle
rho.  Sized for the moduli the laboratory actually factors (order
candidates and test semiprimes up to a hundred bits or so): factors
above the trial-division table are left to rho, and primality is
decided by a base set that is exact at these sizes.  A work budget
turns pathological inputs into a distinct timeout instead of silent
failure.
"""

from __future__ import annotations

import math
import random

from .recovery import primes_up_to

_TRIAL_LIMIT = 1 << 10
_SMALL_PRIMES = tuple(primes_up_to(_TRIAL_LIMIT - 1))
# Miller-Rabin on the first 13 primes is exact below this bound
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MR_BASES = _SMALL_PRIMES[:13]  # 2 .. 41
_MR_EXACT_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_SEEDED_ROUNDS = 64
_DEFAULT_RHO_BUDGET = 1 << 24


class FactorizationTimeout(RuntimeError):
    """The factorization work budget ran out before completion."""


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Below 3,317,044,064,679,887,385,961,981 the bases are the 13 primes
    2 .. 41, which make the verdict exact there.  From that bound up,
    _MR_SEEDED_ROUNDS = 64 bases are drawn from a stream seeded by n
    itself, so verdicts are deterministic per input.
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
        bases = _MR_BASES
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


def perfect_power(n: int) -> tuple[int, int] | None:
    """(base, k) with base**k == n and k >= 2 least, or None.

    Only prime k are tried: when n = b**k for a composite k = k1 * k2,
    then also n = (b**k2)**k1, so the least k is always prime.
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


def _brent_rho(n: int, rng: random.Random, budget: list[int]) -> int | None:
    """One Brent-cycle attempt; returns a nontrivial factor or None."""
    if n % 2 == 0:
        return 2
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

    Trial division by the primes below 2**10, then recursive Brent rho
    with Miller-Rabin certification on the cofactor.  Raises
    FactorizationTimeout when the rho budget runs out, which callers
    report distinctly from a wrong-order verdict.
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
    rng = random.Random(n ^ 0xD1B54A32D192ED03)
    stack = [n]
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_probable_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        pp = perfect_power(v)
        if pp is not None:
            base, k = pp
            for _ in range(k):
                stack.append(base)
            continue
        f = None
        while f is None:
            f = _brent_rho(v, rng, budget)
        stack.append(f)
        stack.append(v // f)
    return out

