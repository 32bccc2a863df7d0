"""Analytic error terms and success-probability lower bounds.

All bounds are evaluated in arbitrary-precision arithmetic at _PREC =
128 bits, far finer than the five decimals of the reference grid,
except the two pointwise bounds of one register, approx_error_bound and
window_mass_lower_bound, which work at its width n plus 32 guard bits.
The small pure-real inequality oracles (trigamma, cosine) live here
too, since the bound proofs lean on them and the tests exercise them
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .model import Params

REFERENCE_B_COLUMNS = (1, 10, 100, 1000, 10 ** 4, 10 ** 5)
REFERENCE_C_ROWS = (1, 10, 25, 100, 250, 500, 1000)
_REFERENCE_M = 128
_REFERENCE_ELL = 128
_PREC = 128


def relative_error_bound(B: int, prec: int = _PREC) -> mpmath.mpf:
    """Upper bound on the relative mass missed outside a width-B window:

        (1/pi^2) * (2/B + 1/B^2 + 1/(3 B^3)).
    """
    if B < 1:
        raise ValueError(f"B must be >= 1, got {B}")
    with mpmath.workprec(prec):
        b = mpmath.mpf(B)
        return (2 / b + 1 / b ** 2 + 1 / (3 * b ** 3)) / mpmath.pi ** 2


def approx_error_bound(params: Params) -> mpmath.mpf:
    """Pointwise bound on |P - approx_prob|:

        (pi^2 / 2**n) * (3/4 + (r / 2**n) / 12).
    """
    with mpmath.workprec(params.n + 32):
        scale = mpmath.mpf(2) ** (-params.n)
        return mpmath.pi ** 2 * scale * (mpmath.mpf(3) / 4 + params.r * scale / 12)


def window_mass_lower_bound(params: Params, B: int) -> mpmath.mpf:
    """Guaranteed mass of the 2B+1 frequencies nearest to any one peak:

        (1/r) (1 - relative_error_bound(B)) - pi^2 (2B+1) / 2**n.
    """
    with mpmath.workprec(params.n + 32):
        eps = relative_error_bound(B, params.n + 32)
        return (1 - eps) / params.r - mpmath.pi ** 2 * (2 * B + 1) / mpmath.mpf(params.two_n)


def smoothness_bound(c: float, m: int) -> mpmath.mpf:
    """Lower bound 1 - 1/(c log2(c m)) on drawing a c*m-smooth cofactor."""
    if c < 1 or c * m < 2:
        raise ValueError(f"need c >= 1 and c*m >= 2, got c={c}, m={m}")
    with mpmath.workprec(_PREC):
        return 1 - 1 / (c * mpmath.log(mpmath.mpf(c) * m, 2))


def _order_term(m: int, ell: int, B: int, elimination: str) -> mpmath.mpf:
    """pi^2 (2B+1) rho, where rho bounds r / 2**n per elimination mode."""
    if elimination == "sqrt":
        rho = mpmath.mpf(2) ** (-mpmath.mpf(m + ell) / 2)
    elif elimination == "pow2ell":
        rho = mpmath.mpf(2) ** (-ell)
    else:
        raise ValueError(f"unknown elimination mode {elimination!r}")
    return mpmath.pi ** 2 * (2 * B + 1) * rho


def single_run_success_bound(
    m: int, ell: int, B: int, c: float, elimination: str = "sqrt"
) -> mpmath.mpf:
    """Lower bound on one run recovering the order:

        (1 - relative_error_bound(B) - pi^2 (2B+1) rho) * (1 - 1/(c log2(c m)))

    with rho = 2**(-(m+ell)/2) for 'sqrt' elimination (the order is
    below the square root of the register range) or rho = 2**(-ell)
    ('pow2ell', suited to the reduced-register lattice route).
    """
    with mpmath.workprec(_PREC):
        first = 1 - relative_error_bound(B) - _order_term(m, ell, B, elimination)
        return first * smoothness_bound(c, m)


def enumeration_budget(delta: int) -> int:
    """ceil(6 sqrt(3) * 2**delta), computed exactly as ceil(sqrt(108 * 4**delta))."""
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    v = 108 * 4 ** delta
    s = math.isqrt(v)
    return s + 1  # 108 * 4**delta is never a perfect square

def lattice_success_bound(m: int, delta: int, B: int, c: float) -> tuple[mpmath.mpf, int]:
    """Success bound and vector budget for the reduced register ell = m - delta.

    Returns (bound, budget): the single-run bound with rho = 2**(-ell),
    and the maximum number of lattice vectors any one enumeration visits.
    """
    ell = m - delta
    if ell < 1:
        raise ValueError(f"delta={delta} leaves no fractional register (m={m})")
    return (
        single_run_success_bound(m, ell, B, c, elimination="pow2ell"),
        enumeration_budget(delta),
    )


def factoring_success_bound(
    l: int,
    n_primes: int,
    k: int,
    sigma: float,
    B: int,
    c: float,
    delta: int | None = None,
) -> mpmath.mpf:
    """Lower bound on completely factoring an odd l-bit integer with
    n_primes distinct prime factors in a single order-finding run plus
    k classical splitting iterations.

    Register: m = l - 1 and ell = m (enough to cover the square of any
    l-bit modulus), unless delta is given, in which case the reduced
    register ell = m - delta with lattice post-processing is assumed and
    the order term scales as 2**(-ell) instead of 2**(-(m+ell)/2).
    The last factor prices the k >= 0 splitting rounds and the
    sigma-slack smoothness of the group exponent, sigma >= 1 as
    smoothness_bound asks of c.
    """
    m = l - 1
    if m < 2:
        raise ValueError(f"modulus bit length l={l} too small")
    if k < 0 or n_primes < 2 or sigma < 1:
        raise ValueError(
            f"need k >= 0, n_primes >= 2 and sigma >= 1, got {k=}, {n_primes=}, {sigma=}"
        )
    if delta is None:
        ell, elimination = m, "sqrt"
    else:
        ell, elimination = m - delta, "pow2ell"
        if ell < 1:
            raise ValueError(f"delta={delta} too large for l={l}")
    pairs = n_primes * (n_primes - 1) // 2
    with mpmath.workprec(_PREC):
        return single_run_success_bound(m, ell, B, c, elimination) * (
            1
            - mpmath.mpf(2) ** (-k) * pairs
            - 1 / (2 * mpmath.mpf(sigma) ** 2 * mpmath.log(mpmath.mpf(sigma) * l, 2) ** 2)
        )


def floor_decimals(x: mpmath.mpf) -> str:
    """Format x rounded down at the fifth decimal place."""
    v = int(mpmath.floor(x * 100000))
    return f"{v // 100000}.{v % 100000:05d}"


def success_bound_table() -> list[list[str]]:
    """The bundled 7x6 reference grid of single-run success bounds.

    Rows are c in REFERENCE_C_ROWS, columns B in REFERENCE_B_COLUMNS,
    evaluated at m = ell = 128 with sqrt elimination and rounded down to
    five decimals.
    """
    table = []
    for c in REFERENCE_C_ROWS:
        row = [
            floor_decimals(
                single_run_success_bound(_REFERENCE_M, _REFERENCE_ELL, B, c, "sqrt")
            )
            for B in REFERENCE_B_COLUMNS
        ]
        table.append(row)
    return table


def dyadic_band_bound(t: int, m: int) -> Fraction:
    """Bound on the mass of arguments with 2**(t-1) <= |alpha| < 2**t.

    min(2**(m-t), 2**(t+3-m)): the first term holds for any order below
    2**m, the second additionally uses that the order has full length m.
    """
    if t < 1 or m < 1:
        raise ValueError(f"need t >= 1 and m >= 1, got t={t}, m={m}")
    return min(Fraction(2) ** (m - t), Fraction(2) ** (t + 3 - m))


def trigamma_upper(x: float) -> float:
    """Strict upper bound 1/x + 1/(2 x^2) + 1/(6 x^3) on trigamma(x), x > 0."""
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    return 1.0 / x + 1.0 / (2.0 * x * x) + 1.0 / (6.0 * x ** 3)


def trigamma_reference(x: float, terms: int = 10 ** 6) -> float:
    """Independent trigamma evaluation: truncated series plus integral tail.

    sum_{k<terms} (x+k)^-2 + 1/(x+terms).  The neglected remainder is
    trigamma(x+terms) - 1/(x+terms) in (0, 1/(2 (x+terms)^2)), so the
    result sits below the true value by less than 1e-12 for x <= 1e3.
    """
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    k = np.arange(terms, dtype=np.float64)
    partial = float(np.sum(1.0 / (x + k[::-1]) ** 2))  # small terms first
    return partial + 1.0 / (x + terms)


def window_inverse_square_sum(alpha0, r: int, B: int) -> mpmath.mpf:
    """Direct evaluation of sum_{t=-B..B} (alpha0 + r t)^-2."""
    with mpmath.workprec(_PREC):
        a = mpmath.mpf(alpha0)
        return mpmath.fsum(1 / (a + r * t) ** 2 for t in range(-B, B + 1))


def window_inverse_square_closed(alpha0, r: int, B: int) -> mpmath.mpf:
    """Closed form of the same window sum via trigamma:

        (1/r^2) [ 2 pi^2 / (1 - cos(2 pi alpha0 / r))
                  - trigamma(1 + B + alpha0/r) - trigamma(1 + B - alpha0/r) ].
    """
    with mpmath.workprec(_PREC):
        a = mpmath.mpf(alpha0) / r
        full = 2 * mpmath.pi ** 2 / (1 - mpmath.cospi(2 * a))
        tails = mpmath.polygamma(1, 1 + B + a) + mpmath.polygamma(1, 1 + B - a)
        return (full - tails) / (mpmath.mpf(r) ** 2)


@dataclass(frozen=True)
class CosMargins:
    """Slack of the three quadratic/quartic cosine inequalities at phi.

    All three are >= 0 (up to float rounding) for |phi| <= pi:
      lower:   (1 - cos phi) - 2 phi^2 / pi^2
      upper:   phi^2 / 2 - (1 - cos phi)
      quartic: phi^4 / 24 - |(1 - cos phi) - phi^2 / 2|
    """

    lower: float
    upper: float
    quartic: float


def cos_inequalities(phi: float) -> CosMargins:
    if not -math.pi <= phi <= math.pi:
        raise ValueError(f"phi={phi} outside [-pi, pi]")
    one_minus_cos = 2.0 * math.sin(phi / 2.0) ** 2
    p2 = phi * phi
    return CosMargins(
        lower=one_minus_cos - 2.0 * p2 / (math.pi * math.pi),
        upper=p2 / 2.0 - one_minus_cos,
        quartic=p2 * p2 / 24.0 - abs(one_minus_cos - p2 / 2.0),
    )


def carmichael_value(factorization: dict[int, int]) -> int:
    """lcm of p**(e-1) (p-1) over the odd prime powers of N."""
    lam = 1
    for p, e in factorization.items():
        if p < 3 or p % 2 == 0 or e < 1:
            raise ValueError(f"need odd primes with positive exponents, got {p}^{e}")
        lam = math.lcm(lam, p ** (e - 1) * (p - 1))
    return lam
