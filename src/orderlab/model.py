"""Problem parameters, peak geometry, and the two group realizations.

Everything downstream works relative to a frequency register of width
m + ell bits for a generator of (known or unknown) order r.  The model
layer owns the exact integer conventions: the round-half-up rule used
to place distribution peaks, and the derived quantities beta, L and the
floor of B_max.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction


def round_half_up(x) -> int:
    """Round to the nearest integer, ties toward +infinity.

    The fractional part f - round_half_up(f) lies in [-1/2, 1/2), i.e.
    the rounding error delta = round_half_up(f) - f lies in (-1/2, 1/2].
    Accepts int, Fraction, or float; exact for int and Fraction.  The
    reference rule that optimal_frequency's integer form is tested against.
    """
    if isinstance(x, float):
        return math.floor(x + 0.5)
    return math.floor(x + Fraction(1, 2))


@dataclass(frozen=True)
class Params:
    """Instance parameters: order r, register split m + ell, window B.

    Invariants enforced on construction:
      r >= 2 and 2**m > r, ell >= 1;
      B (if set) satisfies 1 <= B < B_max, i.e. r*(2B+1) < 2**(m+ell).
    """

    r: int
    m: int
    ell: int
    B: int | None = None

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"order r must be >= 2, got {self.r}")
        if self.m < 1 or (1 << self.m) <= self.r:
            raise ValueError(f"need 2**m > r, got m={self.m}, r={self.r}")
        if self.ell < 1:
            raise ValueError(f"ell must be >= 1, got {self.ell}")
        if self.B is not None:
            if self.B < 1:
                raise ValueError(f"B must be >= 1, got {self.B}")
            # B < B_max = (2**n/r - 1)/2, checked without rationals
            if self.r * (2 * self.B + 1) >= (1 << (self.m + self.ell)):
                raise ValueError(
                    f"B={self.B} reaches past the peak spacing for r={self.r}, "
                    f"m={self.m}, ell={self.ell}"
                )

    @property
    def n(self) -> int:
        """Total register width m + ell."""
        return self.m + self.ell

    @property
    def two_n(self) -> int:
        return 1 << (self.m + self.ell)


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived exactly from (r, m, ell), all integers.

    B_max = (2**n/r - 1)/2 is the half-width of a peak cell; every
    reader needs only its floor, computed without rationals.
    """

    beta: int         # 2**n mod r
    L: int            # floor(2**n / r)
    B_max_floor: int  # floor((2**n - r) / 2r)


def derive(params: Params) -> DerivedParams:
    N = params.two_n
    r = params.r
    return DerivedParams(beta=N % r, L=N // r, B_max_floor=(N - r) // (2 * r))


@dataclass(frozen=True)
class Peak:
    """The optimal frequency j0 of a peak z and its argument alpha0."""

    j0: int
    alpha0: int


def optimal_frequency(z: int, params: Params) -> int:
    """Frequency nearest to z * 2**n / r, ties rounded up: the integer
    form floor((2 z 2**n + r) / 2r) of round_half_up(z * 2**n / r)."""
    if not 0 <= z < params.r:
        raise ValueError(f"peak index z={z} outside [0, {params.r})")
    return (2 * z * params.two_n + params.r) // (2 * params.r)


def peak(z: int, params: Params) -> Peak:
    j0 = optimal_frequency(z, params)
    alpha0 = params.r * j0 - z * params.two_n
    # alpha0 = r * delta_z with delta_z in (-1/2, 1/2]
    assert -params.r < 2 * alpha0 <= params.r
    return Peak(j0=j0, alpha0=alpha0)


def check_window(j: int, B: int, N: int) -> None:
    """Reject a window j-B..j+B whose centre is outside [0, N) or whose
    half-width B is negative."""
    if not 0 <= j < N:
        raise ValueError(f"frequency {j} outside [0, {N})")
    if B < 0:
        raise ValueError(f"window half-width B must be >= 0, got {B}")


def centre_out(per_offset: list) -> list:
    """A window's per-offset list, given for k = -B..B, reordered
    k = 0, +1, -1, ..., +B, -B.

    The measurement lands mostly at k = 0, so the filter meets an
    accepted candidate early and tests the rest through the accepted
    candidates' gcd.  The order depends on B alone, so it stays blind.
    """
    B = len(per_offset) // 2
    out = per_offset[:]
    out[::2] = per_offset[B::-1]
    out[1::2] = per_offset[B + 1:]
    return out


class Rng:
    """Deterministic random stream with explicit splitting.

    Every stochastic operation in the package receives one of these
    explicitly; the same seed reproduces the same transcript.  split()
    derives an independent child stream deterministically, so per-trial
    streams do not depend on how much entropy earlier trials consumed.
    """

    def __init__(self, seed: int):
        self._r = random.Random(seed)

    def split(self) -> "Rng":
        return Rng(self._r.getrandbits(128))

    def randrange(self, stop: int) -> int:
        """Uniform integer in [0, stop).  Arbitrary precision."""
        return self._r.randrange(stop)

    def getrandbits(self, k: int) -> int:
        return self._r.getrandbits(k)


class SimulatedGroup:
    """Cyclic group of known order r, elements stored as exponents mod r.

    Multiplication is addition of exponents, so x**k costs one integer
    multiply regardless of k.  This is the ground-truth realization used
    by the simulation harness.
    """

    def __init__(self, r: int):
        if r < 1:
            raise ValueError(f"group order must be positive, got {r}")
        self.r = r

    def element(self, k: int) -> int:
        return k % self.r

    def generator(self) -> int:
        return 1 % self.r

    def pow(self, a: int, k: int) -> int:
        # negative k is inversion followed by the positive power
        return (a * k) % self.r

    def is_identity(self, a: int) -> bool:
        return a % self.r == 0


class ModNGroup:
    """Multiplicative group of units mod an odd N > 3, given lam = lambda(N).

    lam is the Carmichael value of N, which the simulation harness
    computes from N's factorization (bounds.carmichael_value), as
    SimulatedGroup is given its order r.  Every element is a unit, so
    a**lam = 1 and pow reduces k mod lam, for every k, negative k and
    k >= lam included.  Post-processing stays blind: it sees only pow
    and is_identity, and the exponent meter is charged from the k that
    post-processing asks for, never from k % lam.
    """

    def __init__(self, N: int, lam: int):
        if N <= 3 or N % 2 == 0:
            raise ValueError(f"modulus must be odd and > 3, got {N}")
        if lam < 1:
            raise ValueError(f"lambda(N) must be positive, got {lam}")
        self.N = N
        self.lam = lam

    def pow(self, a: int, k: int) -> int:
        return pow(a, k % self.lam, self.N)

    def is_identity(self, a: int) -> bool:
        return a % self.N == 1

    def random_element(self, rng: Rng) -> int:
        while True:
            x = rng.randrange(self.N - 2) + 2
            if math.gcd(x, self.N) == 1:
                return x
