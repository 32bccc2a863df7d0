"""Parameter plumbing, rounding conventions, and the two group backends."""

import math
import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orderlab.bounds import carmichael_value
from orderlab.factorint import factorize
from orderlab.model import (
    ModNGroup,
    Params,
    Rng,
    SimulatedGroup,
    derive,
    optimal_frequency,
    peak,
    round_half_up,
)


class TestRoundHalfUp:
    def test_ties_go_up(self):
        assert round_half_up(Fraction(1, 2)) == 1
        assert round_half_up(Fraction(3, 2)) == 2
        assert round_half_up(Fraction(-1, 2)) == 0
        assert round_half_up(Fraction(-3, 2)) == -1

    def test_plain_values(self):
        assert round_half_up(Fraction(7, 3)) == 2
        assert round_half_up(Fraction(8, 3)) == 3
        assert round_half_up(0.25) == 0
        assert round_half_up(3) == 3

    @given(st.fractions(min_value=-1000, max_value=1000))
    def test_distance_at_most_half(self, x):
        j = round_half_up(x)
        delta = j - x  # ties round up, so delta = +1/2 at a tie
        assert Fraction(-1, 2) < delta <= Fraction(1, 2)


class TestOptimalFrequency:
    """optimal_frequency's integer form against the rule it stands for,
    round_half_up(z * 2**n / r) in Fractions."""

    def test_every_peak_up_to_n_10(self):
        # it reads only r and 2**n, so one split per (n, r) covers every
        # geometry of that width
        for n in range(2, 11):
            for r in range(2, 1 << (n - 1)):
                p = Params(r=r, m=n - 1, ell=1)
                for z in range(r):
                    assert optimal_frequency(z, p) == round_half_up(Fraction(z * p.two_n, r))

    def test_random_128_bit_orders_at_n_256(self):
        rnd = random.Random(256)
        for _ in range(20000):
            r = rnd.getrandbits(128) | (1 << 127)
            p = Params(r=r, m=128, ell=128)
            z = rnd.randrange(r)
            assert optimal_frequency(z, p) == round_half_up(Fraction(z * p.two_n, r))

    def test_ties_round_up(self):
        # a valid register has 2**n >= 2r, so z * 2**n / r is never a tie
        # there; registers narrower than r (not valid Params) reach them
        ties = 0
        for r in range(2, 41):
            for two_n in (1, 2, 4):
                p = types.SimpleNamespace(r=r, two_n=two_n)
                for z in range(r):
                    x = Fraction(z * two_n, r)
                    ties += x.denominator == 2
                    assert optimal_frequency(z, p) == round_half_up(x)
        assert ties > 0


class TestParams:
    def test_basic_fields(self):
        p = Params(r=6, m=4, ell=3)
        assert p.n == 7
        assert p.two_n == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            Params(r=1, m=4, ell=4)
        with pytest.raises(ValueError):
            Params(r=16, m=4, ell=4)  # needs 2**m > r
        with pytest.raises(ValueError):
            Params(r=6, m=4, ell=0)

    def test_derive_identities(self):
        for r in range(2, 64):
            m = r.bit_length()
            p = Params(r=r, m=m, ell=m)
            d = derive(p)
            assert d.L * r + d.beta == p.two_n
            assert 0 <= d.beta < r
            assert d.B_max_floor == math.floor(Fraction(p.two_n - r, 2 * r))


class TestPeak:
    @given(st.integers(2, 400), st.data())
    def test_peak_argument_range(self, r, data):
        m = r.bit_length()
        ell = data.draw(st.integers(1, 8))
        z = data.draw(st.integers(0, r - 1))
        p = Params(r=r, m=m, ell=ell)
        pk = peak(z, p)
        assert -r < 2 * pk.alpha0 <= r
        assert pk.alpha0 == r * pk.j0 - z * p.two_n
        assert pk.j0 == optimal_frequency(z, p)

    def test_argument_consistency(self):
        # alpha0 is the argument r j0 mod 2**n of the peak frequency, and
        # already its signed residue: -r/2 < alpha0 <= r/2 <= 2**(n-1)
        p = Params(r=6, m=4, ell=3)
        for z in range(6):
            pk = peak(z, p)
            assert (p.r * (pk.j0 % p.two_n) - pk.alpha0) % p.two_n == 0
            assert -p.two_n <= 2 * pk.alpha0 < p.two_n

    def test_exact_multiple(self):
        # 2**n z / r = 32 / 2 = 16 lands exactly on a frequency
        p = Params(r=2, m=2, ell=3)
        assert peak(1, p).j0 == 16
        assert peak(1, p).alpha0 == 0


class TestRng:
    def test_determinism(self):
        a = Rng(123)
        b = Rng(123)
        assert [a.randrange(1000) for _ in range(20)] == [
            b.randrange(1000) for _ in range(20)
        ]

    def test_split_determinism_and_isolation(self):
        def make():
            root = Rng(7)
            return root.split(), root.split()

        a1, a2 = make()
        b1, b2 = make()
        assert [a1.getrandbits(32) for _ in range(5)] == [
            b1.getrandbits(32) for _ in range(5)
        ]
        seq_a2 = [a2.getrandbits(32) for _ in range(5)]
        # consuming from one child leaves the sibling untouched
        [b1.getrandbits(8) for _ in range(3)]
        assert seq_a2 == [b2.getrandbits(32) for _ in range(5)]
        # first and second children are distinct streams
        assert seq_a2 != [Rng(7).split().getrandbits(32) for _ in range(5)]


def order_by_powers(g: SimulatedGroup, a: int) -> int:
    """The least k >= 1 with a**k the identity, found by trying each k."""
    return next(k for k in range(1, g.r + 1) if g.is_identity(g.pow(a, k)))


class TestSimulatedGroup:
    def test_generator_order(self):
        for r in (1, 2, 12, 97):
            g = SimulatedGroup(r)
            assert order_by_powers(g, g.generator()) == r

    @given(st.integers(1, 10 ** 6), st.integers(0, 10 ** 6), st.integers(-50, 500))
    def test_pow_is_exponent_arithmetic(self, r, a, k):
        g = SimulatedGroup(r)
        x = a % r
        assert g.pow(x, k) == (x * k) % r

    def test_element_order_divides_r(self):
        g = SimulatedGroup(60)
        for a in range(60):
            assert order_by_powers(g, g.element(a)) == 60 // math.gcd(a, 60)


class TestModNGroup:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModNGroup(15 * 2, 4)
        with pytest.raises(ValueError):
            ModNGroup(3, 2)
        with pytest.raises(ValueError):
            ModNGroup(15, 0)

    def test_pow_matches_builtin(self):
        g = ModNGroup(91, 12)
        assert g.pow(2, 10) == pow(2, 10, 91)
        assert g.pow(2, -1) == pow(2, -1, 91)
        assert g.is_identity(g.pow(2, 0))

    def test_reduced_pow_on_every_unit(self):
        # k mod lambda(N) gives the unreduced power for every unit a of
        # every odd N in [5, 2**9], on both sides of 0 and of lambda
        big = (1 << 199) + 12345
        for N in range(5, (1 << 9) + 1, 2):
            lam = carmichael_value(factorize(N))
            group = ModNGroup(N, lam)
            ks = (*range(-3, 4), lam - 1, lam, lam + 1, big, -big)
            for a in range(1, N):
                if math.gcd(a, N) == 1:
                    for k in ks:
                        assert group.pow(a, k) == pow(a, k, N), (N, a, k)

    def test_order_against_bruteforce(self):
        g = ModNGroup(91, 12)  # 7 * 13
        x = 2
        order = 1
        y = x
        while y != 1:
            y = (y * x) % 91
            order += 1
        assert g.is_identity(g.pow(x, order))
        for q in (2, 3):
            if order % q == 0:
                assert not g.is_identity(g.pow(x, order // q))

    def test_random_element_is_unit(self):
        g = ModNGroup(105, 12)
        rng = Rng(3)
        for _ in range(50):
            x = g.random_element(rng)
            assert 2 <= x < 105
            assert math.gcd(x, 105) == 1
