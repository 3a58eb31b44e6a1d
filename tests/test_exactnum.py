"""Exact arithmetic layer: rationals, quadratic surds, perfect powers."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overlapkit import exactnum
from overlapkit.errors import InvalidArgument, NonPositiveDiscriminant
from overlapkit.exactnum import (
    CommonBase,
    QuadSurd,
    RationalRoots,
    format_rational,
    integer_root,
    is_perfect_power,
    is_square,
    multiplicative_dependence,
    parse_rational,
    quad_roots,
    surd_to_float,
)


class TestRationalIO:
    def test_round_trip(self):
        for text in ["1/4", "3", "-7/2", "0"]:
            assert format_rational(parse_rational(text)) == text

    def test_whitespace_and_sign(self):
        assert parse_rational(" 3 / 4 ") == Fraction(3, 4)
        assert parse_rational("-1/3") == Fraction(-1, 3)

    def test_rejects_floats_and_garbage(self):
        for text in ["0.25", "1/0", "", "one", "1/2/3"]:
            with pytest.raises(InvalidArgument):
                parse_rational(text)


class TestQuadSurd:
    def test_radicand_normalized_to_squarefree(self):
        x = QuadSurd(0, 1, 8)
        assert (x.a, x.b, x.D) == (Fraction(0), Fraction(2), 2)

    def test_rejects_square_and_nonpositive_radicand(self):
        with pytest.raises(InvalidArgument):
            QuadSurd(1, 1, 9)
        with pytest.raises(InvalidArgument):
            QuadSurd(1, 1, 0)
        with pytest.raises(InvalidArgument):
            QuadSurd(1, 1, -5)

    def test_rational_surds_compare_across_fields(self):
        assert QuadSurd(1, 0, 5) == QuadSurd(1, 0, 2)
        assert QuadSurd(1, 0, 5) == 1
        assert QuadSurd(Fraction(1, 2), 0, 3) == Fraction(1, 2)
        assert hash(QuadSurd(1, 0, 5)) == hash(1)

    def test_equality_is_by_value(self):
        # P*Q has no prime factor below 10^20, so the split keeps R^2 in R^2*P*Q
        P, Q = sympy.nextprime(10**20), sympy.nextprime(2 * 10**20)
        R = sympy.nextprime(10**6)
        kept = QuadSurd(1, 1, R * R * P * Q)
        assert kept.D == R * R * P * Q
        for x, y in [
            (QuadSurd(0, 1, 4 * P * Q), QuadSurd(0, 2, P * Q)),
            (kept, QuadSurd(1, R, P * Q)),
            (QuadSurd(0, -2, 12), QuadSurd(0, -4, 3)),
        ]:
            assert x == y and hash(x) == hash(y)
        assert QuadSurd(0, 1, 8) != QuadSurd(0, -1, 8)
        assert QuadSurd(0, 1, 8) != QuadSurd(0, 1, 2)
        assert QuadSurd(1, 1, 2) != QuadSurd(0, 1, 2)


class TestIsSquare:
    def test_squares_and_their_neighbours(self):
        for r in [0, 1, 2, 3, 10**6 + 3, 2**64 + 1, 3**400]:
            assert is_square(r * r)
            if r > 1:
                assert not is_square(r * r - 1) and not is_square(r * r + 1)

    def test_negatives_are_not_squares(self):
        for n in (-1, -4, -(2**100)):
            assert not is_square(n)


class TestQuadRoots:
    def test_golden_pair(self):
        beta, conj = quad_roots(3, 1)
        assert beta == QuadSurd(Fraction(3, 2), Fraction(1, 2), 5)
        assert conj == QuadSurd(Fraction(3, 2), Fraction(-1, 2), 5)
        assert beta.b > 0 > conj.b

    def test_roots_satisfy_quadratic_exactly(self):
        for n in range(3, 15):
            for m in range(1, n - 1):
                if is_square(n * n - 4 * m):
                    continue
                for root in quad_roots(n, m):
                    a, b, D = root.a, root.b, root.D
                    assert a * a + b * b * D - n * a + m == 0
                    assert 2 * a * b - n * b == 0

    def test_rational_case(self):
        roots = quad_roots(5, 4)
        assert isinstance(roots, RationalRoots)
        assert roots == (4, 1)

    def test_nonpositive_discriminant(self):
        with pytest.raises(NonPositiveDiscriminant):
            quad_roots(2, 1)
        with pytest.raises(NonPositiveDiscriminant):
            quad_roots(1, 1)
        with pytest.raises(InvalidArgument):
            quad_roots(0, 1)

    def test_in_class_discriminant_never_square(self):
        # so the surd branch is the only one reachable for 1 <= m <= n-2
        for n in range(3, 60):
            for m in range(1, n - 1):
                assert not is_square(n * n - 4 * m)


class TestSurdToFloat:
    def test_matches_reference_at_high_precision(self):
        x = QuadSurd(Fraction(3, 2), Fraction(1, 2), 5)
        got = surd_to_float(x, 256)
        with mpmath.workprec(320):
            ref = (3 + mpmath.sqrt(5)) / 2
            err = abs(mpmath.mpf(got) - ref)
        assert err < mpmath.mpf(2) ** -250

    def test_precision_floor(self):
        with pytest.raises(InvalidArgument):
            surd_to_float(QuadSurd(0, 1, 2), 32)

    def test_large_components_keep_relative_accuracy(self):
        x = QuadSurd(Fraction(10**30), Fraction(10**25), 7)
        got = surd_to_float(x, 128)
        with mpmath.workprec(260):
            ref = mpmath.mpf(10**30) + mpmath.mpf(10**25) * mpmath.sqrt(7)
            assert abs(mpmath.mpf(got) - ref) / ref < mpmath.mpf(2) ** -120


class TestIntegerRoot:
    def test_bracketing_property(self):
        rng = random.Random(11)
        for _ in range(300):
            m = rng.randrange(0, 10**24)
            k = rng.randint(1, 80)
            r = integer_root(m, k)
            assert r**k <= m
            assert (r + 1) ** k > m

    def test_exact_powers_and_edges(self):
        assert integer_root(0, 5) == 0
        assert integer_root(1, 99) == 1
        assert integer_root(7**13, 13) == 7
        assert integer_root(2**200 - 1, 200) == 1
        assert integer_root(2**200, 200) == 2
        with pytest.raises(InvalidArgument):
            integer_root(-1, 2)
        with pytest.raises(InvalidArgument):
            integer_root(4, 0)


def brute_perfect_powers(limit: int) -> dict[int, tuple[int, int]]:
    """All perfect powers <= limit with the smallest-base witness."""
    table: dict[int, tuple[int, int]] = {1: (1, 2)}
    for a in range(2, math.isqrt(limit) + 1):
        v = a * a
        e = 2
        while v <= limit:
            if v not in table or a < table[v][0]:
                table[v] = (a, e)
            v *= a
            e += 1
    return {v: (a, e) for v, (a, e) in table.items()}


class TestPerfectPower:
    def test_against_enumeration(self):
        limit = 20000
        table = brute_perfect_powers(limit)
        for m in range(1, limit + 1):
            assert is_perfect_power(m) == table.get(m)

    def test_canonical_witness_examples(self):
        assert is_perfect_power(1) == (1, 2)
        assert is_perfect_power(64) == (2, 6)
        assert is_perfect_power(36) == (6, 2)
        assert is_perfect_power(6**10) == (6, 10)
        assert is_perfect_power(2**128) == (2, 128)
        assert is_perfect_power(2) is None
        assert is_perfect_power(2 * 3**4) is None
        with pytest.raises(InvalidArgument):
            is_perfect_power(0)


def _sympy_perfect_power(m: int):
    """sympy's witness in this package's convention (1 reports (1, 2))."""
    return (1, 2) if m == 1 else sympy.perfect_power(m) or None


@st.composite
def _powers(draw):
    """b^e <= 10^40 with b >= 2 and e >= 2."""
    e = draw(st.integers(2, 132))
    b = draw(st.integers(2, max(2, integer_root(10**40, e))))
    return b**e


@settings(max_examples=300, deadline=None)
@given(_powers() | _powers().map(lambda v: v + 1) | st.integers(1, 10**40))
@example(2**132)
@example(3**30 * 5**30)
@example(10**40 - 1)
def test_perfect_power_matches_sympy(m):
    assert is_perfect_power(m) == _sympy_perfect_power(m)


class TestIntegerFactoring:
    def test_factor_semiprime_beyond_trial_division(self):
        d = 1000003 * 1000033
        assert exactnum._squarefree_split(d) == (1, d)


def _split_oracle(d: int) -> tuple[int, int]:
    """(s, f) with d = s^2 * f and f squarefree, from sympy's factorization."""
    s = f = 1
    for p, e in sympy.factorint(d).items():
        s *= p ** (e // 2)
        f *= p ** (e % 2)
    return s, f


_near_trial_limit = st.integers(10**6 - 2000, 10**6 + 2000).map(sympy.nextprime)


@st.composite
def radicands(draw):
    """d < 10^18: random, p^2*q or p^3 with p a prime near 10^6, or n^2-4m."""
    kind = draw(st.sampled_from(["random", "square", "cube", "discriminant"]))
    if kind == "random":
        return draw(st.integers(1, 10**18 - 1))
    p = draw(_near_trial_limit)
    if kind == "square":
        return p * p * draw(st.integers(1, (10**18 - 1) // (p * p)))
    if kind == "cube":
        return p**3 if p**3 < 10**18 else p * p
    n = draw(st.integers(3, 10**9 - 1))
    return n * n - 4 * draw(st.integers(1, n - 2))


@settings(max_examples=300, deadline=None)
@given(radicands())
@example(999983**3)
@example(2**59)
@example(1)
def test_squarefree_split_matches_the_factoring_oracle(d):
    assert exactnum._squarefree_split(d) == _split_oracle(d)


_PRIMES_BELOW_TRIAL_LIMIT = tuple(sympy.primerange(2, 10**6))


@settings(max_examples=20, deadline=None)
@given(
    st.integers(10**18, 10**40)
    | st.tuples(_near_trial_limit, st.integers(10**12, 10**30)).map(lambda t: t[0] ** 2 * t[1])
    | st.integers(2, 10**6).map(lambda p: p * p * (10**40 + 3))
)
@example(1000003**3)
@example(4 * sympy.nextprime(10**20) * sympy.nextprime(2 * 10**20))
def test_squarefree_split_above_the_exact_range(d):
    s, f = exactnum._squarefree_split(d)
    assert s * s * f == d
    assert all(f % (p * p) for p in _PRIMES_BELOW_TRIAL_LIMIT)


class TestMultiplicativeStructure:
    def test_dependence_golden_pairs(self):
        assert multiplicative_dependence(Fraction(1, 4), Fraction(1, 8)) == CommonBase(
            Fraction(1, 2), 2, 3
        )
        assert multiplicative_dependence(Fraction(1, 4), Fraction(1, 2)) == CommonBase(
            Fraction(1, 2), 2, 1
        )
        assert multiplicative_dependence(Fraction(2, 3), Fraction(4, 9)) == CommonBase(
            Fraction(2, 3), 1, 2
        )

    def test_independent_pairs(self):
        assert multiplicative_dependence(Fraction(1, 2), Fraction(1, 3)) is None
        assert multiplicative_dependence(Fraction(1, 6), Fraction(1, 12)) is None
        assert multiplicative_dependence(Fraction(1, 2), Fraction(1, 6)) is None

    def test_dependence_reconstructs_inputs(self):
        rng = random.Random(17)
        for _ in range(100):
            r = Fraction(rng.randint(1, 9), rng.randint(10, 30))
            if r >= 1:
                continue
            i, j = rng.randint(1, 4), rng.randint(1, 4)
            dep = multiplicative_dependence(r**i, r**j)
            assert dep is not None
            base, ex, ey = dep
            assert base**ex == r**i
            assert base**ey == r**j
            assert math.gcd(ex, ey) == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgument):
            multiplicative_dependence(Fraction(3, 2), Fraction(1, 2))
        with pytest.raises(InvalidArgument):
            multiplicative_dependence(Fraction(1, 2), Fraction(0))


def _dependence_oracle(x: Fraction, y: Fraction):
    """CommonBase from sympy's prime exponent vectors: x and y are powers of
    one base iff their vectors are parallel; the base takes the gcd of the
    two contents times their shared primitive direction."""
    vectors = []
    for v in (x, y):
        vec = dict(sympy.factorint(v.numerator))
        for p, e in sympy.factorint(v.denominator).items():
            vec[p] = vec.get(p, 0) - e
        content = math.gcd(*vec.values())
        vectors.append((content, {p: e // content for p, e in vec.items()}))
    (cx, ux), (cy, uy) = vectors
    if ux != uy:
        return None
    g = math.gcd(cx, cy)
    base = Fraction(1)
    for p, e in ux.items():
        base *= Fraction(p) ** (e * g)
    return CommonBase(base, cx // g, cy // g)


_P = sympy.nextprime(2**61 + 12345)
_Q = sympy.nextprime(2**62 + 999)
# the semiprime is built from these primes; telling sympy spares its ECM 5 s
sympy.factor_cache[_P * _Q] = _P
_bases = st.builds(Fraction, st.integers(1, 30), st.integers(2, 40)).filter(lambda r: r < 1)


@st.composite
def dependence_pairs(draw):
    """Powers of one base, products of two bases, or two independent draws."""
    kind = draw(st.sampled_from(["powers", "products", "independent"]))
    r, s = draw(_bases), draw(_bases)
    i, j = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if kind == "powers":
        return r**i, r**j
    if kind == "products":
        return r**i * s**j, r**j * s**i
    return r**i, s**j


@settings(max_examples=400, deadline=None)
@given(dependence_pairs())
@example((Fraction(1, 4), Fraction(1, _P * _Q)))
@example((Fraction(1, 2**4000), Fraction(1, 2**6)))
@example((Fraction(243, 1024), Fraction(3, 8)))  # (8/3)^2 divides 1024/243 but exceeds it
def test_dependence_matches_the_factoring_oracle(pair):
    x, y = pair
    assert multiplicative_dependence(x, y) == _dependence_oracle(x, y)
