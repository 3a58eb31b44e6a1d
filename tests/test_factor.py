"""Factorization over the integers, cross-checked against sympy (tests only)."""

from __future__ import annotations

import importlib
import random
import time
from math import isqrt

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from overlapkit.errors import ConsistencyError, InvalidArgument, ResourceLimitError, WorkBudget
from overlapkit.intpoly import IntPoly, factor, family_poly, is_irreducible, parse_poly
from overlapkit.intpoly.poly import _convolve, _power

# the package re-exports the function factor under the module's name
factor_module = importlib.import_module("overlapkit.intpoly.factor")

X = sympy.Symbol("x")
PROPERTY = settings(max_examples=60, deadline=None)


def free(units: int) -> None:
    """A charge that never runs out, for calling the factorizer's stages alone."""


def recorded_budgets(monkeypatch) -> list[WorkBudget]:
    """The work budget of each factor call made after this one, in order."""
    budgets = []

    class Recorded(WorkBudget):
        def __init__(self, *args):
            super().__init__(*args)
            budgets.append(self)

    monkeypatch.setattr(factor_module, "WorkBudget", Recorded)
    return budgets


def to_sympy(p: IntPoly):
    return sympy.Poly(list(reversed(p.coeffs)), X, domain="ZZ")


def sympy_factorization(p: IntPoly) -> tuple[int, int, set[tuple[tuple[int, ...], int]]]:
    """(unit, content, factor multiset) in this package's normal form."""
    coeff, parts = to_sympy(p).factor_list()
    unit = 1 if coeff > 0 else -1
    bag: set[tuple[tuple[int, ...], int]] = set()
    for fac, mult in parts:
        q = IntPoly(list(reversed([int(c) for c in fac.all_coeffs()])))
        if q.lc < 0:
            unit *= (-1) ** mult
        bag.add((q.monic_positive().coeffs, mult))
    return unit, abs(int(coeff)), bag


def rand_poly(rng: random.Random, max_degree: int, bound: int = 6) -> IntPoly:
    deg = rng.randint(1, max_degree)
    coeffs = [rng.randint(-bound, bound) for _ in range(deg)] + [rng.randint(1, bound)]
    return IntPoly(coeffs)


class TestGoldenFactorizations:
    def test_quartic_splits_into_golden_quadratics(self):
        result = factor(family_poly(3, 1, 2))
        assert result.unit == 1
        assert result.content == 1
        assert result.factors == (
            (IntPoly([-1, -1, 1]), 1),
            (IntPoly([-1, 1, 1]), 1),
        )

    def test_base_quadratic_is_irreducible(self):
        assert is_irreducible(family_poly(3, 1, 1))
        assert factor(family_poly(3, 1, 1)).is_irreducible_shape

    def test_sixth_roots_of_unity(self):
        result = factor(parse_poly("x^6-1"))
        assert [ (f.to_string(), m) for f, m in result.factors ] == [
            ("x-1", 1),
            ("x+1", 1),
            ("x^2-x+1", 1),
            ("x^2+x+1", 1),
        ]

    def test_unit_content_and_multiplicity(self):
        p = IntPoly([-6]) * IntPoly([1, 1]) ** 3 * IntPoly([-2, 1]) ** 2
        result = factor(p)
        assert result.unit == -1
        assert result.content == 6
        assert result.factors == ((IntPoly([-2, 1]), 2), (IntPoly([1, 1]), 3))
        assert result.product() == p

    def test_trailing_zero_roots(self):
        result = factor(IntPoly([0, 0, 0, 1, 1]))  # x^3 (x + 1)
        assert (IntPoly([0, 1]), 3) in result.factors
        assert (IntPoly([1, 1]), 1) in result.factors

    def test_constant_input(self):
        result = factor(IntPoly([-6]))
        assert (result.unit, result.content, result.factors) == (-1, 6, ())
        assert result.product() == IntPoly([-6])
        assert not result.is_irreducible_shape

    def test_zero_rejected(self):
        with pytest.raises(InvalidArgument):
            factor(IntPoly())
        with pytest.raises(InvalidArgument):
            is_irreducible(IntPoly([5]))


class TestHardIrreducibles:
    def test_reducible_mod_every_prime(self):
        # x^4+1 and the degree-4 Swinnerton-Dyer polynomial split modulo
        # every prime: x^4+1 goes through recombination, and the root test
        # decides x^4-10*x^2+1, as 5+2*sqrt(6) is no square in Q(sqrt(6))
        assert is_irreducible(parse_poly("x^4+1"))
        assert is_irreducible(parse_poly("x^4-10*x^2+1"))

    def test_sophie_germain_identity(self):
        result = factor(parse_poly("x^4+4"))
        assert [f.to_string() for f, _ in result.factors] == ["x^2-2*x+2", "x^2+2*x+2"]

    def test_large_coefficients(self):
        a, b = 46341, 46340
        p = IntPoly([-a, 1]) * IntPoly([b, 1])
        result = factor(p)
        assert result.factors == ((IntPoly([-a, 1]), 1), (IntPoly([b, 1]), 1))

    def test_quartic_family_reducibility(self):
        # x^4 - n*x^2 + 1 splits into quadratics exactly when n-2 or n+2 is
        # a perfect square
        for n, reducible in [(3, True), (4, False), (5, False), (6, True), (7, True), (8, False), (11, True)]:
            got = not is_irreducible(family_poly(n, 1, 2))
            assert got == reducible, n


class TestAgainstSympy:
    def test_random_products_small(self):
        rng = random.Random(31)
        for _ in range(60):
            p = rand_poly(rng, 4) * rand_poly(rng, 4)
            result = factor(p)
            assert result.product() == p
            unit, content, bag = sympy_factorization(p)
            assert result.unit == unit
            assert result.content == content
            assert {(f.coeffs, m) for f, m in result.factors} == bag

    def test_random_irreducibility_agrees(self):
        # compare on primitive parts: sympy calls 4x-4 irreducible, while
        # here content counts as a proper factor of an integer polynomial
        rng = random.Random(32)
        for _ in range(80):
            p = rand_poly(rng, 6).primitive_part()
            if p.degree < 1:
                continue
            assert is_irreducible(p) == to_sympy(p).is_irreducible

    def test_random_powers(self):
        rng = random.Random(33)
        for _ in range(20):
            base = rand_poly(rng, 3)
            if base.degree < 1:
                continue
            p = base ** rng.randint(2, 3)
            result = factor(p)
            assert result.product() == p
            _, _, bag = sympy_factorization(p)
            assert {(f.coeffs, m) for f, m in result.factors} == bag


nonconstant = st.lists(st.integers(-9, 9), min_size=2, max_size=6).map(IntPoly).filter(
    lambda p: p.degree >= 1
)


@PROPERTY
@given(nonconstant, nonconstant, st.integers(-3, 3).filter(bool))
# x^4+1 is irreducible but splits modulo every prime, so no single lift divides
@example(parse_poly("x^4+1"), parse_poly("x^4+1"), 1)
def test_factor_product_reconstructs_the_input(a, b, scale):
    p = a * b * scale
    result = factor(p)
    assert result.product() == p
    assert all(f.lc > 0 and f.content() == 1 for f, _ in result.factors)


@PROPERTY
@given(nonconstant)
@example(parse_poly("x^4-10*x^2+1"))
def test_irreducibility_agrees_with_sympy(p):
    p = p.primitive_part()
    assert is_irreducible(p) == to_sympy(p).is_irreducible


def _is_good_prime(p: IntPoly, q: int) -> bool:
    """q does not divide lc(p) and p mod q is squarefree, by sympy's squarefree
    decomposition (its is_sqf calls x^5+1 squarefree mod 5)."""
    return p.lc % q != 0 and all(
        mult == 1 for _, mult in sympy.Poly(to_sympy(p).as_expr(), X, modulus=q).sqf_list()[1]
    )


def _smallest_good_prime(p: IntPoly) -> int:
    q = 5
    while not _is_good_prime(p, q):
        q = sympy.nextprime(q)
    return q


def _modular_factor_count(p: IntPoly, q: int) -> int:
    return len(sympy.Poly(to_sympy(p).as_expr(), X, modulus=q).factor_list()[1])


@PROPERTY
@given(nonconstant.filter(lambda p: to_sympy(p).is_sqf))
# x(x-1)...(x-11) repeats a root mod 5, 7 and 11; 5005 = 5*7*11*13
@example(parse_poly("x*(x-1)*(x-2)*(x-3)*(x-4)*(x-5)*(x-6)*(x-7)*(x-8)*(x-9)*(x-10)*(x-11)"))
@example(parse_poly("5005*x+1"))
@example(family_poly(7, 4, 6))
@example(parse_poly("x^5+1"))  # its derivative vanishes mod 5: (x+1)^5
def test_chosen_prime_is_good_and_splits_least(p):
    choice = factor_module._choose_prime(p, free)
    assert choice.tried[0] == _smallest_good_prime(p)
    assert 1 <= len(choice.tried) <= factor_module.PRIME_TRIALS
    assert list(choice.tried) == sorted(set(choice.tried))
    assert all(sympy.isprime(q) and _is_good_prime(p, q) for q in choice.tried)
    counts = {q: _modular_factor_count(p, q) for q in choice.tried}
    assert choice.prime in counts
    assert counts[choice.prime] == choice.count == min(counts.values())


def _assert_matches_sympy(p: IntPoly) -> None:
    result = factor(p)
    assert result.product() == p
    unit, content, bag = sympy_factorization(p)
    assert (result.unit, result.content) == (unit, content)
    assert {(f.coeffs, m) for f, m in result.factors} == bag


class TestPrimeChoiceAndDegreeSets:
    def test_x105_minus_1_is_the_cyclotomic_product(self):
        # the first good prime gives 30 modular factors; p = 17 gives 14
        result = factor(parse_poly("x^105-1"))
        cyclotomic = [sympy.Poly(sympy.cyclotomic_poly(d, X)) for d in sympy.divisors(105)]
        expected = {IntPoly(reversed([int(c) for c in phi.all_coeffs()])) for phi in cyclotomic}
        assert len(expected) == 8
        assert {f for f, _ in result.factors} == expected
        assert all(mult == 1 for _, mult in result.factors)
        _assert_matches_sympy(parse_poly("x^105-1"))

    def test_family_cases_against_sympy(self):
        _assert_matches_sympy(parse_poly("x^60-3*x^30+1"))
        _assert_matches_sympy(family_poly(12, 1, 20))

    @pytest.mark.parametrize("text", ["x^4+1", "x^4+4*x^3-4*x^2-16*x-8"])
    def test_irreducible_modulo_no_prime_goes_through_recombination(self, monkeypatch, text):
        # x^4+1 and x^4-10*x^2+1 at x+1 split modulo every prime into linear
        # or quadratic factors, so the degree sets always allow 2 and cannot
        # prove them; the root test takes neither (a negative discriminant,
        # and exponent gcd 1), so both are lifted and recombined
        f = parse_poly(text)
        choice = factor_module._choose_prime(f, free)
        assert choice.degrees >> 2 & 1 and choice.count >= 2
        lift, lifted = factor_module._hensel_lift_tree, []

        def recorded(p, g, modular, target):
            lifted.append(len(modular))
            return lift(p, g, modular, target)

        monkeypatch.setattr(factor_module, "_hensel_lift_tree", recorded)
        assert is_irreducible(f)
        assert lifted and lifted[0] >= 2

    def test_degree_sets_prove_irreducibility_without_lifting(self, monkeypatch):
        # x^20+2*x^2+2 (Eisenstein at 2, exponent gcd 2, so lifted whole by
        # the Capelli loop) has modular factor degrees 1,1,2,6,10 mod 5, 1,1,2,16 mod
        # 7, 1,1,6,6,6 mod 11 and 4,6,10 mod 13: only 0 and 20 are subset
        # sums of all four
        f = parse_poly("x^20+2*x^2+2")
        assert factor_module._choose_prime(f, free).tried == (5, 7, 11, 13)

        def no_lift(*args):
            raise AssertionError("Hensel lifting ran on a proven irreducible")

        monkeypatch.setattr(factor_module, "_hensel_lift_tree", no_lift)
        assert is_irreducible(f)


small = st.lists(st.integers(-5, 5), min_size=2, max_size=4).map(IntPoly).filter(
    lambda p: p.degree >= 1
)


@PROPERTY
@given(st.lists(small, min_size=1, max_size=2), st.sampled_from((6, 8, 9, 10, 12, 15)))
# x+4, root -4 = -4*1^4: x^8+4 splits only through g(x^4)
@example([parse_poly("x+4")], 8)
# x^2-7*x+1, root phi^4: g(x^2) splits, and each h(x^6) is descended in turn
@example([parse_poly("x^2-7*x+1")], 12)
# cyclotomic: x-1 at every k, and a repeated factor
@example([parse_poly("x-1"), parse_poly("x-1")], 15)
def test_factor_of_g_at_x_to_the_k_agrees_with_sympy(gs, k):
    g = IntPoly.one()
    for h in gs:
        g = g * h
    _assert_matches_sympy(g.inflate(k))


class TestCapelliDescent:
    @pytest.mark.parametrize(
        "text, factors",
        [
            ("x^8+4", ["x^4-2*x^2+2", "x^4+2*x^2+2"]),
            ("x^12+4", ["x^6-2*x^3+2", "x^6+2*x^3+2"]),
        ],
    )
    def test_minus_four_times_a_fourth_power_splits_through_g_of_x4(self, text, factors):
        # g = x+4 has the root -4 = -4*1^4, no square and no cube: x^2+4 and
        # x^3+4 are irreducible, and only x^4+4 = (x^2-2x+2)(x^2+2x+2) splits
        f = parse_poly(text)
        assert [h.to_string() for h, _ in factor(f).factors] == factors
        _assert_matches_sympy(f)

    @pytest.mark.parametrize(
        "n, m, k", [(8, 1, 20), (15, 1, 20), (10, 4, 12), (15, 4, 12), (19, 4, 12), (20, 9, 12)]
    )
    def test_irreducible_family_members_never_lift_at_degree_2k(self, monkeypatch, n, m, k):
        # every prime keeps degree k a subset sum for these, so without the
        # Capelli loop they were lifted and recombined at degree 2k
        lift, lifted = factor_module._hensel_lift_tree, []

        def recorded(p, f, modular, target):
            lifted.append(len(f) - 1)
            return lift(p, f, modular, target)

        monkeypatch.setattr(factor_module, "_hensel_lift_tree", recorded)
        f = family_poly(n, m, k)
        assert factor(f).factors == ((f, 1),)
        assert all(degree < 2 * k for degree in lifted)


def power_sum(trace: int, norm: int, k: int) -> int:
    """gamma^k + gamma'^k for the roots of x^2 - trace*x + norm, by the plain
    recurrence t_j = trace*t_(j-1) - norm*t_(j-2)."""
    t, t_next = 2, trace
    for _ in range(k):
        t, t_next = t_next, trace * t_next - norm * t
    return t


def trinomial(b: int, c: int, k: int) -> IntPoly:
    """x^(2k) + b*x^k + c."""
    return IntPoly([c] + [0] * (k - 1) + [b] + [0] * (k - 1) + [1])


prime_k = st.sampled_from((2, 3, 5, 7, 11, 13))
# b = -t_k(T, N) and c = N^k make T, N a root's k-th root: the split cases
from_roots = st.tuples(st.integers(-12, 12), st.integers(-5, 5).filter(bool), prime_k).map(
    lambda tnk: (-power_sum(*tnk), tnk[1] ** tnk[2], tnk[2])
)
from_coefficients = st.tuples(
    st.integers(-400, 400), st.integers(-400, 400).filter(bool), prime_k
)


@PROPERTY
@given(st.one_of(from_roots, from_coefficients))
# gamma = phi^2 (trace 3, norm 1): x^4-7*x^2+1, a square
@example((-7, 1, 2))
# norm -1 at k = 2: phi^2 = beta for x^4-3*x^2+1
@example((-3, 1, 2))
# a cube of trace 2, norm -2 (gamma = 1+sqrt(3)): x^6-20*x^3-8
@example((-20, -8, 3))
# norm (-2)^5 and roots of both signs: x^10+3*x^5-32, irreducible
@example((3, -32, 5))
def test_prime_k_trinomials_agree_with_sympy(bck):
    b, c, k = bck
    f = trinomial(b, c, k)
    _assert_matches_sympy(f)
    d = b * b - 4 * c
    if d > 0 and isqrt(d) ** 2 != d:
        root = factor_module._pth_root(b, c, k, isqrt(d))
        if root is not None:
            p, trace, norm = root
            assert (p, norm**k, power_sum(trace, norm, k)) == (k, c, -b)
        # by Capelli, a k-th root in Q(sqrt(d)) is exactly a split
        assert (root is not None) == (not is_irreducible(f))


def forbid_primes(monkeypatch) -> None:
    """Fail when a factor call after this one tries a prime or lifts."""

    def unreachable(*args):
        raise AssertionError("a prime was tried for a decided trinomial")

    monkeypatch.setattr(factor_module, "_choose_prime", unreachable)
    monkeypatch.setattr(factor_module, "_hensel_lift_tree", unreachable)


def chosen_degrees(monkeypatch) -> list[int]:
    """The degree of each polynomial _choose_prime sees after this one, in order."""
    chosen = []
    choose_prime = factor_module._choose_prime

    def recorded(f, charge):
        chosen.append(f.degree)
        return choose_prime(f, charge)

    monkeypatch.setattr(factor_module, "_choose_prime", recorded)
    return chosen


class TestPrimeRootTest:
    @pytest.mark.parametrize(
        "n, m, k",
        [
            (7, 1, 11),
            (3, 1, 21),
            (16, 9, 11),
            (20, 9, 7),
            (8, 1, 20),
            (15, 4, 12),
            (17, 4, 4),
            (3, 1, 9),
            (7, 1, 15),
            (3, 1, 25),
        ],
    )
    def test_irreducible_members_never_try_a_prime(self, monkeypatch, n, m, k):
        # no root of x^2-n*x+m is a p-th power in its field for a prime p
        # dividing k, so the root tests decide f at every k, prime or
        # composite, and it neither tries a prime nor lifts. At k = 4, 12 and
        # 20 the roots are positive, so no -4*delta^4, and the 4 clause agrees
        forbid_primes(monkeypatch)
        lifts = []
        monkeypatch.setattr(factor_module, "_zassenhaus", lambda *args: lifts.append(args))
        f = family_poly(n, m, k)
        assert factor(f).factors == ((f, 1),)
        assert lifts == []

    def test_a_split_takes_the_generic_path(self, monkeypatch):
        # 2+sqrt(3) cubed is 26+15*sqrt(3), a root of x^2-52*x+1
        chosen = chosen_degrees(monkeypatch)
        f = family_poly(52, 1, 3)
        factors = [g.to_string() for g, _ in factor(f).factors]
        assert factors == ["x^2-4*x+1", "x^4+4*x^3+15*x^2+4*x+1"]
        assert chosen == [6]

    @pytest.mark.parametrize(
        "n, m, k", [(3, 1, 6), (3, 1, 8), (7, 1, 12), (18, 1, 9), (18, 1, 12), (14, 1, 16)]
    )
    def test_members_that_split_below_k_run_each_root_test_once(self, monkeypatch, n, m, k):
        # each splits at a t < k: the g(x^t) the root test found split is
        # lifted as it is, never tested again, and each h(x^(k/t)) gets its
        # own coefficients' tests
        pth_root, seen = factor_module._pth_root, []

        def recorded(b, c, p, s):
            seen.append((b, c, p))
            return pth_root(b, c, p, s)

        monkeypatch.setattr(factor_module, "_pth_root", recorded)
        f = family_poly(n, m, k)
        assert len(factor(f).factors) > 1
        assert seen and len(set(seen)) == len(seen)

    @pytest.mark.parametrize(
        "text",
        [
            # roots positive: no -4*delta^4
            "x^8-17*x^4+4",
            # roots negative, -4a = (sqrt(5)-1)^2 has square roots of norm -4
            "x^8+3*x^4+1",
            # roots negative, -4a = (3+sqrt(5))^2, and 3+sqrt(5) is no square
            "x^8+7*x^4+1",
            # c < 0: roots of both signs
            "x^8-3*x^4-5",
        ],
    )
    def test_irreducible_k4_kernels_never_try_a_prime(self, monkeypatch, text):
        f = parse_poly(text)
        _assert_matches_sympy(f)
        forbid_primes(monkeypatch)
        assert factor(f).factors == ((f, 1),)

    def test_minus_four_times_a_fourth_power_takes_the_generic_path(self, monkeypatch):
        # delta = 1+sqrt(2): a = -4*delta^4 = -68-48*sqrt(2), a root of
        # x^2+136*x+16, and no square, so x^4-a splits only as -4*delta^4
        chosen = chosen_degrees(monkeypatch)
        f = parse_poly("x^8+136*x^4+16")
        factors = [g.to_string() for g, _ in factor(f).factors]
        assert factors == ["x^4+4*x^3+8*x^2-8*x+4", "x^4-4*x^3+8*x^2+8*x+4"]
        assert chosen == [8]
        _assert_matches_sympy(f)

    @pytest.mark.parametrize("split", [False, True])
    def test_a_2040_bit_member_is_decided_well_inside_the_budget(self, monkeypatch, split):
        # x^6 - n*x^3 + m for an in-class 2040-bit (n, m), m = a^3. The
        # irreducible one is decided by the root test alone (11,353 units);
        # the split one, n = t_3(T, a) for a 681-bit trace T, is lifted at
        # degree 6 (98,287 units)
        rng = random.Random(2040)
        a = rng.getrandbits(680) | 1 << 679
        if split:
            n = power_sum(rng.getrandbits(681) | 1 << 680, a, 3)
        else:
            n = rng.getrandbits(2040) | 1 << 2039
        m = a**3
        assert m <= n - 2 and n.bit_length() >= 2040 and m.bit_length() >= 2038
        budgets = recorded_budgets(monkeypatch)
        f = family_poly(n, m, 3)
        result = factor(f)
        assert result.product() == f and len(result.factors) == 1 + split
        assert budgets[0].spent < factor_module.MAX_FACTOR_WORK // (100 if split else 1000)


# x^8 + b*x^4 + c for b = 4*t_4(T, N) and c = 16*N^4: a root is -4*delta^4
minus_four_fourth_powers = st.tuples(st.integers(-6, 6), st.integers(-6, 6).filter(bool)).map(
    lambda tn: (4 * power_sum(*tn, 4), 16 * tn[1] ** 4)
)
# b = -t_2(T, N) and c = N^2: a root is a square
squares = st.tuples(st.integers(-12, 12), st.integers(-5, 5).filter(bool)).map(
    lambda tn: (-power_sum(*tn, 2), tn[1] ** 2)
)


@PROPERTY
@given(
    st.one_of(minus_four_fourth_powers, squares, from_coefficients.map(lambda bck: bck[:2])),
    st.sampled_from((4, 6, 8, 9, 10, 12, 15, 20)),
)
# delta = 1+sqrt(2): x^8+136*x^4+16 splits into two quartics, and so do its
# inflations, through g(x^4) in the Capelli loop
@example((136, 16), 4)
@example((136, 16), 20)
# -4a = (3+sqrt(5))^2 with 3+sqrt(5) no square: irreducible at every k
@example((7, 1), 12)
# delta = (1+sqrt(3))/2 is no algebraic integer, yet -4a = (4+2*sqrt(3))^2
# and 4+2*sqrt(3) = (1+sqrt(3))^2: x^8+14*x^4+1 splits
@example((14, 1), 4)
# -4*delta^4 needs 4 | k: at k = 6 the same root is no square and no cube
@example((136, 16), 6)
# a cube of 1+sqrt(3), and of 2+sqrt(3): split at k = 9 and 15 through p = 3
@example((-20, -8), 9)
@example((-52, 1), 15)
def test_k4_trinomials_and_their_inflations_agree_with_sympy(bc, k):
    b, c = bc
    f = trinomial(b, c, k)
    _assert_matches_sympy(f)
    d = b * b - 4 * c
    if d > 0 and isqrt(d) ** 2 != d:
        # by Capelli, a p-th power for a prime p | k, or -4*delta^4 when
        # 4 | k, is exactly a split
        t_values = sorted(factor_module._prime_divisors(k) + [4] * (k % 4 == 0))
        splits = any(factor_module._splits_at(b, c, t, free) for t in t_values)
        assert splits == (not is_irreducible(f))


@PROPERTY
@given(nonconstant, nonconstant)
# two equal-degree factors with large coefficients: the first is rebuilt from
# lifts at degree deg // 2, the largest degree the lifting bound covers
@example(parse_poly("7*x^5+1000000*x^4-3*x+1000001"), parse_poly("5*x^5-999999*x^3+2*x^2-1000003"))
@example(parse_poly("x^3+999999*x^2-999999*x+1"), parse_poly("x^3-999998*x^2-999998*x-1"))
# mod 5 the product is three linear factors and a quartic, with every degree
# allowed: the cubic is three of the four, so recombination must reach s = 3,
# past half the modular factors (the degree filter hides the quartic)
@example(parse_poly("x^3-3*x^2-x-2"), parse_poly("x^4-2*x-1"))
def test_products_agree_with_sympy(a, b):
    _assert_matches_sympy(a * b)


@PROPERTY
@given(
    st.integers(3, 20).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 2))),
    st.integers(1, 12),
)
def test_family_factorizations_agree_with_sympy(nm, k):
    _assert_matches_sympy(family_poly(*nm, k))


@st.composite
def monic_squarefree_mod_p(draw) -> tuple[int, list[int]]:
    """(p, g): g monic and squarefree mod p, ascending coefficients in [0, p)."""
    p = draw(st.sampled_from((5, 7, 11, 13)))
    g = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=16)) + [1]
    assume(factor_module._gf_gcd(g, factor_module._gf_deriv(g, p), p) == [1])
    return p, g


def schoolbook_mul(u: list[int], v: list[int], p: int) -> list[int]:
    """The product mod p by the integer list core's schoolbook loop."""
    return factor_module._trim([c % p for c in _convolve(u, v)])


def schoolbook_powmod(a: list[int], e: int, g: list[int], p: int) -> list[int]:
    """a^e mod g by square and multiply, each product schoolbook and reduced by
    long division: independent of the packed kernels."""
    mod = factor_module._gf_mod
    return _power(mod(a, g, p), e, lambda u, v: mod(schoolbook_mul(u, v, p), g, p), [1])


def unpacked_rows(rows: list[int], n: int) -> list[list[int]]:
    """Packed Frobenius rows as coefficient lists."""
    return [factor_module._trim(list(factor_module._unpack(row, n))) for row in rows]


def assert_frobenius_powers(g: list[int], p: int, a: list[int], d: int) -> None:
    n = len(g) - 1
    rows = factor_module._frobenius(g, p, free)
    assert unpacked_rows(rows, n) == [schoolbook_powmod([0, 1], p * i, g, p) for i in range(n)]
    assert factor_module._frob_apply(a, rows, p) == schoolbook_powmod(a, p, g, p)
    reduce = factor_module._gf_reducer(g, p, n - 1)
    want = schoolbook_powmod(a, (p**d - 1) // 2, g, p)
    assert factor_module._cz_power(a, d, rows, reduce, p) == want


def assert_power_mod_a_multiple(g: list[int], h: list[int], p: int, a: list[int], d: int) -> None:
    """_cz_power with the matrix and table of F = g*h, reduced mod g and mod h,
    against the schoolbook powers: _edf powers a piece g's random a modulo all
    of f mod p, and reduces the power mod g only in its gcd."""
    big = schoolbook_mul(g, h, p)
    rows = factor_module._frobenius(big, p, free)
    reduce = factor_module._gf_reducer(big, p, len(big) - 2)
    power = factor_module._cz_power(a, d, rows, reduce, p)
    for piece in (g, h):
        want = schoolbook_powmod(a, (p**d - 1) // 2, piece, p)
        assert factor_module._gf_mod(power, piece, p) == want


@PROPERTY
@given(monic_squarefree_mod_p(), st.data())
def test_frobenius_matrix_gives_the_plain_powers(pg, data):
    p, g = pg
    a = factor_module._trim(data.draw(st.lists(st.integers(0, p - 1), max_size=len(g) - 1)))
    assert_frobenius_powers(g, p, a, data.draw(st.integers(1, 8)))


@PROPERTY
@given(monic_squarefree_mod_p(), st.data())
def test_power_mod_a_coprime_multiple_is_the_power_mod_the_piece(pg, data):
    p, g = pg
    h = data.draw(st.lists(st.integers(0, p - 1), max_size=16)) + [1]
    assume(factor_module._gf_gcd(g, h, p) == [1])
    a = factor_module._trim(data.draw(st.lists(st.integers(0, p - 1), max_size=len(g) - 1)))
    assert_power_mod_a_multiple(g, h, p, a, data.draw(st.integers(1, 8)))


@pytest.mark.parametrize(
    "p, g",
    [
        # a dense modulus at a small prime, one at a prime above 2^16 and a
        # sparse modulus of high degree
        (7, [3, 1, 4, 1, 5, 2, 6, 5, 3, 5, 1, 6, 1]),
        (65537, [65536, 2, 65535, 1]),
        (5, [1, 1] + [0] * 38 + [1]),
    ],
)
def test_frobenius_matrix_at_small_and_large_primes(p, g):
    a = [p - 1] * (len(g) - 2) + [1]
    assert_frobenius_powers(g, p, a, 2)
    # x^2 + 2 is prime to each g
    assert factor_module._gf_gcd(g, [2, 0, 1], p) == [1]
    assert_power_mod_a_multiple(g, [2, 0, 1], p, a, 2)


def test_frobenius_rows_refuse_a_slot_overflow():
    # 2 * bits(p-1) + bits(4) = 65 bits: refused before any row is built; no
    # budgeted call gets there, as the charge p * (n+1)^2 is past the budget
    with pytest.raises(ConsistencyError, match="slot"):
        factor_module._frobenius([1, 0, 0, 0, 1], 2**31 - 1, free)


# at p = 1073741789 a product whose shorter operand has length 15 fits the
# 64-bit slot, and one at length 16 takes the schoolbook loop
WIDE_PRIMES = (5, 13, 32749, 1073741789, 2**61 - 1)


def coefficients_mod(p: int):
    """Coefficients in [0, p), zero and p - 1 (the largest products) often."""
    return st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))


@PROPERTY
@given(
    st.sampled_from(WIDE_PRIMES).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(coefficients_mod(p), max_size=24),
            st.lists(coefficients_mod(p), max_size=24),
        )
    )
)
@example((32749, [1, 2, 3], []))
@example((32749, [32748], [0, 0, 5, 0, 0, 0, 1]))
def test_packed_product_equals_the_schoolbook_mod_p(pab):
    p, a, b = pab
    a, b = factor_module._trim(a), factor_module._trim(b)
    assert factor_module._gf_mul(a, b, p) == schoolbook_mul(a, b, p)
    assert factor_module._gf_mul(a, a, p) == schoolbook_mul(a, a, p)


@pytest.mark.parametrize("length, packed", [(15, True), (16, False), (17, False)])
def test_packed_product_holds_the_largest_slot_sums(monkeypatch, length, packed):
    # with every coefficient p - 1, each full slot sums length * (p-1)^2, the
    # most the bound 2 * bits(p-1) + bits(length) allows; at length 17 that
    # passes 2^64, so a bound one bit lower would pack it and overflow
    p, schoolbook = 1073741789, []
    monkeypatch.setattr(
        factor_module, "_convolve", lambda u, v: schoolbook.append(1) or _convolve(u, v)
    )
    a, b = [p - 1] * length, [p - 1] * (length + 5)
    for u, v in ((a, b), (b, a), (a, a)):
        assert factor_module._gf_mul(u, v, p) == schoolbook_mul(u, v, p)
    assert packed == (not schoolbook)


def test_a_slot_holds_sums_up_to_its_bound():
    # 2 * bits(p-1) + bits(terms) <= 64: the one slot rule of the products,
    # the reduction table and the Frobenius rows
    fits = factor_module._fits
    assert fits(1073741789, 15) and not fits(1073741789, 16)
    assert fits(2**31 - 1, 3) and not fits(2**31 - 1, 4)
    assert fits(2**31, 1) and not fits(2**31 + 1, 1)


def test_prime_divisors_agree_with_sympy():
    # the package's one trial-division primality test: k is prime iff the
    # list is [k] (the good primes of a factor call, the split primes' candidates)
    for k in range(1, 3000):
        assert factor_module._prime_divisors(k) == sympy.primefactors(k), k


def test_a_slot_round_trips_its_largest_value():
    top = (1 << factor_module.SLOT_BITS) - 1
    values = [top, 0, top, 1, top]
    assert list(factor_module._unpack(factor_module._pack(values), 5)) == values


@PROPERTY
@given(
    st.sampled_from(WIDE_PRIMES).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(coefficients_mod(p), min_size=1, max_size=10).map(lambda g: g + [1]),
        )
    ),
    st.integers(0, 20),
    st.data(),
)
def test_reducer_equals_the_long_division(pg, extra, data):
    # a slot sums extra + 1 products below p^2: at 1073741789 that passes 64
    # bits from extra = 15, and at 2^61 - 1 from extra = 0, and no table is
    # built there
    p, g = pg
    if 2 * (p - 1).bit_length() + (extra + 1).bit_length() > 64:
        with pytest.raises(ConsistencyError, match="slot"):
            factor_module._gf_reducer(g, p, extra)
        return
    reduce = factor_module._gf_reducer(g, p, extra)
    top = len(g) - 1 + extra
    dividend = data.draw(st.lists(coefficients_mod(p), min_size=top, max_size=top))
    for a in (dividend, [p - 1] * top):
        for length in range(top + 1):
            assert reduce(a[:length]) == factor_module._gf_mod(a[:length], g, p)


@PROPERTY
@given(monic_squarefree_mod_p())
# the Cantor-Zassenhaus split of x^80-7*x^40+4 mod 19 into two factors of degree 40
@example((19, [4] + [0] * 39 + [19 - 7] + [0] * 39 + [1]))
# x^56-7*x^28+1 mod 13: four factors of degree 14, split twice over f's matrix
@example((13, [1] + [0] * 27 + [13 - 7] + [0] * 27 + [1]))
def test_modular_factors_match_sympy(pg):
    p, f = pg
    rows = factor_module._frobenius(f, p, free)
    ours = factor_module._factor_mod_p(f, p, factor_module._ddf(f, rows, p, free), rows, free)
    _, parts = sympy.Poly(list(reversed(f)), X, modulus=p).factor_list()
    assert all(mult == 1 for _, mult in parts)
    theirs = [[int(c) % p for c in reversed(fac.all_coeffs())] for fac, _ in parts]
    assert sorted(ours) == sorted(theirs)


def linear_product(count: int) -> IntPoly:
    """(x-1)(x-2)...(x-count)."""
    p = IntPoly.one()
    for i in range(1, count + 1):
        p = p * IntPoly([-i, 1])
    return p


class TestFactorWorkBudget:
    def test_past_the_budget_is_a_resource_error(self, monkeypatch):
        monkeypatch.setattr(factor_module, "MAX_FACTOR_WORK", 1000)
        with pytest.raises(ResourceLimitError) as info:
            factor(linear_product(6))
        assert info.value.details == {"ceiling": 1000}
        # the exit-code class marks it as a resource limit, not wrong input
        assert info.value.exit_code == 2

    @pytest.mark.parametrize(
        "text, units",
        [
            ("x^105-1", 1_397_681),
            ("x^80-7*x^40+4", 2_255),
            ("x^4-10*x^2+1", 156),
            ("(x-1)^3*(x+2)^2*(x^2+1)", 1_371),
            ("x^20+2*x^2+2", 39_370),
        ],
    )
    def test_each_call_spends_the_pinned_units(self, monkeypatch, text, units):
        # one budget a call; units found as the least MAX_FACTOR_WORK that
        # admits the call, so a change to any stage's charge shows here
        budgets = recorded_budgets(monkeypatch)
        factor(parse_poly(text))
        assert [budget.spent for budget in budgets] == [units]
        monkeypatch.setattr(factor_module, "MAX_FACTOR_WORK", units - 1)
        with pytest.raises(ResourceLimitError):
            factor(parse_poly(text))

    @pytest.mark.parametrize("count", [12, 30, 40])
    def test_many_true_factors_are_factored(self, count):
        # 30 and 40 modular factors: a count ceiling of 24 refused both
        p = linear_product(count)
        result = factor(p)
        assert [f.coeffs for f, _ in result.factors] == [(-i, 1) for i in range(count, 0, -1)]
        assert result.product() == p

    def test_linear_factors_build_one_frobenius_matrix_per_prime_tried(self, monkeypatch):
        # the distinct-degree split at each prime tried builds one matrix, and
        # the equal-degree split reuses the chosen prime's for every part and
        # piece. The family members are decided by the Capelli loop, which
        # calls _choose_prime once for each g(x^t) and h(x^(k/t)) it lifts
        # whole, so the primes of every call count. x^16-14*x^8+1 splits at
        # g(x^2) = x^4-14*x^2+1, which is lifted; x^80-7*x^40+4 is decided by
        # the root tests alone, at the primes 2 and 5 and the 4 clause
        frobenius, choose_prime = factor_module._frobenius, factor_module._choose_prime
        built, tried = [], []

        def counted(g, p, charge):
            built.append(p)
            return frobenius(g, p, charge)

        def recorded(f, charge):
            choice = choose_prime(f, charge)
            tried.extend(choice.tried)
            return choice

        monkeypatch.setattr(factor_module, "_frobenius", counted)
        monkeypatch.setattr(factor_module, "_choose_prime", recorded)
        for f in (linear_product(40), parse_poly("x^16-14*x^8+1"), family_poly(7, 1, 28)):
            built.clear()
            tried.clear()
            assert factor(f).product() == f
            assert tried and built == tried
        built.clear()
        tried.clear()
        f = parse_poly("x^80-7*x^40+4")
        assert factor(f).factors == ((f, 1),)
        assert tried == built == []

    def test_x512_minus_1_is_its_ten_cyclotomic_factors(self):
        # refused past the budget at degree 512 without the Capelli loop;
        # with it, x^2-1 splits it into x^256-1, factored in turn, and
        # x^256+1, proven irreducible by x^2+1 and x^4+1
        f = parse_poly("x^512-1")
        assert len(factor(f).factors) == 10
        _assert_matches_sympy(f)

    @pytest.mark.parametrize(
        "shape",
        ["high degree", "many true factors", "most true factors", "huge coefficients"],
    )
    def test_costliest_admitted_calls_end_within_3_s(self, shape):
        # the costliest admitted call of each shape took 0.73-1.05,
        # 0.39-0.58, 0.44-0.57 and 0.13-0.15 s in-process (0.14-0.15 s at
        # x+1); the
        # Swinnerton-Dyer shape is timed in test_acceptance.py
        if shape == "high degree":
            f = parse_poly("x^220+x+1")
        elif shape == "many true factors":
            f = linear_product(104)
        elif shape == "most true factors":
            # the largest count admitted: (x-1)...(x-113) is refused
            f = linear_product(112)
        else:
            # x^32 - n*x^16 + 1 for the 1880-bit n = g^4 + g'^4, g a unit
            # of 470-bit trace t, at x+1: 12 modular factors at the chosen
            # prime. The Capelli loop lifts the unshifted polynomial only at
            # degree 4; at x+1 (exponent gcd 1) it is lifted whole
            t = random.Random(1).getrandbits(470) | 1 << 469
            n = (t * t - 2) ** 2 - 2
            f = IntPoly()
            for c in reversed([1] + [0] * 15 + [-n] + [0] * 15 + [1]):
                f = f * IntPoly([1, 1]) + IntPoly([c])
        start = time.monotonic()
        assert factor(f).product() == f
        assert time.monotonic() - start < 3.0

    def test_one_linear_factor_more_is_refused(self):
        f = linear_product(113)
        start = time.monotonic()
        with pytest.raises(ResourceLimitError):
            factor(f)
        assert time.monotonic() - start < 3.0

    @pytest.mark.parametrize("text", ["(x+1)^512+1", "x^400+x+1"])
    def test_slow_inputs_are_refused_within_about_a_second(self, text):
        # each took several seconds to factor (12-16 s and 4.3-4.5 s
        # in-process), though with only 2 and 4 modular factors
        f = parse_poly(text)
        start = time.monotonic()
        with pytest.raises(ResourceLimitError) as info:
            factor(f)
        assert time.monotonic() - start < 3.0
        assert info.value.details == {"ceiling": factor_module.MAX_FACTOR_WORK}
