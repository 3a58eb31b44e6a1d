"""Integer polynomial ring: arithmetic, division, gcd, parsing, rendering."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overlapkit.errors import (
    DivisorZero,
    InvalidArgument,
    OverlapKitError,
    PolySyntaxError,
    ResourceLimitError,
    TooDeep,
    UnsupportedExponent,
    WorkBudget,
)
from overlapkit.intpoly import (
    IntPoly,
    exact_div,
    family_poly,
    gcd_poly,
    moran_poly,
    parse_poly,
)
from overlapkit.intpoly.poly import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_PARSE_WORK,
    _convolve,
    _Parser,
)

X = sympy.Symbol("x")
PROPERTY = settings(max_examples=80, deadline=None)


def rand_poly(rng: random.Random, max_degree: int = 6, bound: int = 9) -> IntPoly:
    deg = rng.randint(0, max_degree)
    coeffs = [rng.randint(-bound, bound) for _ in range(deg + 1)]
    return IntPoly(coeffs)


class TestIntPolyBasics:
    def test_normalization_drops_leading_zeros(self):
        assert IntPoly([1, 2, 0, 0]) == IntPoly([1, 2])
        assert IntPoly([0, 0]).is_zero
        assert IntPoly().is_zero

    def test_degree_and_lc_conventions(self):
        assert IntPoly().degree == -1
        assert IntPoly([5]).degree == 0
        assert IntPoly([0, 0, 3]).lc == 3
        assert IntPoly.x().degree == 1

    def test_getitem_out_of_range_is_zero(self):
        p = IntPoly([1, 2])
        assert p[0] == 1 and p[1] == 2 and p[7] == 0

    def test_constructors(self):
        assert IntPoly.one() == IntPoly([1])
        assert IntPoly.monomial(3, 4) == IntPoly([0, 0, 0, 0, 3])
        assert IntPoly.monomial(0, 4).is_zero

    def test_immutability(self):
        p = IntPoly([1, 2])
        with pytest.raises(AttributeError):
            p.coeffs = (3,)

    def test_ring_axioms_randomized(self):
        rng = random.Random(5)
        for _ in range(200):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + IntPoly() == a
            assert a * IntPoly.one() == a
            assert a - a == IntPoly()

    def test_evaluation_is_a_ring_homomorphism(self):
        rng = random.Random(6)
        for _ in range(100):
            a, b = rand_poly(rng), rand_poly(rng)
            for x in (0, 1, -2, Fraction(1, 3)):
                assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
                assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)

    def test_pow(self):
        p = IntPoly([1, 1])
        assert p**0 == IntPoly.one()
        assert p**3 == IntPoly([1, 3, 3, 1])
        with pytest.raises(InvalidArgument):
            p ** (-1)

    def test_int_operand_coercion(self):
        p = IntPoly([1, 1])
        assert p + 1 == IntPoly([2, 1])
        assert 2 * p == IntPoly([2, 2])
        assert 1 - p == IntPoly([0, -1])

    def test_derivative(self):
        assert IntPoly([7, 0, 3, 2]).derivative() == IntPoly([0, 6, 6])
        assert IntPoly([5]).derivative().is_zero

    def test_inflate_substitutes_power(self):
        p = IntPoly([1, -3, 1])  # x^2 - 3x + 1
        assert p.inflate(2) == IntPoly([1, 0, -3, 0, 1])
        x = Fraction(5, 7)
        assert p.inflate(3).evaluate(x) == p.evaluate(x**3)
        with pytest.raises(InvalidArgument):
            p.inflate(0)

    def test_shift_and_trailing_zeros(self):
        p = IntPoly([1, 2])
        assert p.shift(2) == IntPoly([0, 0, 1, 2])
        assert p.shift(2).trailing_zeros() == 2
        assert IntPoly().trailing_zeros() == 0
        with pytest.raises(InvalidArgument):
            p.shift(-1)

    def test_content_and_normal_forms(self):
        p = IntPoly([-4, -6])
        assert p.content() == 2
        assert p.primitive_part() == IntPoly([-2, -3])
        assert p.monic_positive() == IntPoly([2, 3])
        assert IntPoly().content() == 0

    def test_norms(self):
        p = IntPoly([-3, 0, 4])
        assert p.norm1() == 7
        assert p.max_norm() == 4
        assert IntPoly().max_norm() == 0


class TestDivision:
    def test_division_by_zero(self):
        with pytest.raises(DivisorZero):
            exact_div(IntPoly([1]), IntPoly())

    def test_exact_div_round_trip(self):
        rng = random.Random(9)
        for _ in range(200):
            u = rand_poly(rng, 4)
            v = rand_poly(rng, 4)
            if u.is_zero or v.is_zero:
                continue
            assert exact_div(u * v, v) == u

    def test_exact_div_detects_nondivisors(self):
        p = IntPoly([1, -3, 0, 0, 1])  # golden quartic, irreducible factors known
        assert exact_div(p, IntPoly([1, 1])) is None
        assert exact_div(IntPoly([1, 1]), p) is None
        # remainder-free but fractional quotient: (x) / (2x)
        assert exact_div(IntPoly.x(), IntPoly([0, 2])) is None

    def test_exact_div_antimonic_divisor(self):
        u = IntPoly([3, -2, 5])
        v = IntPoly([4, -1])  # leading coefficient -1
        assert exact_div(u * v, v) == u


polys = st.lists(st.integers(-12, 12), max_size=7).map(IntPoly)
non_monic = st.builds(
    lambda low, lead: IntPoly(low + [lead]),
    st.lists(st.integers(-12, 12), max_size=4),
    st.integers(2, 6) | st.integers(-6, -2),
)


@PROPERTY
@given(polys, non_monic | polys.filter(bool), st.booleans())
# integral up to the last step, where 1 is left over: 2x^2 + 1 by 2x
@example(IntPoly([1, 0, 2]), IntPoly([0, 2]), False)
@example(IntPoly([5]), IntPoly([0, 3]), False)
@example(IntPoly(), IntPoly([1, 3]), False)
@example(IntPoly([6, 4, 2]), IntPoly([3, -2]), True)
@example(IntPoly(), IntPoly([-3]), False)
@example(IntPoly([5, 1]), IntPoly([2]), False)
@example(IntPoly([1, 2, 1]), IntPoly([-1, -1]), True)
def test_exact_div_matches_sympy_div(a, b, planted):
    dividend = a * b if planted else a
    quot, rem = sympy.Poly(list(reversed(dividend.coeffs)) or [0], X, domain="QQ").div(
        sympy.Poly(list(reversed(b.coeffs)), X, domain="QQ")
    )
    coeffs = [sympy.Rational(c) for c in reversed(quot.all_coeffs())]
    integral = rem.is_zero and all(c.q == 1 for c in coeffs)
    expected = IntPoly([int(c) for c in coeffs]) if integral else None
    assert exact_div(dividend, b) == expected
    if planted:
        assert expected == a


def to_sympy(p: IntPoly) -> sympy.Poly:
    return sympy.Poly(list(reversed(p.coeffs)) or [0], X, domain="ZZ")


def from_sympy(p: sympy.Poly) -> IntPoly:
    return IntPoly([int(c) for c in reversed(p.all_coeffs())])


# signed polynomials, the zero polynomial and constants included
@PROPERTY
@given(polys, polys)
@example(IntPoly(), IntPoly([3, 1]))
@example(IntPoly([-4]), IntPoly([0, 0, 5]))
@example(IntPoly([0, 1, 0, -2]), IntPoly([7, 0, 0, 1]))
def test_convolve_matches_sympy_product(a, b):
    assert IntPoly(_convolve(a.coeffs, b.coeffs)) == from_sympy(to_sympy(a) * to_sympy(b))
    assert a * b == b * a == IntPoly(_convolve(b.coeffs, a.coeffs))


@PROPERTY
@given(polys, polys, polys)
@example(IntPoly(), IntPoly([-6]), IntPoly())
@example(IntPoly([4]), IntPoly([6]), IntPoly())
@example(IntPoly([-2, -2]), IntPoly([3, 0, -3]), IntPoly([1, 0, 1]))
def test_gcd_poly_matches_sympy(a, b, common):
    a, b = a * common, b * common
    if a.is_zero and b.is_zero:
        with pytest.raises(InvalidArgument):
            gcd_poly(a, b)
        return
    _, expected = to_sympy(a).gcd(to_sympy(b)).primitive()
    if expected.LC() < 0:
        expected = -expected
    assert gcd_poly(a, b) == from_sympy(expected)


class TestGcd:
    def test_gcd_divides_both_and_contains_planted_factor(self):
        # gcd is primitive, so divisibility over the integers is the right check
        rng = random.Random(20)
        for _ in range(150):
            g = rand_poly(rng, 3)
            a_extra = rand_poly(rng, 3)
            b_extra = rand_poly(rng, 3)
            if g.is_zero or a_extra.is_zero or b_extra.is_zero:
                continue
            a, b = g * a_extra, g * b_extra
            d = gcd_poly(a, b)
            assert d.lc > 0
            assert d.content() == 1
            assert exact_div(a, d) is not None
            assert exact_div(b, d) is not None
            if g.degree >= 1:
                assert exact_div(d, g.monic_positive()) is not None

    def test_coprime_gcd_is_one(self):
        assert gcd_poly(IntPoly([1, 1]), IntPoly([2, 1])) == IntPoly.one()

    def test_contents_ignored(self):
        a = IntPoly([2, 2]) * 6
        b = IntPoly([2, 2]) * 35
        assert gcd_poly(a, b) == IntPoly([1, 1])

    def test_zero_arguments(self):
        p = IntPoly([-2, -4])
        assert gcd_poly(p, IntPoly()) == IntPoly([1, 2])
        assert gcd_poly(IntPoly(), p) == IntPoly([1, 2])
        with pytest.raises(InvalidArgument):
            gcd_poly(IntPoly(), IntPoly())

    def test_golden_quartic_pair(self):
        quartic = family_poly(3, 1, 2)
        aux = IntPoly([-1, -1, 1]) * IntPoly([1, 2])  # (x^2-x-1)(2x+1)
        assert gcd_poly(quartic, aux) == IntPoly([-1, -1, 1])


class TestStructuredFamilies:
    def test_family_poly_layout(self):
        assert family_poly(3, 1, 1) == IntPoly([1, -3, 1])
        assert family_poly(3, 1, 2) == IntPoly([1, 0, -3, 0, 1])
        assert family_poly(3, 1, 2) == family_poly(3, 1, 1).inflate(2)
        with pytest.raises(InvalidArgument):
            family_poly(3, 1, 0)

    def test_moran_poly_examples(self):
        # exponents (1, 2): x^2 - x - 1
        assert moran_poly([1, 2]) == IntPoly([-1, -1, 1])
        # exponents (2, 2): x^2 - 2
        assert moran_poly([2, 2]) == IntPoly([-2, 0, 1])
        assert moran_poly([3]) == IntPoly([-1, 0, 0, 1])

    def test_moran_poly_root_equation(self):
        # r is a root iff sum_i r^(-k_i) = 1; check numerically
        ks = [1, 2, 2, 3]
        p = moran_poly(ks)
        lo, hi = 1.0, 4.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if p.evaluate(Fraction(mid).limit_denominator(10**9)) > 0:
                hi = mid
            else:
                lo = mid
        r = (lo + hi) / 2
        assert abs(sum(r**-k for k in ks) - 1) < 1e-9

    def test_moran_poly_validation(self):
        with pytest.raises(InvalidArgument):
            moran_poly([])
        with pytest.raises(InvalidArgument):
            moran_poly([0, 1])
        with pytest.raises(InvalidArgument):
            moran_poly([3, 2])


class TestParsing:
    def test_golden_round_trip(self):
        p = parse_poly("x^4-3*x^2+1")
        assert p == IntPoly([1, 0, -3, 0, 1])
        assert p.to_string() == "x^4-3*x^2+1"
        assert parse_poly(p.to_string()) == p

    def test_implicit_multiplication(self):
        assert parse_poly("3x") == IntPoly([0, 3])
        assert parse_poly("2(x+1)") == IntPoly([2, 2])
        assert parse_poly("(x+1)(x-1)") == IntPoly([-1, 0, 1])
        assert parse_poly("x(x)(x)") == IntPoly([0, 0, 0, 1])

    def test_unicode_minus(self):
        assert parse_poly("x−1") == IntPoly([-1, 1])

    def test_unary_signs_and_whitespace(self):
        assert parse_poly(" - x + + 2 ") == IntPoly([2, -1])
        assert parse_poly("-(x-1)^2") == IntPoly([-1, 2, -1])

    def test_power_binds_tighter_than_product(self):
        assert parse_poly("2x^3") == IntPoly([0, 0, 0, 2])
        assert parse_poly("2*x^3") == IntPoly([0, 0, 0, 2])
        # right associative: x^2^3 = x^8
        assert parse_poly("x^2^3") == IntPoly.monomial(1, 8)

    def test_any_single_variable(self):
        assert parse_poly("t^2-t") == IntPoly([0, -1, 1])
        with pytest.raises(PolySyntaxError):
            parse_poly("x*y")

    def test_syntax_errors_carry_position(self):
        with pytest.raises(PolySyntaxError) as info:
            parse_poly("x +")
        assert info.value.details["position"] == 3
        for bad in ["", "  ", "(x", "x^", "1//2", "x$"]:
            with pytest.raises(PolySyntaxError):
                parse_poly(bad)

    def test_exponent_restrictions(self):
        with pytest.raises(UnsupportedExponent):
            parse_poly("x^x")
        with pytest.raises(UnsupportedExponent):
            parse_poly("x^(-1)")
        assert parse_poly("x^0") == IntPoly.one()
        assert parse_poly("2^3") == IntPoly([8])

    def test_round_trip_randomized(self):
        rng = random.Random(21)
        for _ in range(300):
            p = rand_poly(rng, 7)
            assert parse_poly(p.to_string()) == p
            assert parse_poly(p.to_string("t")) == p

    def test_unicode_digits_that_are_not_decimal_are_syntax_errors(self):
        # "²".isdigit() holds but int() rejects it
        for bad in ["x²", "²", "3x^²"]:
            with pytest.raises(PolySyntaxError):
                parse_poly(bad)

    def test_degree_ceiling(self):
        assert parse_poly(f"(x+1)^{MAX_DEGREE}").degree == MAX_DEGREE
        for bad in [
            f"x^{MAX_DEGREE + 1}",
            "x^99999999",
            "(x+1)^3000",
            f"2^{MAX_DEGREE + 1}",
            f"x^{MAX_DEGREE // 2 + 1}*x^{MAX_DEGREE // 2}",
            f"(x^{MAX_DEGREE // 2 + 1})^2",
            f"(x^{MAX_DEGREE // 2 + 1})(x^{MAX_DEGREE // 2})",
        ]:
            with pytest.raises(ResourceLimitError) as info:
                parse_poly(bad)
            assert info.value.details["ceiling"] == MAX_DEGREE

    def test_coefficient_ceiling(self):
        digits = MAX_COEFF_BITS * 3 // 10
        assert parse_poly("9" * digits + "x").lc == int("9" * digits)
        for bad in ["9" * (digits + 10), "(255x+1)^256", f"(2^{MAX_DEGREE})^{MAX_DEGREE}"]:
            with pytest.raises(ResourceLimitError) as info:
                parse_poly(bad)
            assert info.value.details["ceiling"] == MAX_COEFF_BITS

    def test_work_budget_spans_the_whole_parse(self):
        assert parse_poly("(7x+8)^512").degree == MAX_DEGREE
        printed = IntPoly([(-1) ** i * (2**64 + i) for i in range(MAX_DEGREE + 1)])
        assert parse_poly(printed.to_string()) == printed
        family = family_poly(20, 16, 15)
        assert parse_poly(family.to_string()) == family
        # each power or sum is within the per-operation ceilings, their number is not
        for bad in ["+".join(["(7x+8)^512"] * 20), "x^512" + "+1" * 100_000]:
            with pytest.raises(ResourceLimitError) as info:
                parse_poly(bad)
            assert info.value.details["ceiling"] == MAX_PARSE_WORK

    def test_power_charges_the_same_products(self):
        # right-to-left square and multiply: a product at each set bit of the
        # exponent and a squaring between consecutive bits, each charged; a
        # sparse base also pins the operand order of result * base
        for base, e, work in [
            ("(7x+8)", 512, 2_191_112),
            ("(7x+8)", 511, 2_324_476),
            ("(x+1)", 512, 154_977),
            ("(x^8+1)", 63, 14_024),
        ]:
            parser = _Parser(f"{base}^{e}")
            assert parser.parse() == parse_poly(base) ** e
            assert parser.budget.spent == work

    def test_work_budget_trips_only_past_its_ceiling(self):
        # the one trip rule of the parse, factor and moran budgets
        budget = WorkBudget(10, "too much")
        budget(4)
        budget(6, position=3)
        assert budget.spent == 10
        with pytest.raises(ResourceLimitError) as info:
            budget(1, position=7)
        assert type(info.value) is ResourceLimitError and str(info.value) == "too much"
        assert info.value.details == {"ceiling": 10, "position": 7}
        assert (budget.spent, info.value.exit_code) == (11, 2)
        # the cover's budget names its own subclass
        with pytest.raises(TooDeep) as info:
            WorkBudget(0, "too deep", TooDeep)(1, depth=5)
        assert info.value.details == {"ceiling": 0, "depth": 5}

    def test_deep_nesting_is_a_resource_error(self):
        for bad in ["(" * 5000 + "x" + ")" * 5000, "-" * 5000 + "x"]:
            with pytest.raises(ResourceLimitError):
                parse_poly(bad)

    def test_to_string_edge_cases(self):
        assert IntPoly().to_string() == "0"
        assert IntPoly([-1]).to_string() == "-1"
        assert IntPoly([0, -1]).to_string() == "-x"
        assert IntPoly([0, 0, 1]).to_string() == "x^2"
        assert IntPoly([-7, 1]).to_string("y") == "y-7"


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="xy0123456789+-−*^() ²", max_size=30) | st.text(max_size=12))
@example("x²")
@example("9" * 5000)
@example("((9^99)^99)^99")
def test_parse_poly_returns_a_poly_or_a_package_error(text):
    try:
        result = parse_poly(text)
    except OverlapKitError:
        return
    assert isinstance(result, IntPoly)
