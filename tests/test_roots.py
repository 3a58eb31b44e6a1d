"""The exact spectral core, cross-checked against sympy on random inputs."""

from __future__ import annotations

from fractions import Fraction

import mpmath
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overlapkit.errors import InvalidArgument
from overlapkit.graphdir import Policy, build_graph, spectral_radius, verify_beta_eigen
from overlapkit.intpoly import IntPoly, roots
from overlapkit.intpoly.roots import _at_or_above, charpoly, largest_root

X = sp.Symbol("x")
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def matrices(draw, min_size: int = 1):
    size = draw(st.integers(min_size, 6))
    return [[draw(st.integers(0, 5)) for _ in range(size)] for _ in range(size)]


# 2x2 blocks with entries 0..5 whose trace n and determinant m are in class
IN_CLASS_BLOCKS = [
    ((a, b), (c, d))
    for a in range(6)
    for b in range(6)
    for c in range(6)
    for d in range(6)
    if 1 <= a * d - b * c <= a + d - 2
]


@st.composite
def beta_cases(draw):
    """A matrix whose leading 2x2 block has trace n and determinant m. Half
    the time the entries below that block are zeroed, which keeps the
    block's eigenvalues, beta among them, as eigenvalues of the matrix."""
    matrix = draw(matrices(min_size=2))
    (a, b), (c, d) = draw(st.sampled_from(IN_CLASS_BLOCKS))
    matrix[0][:2], matrix[1][:2] = [a, b], [c, d]
    if draw(st.booleans()):
        for row in matrix[2:]:
            row[0] = row[1] = 0
    return matrix, a + d, a * d - b * c


def golden_blocks(d: int) -> list[list[int]]:
    """d copies of [[1, 1], [1, 0]] down the diagonal: the golden ratio d times."""
    matrix = [[0] * (2 * d) for _ in range(2 * d)]
    for k in range(0, 2 * d, 2):
        matrix[k][k] = matrix[k][k + 1] = matrix[k + 1][k] = 1
    return matrix


def bisect(poly: IntPoly, lo: int, hi: int, bits: int) -> tuple[Fraction, Fraction, int]:
    """largest_root's answer by plain bisection: one test per halving."""
    desc = IntPoly(poly.coeffs[max(poly.trailing_zeros() - 1, 0) :]).monic_positive().coeffs[::-1]
    exp = 0
    while (hi - lo) << bits > 1 << exp:
        lo, hi, exp = 2 * lo, 2 * hi, exp + 1
        mid = (lo + hi) // 2
        if _at_or_above(desc, mid, exp):
            hi = mid
        else:
            lo = mid
    return Fraction(lo, 1 << exp), Fraction(hi, 1 << exp), exp


@pytest.fixture
def tests_made(monkeypatch):
    """The number of positivity tests made so far."""
    made = [0]

    def counted(*args):
        made[0] += 1
        return _at_or_above(*args)

    monkeypatch.setattr(roots, "_at_or_above", counted)
    return made


def sympy_charpoly(matrix) -> list[int]:
    """Ascending coefficients of det(x*I - A)."""
    return [int(c) for c in reversed(sp.Matrix(matrix).charpoly().all_coeffs())]


@PROPERTY
@given(matrices())
def test_charpoly_matches_sympy(matrix):
    assert charpoly(matrix).coeffs == tuple(sympy_charpoly(matrix))


@PROPERTY
@given(matrices())
def test_rho_is_the_largest_real_root(matrix):
    roots = sp.real_roots(sp.Poly(list(reversed(sympy_charpoly(matrix))), X))
    with mpmath.workprec(256):
        expected = mpmath.mpf(str(roots[-1].evalf(80)))
        assert abs(spectral_radius(matrix).rho - expected) < mpmath.mpf(2) ** -100


@PROPERTY
@given(beta_cases())
def test_beta_eigen_matches_sympy_remainder(case):
    matrix, n, m = case
    quadratic = sp.Poly([1, -n, m], X)
    remainder = sp.Poly(list(reversed(sympy_charpoly(matrix))), X).rem(quadratic)
    assert verify_beta_eigen(matrix, n, m) == remainder.is_zero


@PROPERTY
@given(matrices(), st.integers(0, 40))
@example([[0]], 10)
@example([[2]], 10)  # hi must stay 2 exactly
@example([[0, 1], [1, 0]], 10)  # roots 1 and -1
@example([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 10)  # two complex roots of modulus 1
@example([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0]], 10)  # a double Perron root
@example([[0, 1, 0], [0, 0, 1], [0, 0, 0]], 10)  # nilpotent: x^3, rho = 0
# a double Perron root, the golden ratio, beside a double zero root
@example(
    [
        [1, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0],
    ],
    10,
)
def test_largest_root_interval_holds_the_perron_root(matrix, bits):
    coeffs = sympy_charpoly(matrix)
    top = sp.real_roots(sp.Poly(list(reversed(coeffs)), X))[-1]
    hi_bound = max(map(sum, matrix))
    lo, hi, _ = largest_root(IntPoly(coeffs), -1, hi_bound, bits)
    assert hi - lo <= Fraction(1, 2**bits)
    assert sp.Rational(lo.numerator, lo.denominator) < top
    assert top <= sp.Rational(hi.numerator, hi.denominator)
    if top == hi_bound:
        assert hi == hi_bound


@PROPERTY
@given(matrices(), st.integers(0, 256))
@example([[2]], 10)  # hi exact
@example([[0, 1, 0], [0, 0, 1], [0, 0, 0]], 10)  # nilpotent: x^3, rho = 0
@example(golden_blocks(2), 10)  # a double Perron root
@example(golden_blocks(3), 256)  # a triple Perron root
@example([[10**40]], 256)  # hi exact, 2^133 above lo
@example([[1, 0], [0, 1]], 10)  # a double Perron root on the grid: r = hi = 1
def test_largest_root_is_the_bisection_cell(matrix, bits):
    poly = IntPoly(sympy_charpoly(matrix))
    hi_bound = max(map(sum, matrix))
    assert largest_root(poly, -1, hi_bound, bits) == bisect(poly, -1, hi_bound, bits)


@PROPERTY
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5), st.integers(1, 5), st.integers(0, 64))
def test_any_polynomial_gets_the_bisection_cell(tail, lead, bits):
    # roots, complex ones too, lie within Cauchy's bound, so the test fails
    # at -bound and passes at bound; Newton's bracket may be wrong off Perron
    poly = IntPoly([*tail, lead])
    bound = 1 + max(map(abs, tail))
    assert largest_root(poly, -bound, bound, bits) == bisect(poly, -bound, bound, bits)


def test_a_graph_takes_a_few_tests(sweep_specs, tests_made):
    # bisection makes S >= 129 tests per graph at 128 bits, plus two on the bracket
    for _, _, _, spec in sweep_specs:
        for policy in Policy:
            matrix = build_graph(spec, policy).adjacency
            before = tests_made[0]
            spectral_radius(matrix)
            assert tests_made[0] - before <= 12, matrix


def test_a_repeated_root_stays_within_the_bisection_bound(tests_made):
    # Newton gains only about 1/m of the distance to an m-fold root a step, so
    # the halvings do the rest, within bisection's steps + 2 tests: 13 of 132
    # for (x^2-x-1)^2 at 128 bits, 182 of 260 for the triple golden ratio
    for poly, bits in ((IntPoly([-1, -1, 1]) ** 2, 128), (charpoly(golden_blocks(3)), 256)):
        before = tests_made[0]
        lo, hi, steps = largest_root(poly, -1, 2, bits)
        assert (lo, hi, steps) == bisect(poly, -1, 2, bits)
        assert tests_made[0] - before <= steps + 2
    # a double root on the grid, r = hi = 1: s and s' vanish at v, which is
    # then the root, so Newton ends without falling back to bisection
    before = tests_made[0]
    assert largest_root(charpoly([[1, 0], [0, 1]]), -1, 1, 10)[1] == 1
    assert tests_made[0] - before <= 3


def test_charpoly_validation():
    with pytest.raises(InvalidArgument):
        charpoly([])
    with pytest.raises(InvalidArgument):
        charpoly([[1, 2]])


def test_largest_root_needs_a_root_in_the_bracket():
    with pytest.raises(InvalidArgument):
        largest_root(IntPoly([-5, 1]), 0, 4, 10)  # the root 5 lies above the bracket
    with pytest.raises(InvalidArgument):
        largest_root(IntPoly([-5, 1]), 5, 9, 10)  # lo must lie below the root
