"""The exact spectral core, cross-checked against sympy on random inputs."""

from __future__ import annotations

from fractions import Fraction

import mpmath
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overlapkit.errors import InvalidArgument
from overlapkit.graphdir import spectral_radius, verify_beta_eigen
from overlapkit.intpoly import IntPoly
from overlapkit.intpoly.roots import charpoly, largest_root

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
