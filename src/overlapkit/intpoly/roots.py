"""Exact real algebra on IntPoly: characteristic polynomials and Perron roots.

Every decision is the sign of an integer: `charpoly` is Berkowitz's
division-free algorithm, and the largest real root of a Perron polynomial is
bisected on dyadic points a/2^e, each tested by the signs of one Taylor shift.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..errors import InvalidArgument
from .poly import IntPoly, _convolve


def charpoly(matrix: Sequence[Sequence[int]]) -> IntPoly:
    """det(x*I - A) of a square integer matrix, by Berkowitz's algorithm.

    Growing the trailing block B by a diagonal entry a, row R and column C
    multiplies the descending coefficients by the lower-triangular Toeplitz
    matrix with first column 1, -a, -R*C, -R*B*C, -R*B^2*C, ...: a
    convolution with that column, truncated to one more coefficient.
    """
    size = len(matrix)
    if size == 0 or any(len(row) != size for row in matrix):
        raise InvalidArgument("matrix must be square and nonempty")
    vec = [1]
    for k in range(size - 1, -1, -1):
        row, col = matrix[k][k + 1 :], [r[k] for r in matrix[k + 1 :]]
        toeplitz = [1, -matrix[k][k]]
        for _ in range(size - k - 1):
            toeplitz.append(-sum(r * c for r, c in zip(row, col)))
            col = [sum(b * c for b, c in zip(r[k + 1 :], col)) for r in matrix[k + 1 :]]
        vec = _convolve(toeplitz, vec)[: len(vec) + 1]
    return IntPoly(reversed(vec))


def _at_or_above(desc: Sequence[int], num: int, exp: int) -> bool:
    """Whether no Taylor coefficient at num/2^exp of the polynomial with
    descending coefficients desc is negative. Pass i of the Taylor shift of
    2^(exp*d) * p((num + u)/2^exp) fixes its coefficient of u^i, 2^(exp*(d-i))
    times the i-th Taylor one, and the test stops at the first negative one."""
    shifted = [c << (exp * j) for j, c in enumerate(desc)]
    d = len(shifted) - 1
    for i in range(d):
        for j in range(1, d - i + 1):
            shifted[j] += num * shifted[j - 1]
        if shifted[d - i] < 0:
            return False
    return True


def largest_root(poly: IntPoly, lo: int, hi: int, bits: int) -> tuple[Fraction, Fraction, int]:
    """Interval (a, b] of width at most 2^-bits holding the largest real root
    r of a Perron polynomial poly: every other complex root z has Re z < r,
    as for det(x*I - A) with A >= 0 (Perron-Frobenius).

    Let s be poly with positive leading coefficient; s(x + t) is lc(s) times
    the product of t + (x - z) over its roots z, repeated ones included. For
    x > r every real factor, and every conjugate pair
    t^2 + 2*Re(x - z)*t + |x - z|^2, has positive coefficients, so all
    Taylor coefficients of s at x are positive; at x = r the factors
    t + (x - r) become t, so the coefficients are nonnegative and the lowest
    ones, as many as r's multiplicity, are 0. For x < r, t = r - x > 0 is a
    root of s(x + t), which a polynomial with nonnegative coefficients and
    positive leading one cannot have. So x >= r iff no Taylor coefficient of
    s at x is negative. The integers lo and hi must satisfy lo < r <= hi;
    bisection keeps a < r <= b. Returns a, b and the number of bisection
    steps.
    """
    # the root 0 kept once: the shifts run on a lower degree, and x^j keeps 0
    desc = IntPoly(poly.coeffs[max(poly.trailing_zeros() - 1, 0) :]).monic_positive().coeffs[::-1]
    if _at_or_above(desc, lo, 0) or not _at_or_above(desc, hi, 0):
        raise InvalidArgument(f"the largest root of {poly.to_string()} is not in ({lo}, {hi}]")
    exp = steps = 0
    while (hi - lo) << bits > 1 << exp:
        lo, hi, exp, steps = 2 * lo, 2 * hi, exp + 1, steps + 1
        mid = (lo + hi) // 2
        if _at_or_above(desc, mid, exp):
            hi = mid
        else:
            lo = mid
    return Fraction(lo, 1 << exp), Fraction(hi, 1 << exp), steps
