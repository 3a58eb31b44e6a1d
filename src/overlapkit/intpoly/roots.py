"""Exact real algebra on IntPoly: characteristic polynomials and Perron roots.

Every decision is the sign of an integer: `charpoly` is Berkowitz's
division-free algorithm on the matrix's distinct rows, and the largest real
root of a Perron polynomial is bracketed in the cell of bisection's dyadic
grid that bisection would return. Newton steps from above on the polynomial
itself, rounded to that grid, find the cell in a few rounds; the signs of one
Taylor shift per point certify its ends.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..errors import InvalidArgument
from .poly import IntPoly, _convolve


def charpoly(matrix: Sequence[Sequence[int]]) -> IntPoly:
    """det(x*I - A) of a square integer matrix, on its distinct rows.

    Let R be A's r distinct rows and P the V x r 0/1 matrix that picks each
    row of A from them, so A = P*R. By Sylvester's determinant identity
    det(x*I - P*R) = x^(V-r) * det(x*I - R*P), exact for any square A, and
    (R*P)[i][j] sums row i of R over the columns whose row is the j-th
    distinct one. A `graphdir` closure repeats most of its rows.
    """
    size = len(matrix)
    if size == 0 or any(len(row) != size for row in matrix):
        raise InvalidArgument("matrix must be square and nonempty")
    distinct: dict[tuple[int, ...], int] = {}
    picks = [distinct.setdefault(tuple(row), len(distinct)) for row in matrix]
    if len(distinct) == size:  # every row distinct: P = I and R*P = A
        return _berkowitz(matrix)
    reduced = [[0] * len(distinct) for _ in distinct]
    for reduced_row, row in zip(reduced, distinct):
        for j, c in zip(picks, row):
            reduced_row[j] += c
    return _berkowitz(reduced).shift(size - len(distinct))


def _berkowitz(matrix: Sequence[Sequence[int]]) -> IntPoly:
    """det(x*I - A) of a square integer matrix, by Berkowitz's algorithm.

    Growing the trailing block B by a diagonal entry a, row R and column C
    multiplies the descending coefficients by the lower-triangular Toeplitz
    matrix with first column 1, -a, -R*C, -R*B*C, -R*B^2*C, ...: a
    convolution with that column, truncated to one more coefficient.
    """
    size = len(matrix)
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

    The test. Let s be poly with positive leading coefficient; s(x + t) is
    lc(s) times the product of t + (x - z) over its roots z, repeated ones
    included. For x > r every real factor, and every conjugate pair
    t^2 + 2*Re(x - z)*t + |x - z|^2, has positive coefficients, so all
    Taylor coefficients of s at x are positive; at x = r the factors
    t + (x - r) become t, so the coefficients are nonnegative and the lowest
    ones, as many as r's multiplicity, are 0. For x < r, t = r - x > 0 is a
    root of s(x + t), which a polynomial with nonnegative coefficients and
    positive leading one cannot have. So x >= r iff no Taylor coefficient of
    s at x is negative. For any s the points passing the test form a ray
    [r*, oo): the Taylor coefficients at x + h are those at x shifted by
    h >= 0, sums of products of nonnegative numbers. The integers lo and hi
    must satisfy lo < r <= hi, checked by the test.

    The grid. Bisecting (lo, hi] to width 2^-bits takes S steps, S the least
    s with (hi - lo)*2^bits <= 2^s, and ends on the grid lo + j*(hi - lo)/2^S
    in the cell (a, b] whose upper end b is the first grid point passing the
    test. So S is computed, the cell is searched on the grid directly, and
    a, b and S are returned exactly as bisection would return them.

    Newton from above. Let d be the degree of s and mu the multiplicity of
    r. For x > r, s'/s(x) is the sum of 1/(x - z) over the roots of s,
    repeated ones included: a real z < r adds a term in (0, 1/(x - r)), a
    conjugate pair adds 2*Re(x - z)/|x - z|^2, in (0, 2/(x - r)), and r adds
    mu/(x - r). So mu/(x - r) <= s'/s <= d/(x - r), that is
    x - d*s/s' <= r <= x - mu*s/s' <= x - s/s': the Newton step from above
    never passes r and gains at least 1/d of the remaining distance x - r.
    It converges quadratically near a simple root and only linearly, by
    about 1/mu a step, near a multiple one; a graph's charpoly stripped of
    its zero roots is squarefree (`graphdir`'s closed form). Each round
    steps from the upper end v of the grid bracket (u, v] holding b, on
    integers scaled by 2^S, and rounds both bounds outward to the grid: v
    falls to the first grid point >= x - s/s', and u rises to the last one
    < x - d*s/s' if that is higher. If s vanishes at v, v is r and u the
    grid point below it. These moves are not tests; the bracket is one cell
    after a few rounds.

    The work bound. A round whose Newton step leaves more than half of (u, v]
    also halves it by one test at its midpoint. So there are at most S
    rounds, each with at most one test, and at most two tests at the end,
    where the test has the final word on both ends of the cell: it passes at
    b and fails at a. Should it ever disagree with Newton's bracket, which
    cannot happen for a Perron polynomial, the rounds go on by halving what
    the tests have certified, so the returned cell is bisection's for any
    poly. The bound holds at a multiple root too, where the halvings do the
    work Newton's linear steps leave: (x^2-x-1)^2 at 128 bits takes 13
    tests where a simple root takes 4, against bisection's S + 2 = 132.
    Returns a, b and S.
    """
    # the root 0 kept once: the shifts run on a lower degree, and x^j keeps 0
    stripped = IntPoly(poly.coeffs[max(poly.trailing_zeros() - 1, 0) :]).monic_positive()
    desc = stripped.coeffs[::-1]
    if _at_or_above(desc, lo, 0) or not _at_or_above(desc, hi, 0):
        raise InvalidArgument(f"the largest root of {poly.to_string()} is not in ({lo}, {hi}]")
    # grid point j is (base + j*width)/2^steps; the test fails at a, passes at b
    width = hi - lo
    steps = bits + (width - 1).bit_length()
    base = lo << steps
    degree, scaled = stripped.degree, [c << (steps * i) for i, c in enumerate(desc)]

    def passes(j: int) -> bool:
        return _at_or_above(desc, base + j * width, steps)

    a, b = 0, 1 << steps
    u, v, newton = a, b, True
    while b - a > 1:
        if v - u == 1:  # Newton's cell: the test certifies both ends
            if v < b:
                if passes(v):
                    b = v
                else:
                    a = v
            if a < u < b:
                if passes(u):
                    b = u
                else:
                    a = u
            if (u, v) != (a, b):  # not a Perron polynomial: bisect
                u, v, newton = a, b, False
            continue
        before = v - u
        if newton:
            # 2^(steps*d) s(x/2^steps) and its derivative at x = v's point
            x, f, df = base + v * width, 0, 0
            for c in scaled:
                f, df = f * x + c, df * x + f
            if f == 0:  # v is r, of any multiplicity
                u = v - 1
            elif f > 0 and df > 0:
                u = max(u, v - degree * f // (width * df) - 1)
                v -= f // (width * df)
            if f < 0 or (f > 0 and df <= 0) or u >= v:  # not a Perron polynomial: bisect
                u, v, newton = a, b, False
        if 2 * (v - u) > before:
            mid = (u + v) // 2
            if passes(mid):
                b = v = mid
            else:
                a = u = mid
    return Fraction(base + a * width, 1 << steps), Fraction(base + b * width, 1 << steps), steps
