"""Exact real algebra on IntPoly: characteristic polynomials and real roots.

Every decision is the sign of an integer: `charpoly` is Berkowitz's
division-free algorithm, and real roots are isolated with Sturm sequences
and bisected on dyadic points a/2^e.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ..errors import InvalidArgument
from .poly import IntPoly, _pseudo_rem, exact_div, gcd_poly


def charpoly(matrix: Sequence[Sequence[int]]) -> IntPoly:
    """det(x*I - A) of a square integer matrix, by Berkowitz's algorithm.

    Growing the trailing block B by a diagonal entry a, row R and column C
    multiplies the descending coefficients by the lower-triangular Toeplitz
    matrix with first column 1, -a, -R*C, -R*B*C, -R*B^2*C, ...
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
        vec = [
            sum(toeplitz[i - j] * v for j, v in enumerate(vec[: i + 1]))
            for i in range(len(vec) + 1)
        ]
    return IntPoly(reversed(vec))


def sturm_chain(poly: IntPoly) -> tuple[IntPoly, ...]:
    """Sturm sequence p, p', -rem(p, p'), ... of the squarefree part p of poly.

    Each remainder is a pseudo-remainder scaled by a positive integer and
    made primitive, which keeps every sign and hence every variation count.
    """
    if poly.is_zero:
        raise InvalidArgument("the zero polynomial has no Sturm sequence")
    # poly / gcd(poly, poly') has each root once; by Gauss's lemma it is integral
    chain = [exact_div(poly, gcd_poly(poly, poly.derivative())).primitive_part()]
    chain.append(chain[0].derivative())
    while chain[-1].degree > 0:
        a, b = chain[-2], chain[-1]
        rem = _pseudo_rem(a, b)
        if b.lc < 0 and (a.degree - b.degree) % 2 == 0:
            rem = -rem  # it was scaled by lc(b)^(odd power) < 0
        chain.append(-rem.primitive_part())
    return tuple(chain)


def _sign_at(poly: IntPoly, num: int, den: int) -> int:
    """Sign of poly(num/den) for den > 0, from den^deg * poly(num/den)."""
    acc = 0
    scale = 1
    for c in reversed(poly.coeffs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def _variations(chain: Sequence[IntPoly], num: int, den: int) -> int:
    """Sign changes along the chain at num/den, zeros skipped."""
    signs = [s for s in (_sign_at(p, num, den) for p in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots(poly: IntPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of poly in (lo, hi], for lo < hi.

    Sturm's theorem gives V(lo) - V(hi), roots at either end included.
    """
    chain = sturm_chain(poly)
    return _variations(chain, *lo.as_integer_ratio()) - _variations(chain, *hi.as_integer_ratio())


def largest_root(poly: IntPoly, lo: int, hi: int, bits: int) -> tuple[Fraction, Fraction, int]:
    """Isolating interval (a, b] of the largest real root r of poly.

    The caller guarantees lo < r <= hi for integers lo and hi. Sturm
    bisection narrows (a, b] until r is its only root and b - a <= 2^-bits.
    Returns a, b and the number of bisection steps.
    """
    chain = sturm_chain(poly)
    v_lo, v_hi = _variations(chain, lo, 1), _variations(chain, hi, 1)
    if v_lo == v_hi:
        raise InvalidArgument(f"{poly.to_string()} has no real root in ({lo}, {hi}]")
    exp = steps = 0
    while v_lo - v_hi > 1 or (hi - lo) << bits > 1 << exp:
        lo, hi, exp, steps = 2 * lo, 2 * hi, exp + 1, steps + 1
        mid = (lo + hi) // 2
        v_mid = _variations(chain, mid, 1 << exp)
        if v_mid > v_hi:  # a root lies in (mid, hi], so r does
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
    return Fraction(lo, 1 << exp), Fraction(hi, 1 << exp), steps
