"""Exact arithmetic foundation: big rationals, the exact normal form of a
quadratic root, perfect power detection, and multiplicative dependence of
rationals. Nothing here factors an integer.

Everything here is a pure function on immutable values. Parameters stay
rational so that structural predicates elsewhere in the toolkit are decided
by exact equality, never by epsilon.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import isqrt
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from .errors import InvalidArgument, NonPositiveDiscriminant, ResourceLimitError

if TYPE_CHECKING:
    import mpmath

DEFAULT_PRECISION_BITS = 128

Rationalish = Union[int, Fraction]


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q'. Decimal notation is rejected so inputs stay exact."""
    s = text.strip()
    num, sep, den = s.partition("/")
    try:
        if sep:
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(num.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgument(f"not an exact rational: {text!r}") from exc


def format_rational(value: Rationalish) -> str:
    """'p' or 'p/q': the one place a rational becomes text. Past the
    interpreter's int-to-str digit limit it raises ResourceLimitError, decided
    before anything is converted."""
    value = Fraction(value)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit (< 3.10.7)
    big = max(abs(value.numerator), value.denominator)
    # below 2^(3*limit) < 10^limit, so only a long number pays for the power
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise ResourceLimitError(f"rationals past {limit} digits cannot be printed", ceiling=limit)
    return str(value)


def _fraction_to_mpf(value: Fraction) -> mpmath.mpf:
    # Rounds at the caller's working precision; callers add guard bits.
    import mpmath

    return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


_TRIAL_LIMIT = 10**6


def _trial_divisors():
    # 2, 3 and the 6k+-1 wheel below _TRIAL_LIMIT: a superset of its primes
    yield 2
    yield 3
    for p in range(5, _TRIAL_LIMIT, 6):
        yield p
        yield p + 2


def _squarefree_split(d: int) -> tuple[int, int]:
    """Write d = s^2 * f for d >= 1 by trial division; returns (s, f).

    Trial division removes each prime p while p^3 <= c, the cofactor left,
    and stops there or at _TRIAL_LIMIT. Stopping at p^3 > c, every prime
    factor of c exceeds c^(1/3), so c is 1, q, q*r or q^2 (q != r primes)
    and one isqrt settles which. Stopping at the limit, every prime factor
    of c is at least 1000003, so again c has at most two when c < 10^18.
    So f is squarefree for d < 10^18 (every discriminant of an in-class
    n < 10^9); above that f may keep q^2 for a prime q > 10^6. Always
    s^2 * f == d, and the work is bounded whatever d is.
    """
    s, f, c = 1, 1, d
    cube = integer_root(c, 3)
    for p in _trial_divisors():
        if p > cube:
            break
        if c % p == 0:
            e = 0
            while c % p == 0:
                c //= p
                e += 1
            s *= p ** (e // 2)
            f *= p ** (e % 2)
            cube = integer_root(c, 3)
    r = isqrt(c)
    return (s * r, f) if r * r == c else (s, f * c)


class QuadSurd:
    """Exact value a + b*sqrt(D), the printed normal form of a quadratic root.

    The square factors _squarefree_split finds in D move into b. As D is
    not a square, the value is fixed by a and the signed b^2*D; equality and
    hash use that pair, so they hold whatever D's reduction. Rationals
    (b == 0) compare and hash like a. There is no arithmetic or ordering:
    decisions about the root are made on rationals or integers.
    """

    __slots__ = ("a", "b", "D")

    def __init__(self, a: Rationalish, b: Rationalish, D: int):
        D = int(D)
        if D <= 0:
            raise InvalidArgument(f"radicand must be positive, got {D}")
        if is_square(D):
            raise InvalidArgument(f"radicand must not be a perfect square, got {D}")
        s, f = _squarefree_split(D)
        self.a = Fraction(a)
        self.b = Fraction(b) * s
        self.D = f

    def _value(self) -> tuple[Fraction, Fraction]:
        return self.a, self.b * abs(self.b) * self.D

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadSurd):
            return self._value() == other._value()
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash(self._value())

    def __repr__(self) -> str:
        return f"QuadSurd({self.a} + {self.b}*sqrt({self.D}))"

    def __float__(self) -> float:
        return float(surd_to_float(self, 64))


class RationalRoots(NamedTuple):
    """Both roots of a monic quadratic whose discriminant is a square."""

    larger: Fraction
    smaller: Fraction


def _discriminant(n: int, m: int) -> int:
    """n^2 - 4m for positive n and m, raising NonPositiveDiscriminant when it is <= 0."""
    if n < 1 or m < 1:
        raise InvalidArgument(f"coefficients must be positive, got (n,m)=({n},{m})")
    disc = n * n - 4 * m
    if disc <= 0:
        raise NonPositiveDiscriminant(
            f"discriminant n^2-4m = {disc} is not positive for (n,m)=({n},{m})",
            n=n,
            m=m,
            discriminant=disc,
        )
    return disc


def quad_roots(n: int, m: int):
    """Both roots of x^2 - n*x + m, exactly.

    Returns a (dominant, conjugate) QuadSurd pair when the discriminant is
    not a perfect square, a RationalRoots pair when it is, and raises
    NonPositiveDiscriminant when n^2 - 4m <= 0.
    """
    disc = _discriminant(n, m)
    t = isqrt(disc)
    if t * t == disc:
        return RationalRoots(Fraction(n + t, 2), Fraction(n - t, 2))
    half = Fraction(1, 2)
    return (QuadSurd(Fraction(n, 2), half, disc), QuadSurd(Fraction(n, 2), -half, disc))


def surd_to_float(x: QuadSurd, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpmath.mpf:
    """Binary approximation of x, absolute error below 2^(2 - precision_bits)
    at unit scale (guard bits grow with the magnitude of the components)."""
    import mpmath

    if precision_bits < 53:
        raise InvalidArgument(f"precision_bits must be >= 53, got {precision_bits}")
    mag = max(abs(x.a), abs(x.b) * (isqrt(x.D) + 1), Fraction(1))
    extra = int(mag).bit_length() + 4
    with mpmath.workprec(precision_bits + 12 + extra):
        val = _fraction_to_mpf(x.a) + _fraction_to_mpf(x.b) * mpmath.sqrt(x.D)
    with mpmath.workprec(precision_bits):
        return +val


# -- perfect powers -------------------------------------------------------------


def integer_root(m: int, k: int) -> int:
    """Largest r >= 0 with r^k <= m (exact; m >= 0, k >= 1)."""
    if m < 0 or k < 1:
        raise InvalidArgument(f"integer_root needs m >= 0 and k >= 1, got ({m},{k})")
    if k == 1 or m < 2:
        return m
    if k == 2:
        return isqrt(m)
    if k >= m.bit_length():
        return 1
    # Newton from r > m^(1/k). By AM-GM every step s is at least the root
    # R = floor(m^(1/k)); while r > R, r^k > m makes s < r; at r == R, s >= r.
    # So the steps fall strictly to R and stop there.
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def is_perfect_power(m: int) -> Optional[tuple[int, int]]:
    """Canonical witness (a, i) with a^i == m, smallest base and largest
    exponent i >= 2; None when m is not a perfect power. 1 reports (1, 2)."""
    if m < 1:
        raise InvalidArgument(f"m must be >= 1, got {m}")
    if m == 1:
        return (1, 2)
    base, exponent = m, 1
    while True:
        # the first q that hits is prime: were q = a*b, the a-th root hit first
        for q in range(2, base.bit_length() + 1):
            r = integer_root(base, q)
            if r**q == base:
                base = r
                exponent *= q
                break
        else:
            break
    return (base, exponent) if exponent >= 2 else None


class CommonBase(NamedTuple):
    base: Fraction
    x_exponent: int
    y_exponent: int


def multiplicative_dependence(x: Fraction, y: Fraction) -> Optional[CommonBase]:
    """Common-base form x = r^kx, y = r^ky with gcd(kx, ky) = 1, if any.

    Both inputs must lie in (0, 1). Euclid's algorithm on the exponents finds
    r, by exact division of u = 1/x and w = 1/y (both > 1):

    - Keep u > w by swapping. If u = g^a and w = g^b for a rational g > 1,
      then for every e < a/b, w^e divides u (numerators and denominators),
      w^e < u and u/w^e = g^(a-be); when a check fails there is no common
      base. The loop takes e = (bits(num u) - 1) // bits(num w), or 1: with
      P = num(g) that is floor(a log2 P) // (floor(b log2 P) + 1) < a/b and
      at least about a/(2b), so q subtractive steps take O(log q) passes.
    - Replace u by u/w^e and repeat until u == w, tracking 1/x = u^p * w^q
      and 1/y = u^s * w^t. At u == w == G, 1/x = G^(p+q) and 1/y = G^(s+t);
      passes and swaps are unimodular, so the exponents are coprime, and a
      base with coprime exponents is unique.
    - u/w^e is in lowest terms and num(w) >= 2, so each pass halves num(u)
      at least: at most log2 num(1/x) + log2 num(1/y) passes, with no
      factoring and no logarithm.
    """
    for v in (x, y):
        if not (0 < v < 1):
            raise InvalidArgument(f"ratio must lie in (0,1), got {v}")
    u, w = 1 / Fraction(x), 1 / Fraction(y)
    p, q, s, t = 1, 0, 0, 1
    while u != w:
        if u < w:
            u, w, p, q, s, t = w, u, q, p, t, s
        e = max(1, (u.numerator.bit_length() - 1) // w.numerator.bit_length())
        power = w**e
        if u.numerator % power.numerator or u.denominator % power.denominator or power >= u:
            return None
        u, q, t = u / power, q + e * p, t + e * s
    return CommonBase(1 / u, p + q, s + t)
