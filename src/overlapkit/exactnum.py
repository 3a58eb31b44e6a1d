"""Exact arithmetic foundation: big rationals, the exact normal form of a
quadratic root, perfect power detection, and multiplicative dependence of
rationals.

Everything here is a pure function on immutable values. Parameters stay
rational so that structural predicates elsewhere in the toolkit are decided
by exact equality, never by epsilon.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Union

import mpmath

from .errors import FactorizationUnknown, InvalidArgument, NonPositiveDiscriminant

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


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def _fraction_to_mpf(value: Fraction) -> mpmath.mpf:
    # Rounds at the caller's working precision; callers add guard bits.
    return mpmath.mpf(value.numerator) / mpmath.mpf(value.denominator)


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _squarefree_split(d: int) -> tuple[int, int]:
    """Write d = s^2 * f with f squarefree; returns (s, f).

    Falls back to (1, d) if d resists the factoring budget.
    """
    try:
        fac = factor_integer(d)
    except FactorizationUnknown:
        return 1, d
    s = 1
    f = 1
    for p, e in fac.items():
        s *= p ** (e // 2)
        if e % 2:
            f *= p
    return s, f


class QuadSurd:
    """Exact value a + b*sqrt(D), the printed normal form of a quadratic root.

    D is normalized to its squarefree part (and must end up > 1), so equal
    reals have equal components and equality is componentwise. Rational
    values (b == 0) compare equal across fields. There is no arithmetic or
    ordering: decisions about the root are made on rationals or integers.
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

    def __eq__(self, other) -> bool:
        if isinstance(other, QuadSurd):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.D == other.D and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.D))

    def __repr__(self) -> str:
        return f"QuadSurd({self.a} + {self.b}*sqrt({self.D}))"

    def __float__(self) -> float:
        return float(surd_to_float(self, 64))


class RationalRoots(NamedTuple):
    """Both roots of a monic quadratic whose discriminant is a square."""

    larger: Fraction
    smaller: Fraction


def quad_roots(n: int, m: int):
    """Both roots of x^2 - n*x + m, exactly.

    Returns a (dominant, conjugate) QuadSurd pair when the discriminant is
    not a perfect square, a RationalRoots pair when it is, and raises
    NonPositiveDiscriminant when n^2 - 4m <= 0.
    """
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
    t = math.isqrt(disc)
    if t * t == disc:
        return RationalRoots(Fraction(n + t, 2), Fraction(n - t, 2))
    half = Fraction(1, 2)
    return (QuadSurd(Fraction(n, 2), half, disc), QuadSurd(Fraction(n, 2), -half, disc))


def surd_to_float(x: QuadSurd, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpmath.mpf:
    """Binary approximation of x, absolute error below 2^(2 - precision_bits)
    at unit scale (guard bits grow with the magnitude of the components)."""
    if precision_bits < 53:
        raise InvalidArgument(f"precision_bits must be >= 53, got {precision_bits}")
    mag = max(abs(x.a), abs(x.b) * (math.isqrt(x.D) + 1), Fraction(1))
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
        return math.isqrt(m)
    if k >= m.bit_length():
        return 1
    if m.bit_length() <= 52:
        r = max(int(m ** (1.0 / k)), 1)
    else:
        # Newton from an upper bound; the iteration is monotone decreasing.
        r = 1 << -(-m.bit_length() // k)
        while True:
            s = ((k - 1) * r + m // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
    while r**k > m:
        r -= 1
    while (r + 1) ** k <= m:
        r += 1
    return r


@lru_cache(maxsize=None)
def _primes_upto(limit: int) -> tuple[int, ...]:
    if limit < 2:
        return ()
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i, flag in enumerate(sieve) if flag)


def is_perfect_power(m: int) -> Optional[tuple[int, int]]:
    """Canonical witness (a, i) with a^i == m, smallest base and largest
    exponent i >= 2; None when m is not a perfect power. 1 reports (1, 2)."""
    if m < 1:
        raise InvalidArgument(f"m must be >= 1, got {m}")
    if m == 1:
        return (1, 2)
    base = m
    exponent = 1
    while True:
        for q in _primes_upto(base.bit_length()):
            r = integer_root(base, q)
            if r**q == base:
                base = r
                exponent *= q
                break
        else:
            break
    if exponent >= 2:
        return (base, exponent)
    return None


# -- integer factorization (trial division, Miller-Rabin, Pollard rho) ----------

_TRIAL_LIMIT = 10**6
# Pollard rho iterations per cofactor before factor_integer gives up
RHO_BUDGET = 200_000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases; deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, budget: int) -> Optional[int]:
    """Brent-cycle rho; deterministic (fixed parameter sweep), budgeted."""
    for c in range(1, 20):
        y, m_batch, g, r, q = 2, 128, 1, 1, 1
        x = ys = 2
        spent = 0
        while g == 1 and spent < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m_batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                spent += min(m_batch, r - k)
                g = math.gcd(q, n)
                k += m_batch
            r *= 2
        if g == n:
            g = 1
            while g == 1 and spent < budget:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                spent += 1
        if 1 < g < n:
            return g
    return None


def factor_integer(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    Trial division up to 1e6, then Pollard rho on what remains. A cofactor
    that resists the budget raises FactorizationUnknown rather than letting a
    wrong answer through.
    """
    if n < 1:
        raise InvalidArgument(f"factor_integer needs n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    p = 5
    while p * p <= n and p < _TRIAL_LIMIT:
        for q in (p, p + 2):
            while n % q == 0:
                out[q] = out.get(q, 0) + 1
                n //= q
        p += 6
    if n == 1:
        return out
    stack = [n]
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        pp = is_perfect_power(v)
        if pp is not None:
            base, exp = pp
            for _ in range(exp):
                stack.append(base)
            continue
        d = _pollard_rho(v, RHO_BUDGET)
        if d is None:
            raise FactorizationUnknown(
                f"cofactor {v} resisted the factoring budget", cofactor=str(v)
            )
        stack.append(d)
        stack.append(v // d)
    return out


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
