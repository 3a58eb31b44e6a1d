"""Dense univariate polynomials over the integers.

Coefficients are stored ascending (index = degree of the term), with no
trailing zeros; the zero polynomial is the empty tuple. Everything is exact:
division helpers either return an integer-coefficient result or refuse.

Sum, product, long division and powering are one kernel each on ascending
coefficient lists (`_add`, `_convolve`, `_divide`, `_power`), shared by
`IntPoly`, the parser, `roots.charpoly` and the factorizer's (Z/q)[x]
arithmetic; their results are untrimmed, and each caller normalizes them.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..errors import (
    DivisorZero,
    InvalidArgument,
    PolySyntaxError,
    ResourceLimitError,
    UnsupportedExponent,
    WorkBudget,
)

# -- the list core ----------------------------------------------------------------


def _add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficient sum."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The schoolbook product, skipping the zero coefficients of a."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divide(rem: list[int], b: Sequence[int]) -> Optional[list[int]]:
    """Integer long division of rem by b (nonzero leading coefficient), in place.

    Returns the quotient and leaves the remainder in rem[: len(b) - 1], or
    returns None at the first quotient digit that is not an integer.
    """
    dlen = len(b)
    lead = b[-1]
    quot = [0] * max(0, len(rem) - dlen + 1)
    for top in range(len(rem) - 1, dlen - 2, -1):
        q, r = divmod(rem[top], lead)
        if r:
            return None
        if q:
            pos = top - (dlen - 1)
            quot[pos] = q
            for j, dc in enumerate(b):
                rem[pos + j] -= q * dc
    return quot


def _power(base, e: int, mul: Callable, one):
    """base^e for e >= 0 by right-to-left square and multiply: mul(result, base)
    at each set bit, then mul(base, base) unless no bit is left."""
    out = one
    while True:
        if e & 1:
            out = mul(out, base)
        e >>= 1
        if not e:
            return out
        base = mul(base, base)


class IntPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise InvalidArgument(f"integer coefficients required, got {c!r}")
        self_coeffs: tuple[int, ...] = tuple(cs)
        object.__setattr__(self, "coeffs", self_coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, coeff: int, exponent: int) -> "IntPoly":
        if exponent < 0:
            raise InvalidArgument(f"exponent must be nonnegative, got {exponent}")
        return cls((0,) * exponent + (coeff,))

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({self.to_string()!r})"

    # -- ring arithmetic --------------------------------------------------------

    def __add__(self, other) -> "IntPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return IntPoly(_add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "IntPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "IntPoly":
        return (-self) + other

    def __mul__(self, other) -> "IntPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return IntPoly(_convolve(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "IntPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise InvalidArgument(f"polynomial power needs a nonnegative integer, got {exponent!r}")
        return IntPoly(_power(self.coeffs, exponent, _convolve, [1]))

    @staticmethod
    def _coerce(other) -> Optional["IntPoly"]:
        if isinstance(other, IntPoly):
            return other
        if isinstance(other, int):
            return IntPoly((other,))
        return None

    # -- evaluation and calculus -------------------------------------------------

    def evaluate(self, x):
        """Horner evaluation; exact in whatever ring x lives in."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def inflate(self, k: int) -> "IntPoly":
        """Substitute x -> x^k."""
        if k < 1:
            raise InvalidArgument(f"inflate needs k >= 1, got {k}")
        if self.is_zero or k == 1:
            return self
        out = [0] * (self.degree * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return IntPoly(out)

    def shift(self, e: int) -> "IntPoly":
        """Multiply by x^e."""
        if e < 0:
            raise InvalidArgument(f"shift needs e >= 0, got {e}")
        if self.is_zero:
            return self
        return IntPoly((0,) * e + self.coeffs)

    def trailing_zeros(self) -> int:
        if self.is_zero:
            return 0
        n = 0
        while self.coeffs[n] == 0:
            n += 1
        return n

    # -- content and normalization --------------------------------------------------

    def content(self) -> int:
        """gcd of the coefficients, nonnegative; 0 only for the zero polynomial."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive_part(self) -> "IntPoly":
        if self.is_zero:
            return self
        c = self.content()
        return IntPoly(tuple(v // c for v in self.coeffs))

    def monic_positive(self) -> "IntPoly":
        """Primitive part with positive leading coefficient."""
        p = self.primitive_part()
        return -p if p.lc < 0 else p

    def norm1(self) -> int:
        return sum(abs(c) for c in self.coeffs)

    def max_norm(self) -> int:
        return max((abs(c) for c in self.coeffs), default=0)

    # -- rendering ----------------------------------------------------------------

    def to_string(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = head + (var if e == 1 else f"{var}^{e}")
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(sign + body)
        return "".join(parts)


# -- exact division ------------------------------------------------------------------


def exact_div(dividend: IntPoly, divisor: IntPoly) -> Optional[IntPoly]:
    """The quotient U with divisor*U = dividend over the integers, else None.

    Long division over Q has a unique quotient, so U is integral exactly when
    each leading coefficient along the way is a multiple of lc(divisor).
    """
    if divisor.is_zero:
        raise DivisorZero("polynomial division by zero")
    rem = list(dividend.coeffs)
    quot = _divide(rem, divisor.coeffs)
    if quot is None or any(rem[: divisor.degree]):
        return None
    return IntPoly(quot)


def gcd_poly(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient (contents are ignored)."""
    return _gcd(a, b, lambda units: None)


def _gcd(a: IntPoly, b: IntPoly, charge: Callable[[int], None]) -> IntPoly:
    """gcd_poly by the primitive remainder sequence, charging each
    pseudo-division before it runs.

    Dividing p by q takes deg p - deg q + 1 rows of deg q + 1 coefficient
    steps each; a row costs deg q + 1 units, plus b*c/2^14 for each nonzero
    coefficient of q, for the b bits of the scaled dividend and the c bits of
    the divisor. These are the units of intpoly.factor.MAX_FACTOR_WORK: 42-65
    ns each in-process (2 vCPUs) on dense degree 30-100 inputs with 100-600-bit
    coefficients.
    """
    if a.is_zero and b.is_zero:
        raise InvalidArgument("gcd of two zero polynomials")
    if a.is_zero:
        return b.monic_positive()
    if b.is_zero:
        return a.monic_positive()
    p, q = a.monic_positive(), b.monic_positive()
    if p.degree < q.degree:
        p, q = q, p
    while not q.is_zero:
        # the pseudo-remainder: lc(q)^(deg p - deg q + 1) * p divides by q in Z
        steps = p.degree - q.degree + 1
        size = (steps * q.lc.bit_length() + p.max_norm().bit_length()) * q.max_norm().bit_length()
        terms = sum(1 for c in q.coeffs if c)
        charge(steps * (len(q.coeffs) + terms * (size >> 14)))
        rem = _convolve((q.lc**steps,), p.coeffs)
        _divide(rem, q.coeffs)
        p, q = q, IntPoly(rem[: q.degree]).monic_positive()
    return p.monic_positive()


# -- the structured families ------------------------------------------------------


def family_poly(n: int, m: int, k: int) -> IntPoly:
    """x^(2k) - n*x^k + m."""
    if k < 1:
        raise InvalidArgument(f"family_poly needs k >= 1, got {k}")
    out = [0] * (2 * k + 1)
    out[0] = m
    out[k] = -n
    out[2 * k] = 1
    return IntPoly(out)


def moran_poly(exponents: Sequence[int]) -> IntPoly:
    """x^(k_t) - sum_i x^(k_t - k_i) for sorted positive exponents k_1 <= ... <= k_t.

    Like terms combine, so repeated exponents produce coefficients below -1.
    """
    ks = list(exponents)
    if not ks:
        raise InvalidArgument("moran_poly needs at least one exponent")
    if any(k < 1 for k in ks):
        raise InvalidArgument(f"moran_poly exponents must be positive, got {ks}")
    if any(ks[i] > ks[i + 1] for i in range(len(ks) - 1)):
        raise InvalidArgument(f"moran_poly exponents must be sorted ascending, got {ks}")
    top = ks[-1]
    out = [0] * (top + 1)
    out[top] += 1
    for k in ks:
        out[top - k] -= 1
    return IntPoly(out)


# -- parsing -------------------------------------------------------------------------

_ADD, _MUL, _POW = 1, 2, 3

# parse ceilings: the largest exponent, product or power degree, and the
# largest coefficient size (bits) a product or power may reach. At these
# values (x+1)^512 parses in 0.02 s and (7x+8)^512, the costliest power
# allowed, in 0.11 s; each product or power is refused before it is built.
MAX_DEGREE = 512
MAX_COEFF_BITS = 2048
# work budget of one whole parse, in coefficient operations: a product a*b
# takes (nonzero terms of a) * (terms of b) coefficient products, each
# weighted by 1 + (bits of a) * (bits of b) / 2^15, and a sum or negation one
# operation per term. (7x+8)^512 spends 2.2e6 of it.
MAX_PARSE_WORK = 4_000_000


class _Parser:
    """Precedence climber over +, -, *, ^, parentheses, integers, one variable.

    Adjacent primaries multiply implicitly, so 3x^2 and 2(x+1) parse.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.var: Optional[str] = None
        self.budget = WorkBudget(
            MAX_PARSE_WORK,
            f"the expression needs more than {MAX_PARSE_WORK} coefficient operations",
        )

    def fail(self, message: str, pos: Optional[int] = None):
        raise PolySyntaxError(message, position=self.pos if pos is None else pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        ch = self.text[self.pos]
        return "-" if ch == "−" else ch

    def parse(self) -> IntPoly:
        result = self.expr(_ADD)
        self.skip_ws()
        if self.pos < len(self.text):
            self.fail(f"unexpected {self.text[self.pos]!r}")
        return result

    def expr(self, min_prec: int) -> IntPoly:
        left = self.unary()
        while True:
            ch = self.peek()
            # note: peek returns "" at end of input, and "" is a substring of
            # every string, so membership must test against a tuple
            if ch in ("+", "-"):
                prec, right_assoc = _ADD, False
            elif ch == "*":
                prec, right_assoc = _MUL, False
            elif ch == "^":
                prec, right_assoc = _POW, True
            elif ch.isalnum() or ch == "(":
                prec, right_assoc = _MUL, False
                ch = ""  # implicit product: no operator to consume
            else:
                break
            if prec < min_prec:
                break
            op_pos = self.pos
            if ch:
                self.pos += 1
            rhs = self.expr(prec if right_assoc else prec + 1)
            if ch in ("+", "-"):
                self.budget(len(left.coeffs) + len(rhs.coeffs), position=op_pos)
                left = left + rhs if ch == "+" else left - rhs
            elif ch == "^":
                left = self._power(left, rhs, op_pos)
            else:
                _check_size(
                    left.degree + rhs.degree,
                    left.norm1().bit_length() + rhs.norm1().bit_length(),
                    op_pos,
                )
                left = self._product(left, rhs, op_pos)
        return left

    def _power(self, base: IntPoly, exponent: IntPoly, op_pos: int) -> IntPoly:
        if exponent.degree > 0:
            raise UnsupportedExponent("exponent must be a constant", position=op_pos)
        e = exponent.lc  # 0 for the zero polynomial
        if e < 0:
            raise UnsupportedExponent(f"exponent must be nonnegative, got {e}", position=op_pos)
        _check_size(max(e, base.degree * e), base.norm1().bit_length() * e, op_pos)
        # square and multiply as IntPoly.__pow__ does, charging every product
        return _power(base, e, lambda a, b: self._product(a, b, op_pos), IntPoly.one())

    def _product(self, a: IntPoly, b: IntPoly, op_pos: int) -> IntPoly:
        size = a.max_norm().bit_length() * b.max_norm().bit_length()
        work = sum(1 for c in a.coeffs if c) * len(b.coeffs) * (1 + (size >> 15))
        self.budget(work, position=op_pos)
        return a * b

    def unary(self) -> IntPoly:
        ch = self.peek()
        if ch == "-":
            op_pos = self.pos
            self.pos += 1
            operand = self.expr(_MUL)
            self.budget(len(operand.coeffs), position=op_pos)
            return -operand
        if ch == "+":
            self.pos += 1
            return self.expr(_MUL)
        return self.primary()

    def primary(self) -> IntPoly:
        ch = self.peek()
        if ch == "":
            self.fail("unexpected end of input")
        if ch == "(":
            self.pos += 1
            inner = self.expr(_ADD)
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            return inner
        if ch.isdecimal():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdecimal():
                self.pos += 1
            # a d-digit literal has fewer than 10*d/3 bits
            _check_size(0, (self.pos - start) * 10 // 3, start)
            return IntPoly((int(self.text[start : self.pos]),))
        if ch.isalpha():
            if self.var is None:
                self.var = ch
            elif self.var != ch:
                self.fail(f"single variable expected, saw {self.var!r} and {ch!r}")
            self.pos += 1
            return IntPoly.x()
        self.fail(f"unexpected {ch!r}")
        raise AssertionError("unreachable")


def _check_size(degree: int, coeff_bits: int, position: int) -> None:
    """Refuse a product or power whose degree or coefficient bound is over a ceiling.

    The coefficients of a*b are at most norm1(a)*norm1(b) in size, and those
    of a^e at most norm1(a)^e.
    """
    if degree > MAX_DEGREE:
        raise ResourceLimitError(
            f"degree or exponent {degree} exceeds {MAX_DEGREE}",
            ceiling=MAX_DEGREE,
            position=position,
        )
    if coeff_bits > MAX_COEFF_BITS:
        raise ResourceLimitError(
            f"coefficients of about {coeff_bits} bits exceed {MAX_COEFF_BITS}",
            ceiling=MAX_COEFF_BITS,
            position=position,
        )


def parse_poly(text: str) -> IntPoly:
    """Parse an integer polynomial expression in one variable."""
    if not text.strip():
        raise PolySyntaxError("empty polynomial expression", position=0)
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ResourceLimitError("expression nests too deeply") from None
