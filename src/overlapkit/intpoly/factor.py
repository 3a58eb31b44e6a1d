"""Complete factorization over the integers: the squarefree kernel, modular
factorization at a chosen small prime, quadratic Hensel lifting, and
Zassenhaus subset recombination.

With g = gcd(f, f'), the kernel f / g has every irreducible factor of f once,
and g each one its multiplicity less one times. Only the kernel is factored;
each factor's multiplicity is 1 plus the number of times it divides g.

A kernel f = g(x^k), k > 1 the gcd of its exponents, goes through one
Capelli loop first (the theorem and its proofs are in `_factor_squarefree`):
g(x^t) is decided for each t in T, the primes dividing k and 4 when 4 | k,
smallest t first, and the first that splits, into h_1...h_r, splits f into
the h_i(x^(k/t)), each factored in turn; when none splits, f is irreducible
and no prime is tried for it. For a trinomial f = x^(2k) + b*x^k + c with
D = b^2 - 4c positive and no square, each g(x^t) is decided by integer tests
(`_splits_at`, with `_pth_root`), and only a g(x^t) that splits is lifted.
So the family x^(2k)-n*x^k+m, which the degree sets below can never prove
irreducible at an even k, is lifted only when it splits. Any other g(x^t) is
factored the same way. At a prime k or k = 4, g(x^k) is f itself: such a
trinomial is lifted whole when the integer tests find it splits, and any
other such f, or f at k = 1, at once. Whatever is lifted takes the path
below (`_zassenhaus`).

The prime is chosen from distinct-degree factorizations alone. Modulo the
first good prime (p >= 5, not dividing lc(f), f mod p squarefree) f splits
into some number of factors; when that is more than FEW_MODULAR_FACTORS, the
next good primes are split too, up to PRIME_TRIALS in all. Every factor of f
over Z has a degree that is a subset sum of each prime's degree pattern, so
the intersection of these sums bounds the degrees a factor can have
(Musser's test). When it holds only 0 and deg f, f is irreducible and no
equal-degree split, lift or recombination runs. Otherwise f is split, lifted
and recombined at the prime with the fewest modular factors.

Modular factoring raises to p-th powers through the Frobenius matrix of f mod
p (rows x^(p*i) mod f for i < deg f), so each p-th power mod f is one
matrix-vector product: the distinct-degree split steps x^(p^d) with it, and
the equal-degree split builds the norm a^(1+p+...+p^(d-1)) with it before one
power by (p-1)/2 (Berlekamp, 1967; von zur Gathen and Shoup, Comput.
Complexity 2, 1992). One matrix is built per prime tried, and the chosen
prime's serves every part and every piece of the equal-degree split: a piece
g divides f mod p, so a power mod f mod p, reduced mod g, is the power mod g,
and one random power a round splits every piece of a part at once.

Products mod p, and mod p^j while the coefficients are small, are packed:
Kronecker substitution puts each coefficient in a 64-bit slot of one integer,
so a product is one big-integer multiply (von zur Gathen and Gerhard, Modern
Computer Algebra, 8.4). The Frobenius rows are packed the same way, and so is
a table of x^(n+j) mod f for f mod p of degree n, built once per chosen
prime: a p-th power, and a reduction mod f, cost one multiply-add per nonzero
coefficient. The equal-degree split's norm and its power by (p-1)/2 reduce
through that table; the Frobenius rows themselves are built by long division,
which is faster on the sparse moduli of the x^(2k)-n*x^k+m family.

The recombination loop filters subsets by degree (subset degree sum at most
half the remaining degree, and in the intersected degree set) while letting
the subset size run over the full range, which keeps the search complete;
a candidate past Mignotte's bound is never divided, and trial division over
the integers is the only acceptance test. Every stage is charged to one
budget, MAX_FACTOR_WORK, before it runs, and past it the call raises
ResourceLimitError.
"""

from __future__ import annotations

import random
import sys
from array import array
from dataclasses import dataclass
from itertools import combinations
from math import gcd, isqrt
from typing import Callable, Iterator, NamedTuple, Optional

from ..errors import ConsistencyError, InvalidArgument, WorkBudget
from ..exactnum import integer_root, is_square
from .poly import IntPoly, _add, _convolve, _gcd, _power, exact_div

# work budget of one factor call, charged before each stage runs, in units of
# about one coefficient product of the pure-Python loops (25-90 ns in-process,
# 2 vCPUs). The charges were fitted to schoolbook products and reductions and
# are kept as they were, so the packed kernels run below them; the
# equal-degree round alone is fitted to the packed kernels it runs. For f of
# degree D: each pseudo-division of the remainder sequence of gcd(f, f') as
# poly._gcd weighs it; each candidate prime's squarefree test (D+1)^2; the
# Frobenius matrix mod p, one at each prime tried, p * (D+1)^2; each step of a
# distinct-degree split (D+1) * (D+1 + the cofactor's length); each
# equal-degree round into degree-d factors, over pieces of total length L, D *
# (16 * (d + bits of p) + (d - 1) * D + 4 * L): its power takes d - 1
# Frobenius steps and about 1.5 * bits of p products mod f mod p, and its gcds
# one long division of the power by each piece (13-81 ns a unit measured, over
# the family's splits and products of 20 to 112 linear factors); the Hensel
# lift 8 * D^2 * (bits of target) * (bits of factor count - 1) * weight, with
# weight = 1 + b^2/2^20 for the b bits of p^target; each recombination subset
# of size k (96 + 8k) * weight; and each trial division by a candidate of
# degree e 4 * e * c * (1 + c * m^2/2^21), for the cofactor's degree c and the
# m bits of Mignotte's bound; each trinomial root test at a prime p bits(p) *
# (64 + bits of its largest coefficient), 2-65 ns a unit measured over the
# family and random trinomials with up to 2040-bit coefficients and k up to
# 251. The costliest calls admitted took 0.73-1.05 s (x^220+x+1), 0.39-0.58 s
# ((x-1)(x-2)...(x-104)), 0.44-0.57 s ((x-1)...(x-112), the most linear
# factors, 171,000 units inside the budget), 0.20-0.27 s (the degree-32
# Swinnerton-Dyer polynomial) and 0.14-0.15 s
# (x^32-n*x^16+1 for an 1880-bit n at x+1, lifted whole; unshifted, the
# Capelli loop lifts it only at degree 4, in 3-4 ms), while x^400+x+1,
# (x+1)^512+1, the degree-64 Swinnerton-Dyer polynomial and (x-1)...(x-113)
# were refused after 0.51-0.80, 0.09-0.13, 0.47-0.59 and 0.44-0.68 s
# (in-process, 10 runs each on a shared 2-vCPU host whose speed swung by about
# 40 %)
MAX_FACTOR_WORK = 16_000_000
Charge = Callable[[int], None]  # spends units of MAX_FACTOR_WORK
# _choose_prime tries more primes than the first only when it gives more than
# FEW_MODULAR_FACTORS modular factors, and then at most PRIME_TRIALS in all.
PRIME_TRIALS = 5
FEW_MODULAR_FACTORS = 4

# -- arithmetic in (Z/p)[x], and in (Z/p^j)[x] for Hensel lifting: plain ------
# ascending int lists, no trailing zeros. Sums reduce the integer list core's
# results mod q. A product of coefficients in [0, q) is one packed big-integer
# product (Kronecker substitution: each coefficient in a 64-bit unsigned slot
# of one int, so CPython's Karatsuba multiplies once), one unpack and one % q
# per coefficient, while the slot holds each product coefficient and both
# operands have three terms or more; otherwise it is the core's schoolbook
# _convolve reduced mod q. Only the division, by an inverse of the leading
# coefficient, is this ring's own; the fixed modulus f mod p of a prime is
# reduced through _gf_reducer's table of x^(deg f + j) mod f, and raised to
# p-th powers through its Frobenius rows, both packed the same way and summed
# by _combine. Mod p^j only the coefficients prime to p are invertible, so
# there _gf_divmod only divides by monic polynomials and _gf_monic only scales
# a leading coefficient prime to p.

# the unsigned array typecode of a 64-bit slot, told by its itemsize (the C
# types' sizes vary by platform)
_SLOT = next(code for code in "ILQ" if array(code).itemsize == 8)
SLOT_BITS = 64


def _pack(a: list[int]) -> int:
    """sum a[i] * 2^(64*i), each a[i] in [0, 2^64)."""
    return int.from_bytes(array(_SLOT, a).tobytes(), sys.byteorder)


def _unpack(v: int, length: int) -> array:
    """The first `length` 64-bit slots of v, which must be below 2^(64*length)."""
    return array(_SLOT, v.to_bytes(length * SLOT_BITS // 8, sys.byteorder))


def _fits(p: int, terms: int) -> bool:
    """Whether a 64-bit slot holds a sum of `terms` products of two residues
    mod p, each below p^2: 2 * bits(p-1) + bits(terms) bits at most."""
    return 2 * (p - 1).bit_length() + terms.bit_length() <= SLOT_BITS


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_add(a: list[int], b: list[int], p: int) -> list[int]:
    return _trim([c % p for c in _add(a, b)])


def _gf_sub(a: list[int], b: list[int], p: int) -> list[int]:
    return _trim([c % p for c in _add(a, [-v for v in b])])


def _gf_mul(a: list[int], b: list[int], p: int) -> list[int]:
    """The product mod p of a and b, every coefficient in [0, p).

    A product coefficient is a sum of at most min(len a, len b) products below
    p^2; when a slot cannot hold that sum (_fits), and for a one- or two-term
    operand, which is faster there, the product stays schoolbook.
    """
    if not a or not b:
        return []
    short = min(len(a), len(b))
    if short < 3 or not _fits(p, short):
        return _trim([c % p for c in _convolve(a, b)])
    packed = _pack(a)
    prod = packed * (packed if b is a else _pack(b))
    return _trim([c % p for c in _unpack(prod, len(a) + len(b) - 1)])


def _combine(low: list[int], high: list[int], rows: list[int], n: int, p: int) -> list[int]:
    """low + sum high[j] * rows[j] mod p, for rows packed as in _gf_mul: one
    big-integer multiply-add per nonzero high[j] and one unpack of n slots.
    The caller checks that each slot's sum fits 64 bits."""
    acc = _pack(low)
    for c, row in zip(high, rows):
        if c:
            acc += c * row
    return _trim([c % p for c in _unpack(acc, n)])


Reduce = Callable[[list[int]], list[int]]


def _gf_reducer(g: list[int], p: int, extra: int) -> Reduce:
    """a -> a mod g, equal to _gf_mod(a, g, p), for a monic g of degree n >= 1
    and a dividend a of at most n + extra coefficients, each in [0, p).

    It tabulates T_j = x^(n+j) mod g for j < extra, each from the one before
    (x * T_j less its top coefficient times g), packed as in _gf_mul; then
    a mod g = a[:n] + sum a[n+j] * T_j by _combine (a dividend of at most n
    coefficients is its own remainder). Each slot sums at most extra + 1 terms
    below p^2. _factor_mod_p's reducer, extra = n - 1 at f's prime, fits
    whenever f's Frobenius matrix did, which sums n terms a slot; a reducer
    that does not fit raises ConsistencyError.
    """
    if not _fits(p, extra + 1):
        raise ConsistencyError("the reduction table overflows a 64-bit slot")
    n = len(g) - 1
    low = g[:n]
    t = [-c % p for c in low]
    table = [_pack(t)]
    for _ in range(extra - 1):
        top = t[-1]
        t = [(lo - top * c) % p for lo, c in zip([0] + t, low)]
        table.append(_pack(t))
    return lambda a: _combine(a[:n], a[n:], table, n, p) if len(a) > n else _trim(a[:])


def _gf_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("GF(p)[x] division by zero")
    rem = list(a)
    dlen = len(b)
    inv = pow(b[-1], -1, p)
    quot = [0] * max(0, len(rem) - dlen + 1)
    for top in range(len(rem) - 1, dlen - 2, -1):
        c = rem[top] % p
        if c:
            q = c * inv % p
            pos = top - (dlen - 1)
            quot[pos] = q
            for j, dc in enumerate(b):
                rem[pos + j] = (rem[pos + j] - q * dc) % p
    return _trim(quot), _trim(rem[: dlen - 1])


def _gf_mod(a: list[int], b: list[int], p: int) -> list[int]:
    return _gf_divmod(a, b, p)[1]


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _gf_mod(a, b, p)
    return _gf_monic(a, p)


def _gf_monic(a: list[int], p: int) -> list[int]:
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gf_deriv(a: list[int], p: int) -> list[int]:
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def _gf_eea(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_sub(s0, _gf_mul(q, s1, p), p)
        t0, t1 = t1, _gf_sub(t0, _gf_mul(q, t1, p), p)
    if not r0:
        raise ZeroDivisionError("eea of zero polynomials")
    inv = pow(r0[-1], -1, p)
    scale = lambda v: [c * inv % p for c in v]
    return scale(r0), scale(s0), scale(t0)


# -- factorization in GF(p)[x] ---------------------------------------------------


def _frobenius(g: list[int], p: int, charge: Charge) -> list[int]:
    """The Frobenius matrix of a monic g of degree n: rows x^(p*i) mod g for
    i < n, packed as in _gf_mul.

    Row i + 1 is x^p times row i: one shift by p and one reduction mod g. A
    p-th power sums n products below p^2 in each coefficient; the charge keeps
    p * (n+1)^2 within MAX_FACTOR_WORK, so a budgeted call's slots hold them.
    """
    charge(p * len(g) ** 2)
    if not _fits(p, len(g) - 1):
        raise ConsistencyError("Frobenius rows overflow a 64-bit slot")
    rows = [[1]]
    for _ in range(len(g) - 2):
        rows.append(_gf_mod([0] * p + rows[-1], g, p))
    return [_pack(row) for row in rows]


def _frob_apply(a: list[int], rows: list[int], p: int) -> list[int]:
    """a^p mod g, for a reduced mod g, from g's Frobenius rows.

    In GF(p)[x], (sum a_i x^i)^p = sum a_i x^(p*i): one matrix-vector product
    by _combine, reduced mod p once at the end.
    """
    return _combine([], a, rows, len(rows), p)


def _ddf(f: list[int], rows: list[int], p: int, charge: Charge) -> list[tuple[list[int], int]]:
    """Distinct-degree split of a monic squarefree f, given its Frobenius
    matrix: list of (product, degree).

    h = x^(p^d) mod f steps through the matrix; a part of degree-d factors is
    gcd(h - x, cur) for the cofactor cur that divides f.
    """
    out: list[tuple[list[int], int]] = []
    h = _gf_mod([0, 1], f, p)
    cur = list(f)
    d = 0
    while len(cur) - 1 > 2 * d:
        d += 1
        charge(len(f) * (len(f) + len(cur)))
        h = _frob_apply(h, rows, p)
        g = _gf_gcd(_gf_sub(h, [0, 1], p), cur, p)
        if len(g) > 1:
            out.append((g, d))
            cur, rem = _gf_divmod(cur, g, p)
            if rem:
                raise ConsistencyError("distinct-degree split failed to divide")
    if len(cur) > 1:
        out.append((cur, len(cur) - 1))
    return out


def _cz_power(a: list[int], d: int, rows: list[int], reduce: Reduce, p: int) -> list[int]:
    """a^((p^d-1)/2) mod F, for a reduced mod a monic F, rows F's Frobenius
    matrix and reduce F's _gf_reducer (extra = deg F - 1).

    It is t^((p-1)/2) for the norm t = a^(1+p+...+p^(d-1)), built by d - 1
    steps t <- t^p * a mod F. Each product mod F is _gf_mul's, reduced
    through the table.
    """
    mul = lambda u, v: reduce(_gf_mul(u, v, p))
    t = a
    for _ in range(d - 1):
        t = mul(_frob_apply(t, rows, p), a)
    return _power(t, (p - 1) // 2, mul, [1])


def _edf(
    g: list[int],
    d: int,
    rows: list[int],
    reduce: Reduce,
    p: int,
    rng: random.Random,
    charge: Charge,
) -> list[list[int]]:
    """Cantor-Zassenhaus equal-degree split of a monic squarefree g into its
    degree-d factors, for g dividing a monic F of degree n with Frobenius
    matrix rows and _gf_reducer reduce.

    Each round draws one random a of degree below deg g, and _cz_power gives
    b = a^((p^d-1)/2) mod F. A piece h of g still to split divides F, so
    b mod h is a^((p^d-1)/2) mod h, and a mod h is as random as a:
    gcd(b - 1, h) splits h as a power mod h itself would. So one power serves
    every piece, and nothing is built for any. No gcd(a, h) is taken first:
    on a factor of h that shares a root with a, b is 0, so b - 1 is a unit
    there and that factor goes to the cofactor. The split is still proper
    when another factor has b = 1; otherwise h waits for the next round, as
    for any a with b = 1 on every factor of h or on none.
    """
    n = len(rows)
    done: list[list[int]] = []
    pieces = [list(g)]
    while True:
        done += [h for h in pieces if len(h) - 1 == d]
        pieces = [h for h in pieces if len(h) - 1 > d]
        if not pieces:
            return done
        # one power mod F and one gcd per piece: see MAX_FACTOR_WORK
        charge(n * (16 * (d + p.bit_length()) + (d - 1) * n + 4 * sum(map(len, pieces))))
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        b = _gf_sub(_cz_power(a, d, rows, reduce, p), [1], p)
        split: list[list[int]] = []
        for h in pieces:
            s = _gf_gcd(b, h, p)
            if 1 < len(s) < len(h):
                quot, rem = _gf_divmod(h, s, p)
                if rem:
                    raise ConsistencyError("equal-degree split failed to divide")
                split += [s, quot]
            else:
                split.append(h)
        pieces = split


def _factor_mod_p(
    f: list[int], p: int, parts: list[tuple[list[int], int]], rows: list[int], charge: Charge
) -> list[list[int]]:
    """All monic irreducible factors of a monic squarefree f in GF(p)[x], given
    its distinct-degree split and Frobenius matrix. Every round of the
    equal-degree split powers mod f, through one reduction table."""
    rng = random.Random(0xC0FFEE ^ p ^ len(f))
    reduce = _gf_reducer(f, p, len(f) - 2)
    out: list[list[int]] = []
    for part, d in parts:
        out.extend(_edf(part, d, rows, reduce, p, rng, charge))
    out.sort(key=lambda g: (len(g), tuple(reversed(g))))
    return out


# -- Hensel lifting ----------------------------------------------------------------


def _hensel_step(
    q: int, f: list[int], g: list[int], h: list[int], s: list[int], t: list[int]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """One quadratic lift: from f = g*h and s*g + t*h = 1 (mod q) to mod q^2.

    h must be monic, so the divisions below invert only a unit mod q^2;
    degree bookkeeping follows the classical algorithm.
    """
    q2 = q * q
    e = _gf_sub(f, _gf_mul(g, h, q2), q2)
    qq, r = _gf_divmod(_gf_mul(s, e, q2), h, q2)
    g1 = _gf_add(g, _gf_add(_gf_mul(t, e, q2), _gf_mul(qq, g, q2), q2), q2)
    h1 = _gf_add(h, r, q2)
    b = _gf_sub(_gf_add(_gf_mul(s, g1, q2), _gf_mul(t, h1, q2), q2), [1], q2)
    cc, d = _gf_divmod(_gf_mul(s, b, q2), h1, q2)
    s1 = _gf_sub(s, d, q2)
    t1 = _gf_sub(t, _gf_add(_gf_mul(t, b, q2), _gf_mul(cc, g1, q2), q2), q2)
    return g1, h1, s1, t1


def _hensel_lift_tree(
    p: int, f: list[int], modular: list[list[int]], target: int
) -> list[list[int]]:
    """Lift monic modular factors of f (f = lc * prod, mod p) to mod p^target.

    Returns monic lifts, reduced mod p^target, in the order of the given
    modular factors.
    """
    qt = p**target
    if len(modular) == 1:
        return [_gf_monic(_trim([c % qt for c in f]), qt)]
    k = len(modular) // 2
    left, right = modular[:k], modular[k:]
    g = [f[-1] % p]
    for fac in left:
        g = _gf_mul(g, fac, p)
    h = [1]
    for fac in right:
        h = _gf_mul(h, fac, p)
    one, s, t = _gf_eea(g, h, p)
    if one != [1]:
        raise ConsistencyError("modular cofactors are not coprime")
    q = p
    while q < qt:
        g, h, s, t = _hensel_step(q, _trim([c % (q * q) for c in f]), g, h, s, t)
        q *= q
    g, h = _trim([c % qt for c in g]), _trim([c % qt for c in h])
    return _hensel_lift_tree(p, g, left, target) + _hensel_lift_tree(p, h, right, target)


# -- the driver ---------------------------------------------------------------------


@dataclass(frozen=True)
class Factorization:
    """unit * content * prod(poly^multiplicity) reconstructs the input exactly."""

    unit: int
    content: int
    factors: tuple[tuple[IntPoly, int], ...]

    def product(self) -> IntPoly:
        out = IntPoly((self.unit * self.content,))
        for poly, mult in self.factors:
            out = out * poly**mult
        return out

    def listed(self) -> list[str]:
        """The factors as text, each repeated by its multiplicity."""
        return [poly.to_string() for poly, mult in self.factors for _ in range(mult)]

    @property
    def is_irreducible_shape(self) -> bool:
        return (
            self.content == 1
            and len(self.factors) == 1
            and self.factors[0][1] == 1
        )


def _mignotte_bound(f: IntPoly) -> int:
    """Coefficient bound for every candidate `_factor_squarefree` rebuilds.

    A candidate is lc(cur) times monic lifts, of degree e <= deg(cur) // 2
    <= deg(f) // 2 (the cofactor is an exact quotient, never rebuilt). As a
    factor it is (lc(cur) / lc(g)) * g for a factor g of cur, hence of f, and
    |lc(cur)| <= |lc(f)|. Mignotte's bound gives ||g||_inf <= 2^e * ||f||_2,
    and ||f||_2 <= sqrt(deg f + 1) * ||f||_inf.
    """
    d = f.degree
    return (isqrt(d + 1) + 1) * (1 << d // 2) * f.max_norm() * abs(f.lc)


def _good_primes(f: IntPoly, charge: Charge) -> Iterator[tuple[int, list[int]]]:
    """Primes p >= 5 not dividing lc(f) with f mod p squarefree, in increasing
    order, each with f mod p made monic. Each candidate's squarefree test
    is charged (deg f + 1)^2 before its gcd."""
    p = 5
    while True:
        if _prime_divisors(p) == [p] and f.lc % p != 0:
            charge((f.degree + 1) ** 2)
            fp = _gf_monic(_trim([c % p for c in f.coeffs]), p)
            if len(_gf_gcd(fp, _gf_deriv(fp, p), p)) == 1:
                yield p, fp
        p += 2


class PrimeChoice(NamedTuple):
    """The prime to lift at, and what the distinct-degree splits showed."""

    prime: int
    fp: list[int]  # f mod prime, monic
    rows: list[int]  # its Frobenius matrix
    parts: list[tuple[list[int], int]]  # its distinct-degree split
    count: int  # its number of modular factors
    degrees: int  # bit d set iff every prime tried allows a factor of degree d
    tried: tuple[int, ...]


def _choose_prime(f: IntPoly, charge: Charge) -> PrimeChoice:
    """Distinct-degree factor f modulo good primes; keep the fewest-factor one.

    A factor of f over Z is, modulo each good prime, a product of some of the
    modular factors, so its degree is a subset sum of every prime's degree
    pattern (Musser, J. ACM 25, 1978); `degrees` intersects these sums. The
    first prime settles the choice when it gives at most FEW_MODULAR_FACTORS
    factors; otherwise up to PRIME_TRIALS primes are tried. Trying stops as
    soon as only 0 and deg f are left, which proves f irreducible. Only the
    Frobenius matrix of the best prime so far is kept, for the equal-degree
    split.
    """
    irreducible = 1 | 1 << f.degree
    degrees = -1  # every degree, before the first prime
    tried: list[int] = []
    best = None  # (count, p, fp, rows, parts) of the fewest-factor prime so far
    for p, fp in _good_primes(f, charge):
        rows = _frobenius(fp, p, charge)
        parts = _ddf(fp, rows, p, charge)
        sums, count = 1, 0
        for part, d in parts:
            for _ in range((len(part) - 1) // d):
                sums |= sums << d
                count += 1
        degrees &= sums
        tried.append(p)
        if best is None or count < best[0]:
            best = (count, p, fp, rows, parts)
        if (
            degrees == irreducible
            or len(tried) == PRIME_TRIALS
            or (len(tried) == 1 and count <= FEW_MODULAR_FACTORS)
        ):
            break
    count, p, fp, rows, parts = best
    return PrimeChoice(p, fp, rows, parts, count, degrees, tuple(tried))


def _prime_divisors(k: int) -> list[int]:
    """The primes dividing k >= 1, increasing, by trial division of k: the
    one primality test of the package (k is prime iff this is [k])."""
    primes, d = [], 2
    while d * d <= k:
        if k % d == 0:
            primes.append(d)
            while k % d == 0:
                k //= d
        d += 1
    return primes + [k] if k > 1 else primes


def _floor_root(x: int, p: int) -> int:
    """floor(x^(1/p)) for an odd p and any integer x, the real root."""
    return integer_root(x, p) if x >= 0 else ~integer_root(~x, p)


def _power_sum(trace: int, norm: int, p: int, bound: int) -> Optional[int]:
    """t_p for t_0 = 2, t_1 = trace, t_j = trace*t_(j-1) - norm*t_(j-2),
    along p's binary prefixes j by t_(2j) = t_j^2 - 2*norm^j and
    t_(2j+1) = t_j*t_(j+1) - trace*norm^j; None once a |t_j| passes bound."""
    t, t_next, power = 2, trace, 1  # t_j, t_(j+1), norm^j at j = 0
    for bit in bin(p)[2:]:
        if bit == "1":
            t, t_next = t * t_next - trace * power, t_next * t_next - 2 * norm * power
            power *= power * norm
        else:
            t, t_next = t * t - 2 * power, t * t_next - trace * power
            power *= power
        if abs(t) > bound:
            return None
    return t


def _pth_root(b: int, c: int, p: int, s: int) -> Optional[tuple[int, int, int]]:
    """(p, T, N) when a root of x^2 + b*x + c is the p-th power of a gamma in
    K = Q(sqrt D), D = b^2 - 4c > 0 and no square, p a prime, else None; T and
    N are gamma's trace and norm (T > 0 when p = 2). s is isqrt(D), taken
    once by a caller that tries several p. Integers only.

    The p-th root. Let a > a' be the roots, irrational as D is no square,
    with K = Q(a) real (_factor_squarefree says why a p-th root decides
    x^(2p) + b*x^p + c). A gamma in K with gamma^p = a is a root of the monic
    x^p - a, so an algebraic integer: T = gamma + gamma' and N = gamma*gamma'
    are integers, with gamma'^p = a' for the conjugate, so N^p = c and the
    power sum t_p = gamma^p + gamma'^p is -b (`_power_sum`). Conversely, let
    g, g' be the roots of x^2 - T*x + N for integers with N^p = c and
    t_p = -b. Then g^p and g'^p have sum -b and product c, so they are a and
    a'; a is irrational, so g is, and Q(g), which holds a, is K: a is a p-th
    power in K. So a p-th root exists iff an integer (T, N) solves both
    equations, and N is the exact p-th root of c (either sign for p = 2).

    The trace. For p = 2, t_2 = T^2 - 2N, so T = isqrt(2N - b) is the only
    candidate with T >= 0 for each N; gamma and -gamma share N, and T = 0
    would make a = a'. For an odd p the real p-th root is unique and
    increasing, so gamma = a^(1/p) and gamma' = a'^(1/p), both irrational.
    An integer j is at most gamma iff j^p <= a, iff j^p <= A = floor(a), so
    floor(gamma) = floor(A^(1/p)), and likewise floor(gamma') =
    floor(A'^(1/p)) for A' = floor(a'). As a and a' are irrational,
    A = (-b + s) // 2 and A' = (-b - s - 1) // 2. The fractional parts of
    gamma and gamma' lie in (0, 1) and sum to an integer, so to 1:
    T = floor(gamma) + floor(gamma') + 1 is the only candidate.

    The cut-off. For the true (T, N), |t_j| <= |gamma|^j + |gamma'|^j
    <= max(1, |a|) + max(1, |a'|) < |b| + s + 3 for every j <= p, as
    |a|, |a'| <= (|b| + sqrt D) / 2. So a trace is rejected once a |t_j|
    passes |b| + s + 2, and each of the at most two candidates costs at most
    2 * bits(p) products of operands below about (|b| + s) * (|T| + |N|).
    """
    r = integer_root(abs(c), p)
    if r**p != abs(c) or (p == 2 and c < 0):
        return None
    if p == 2:
        candidates = [(isqrt(2 * norm - b), norm) for norm in (r, -r) if 2 * norm - b >= 0]
    else:
        trace = _floor_root((-b + s) // 2, p) + _floor_root((-b - s - 1) // 2, p) + 1
        candidates = [(trace, r if c > 0 else -r)]
    for trace, norm in candidates:
        if _power_sum(trace, norm, p, abs(b) + s + 2) == -b:
            return p, trace, norm
    return None


def _splits_at(b: int, c: int, t: int, charge: Charge) -> bool:
    """Whether g(x^t) is reducible, for g = x^2 + b*x + c with D = b^2 - 4c
    positive and no square, and t a prime or 4; at t = 4 g(x^2) must be
    irreducible. Integers only: the p-th-root test at a prime t, the 4 clause
    at t = 4 (proofs in _factor_squarefree). Each _pth_root call is charged
    bits(p) * (64 + bits of its largest coefficient) before it runs.
    """
    def root(b: int, c: int, p: int) -> Optional[tuple[int, int, int]]:
        charge(p.bit_length() * (64 + max(abs(b), abs(c)).bit_length()))
        return _pth_root(b, c, p, isqrt(b * b - 4 * c))

    if t != 4:
        return root(b, c, t) is not None
    if c < 0 or b < 0:
        return False
    eta = root(-4 * b, 16 * c, 2)
    return eta is not None and root(-eta[1], eta[2], 2) is not None


def _factor_squarefree(f: IntPoly, charge: Charge) -> list[IntPoly]:
    """Irreducible factors of a primitive squarefree f, positive lc, f(0) != 0.

    Write f = g(x^k), k the gcd of f's exponents, and T for the primes
    dividing k and 4 when 4 | k, in increasing order. For k > 1, g(x^t) is
    decided for each t in T in turn. A quadratic g = x^2 + b*x + c with
    D = b^2 - 4c positive and no square is decided at each t by _splits_at,
    and a g(x^t) that splits is lifted and recombined (_zassenhaus); any
    other g(x^t) is factored by this function. The first g(x^t) that splits,
    into h_1...h_r with r > 1, splits f, which is g(x^t) at x^(k/t), into the
    h_i(x^(k/t)), each factored in turn. When none splits, f is irreducible,
    and no prime is tried for it. When k is a prime or 4, g(x^k) is f itself:
    a quadratic g is still decided by _splits_at, and f lifted whole when it
    splits; any other f, and every f at k = 1, goes to _zassenhaus at once.
    Each g(x^t) has f's coefficients, and a square u^2 dividing it would put
    u(x^(k/t))^2 in f; each h_i(x^(k/t)) divides f. So both are primitive and
    squarefree, with a positive lc and f(0) != 0. Each build is charged at
    its length.

    Capelli. A factorization g = u*v gives g(x^t) = u(x^t)*v(x^t), so when
    every g(x^t) is irreducible, g is. Let g be irreducible of degree n with a
    root a, and K = Q(a). For t >= 1 and r with r^t = a, g(x^t) has the root
    r, and Q(r) holds a = r^t, so [Q(r):Q] = n*[K(r):K]: g(x^t), of degree
    n*t, is irreducible iff x^t - a is irreducible over K. By Capelli's
    theorem (Schinzel, Polynomials with special regard to reducibility,
    2000), x^t - a is reducible over K iff a = e^p for an e in K and a prime
    p dividing t, or 4 | t and a = -4*e^4 for an e in K. At a prime t = p
    this reads: x^p - a is reducible iff a is a p-th power in K; at t = 4:
    iff a is a square or a = -4*e^4. So x^k - a is reducible iff x^p - a is
    for a prime p | k, or 4 | k and x^4 - a is (a square already makes
    x^2 - a reducible), and g(x^k) is irreducible iff every g(x^t), t in T,
    is.

    The quadratic g, irreducible as D is no square, has K = Q(sqrt D), a real
    field, and a != 0 as c != 0.
    - A prime t = p: a is a p-th power in K iff _pth_root(b, c, p) finds
      its p-th root.
    - t = 4, after t = 2 found no square root of a: x^4 - a is reducible iff
      a = -4*delta^4 for a delta in K.
    - The signs. a = -4*delta^4 is negative, and so is its conjugate
      a' = -4*delta'^4. So -b = a + a' < 0 and c = a*a' > 0: when c < 0 or
      b < 0, no root is -4*delta^4.
    - Both roots negative (b > 0 < c). a = -4*delta^4 iff u = -4a is eps^4
      for eps = 2*delta in K. u is a root of x^2 - 4b*x + 16c, of
      discriminant 16D, positive and no square, so the p = 2 test on
      (-4b, 16c) finds u's square roots +-eta in K when there are any, eta a
      root of x^2 - T1*x + N1 with T1 > 0. u = eps^4 iff eps^2 is eta or
      -eta. -eta is no square: its norm N1 is negative, or else -eta and its
      conjugate have the sum -T1 < 0 and the product N1 > 0, so both are
      negative. So u is a fourth power iff eta is a square in K: the p = 2
      test on (-T1, N1), which finds nothing when N1 < 0. Its discriminant is
      T1^2 - 4*N1 = 16D / T1^2 (as u - u' = (eta - eta')(eta + eta')),
      positive and no square, and Q(eta) = K, as eta is irrational.
    """
    def at_power(h: IntPoly, t: int) -> IntPoly:
        """h(x^t), charged at its length."""
        charge(h.degree * t + 1)
        return h.inflate(t)

    k = gcd(*(i for i, c in enumerate(f.coeffs) if c))
    t_values = sorted(_prime_divisors(k) + [4] * (k % 4 == 0))
    g = IntPoly(f.coeffs[::k])
    d = g[1] ** 2 - 4 * g[0]
    quadratic = k > 1 and g.degree == 2 and g.lc == 1 and d > 0 and not is_square(d)
    whole = k == 1 or k in t_values  # a split lifts f itself, no g(x^t)
    if whole and not quadratic:
        return _zassenhaus(f, charge)
    for t in t_values:
        if quadratic and not _splits_at(g[1], g[0], t, charge):
            continue
        if whole:
            return _zassenhaus(f, charge)
        parts = (_zassenhaus if quadratic else _factor_squarefree)(at_power(g, t), charge)
        if len(parts) > 1:
            return [irr for h in parts for irr in _factor_squarefree(at_power(h, k // t), charge)]
    return [f]


def _zassenhaus(f: IntPoly, charge: Charge) -> list[IntPoly]:
    """Irreducible factors of a primitive squarefree f, positive lc, f(0) != 0,
    by the path of the module docstring: the prime chosen from distinct-degree
    patterns, the modular factors lifted, and subsets recombined."""
    p, fp, rows, parts, count, degrees, _ = _choose_prime(f, charge)
    if degrees == 1 | 1 << f.degree:
        return [f]
    modular = _factor_mod_p(fp, p, parts, rows, charge)
    bound = _mignotte_bound(f)
    target = 1
    while p**target <= 2 * bound:
        target *= 2
    q = p**target
    weight = 1 + (q.bit_length() ** 2 >> 20)
    charge(8 * f.degree**2 * target.bit_length() * (count - 1).bit_length() * weight)
    lifted = _hensel_lift_tree(p, list(f.coeffs), modular, target)

    cur = f
    found: list[IntPoly] = []
    s = 1
    while s < len(lifted):
        for combo in combinations(range(len(lifted)), s):
            charge((96 + 8 * s) * weight)
            total = sum(len(lifted[i]) - 1 for i in combo)
            if total > cur.degree // 2 or not degrees >> total & 1:
                continue
            # Cheap veto on the constant coefficient before a full product.
            c0 = cur.lc
            for i in combo:
                c0 = c0 * lifted[i][0] % q
            c0 = c0 - q if c0 > q // 2 else c0
            if c0 == 0 or (cur.lc * cur[0]) % c0 != 0:
                continue
            cand = [cur.lc]
            for i in combo:
                cand = _gf_mul(cand, lifted[i], q)
            cand = [c - q if c > q // 2 else c for c in cand]
            # a factor's multiple never exceeds the bound, and dividing by a
            # candidate that does would grow the quotient by q's bits a step
            if max(map(abs, cand)) > bound:
                continue
            charge(4 * total * cur.degree * (1 + (cur.degree * bound.bit_length() ** 2 >> 21)))
            cand = IntPoly(cand).primitive_part()
            quot = exact_div(cur, cand)
            if quot is None:
                continue
            found.append(cand if cand.lc > 0 else -cand)
            cur = quot
            lifted = [g for i, g in enumerate(lifted) if i not in combo]
            break
        else:
            s += 1
    if cur.degree > 0:
        # Quotients of positive-lc primitives keep a positive lc.
        found.append(cur)
    elif cur.lc != 1:
        raise ConsistencyError("recombination left a non-unit constant")
    return found


def factor(p: IntPoly) -> Factorization:
    """Factor a nonzero integer polynomial into primitive irreducibles.

    Factors carry positive leading coefficients and are sorted by degree then
    coefficients; the unit is the sign and the content the coefficient gcd.
    Past MAX_FACTOR_WORK units of work it raises ResourceLimitError.
    """
    if p.is_zero:
        raise InvalidArgument("cannot factor the zero polynomial")
    unit = 1 if p.lc > 0 else -1
    work = p if unit == 1 else -p
    content = work.content()
    work = work.primitive_part()
    charge = WorkBudget(
        MAX_FACTOR_WORK, f"factoring needs more than {MAX_FACTOR_WORK} units of work"
    )
    factors: list[tuple[IntPoly, int]] = []
    e = work.trailing_zeros()
    if e:
        factors.append((IntPoly.x(), e))
        work = IntPoly(work.coeffs[e:])
    if work.degree >= 1:
        g = _gcd(work, work.derivative(), charge)
        kernel = exact_div(work, g)
        if kernel is None:
            raise ConsistencyError("the squarefree kernel is not an exact quotient")
        for irr in _factor_squarefree(kernel, charge):
            mult = 1
            while (quot := exact_div(g, irr)) is not None:
                g, mult = quot, mult + 1
            factors.append((irr, mult))
        if g.degree > 0:
            raise ConsistencyError("multiplicities left a nonconstant part of gcd(f, f')")
    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return Factorization(unit=unit, content=content, factors=tuple(factors))


def is_irreducible(p: IntPoly) -> bool:
    """True iff p is irreducible over the integers (primitive, one factor)."""
    if p.degree < 1:
        raise InvalidArgument("irreducibility is about degree >= 1 polynomials")
    return factor(p).is_irreducible_shape
