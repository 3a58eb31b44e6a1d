"""Decision engine for the dust-equivalence obstruction.

For E in class A(lambda,n,m), Lipschitz equivalence to a dust-like
self-similar set forces x^(2k) - n*x^k + m to be reducible over the integers
for some k >= 2, which in turn forces m to be a perfect power. The verdicts
here report that necessary condition only; they never claim an equivalence
exists. By Capelli's theorem the family splits at k iff beta is a p-th power
in Q(sqrt(n^2-4m)) for a prime p dividing k; an integer test finds those
primes for every k at once (see `obstruction_verdict`), and only the k that
split are factored.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, NamedTuple, Optional

from .errors import ConsistencyError, InvalidArgument, ResourceLimitError
from .exactnum import format_rational, is_perfect_power, multiplicative_dependence
from .ifs import DustIfsSpec, check_class, check_feasible
from .intpoly import Factorization, IntPoly, factor, family_poly, gcd_poly, moran_poly
from .intpoly.factor import _prime_divisors, _pth_root

# a verdict factors only the k that split, so a sweep is cheap: obstruct-sweep
# --nmax 20 takes 0.15-0.17 s at kmax 8 and 0.16-0.18 s at 15 as a whole process,
# and the same sweep 0.13-0.14 s in-process at 24. With m = 1 and the 1880-bit
# n = g^4 + g'^4, g a unit of 470-bit trace, a verdict takes 0.04 s in-process at
# kmax 15, 0.05 s at 16 and 0.06-0.07 s at 24 (2-core Xeon); split_primes tests
# its 393 candidate primes with at most two power sums each, and each factor call
# is held by intpoly.factor.MAX_FACTOR_WORK
MAX_KMAX = 15
DEFAULT_KMAX = 8  # obstruct's and obstruct-sweep's kmax when none is given
MAX_NMAX = 20
# largest degree^2 * bits of dust-check's gcd, where bits are those of n plus
# those of the Moran polynomial's largest coefficient (its most repeated
# exponent). Its primitive remainder sequence takes about (degree^2 * bits)^1.5
# steps: in-process (2 vCPUs) the slowest of six random exponent sets at the
# ceiling took 1.04 s (degree 456, 4-bit n), 1.03 s (248, 16 bits), 1.16 s
# (90, 128 bits), 0.75 s (44, 512 bits) and 0.73 s (22, 2048 bits)
MAX_GCD_WORK = 1_048_576


class Verdict(str, Enum):
    OBSTRUCTED = "Obstructed"
    NECESSARY_CONDITION_MET = "NecessaryConditionMet"
    NECESSARY_CONDITION_OPEN = "NecessaryConditionOpen"


class SplitPrime(NamedTuple):
    """beta = gamma^p in O_K, gamma > 1 the larger root of x^2 - trace*x + norm."""

    p: int
    trace: int
    norm: int


@dataclass(frozen=True)
class ObstructionReport:
    """Perfect-power status of m, the primes p making beta a p-th power
    (the family splits at k iff one divides k) and the reducible exponents
    up to kmax with their factorizations."""

    n: int
    m: int
    kmax: int
    perfect_power: Optional[tuple[int, int]]
    split_primes: tuple[SplitPrime, ...]
    reducible_ks: tuple[tuple[int, Factorization], ...]
    verdict: Verdict

    def to_json(self) -> dict:
        pp = None
        if self.perfect_power is not None:
            pp = {"a": self.perfect_power[0], "i": self.perfect_power[1]}
        return {
            "n": self.n,
            "m": self.m,
            "kmax": self.kmax,
            "perfect_power": pp,
            "split_primes": [root._asdict() for root in self.split_primes],
            "reducible_ks": [{"k": k, "factors": fac.listed()} for k, fac in self.reducible_ks],
            "verdict": self.verdict.value,
        }


def _check_kmax(kmax: int) -> None:
    if kmax < 2:
        raise InvalidArgument(f"kmax must be >= 2, got {kmax}")
    if kmax > MAX_KMAX:
        raise ResourceLimitError(f"kmax must be <= {MAX_KMAX}, got {kmax}", ceiling=MAX_KMAX)


def split_primes(n: int, m: int, e: int) -> tuple[SplitPrime, ...]:
    """Every prime p with beta a p-th power in O_K, for an in-class (n, m)
    with m = a^e, e largest, each with the root's trace and norm. Integers
    only; the candidates are proven in `obstruction_verdict`, and each is
    tested by `intpoly.factor._pth_root`."""
    if m > 1:
        candidates = _prime_divisors(e)
    else:
        candidates, p, fib, fib_next = [], 2, 2, 3  # fib, fib_next = F(p+1), F(p+2)
        while fib < n:
            if _prime_divisors(p) == [p]:
                candidates.append(p)
            p, fib, fib_next = p + 1, fib_next, fib + fib_next
    s = isqrt(n * n - 4 * m)
    roots = (_pth_root(-n, m, p, s) for p in candidates)
    return tuple(SplitPrime(*root) for root in roots if root is not None)


def obstruction_verdict(n: int, m: int, kmax: int = DEFAULT_KMAX) -> ObstructionReport:
    """Verdict for (n, m): Obstructed when m is not a perfect power, else
    NecessaryConditionMet if some x^(2k)-n*x^k+m with 2 <= k <= kmax is
    reducible and NecessaryConditionOpen otherwise.

    `split_primes` decides every k at once: the family splits at k iff a
    listed prime divides k. So Open with no split primes holds at every
    kmax, and only the k in 2..kmax that split are factored, each
    factorization being the certificate.

    Capelli. In class, n^2-4m lies strictly between (n-2)^2 and n^2 with the
    parity of n, so it is no square, and x^2-n*x+m has roots n-1 < beta < n
    and 0 < beta' < 1 in the real field K = Q(sqrt(n^2-4m)). By Capelli's
    theorem (stated, and read for a quadratic, in
    `intpoly.factor._factor_squarefree`), x^(2k)-n*x^k+m splits iff beta =
    gamma^p with gamma in K and p a prime dividing k (beta = -4*gamma^4 with
    4 | k would make beta negative). gamma is an algebraic integer, so
    m = N(beta) = N(gamma)^p: p divides e for m = a^e, e largest, and
    N(gamma) = a^(e/p), or -a^(e/p) when p = 2. The k = 1 member never
    splits.

    The p-th-root test. `intpoly.factor._pth_root(-n, m, p, s)`, with
    s = isqrt(n^2-4m), gives the trace T and norm N of a gamma in K with
    gamma^p = beta (or beta', which is the same condition) iff one exists;
    its docstring proves the test and its one candidate trace from integers
    alone. For p = 2 it takes T > 0 and for an odd p the real root, so
    gamma^p = beta > 1 > beta' = gamma'^p makes gamma > 1 > |gamma'|, and
    gamma is the larger root of x^2 - T*x + N. So each listed (p, T, N)
    certifies a split at every multiple of p, and a prime missing from the
    list splits no k.

    The Fibonacci bound. For m = 1 gamma is a unit > 1, so T >= 1 when
    N = -1 and T >= 3 when N = 1, and gamma >= (1+sqrt(5))/2 = phi. As
    phi^p = F(p)*phi + F(p-1) > F(p+1), only the primes with F(p+1) < n
    can have phi^p <= beta < n. For a 2048-bit n that is about 420 primes,
    each with one candidate trace (two for p = 2).
    """
    _check_kmax(kmax)
    check_class(n, m)
    pp = is_perfect_power(m)
    roots = () if pp is None else split_primes(n, m, pp[1])
    reducible: list[tuple[int, Factorization]] = []
    for k in range(2, kmax + 1):
        if not any(k % root.p == 0 for root in roots):
            continue
        fac = factor(family_poly(n, m, k))
        if fac.is_irreducible_shape:
            raise ConsistencyError(
                f"x^{2 * k}-{n}x^{k}+{m} did not factor although beta is a p-th power",
                n=n,
                m=m,
                k=k,
            )
        reducible.append((k, fac))
    if pp is None:
        verdict = Verdict.OBSTRUCTED
    elif reducible:
        verdict = Verdict.NECESSARY_CONDITION_MET
    else:
        verdict = Verdict.NECESSARY_CONDITION_OPEN
    return ObstructionReport(
        n=n,
        m=m,
        kmax=kmax,
        perfect_power=pp,
        split_primes=roots,
        reducible_ks=tuple(reducible),
        verdict=verdict,
    )


def sweep(n_values: Iterable[int], *, kmax: int = DEFAULT_KMAX) -> list[ObstructionReport]:
    """Reports for every in-class (n, m) with n in n_values, (n, m) ascending."""
    _check_kmax(kmax)
    ns = set()
    for n in n_values:
        if n > MAX_NMAX:
            raise ResourceLimitError(f"n must be <= {MAX_NMAX}, got {n}", ceiling=MAX_NMAX)
        ns.add(n)
    reports = []
    for n in sorted(ns):
        for m in range(1, n - 1):
            reports.append(obstruction_verdict(n, m, kmax))
    return reports


class Conclusion(str, Enum):
    NOT_RULED_OUT = "NotRuledOut"
    RULED_OUT = "RuledOut"


class RuledOutReason(str, Enum):
    INCOMMENSURABLE_RATIOS = "IncommensurableRatios"
    DIMENSION_MISMATCH = "DimensionMismatch"
    WRONG_FACTOR = "WrongFactor"


@dataclass(frozen=True)
class EquivalenceCheck:
    """Outcome of testing one dust-like candidate against an in-class E.

    The polynomial fields are None when the ratios are already ruled out as
    multiplicatively independent of lambda.
    """

    n: int
    m: int
    lam: Fraction
    dust: DustIfsSpec
    k: Optional[int]
    exponents: Optional[tuple[int, ...]]
    pbar: Optional[IntPoly]
    qbar: Optional[IntPoly]
    gcd: Optional[IntPoly]
    shared_root: bool
    conclusion: Conclusion
    reason: Optional[RuledOutReason]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "lambda": format_rational(self.lam),
            "dust": self.dust.to_json(),
            "k": self.k,
            "exponents": list(self.exponents) if self.exponents is not None else None,
            "pbar": self.pbar.to_string() if self.pbar is not None else None,
            "qbar": self.qbar.to_string() if self.qbar is not None else None,
            "gcd": self.gcd.to_string() if self.gcd is not None else None,
            "shared_root": self.shared_root,
            "conclusion": self.conclusion.value,
            "reason": self.reason.value if self.reason is not None else None,
        }


def _lambda_exponents(lam: Fraction, dust: DustIfsSpec) -> Optional[list[Fraction]]:
    """Each contraction ratio as lambda^e with rational e, or None if any
    ratio is multiplicatively independent of lambda."""

    def exponent(ratio: Fraction) -> Optional[Fraction]:
        """e with ratio = lambda^e, or None."""
        dep = multiplicative_dependence(lam, ratio)
        return None if dep is None else Fraction(dep.y_exponent, dep.x_exponent)

    if dust.exponents is not None:
        # base = lam^scale, so rescale the given exponents
        scale = exponent(dust.base)
        return None if scale is None else [e * scale for e in dust.exponents]
    exponents = [exponent(ratio) for ratio in dust.ratios]
    return None if None in exponents else exponents


def dust_candidate_check(n: int, m: int, lam: Fraction, dust: DustIfsSpec) -> EquivalenceCheck:
    """Can the dust-like candidate share E's dimension equation?

    Commensurability first: every dust ratio must be a rational power of
    lambda (else IncommensurableRatios). With lambda = r^k the candidate's
    Moran polynomial and x^(2k)-n*x^k+m must share the factor that has
    beta^(1/k) as a root; a constant gcd means the dimensions differ
    (DimensionMismatch), a non-constant gcd without that root is WrongFactor.

    The gcd g is primitive with positive leading coefficient and divides
    x^(2k)-n*x^k+m, which is squarefree, is 1-n+m < 0 at 1, and has
    beta^(1/k) < n as its only real root above 1 (the other root of
    x^2-n*x+m lies in (0, 1)). So g > 0 on [n, oo), and its only possible
    root in (1, n) is simple: g holds beta^(1/k) iff g(1) < 0. Gcds past
    MAX_GCD_WORK are refused unbuilt.
    """
    lam = check_feasible(n, m, lam)
    exponents = _lambda_exponents(lam, dust)
    k = scaled = pbar = qbar = g = None
    shared = False
    reason = RuledOutReason.INCOMMENSURABLE_RATIOS
    if exponents is not None:
        k = lcm(*(e.denominator for e in exponents))
        scaled = tuple(sorted(int(e * k) for e in exponents))
        degree = max(2 * k, scaled[-1])
        bits = n.bit_length() + max(Counter(scaled).values()).bit_length()
        if degree * degree * bits > MAX_GCD_WORK:
            raise ResourceLimitError(
                f"the dust-check gcd at degree {format_rational(degree)} over {bits}-bit "
                f"coefficients exceeds {MAX_GCD_WORK} degree^2 * bits",
                ceiling=MAX_GCD_WORK,
            )
        pbar = family_poly(n, m, k)
        qbar = moran_poly(scaled)
        g = gcd_poly(pbar, qbar)
        shared = g.evaluate(1) < 0
        if shared:
            reason = None
        elif g.degree == 0:
            reason = RuledOutReason.DIMENSION_MISMATCH
        else:
            reason = RuledOutReason.WRONG_FACTOR
    return EquivalenceCheck(
        n=n,
        m=m,
        lam=lam,
        dust=dust,
        k=k,
        exponents=scaled,
        pbar=pbar,
        qbar=qbar,
        gcd=g,
        shared_root=shared,
        conclusion=Conclusion.NOT_RULED_OUT if reason is None else Conclusion.RULED_OUT,
        reason=reason,
    )
