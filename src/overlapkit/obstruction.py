"""Decision engine for the dust-equivalence obstruction.

For E in class A(lambda,n,m), Lipschitz equivalence to a dust-like
self-similar set forces x^(2k) - n*x^k + m to be reducible over the integers
for some k >= 2, which in turn forces m to be a perfect power. The verdicts
here report that necessary condition only; they never claim an equivalence
exists. Capelli's theorem leaves only a few k where the family can split
(see `obstruction_verdict`); only those, and k = 1 as a check, are factored.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional

from .errors import ConsistencyError, InvalidArgument, ResourceLimitError
from .exactnum import format_rational, is_perfect_power, multiplicative_dependence
from .ifs import DustIfsSpec, check_class, check_feasible
from .intpoly import Factorization, IntPoly, factor, family_poly, gcd_poly, moran_poly
from .intpoly.poly import MAX_DEGREE

# both ceilings bound a sweep, about the sum of its pairs' verdicts: obstruct-sweep
# --nmax 20 took 0.7 s at kmax 8 and 2.0-2.7 s at 15 as a whole process, and the same
# sweep in-process 3.1 s at 16, 6.9 s at 20 and 11.8 s at 24, while single k = 16
# factorizations stay fast (x^32-20x^16+9, the slowest with n <= 20, 0.04 s in-process;
# x^32-13x^16+1 0.24 s as a whole process; 2-core Xeon)
MAX_KMAX = 15
MAX_NMAX = 20


class Verdict(str, Enum):
    OBSTRUCTED = "Obstructed"
    NECESSARY_CONDITION_MET = "NecessaryConditionMet"
    NECESSARY_CONDITION_OPEN = "NecessaryConditionOpen"


@dataclass(frozen=True)
class ObstructionReport:
    """Perfect-power status of m plus the reducible exponents found."""

    n: int
    m: int
    kmax: int
    perfect_power: Optional[tuple[int, int]]
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
            "reducible_ks": [{"k": k, "factors": fac.listed()} for k, fac in self.reducible_ks],
            "verdict": self.verdict.value,
        }


def _check_kmax(kmax: int) -> None:
    if kmax < 2:
        raise InvalidArgument(f"kmax must be >= 2, got {kmax}")
    if kmax > MAX_KMAX:
        raise ResourceLimitError(f"kmax must be <= {MAX_KMAX}, got {kmax}", ceiling=MAX_KMAX)


def obstruction_verdict(n: int, m: int, kmax: int = 8) -> ObstructionReport:
    """Verdict for (n, m): Obstructed when m is not a perfect power, else
    NecessaryConditionMet if some x^(2k)-n*x^k+m with 2 <= k <= kmax is
    reducible and NecessaryConditionOpen otherwise.

    Open is inherently inconclusive: reducibility may first appear beyond
    kmax. Only the k where Capelli's theorem allows a split are factored. In
    class, n^2-4m lies strictly between (n-2)^2 and n^2 with the parity of n,
    so it is no square, and x^2-n*x+m has roots beta > beta' > 0 in the real
    field K = Q(sqrt(n^2-4m)). As [Q(beta^(1/k)):Q] = 2*[K(beta^(1/k)):K],
    x^(2k)-n*x^k+m is irreducible over Q iff x^k-beta is over K. By Capelli
    that fails only if beta = gamma^p with gamma in K and p a prime dividing
    k (beta = -4*gamma^4 with 4 | k would make beta negative). gamma is an
    algebraic integer, so m = N(beta) = N(gamma)^p is a p-th power. So no k
    splits when m is not a perfect power, and for m = a^e (e largest) a k
    can split only if gcd(k, e) > 1. The k = 1 member never splits either;
    for a perfect power m it is still factored, as a check of the
    discriminant argument.
    """
    _check_kmax(kmax)
    check_class(n, m)
    pp = is_perfect_power(m)
    reducible: list[tuple[int, Factorization]] = []
    for k in range(1, kmax + 1):
        if pp is None or (k > 1 and m > 1 and gcd(k, pp[1]) == 1):
            continue
        fac = factor(family_poly(n, m, k))
        if fac.is_irreducible_shape:
            continue
        if k == 1:
            raise ConsistencyError(
                f"x^2-{n}x+{m} factored although its discriminant cannot be square",
                n=n,
                m=m,
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
        reducible_ks=tuple(reducible),
        verdict=verdict,
    )


def sweep(n_values: Iterable[int], *, kmax: int = 8) -> list[ObstructionReport]:
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
    if dust.exponents is not None:
        if dust.base == lam:
            return list(dust.exponents)
        dep = multiplicative_dependence(lam, dust.base)
        if dep is None:
            return None
        # base = lam^(cy/cx), so rescale the given exponents
        scale = Fraction(dep.y_exponent, dep.x_exponent)
        return [e * scale for e in dust.exponents]
    exponents = []
    for ratio in dust.ratios:
        dep = multiplicative_dependence(lam, ratio)
        if dep is None:
            return None
        exponents.append(Fraction(dep.y_exponent, dep.x_exponent))
    return exponents


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
    root in (1, n) is simple: g holds beta^(1/k) iff g(1) < 0. Degrees above
    MAX_DEGREE are refused unbuilt.
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
        if degree > MAX_DEGREE:
            raise ResourceLimitError(
                f"dust-check polynomials of degree {format_rational(degree)} exceed {MAX_DEGREE}",
                ceiling=MAX_DEGREE,
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
