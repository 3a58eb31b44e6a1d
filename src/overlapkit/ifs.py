"""Self-similar sets on [0,1] with exact overlaps, and dust-like comparison
systems: validation, instance generation, and dimension computations.

A spec is n maps x -> lambda*x + b_i with 0 = b_1 < ... < b_n = 1 - lambda.
Each consecutive offset step is an exact overlap (lambda - lambda^2), a touch
(lambda), or a gap (anything larger); exactly m overlap steps with
1 <= m <= n-2 puts the set in class A(lambda, n, m). All classification is
exact rational arithmetic, never floating point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import (
    BadBoundary,
    Infeasible,
    InvalidArgument,
    InvalidStep,
    NotInClass,
    NotMonotone,
    ResourceLimitError,
)
from .exactnum import (
    DEFAULT_PRECISION_BITS,
    QuadSurd,
    format_rational,
    parse_rational,
    quad_roots,
    surd_to_float,
)
from .intpoly.poly import MAX_COEFF_BITS

if TYPE_CHECKING:
    import mpmath

OVERLAP, TOUCH, GAP = "O", "T", "G"

# working bits of dimension and moran, bounded by check_precision (the CLI's for
# every subcommand); at the ceiling each finishes within about a second
MIN_PRECISION_BITS = 80
MAX_PRECISION_BITS = 4096
# largest n of generate: its offsets and output grow linearly in n, and at
# n = 30000 with lambda = 1/60000 it returns in about a second (1.1 MB of JSON)
MAX_GENERATE_N = 30_000

# working bits above precision_bits for the Moran equation: 32 to start, up
# to 4096 where the equation is flat at its root (ratios 1 - 10^-30 and 1/2
# need 128)
_GUARD_BITS = 32
MAX_GUARD_BITS = 4096
# Newton's method from s = 0 takes 8-20 steps on ordinary ratios. It creeps
# (by 1/log 2 per step for 1/2) only when one ratio close to 1 ends up with
# almost all the weight: 75 steps for 1 - 10^-30 beside 1/2, about 700 for
# 1 - 10^-300 beside 1/2
MAX_MORAN_STEPS = 200


def classify_steps(steps: Sequence[Fraction], lam: Fraction) -> list[Optional[str]]:
    """The exact kind of each offset step: OVERLAP at lambda - lambda^2, TOUCH
    at lambda, GAP above lambda, and None for anything else."""
    exact = lam - lam * lam
    return [
        OVERLAP if s == exact else TOUCH if s == lam else GAP if s > lam else None
        for s in steps
    ]


@dataclass(frozen=True)
class SelfSimilarSpec:
    """Maps f_i(x) = lam*x + offsets[i] on [0,1]; boundary and step classes
    are enforced here, class membership (the m count) is not. `steps` (the
    offset differences) and `step_kinds` (their O/T/G word) are set once,
    outside the fields."""

    lam: Fraction
    offsets: tuple[Fraction, ...]

    def __post_init__(self):
        if not 0 < self.lam < 1:
            raise InvalidArgument(f"ratio must lie in (0,1), got {self.lam}")
        if len(self.offsets) < 2:
            raise InvalidArgument("need at least two maps")
        steps = tuple(b - a for a, b in zip(self.offsets, self.offsets[1:]))
        for i, s in enumerate(steps, start=1):
            if s <= 0:
                raise NotMonotone(
                    f"offsets must be strictly increasing, step {i} is {format_rational(s)}"
                )
        if self.offsets[0] != 0:
            raise BadBoundary(f"first offset must be 0, got {self.offsets[0]}")
        if self.offsets[-1] != 1 - self.lam:
            raise BadBoundary(
                f"last offset must be 1-lambda = {1 - self.lam}, got {self.offsets[-1]}"
            )
        exact = self.lam - self.lam * self.lam
        kinds = classify_steps(steps, self.lam)
        for i, (s, kind) in enumerate(zip(steps, kinds), start=1):
            if kind is None:
                raise InvalidStep(
                    f"step {i} = {format_rational(s)} is a positive overlap that is not "
                    f"exact (expected {format_rational(exact)} or at least {self.lam})",
                    index=i,
                )
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "step_kinds", "".join(kinds))

    @property
    def n(self) -> int:
        return len(self.offsets)

    def to_json(self) -> dict:
        return {
            "lambda": format_rational(self.lam),
            "offsets": [format_rational(b) for b in self.offsets],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SelfSimilarSpec":
        return cls(
            parse_rational(data["lambda"]),
            tuple(parse_rational(b) for b in data["offsets"]),
        )


@dataclass(frozen=True)
class OverlapPattern:
    """Step classification of a validated in-class spec."""

    word: str
    sizes: tuple[Fraction, ...]
    n: int
    m: int

    def to_json(self) -> dict:
        return {
            "pattern": self.word,
            "steps": [
                {"kind": kind, "size": format_rational(size)}
                for kind, size in zip(self.word, self.sizes)
            ],
            "n": self.n,
            "m": self.m,
        }


def validate(lam: Fraction, offsets: Sequence[Fraction]) -> tuple[SelfSimilarSpec, OverlapPattern]:
    """Classify every step exactly and check class membership by check_class."""
    spec = SelfSimilarSpec(Fraction(lam), tuple(Fraction(b) for b in offsets))
    word = spec.step_kinds
    m = word.count(OVERLAP)
    check_class(spec.n, m, pattern=word)
    return spec, OverlapPattern(word=word, sizes=spec.steps, n=spec.n, m=m)


def feasibility_slack(n: int, m: int, lam: Fraction) -> Fraction:
    """delta = 1 - n*lam + m*lam^2; nonnegative exactly when lam*beta <= 1.

    For 1 <= m <= n-2, p(x) = x^2 - n*x + m has p(1) < 0, so its smaller
    root lies below 1 < 1/lam and delta = lam^2 * p(1/lam) >= 0 exactly when
    1/lam >= beta. beta is irrational, so delta != 0 at a rational lam.
    """
    return 1 - n * lam + m * lam * lam


def check_precision(bits: int) -> None:
    """Refuse working precisions below MIN_PRECISION_BITS or above MAX_PRECISION_BITS."""
    if bits < MIN_PRECISION_BITS:
        raise InvalidArgument(f"precision_bits must be >= {MIN_PRECISION_BITS}, got {bits}")
    if bits > MAX_PRECISION_BITS:
        raise ResourceLimitError(
            f"precision_bits must be <= {MAX_PRECISION_BITS}, got {bits}",
            ceiling=MAX_PRECISION_BITS,
        )


def check_class(n: int, m: int, **details) -> None:
    """Refuse (n, m) outside class A: 1 <= m <= n-2, with n and m at most
    MAX_COEFF_BITS bits (the coefficient ceiling of x^(2k)-n*x^k+m). `details`
    (a spec's pattern, say) go into the NotInClass error beside n and m."""
    if max(abs(n), abs(m)).bit_length() > MAX_COEFF_BITS:
        raise ResourceLimitError(
            f"n and m must have at most {MAX_COEFF_BITS} bits, "
            f"got {abs(n).bit_length()} and {abs(m).bit_length()} bits",
            ceiling=MAX_COEFF_BITS,
        )
    if not 1 <= m <= n - 2:
        raise NotInClass(f"need 1 <= m <= n-2, got (n,m)=({n},{m})", n=n, m=m, **details)


def check_feasible(n: int, m: int, lam: Fraction) -> Fraction:
    """lam as a Fraction, after checking class membership, 0 < lam < 1 and
    lam*beta <= 1 (by the exact slack), in that order."""
    check_class(n, m)
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise InvalidArgument(f"ratio must lie in (0,1), got {lam}")
    if feasibility_slack(n, m, lam) < 0:
        raise _infeasible(n, m, lam)
    return lam


def _beta(n: int, m: int) -> QuadSurd:
    # in class, (n-2)^2 < n^2-4m < n^2 with the parity of n^2: never a square
    return quad_roots(n, m)[0]


def _infeasible(n: int, m: int, lam: Fraction) -> Infeasible:
    beta = _beta(n, m)
    bound = 1 / surd_to_float(beta, 64)
    return Infeasible(
        f"lambda = {lam} exceeds the feasibility bound 1/beta for (n,m)=({n},{m})",
        lam=lam,
        bound=float(bound),
    )


def generate(
    n: int,
    m: int,
    lam: Fraction,
    pattern: Optional[str] = None,
    *,
    seed: int = 0,
) -> SelfSimilarSpec:
    """Build offsets realizing a pattern (or a seed-chosen random one).

    O steps are lambda-lambda^2, T steps lambda, and G steps lambda plus a
    positive rational share of the slack delta = 1 - n*lam + m*lam^2. The
    shares are equal for a given pattern and seed-weighted for a random one.
    n is at most MAX_GENERATE_N.
    """
    lam = check_feasible(n, m, lam)
    if n > MAX_GENERATE_N:
        raise ResourceLimitError(f"n must be <= {MAX_GENERATE_N}, got {n}", ceiling=MAX_GENERATE_N)
    if pattern is None:
        rng = random.Random(seed)
        pattern = _random_pattern(n, m, rng)
        weights = [rng.randint(1, 9) for _ in range(pattern.count(GAP))]
    else:
        weights = [1] * pattern.count(GAP)
    if len(pattern) != n - 1:
        raise InvalidArgument(f"pattern length must be n-1 = {n - 1}, got {len(pattern)!r}")
    if set(pattern) - {OVERLAP, TOUCH, GAP}:
        raise InvalidArgument(f"pattern letters must be O, T or G, got {pattern!r}")
    if pattern.count(OVERLAP) != m:
        raise InvalidArgument(
            f"pattern must contain exactly m={m} O letters, got {pattern.count(OVERLAP)}"
        )
    if GAP not in pattern:
        # a feasible rational lambda leaves slack delta > 0, which only G steps absorb
        raise InvalidArgument(f"pattern needs a G letter to absorb the slack, got {pattern!r}")
    share = feasibility_slack(n, m, lam) / sum(weights)
    gap_steps = iter([lam + w * share for w in weights])
    step_of = {OVERLAP: lam - lam * lam, TOUCH: lam}
    offsets = [Fraction(0)]
    for letter in pattern:
        offsets.append(offsets[-1] + (next(gap_steps) if letter == GAP else step_of[letter]))
    return SelfSimilarSpec(lam, tuple(offsets))


def _random_pattern(n: int, m: int, rng: random.Random) -> str:
    slots = n - 1
    overlap_at = set(rng.sample(range(slots), m))
    rest = [i for i in range(slots) if i not in overlap_at]
    letters = {i: rng.choice([TOUCH, GAP]) for i in rest}
    if all(letters[i] != GAP for i in rest):
        letters[rng.choice(rest)] = GAP  # slack is never zero, so force a gap
    return "".join(OVERLAP if i in overlap_at else letters[i] for i in range(slots))


def format_dimension(s: mpmath.mpf, precision_bits: int) -> str:
    """s to the significant digits that precision_bits carries (3 per 10 bits, at least 17)."""
    import mpmath

    return mpmath.nstr(s, max(17, precision_bits * 3 // 10))


@dataclass(frozen=True)
class DimensionResult:
    s: mpmath.mpf
    beta: QuadSurd
    lam: Fraction
    n: int
    m: int
    precision_bits: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "lambda": format_rational(self.lam),
            "beta": {
                "a": format_rational(self.beta.a),
                "b": format_rational(self.beta.b),
                "D": self.beta.D,
            },
            "s": format_dimension(self.s, self.precision_bits),
            "precision_bits": self.precision_bits,
        }


def dimension(
    n: int, m: int, lam: Fraction, precision_bits: int = DEFAULT_PRECISION_BITS
) -> DimensionResult:
    """dim_H = log(beta) / -log(lambda) for the class member, beta carried exactly."""
    import mpmath

    check_precision(precision_bits)
    lam = check_feasible(n, m, lam)
    beta = _beta(n, m)
    with mpmath.workprec(precision_bits + 16):
        beta_f = surd_to_float(beta, precision_bits + 16)
        lam_f = mpmath.mpf(lam.numerator) / mpmath.mpf(lam.denominator)
        s = mpmath.log(beta_f) / (-mpmath.log(lam_f))
    with mpmath.workprec(precision_bits):
        s = +s
    return DimensionResult(s=s, beta=beta, lam=lam, n=n, m=m, precision_bits=precision_bits)


@dataclass(frozen=True)
class DustIfsSpec:
    """Dust-like system given by explicit ratios or as powers of a base."""

    ratios: Optional[tuple[Fraction, ...]] = None
    base: Optional[Fraction] = None
    exponents: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        explicit = self.ratios is not None
        powered = self.base is not None or self.exponents is not None
        if explicit == powered:
            raise InvalidArgument("give either ratios or base+exponents, not both")
        if explicit:
            if len(self.ratios) < 2:
                raise InvalidArgument("need at least two ratios")
            if any(not 0 < r < 1 for r in self.ratios):
                got = ", ".join(map(format_rational, self.ratios))
                raise InvalidArgument(f"ratios must lie in (0,1), got {got}")
        else:
            if self.base is None or self.exponents is None:
                raise InvalidArgument("base and exponents are required together")
            if not 0 < self.base < 1:
                raise InvalidArgument(f"base must lie in (0,1), got {format_rational(self.base)}")
            if len(self.exponents) < 2:
                raise InvalidArgument("need at least two exponents")
            if any(e <= 0 for e in self.exponents):
                got = ", ".join(map(format_rational, self.exponents))
                raise InvalidArgument(f"exponents must be positive, got {got}")

    @classmethod
    def from_ratios(cls, ratios: Sequence[Fraction]) -> "DustIfsSpec":
        return cls(ratios=tuple(Fraction(r) for r in ratios))

    @classmethod
    def from_exponents(cls, base: Fraction, exponents: Sequence[Fraction]) -> "DustIfsSpec":
        return cls(base=Fraction(base), exponents=tuple(Fraction(e) for e in exponents))

    def log_ratios(self) -> list[mpmath.mpf]:
        """log r_j at the working precision; exponent form takes e_j * log(base)."""
        if self.ratios is not None:
            return [_log_rational(r) for r in self.ratios]
        log_base = _log_rational(self.base)
        return [e.numerator * log_base / e.denominator for e in self.exponents]

    def to_json(self) -> dict:
        if self.ratios is not None:
            return {"ratios": [format_rational(r) for r in self.ratios]}
        return {
            "base": format_rational(self.base),
            "exponents": [format_rational(e) for e in self.exponents],
        }


def _log_rational(x: Fraction) -> mpmath.mpf:
    """log x for rational 0 < x < 1, correct to the working precision.

    |log x| >= 1 - x >= 1/den, so the bits of the denominator cover the
    cancellation when x is close to 1.
    """
    import mpmath

    with mpmath.extraprec(x.denominator.bit_length()):
        return mpmath.log(mpmath.mpf(x.numerator) / x.denominator)


@dataclass(frozen=True)
class MoranRoot:
    s: mpmath.mpf
    residual: mpmath.mpf
    iterations: int


def moran_dimension(dust: DustIfsSpec, precision_bits: int = DEFAULT_PRECISION_BITS) -> MoranRoot:
    """The unique s > 0 with sum r_j^s = 1, by Newton's method to 2^-precision_bits.

    f(s) = sum exp(s * log r_j) - 1 is convex and strictly decreasing with
    f(0) = t - 1 > 0, so the Newton iterates from s = 0 rise to the root.
    They stop at a step below eps = 2^-bits * max(1, s) (relative once s > 1,
    as printed digits are significant digits), and f(s - eps) > 0 > f(s + eps)
    certifies the result. Where f is so flat at the root that rounding moves
    the steps by more than eps, they stop at that noise instead, the guard
    bits double and Newton resumes from s.
    """
    import mpmath

    check_precision(precision_bits)
    bits = precision_bits
    s, iterations, guard = mpmath.mpf(0), 0, _GUARD_BITS
    while True:
        with mpmath.workprec(bits + guard):
            logs = dust.log_ratios()

            def f(s: mpmath.mpf) -> mpmath.mpf:
                return mpmath.fsum(mpmath.exp(s * log) for log in logs) - 1

            while True:
                if iterations == MAX_MORAN_STEPS:
                    raise ResourceLimitError(
                        f"the Moran root needs more than {MAX_MORAN_STEPS} Newton steps",
                        ceiling=MAX_MORAN_STEPS,
                    )
                terms = [mpmath.exp(s * log) for log in logs]
                slope = -mpmath.fdot(terms, logs)
                step = (mpmath.fsum(terms) - 1) / slope
                s += step
                iterations += 1
                eps = mpmath.ldexp(max(1, s), -bits)
                # f carries about len(logs) rounding errors of 2^-(bits + guard)
                if abs(step) < max(eps, mpmath.ldexp(len(logs), 2 - bits - guard) / slope):
                    break
            if f(s - eps) > 0 > f(s + eps):
                residual = abs(f(s))
                break
        guard *= 2
        if guard > MAX_GUARD_BITS:
            raise ResourceLimitError(
                f"the Moran root cannot be certified to {bits} bits "
                f"with {MAX_GUARD_BITS} guard bits",
                ceiling=MAX_GUARD_BITS,
            )
    with mpmath.workprec(bits):
        return MoranRoot(s=+s, residual=+residual, iterations=iterations)
