"""Seeded job lists for the benchmark workloads.

A job is one `overlapkit` CLI call (its argv) plus the exact facts its oracle
needs. The seed picks the inputs and their order. Each workload is built
from fixed strata (which (n, m) pairs, how many jobs of each size), so every
seed asks for about the same amount of work and the figures of different
seeds can be compared.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from overlapkit.ifs import GAP, OVERLAP, generate

@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...]
    facts: dict = field(default_factory=dict, hash=False)


def in_class_pairs(nmax: int) -> list[tuple[int, int]]:
    """Every (n, m) with 3 <= n <= nmax and 1 <= m <= n-2."""
    return [(n, m) for n in range(3, nmax + 1) for m in range(1, n - 1)]


def is_perfect_power(m: int) -> bool:
    """m = a^i with i >= 2 (1 counts), by exact integer roots."""
    if m == 1:
        return True
    for i in range(2, m.bit_length() + 1):
        a = round(m ** (1 / i))
        if any((a + d) ** i == m for d in (-1, 0, 1) if a + d >= 2):
            return True
    return False


def beta(n: int, m: int) -> float:
    """Dominant root of x^2 - n*x + m."""
    return (n + math.sqrt(n * n - 4 * m)) / 2


def family_coeffs(n: int, m: int, k: int) -> list[int]:
    """Ascending coefficients of x^(2k) - n*x^k + m."""
    coeffs = [0] * (2 * k + 1)
    coeffs[0], coeffs[k], coeffs[2 * k] = m, -n, 1
    return coeffs


def cylinder_counts(n: int, m: int, depth: int) -> list[int]:
    """N_0..N_depth from N_0 = 1, N_1 = n and N_(L+2) = n*N_(L+1) - m*N_L."""
    counts = [1, n]
    while len(counts) <= depth:
        counts.append(n * counts[-1] - m * counts[-2])
    return counts[: depth + 1]


def _offsets(spec) -> str:
    return ",".join(str(b) for b in spec.offsets)


def _ratio_choices(n: int, m: int, count: int) -> range:
    """Ratios 1/q with lambda*beta < 1, from the smallest admissible q up."""
    first = math.ceil(beta(n, m))
    return range(first, first + count)


# -- verdict-sweep ------------------------------------------------------------------


def verdict_sweep(rng: random.Random) -> list[Job]:
    """One obstruct call per in-class pair with n <= 20, in seeded order."""
    jobs = [
        Job(
            "obstruct",
            ("obstruct", "--n", str(n), "--m", str(m), "--kmax", "8"),
            {"n": n, "m": m, "kmax": 8},
        )
        for n, m in in_class_pairs(20)
    ]
    rng.shuffle(jobs)
    return jobs


# -- factor-family ------------------------------------------------------------------

# At the seed commit the first usable prime splits each of these into >= 12
# modular factors, so Hensel lifting and Zassenhaus recombination dominate.
# They are always in the workload; only their position depends on the seed.
RECOMBINATION_HEAVY = (
    (7, 1, 12),
    (3, 1, 14),
    (7, 1, 14),
    (14, 1, 16),
    (7, 1, 20),
    (8, 1, 20),
    (15, 1, 20),
    (3, 1, 21),
    (7, 1, 21),
    (8, 1, 21),
    (7, 1, 24),
    (7, 1, 28),
    (10, 4, 12),
    (15, 4, 12),
    (19, 4, 12),
    (20, 4, 12),
    (15, 9, 12),
    (20, 9, 12),
)
# Each pair gets one k from each band. A band's values are dealt to the pairs
# in seeded order, so every seed uses each k equally often.
LIGHT_K_BANDS = (range(2, 7), range(7, 12))


def factor_family(rng: random.Random) -> list[Job]:
    """x^(2k) - n*x^k + m for every in-class perfect-power m with n <= 20:
    a seeded k from each band per pair, plus the recombination-heavy cases."""
    pairs = [(n, m) for n, m in in_class_pairs(20) if is_perfect_power(m)]
    cases = list(RECOMBINATION_HEAVY)
    for band in LIGHT_K_BANDS:
        ks = [band[i % len(band)] for i in range(len(pairs))]
        rng.shuffle(ks)
        cases += [(n, m, k) for (n, m), k in zip(pairs, ks)]
    rng.shuffle(cases)
    return [
        Job(
            "factor",
            ("factor", "--poly", f"x^{2 * k}-{n}*x^{k}+{m}"),
            {"n": n, "m": m, "k": k, "coeffs": family_coeffs(n, m, k)},
        )
        for n, m, k in cases
    ]


# -- cover-growth -------------------------------------------------------------------

COVER_PAIRS = ((3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3))
# (growth targets, boxdim targets) for each seeded spec of a pair. A target
# asks for the smallest depth whose merged count N_L reaches it, and each
# depth runs once per spec; N_L depends only on (n, m), so the targets fix
# the work of every seed.
COVER_SPECS = (
    ((30, 100, 300, 1000, 3000), (100, 1000)),
    ((30, 100, 300, 1000), (300,)),
    ((30, 100, 300), ()),
    ((30, 100, 300), ()),
    ((30, 100), ()),
)
# A box fit over fewer grid levels is too coarse for the 0.05 oracle.
MIN_GRID_LEVELS = 4
# One growth job per seed on the golden pair reaches the 10^4 range; it sets
# the workload's peak memory.
ANCHOR = ((3, 1), 10_000)


def _depth_for(n: int, m: int, target: int) -> int:
    depth = 0
    while cylinder_counts(n, m, depth)[-1] < target:
        depth += 1
    return depth


def _cover_spec(n: int, m: int, q: int, rng: random.Random):
    """lambda = 1/q with the m overlaps at seeded places and equal gaps
    elsewhere. The offsets' denominators, and with them the cost of a cover,
    then do not depend on the seed."""
    overlaps = set(rng.sample(range(n - 1), m))
    pattern = "".join(OVERLAP if i in overlaps else GAP for i in range(n - 1))
    return generate(n, m, Fraction(1, q), pattern)


def _growth_job(spec, n: int, m: int, depth: int) -> Job:
    argv = ("growth", "--lambda", str(spec.lam), "--b", _offsets(spec), "--depth", str(depth))
    return Job("growth", argv, {"n": n, "m": m, "depth": depth})


def cover_growth(rng: random.Random) -> list[Job]:
    """growth and boxdim on seeded in-class specs with n in 3..5."""
    jobs = []
    for n, m in COVER_PAIRS:
        ratios = _ratio_choices(n, m, len(COVER_SPECS))
        for q, (growth_targets, box_targets) in zip(ratios, COVER_SPECS):
            spec = _cover_spec(n, m, q, rng)
            for depth in sorted({_depth_for(n, m, target) for target in growth_targets}):
                jobs.append(_growth_job(spec, n, m, depth))
            box_depths = {max(_depth_for(n, m, t), MIN_GRID_LEVELS + 1) for t in box_targets}
            for depth in sorted(box_depths):
                argv = (
                    "boxdim",
                    "--lambda",
                    str(spec.lam),
                    "--b",
                    _offsets(spec),
                    "--depth",
                    str(depth),
                    "--grid-levels",
                    str(depth - 1),
                )
                facts = {"n": n, "m": m, "lam": spec.lam, "grid_levels": depth - 1}
                jobs.append(Job("boxdim", argv, facts))
    (n, m), target = ANCHOR
    spec = _cover_spec(n, m, _ratio_choices(n, m, 1)[0], rng)
    jobs.append(_growth_job(spec, n, m, _depth_for(n, m, target)))
    rng.shuffle(jobs)
    return jobs


# -- graph-spectral -----------------------------------------------------------------

GRAPH_NMAX = 12
SPECS_PER_GRAPH_PAIR = 4
POLICIES = ("cut-touch", "keep-touch")
# Dust candidates as exponents of lambda. The first three share the dimension
# of (3,1), (6,1) and (11,1) respectively; the rest match no class member.
DUST_EXPONENTS = (
    (Fraction(1), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(1)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1)),
    (Fraction(1), Fraction(1)),
    (Fraction(1), Fraction(2), Fraction(3)),
    (Fraction(1, 2), Fraction(1, 3)),
)
BITS = "256"


def graph_spectral(rng: random.Random) -> list[Job]:
    """graph under both policies for four seeded specs of one seeded lambda
    per in-class pair with n <= 12, plus dimension, dust-check and moran once
    per (n, m, lambda)."""
    jobs = []
    for index, (n, m) in enumerate(in_class_pairs(GRAPH_NMAX)):
        lam = Fraction(1, rng.choice(_ratio_choices(n, m, 4)))
        for _ in range(SPECS_PER_GRAPH_PAIR):
            spec = generate(n, m, lam, seed=rng.randrange(2**31))
            for policy in POLICIES:
                argv = ("graph", "--lambda", str(lam), "--b", _offsets(spec), "--policy", policy)
                jobs.append(Job("graph", argv, {"n": n, "m": m, "policy": policy}))
        common = ("--n", str(n), "--m", str(m), "--lambda", str(lam), "--precision-bits", BITS)
        facts = {"n": n, "m": m, "lam": lam}
        jobs.append(Job("dimension", ("dimension", *common), facts))
        exponents = rng.choice(DUST_EXPONENTS)
        # every other pair states its candidate over lambda^2, so the check
        # has to relate the two bases first
        base, scale = (lam, 1) if index % 2 == 0 else (lam * lam, Fraction(1, 2))
        dust = ("--base", str(base), "--exponents", ",".join(str(e * scale) for e in exponents))
        dust_facts = {**facts, "exponents": exponents}
        jobs.append(Job("dust-check", ("dust-check", *common, *dust), dust_facts))
        jobs.append(Job("moran", ("moran", *dust, "--precision-bits", BITS), dust_facts))
    rng.shuffle(jobs)
    return jobs


BUILDERS = {
    "verdict-sweep": verdict_sweep,
    "factor-family": factor_family,
    "cover-growth": cover_growth,
    "graph-spectral": graph_spectral,
}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int) -> list[Job]:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
