"""Shared fixtures: a reproducible sweep of random in-class specs, a
brute-force enumeration of nonneg-tail multiples, and graph expansion from
exact Fraction offsets."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from overlapkit.exactnum import surd_to_float
from overlapkit.graphdir import Configuration, Policy
from overlapkit.ifs import (
    GAP,
    OVERLAP,
    TOUCH,
    SelfSimilarSpec,
    _beta,
    classify_steps,
    feasibility_slack,
    generate,
)
from overlapkit.intpoly import IntPoly, exact_div, family_poly

SWEEP_PAIRS = [(3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3), (6, 4)]


def random_feasible_specs(seeds_per_pair: int = 20) -> list[tuple[int, int, Fraction, SelfSimilarSpec]]:
    """Deterministic batch of (n, m, lambda, spec) with random feasible
    rational lambda and random patterns; at least 100 specs."""
    out = []
    for n, m in SWEEP_PAIRS:
        beta = _beta(n, m)
        bound = 1 / surd_to_float(beta, 64)
        for seed in range(seeds_per_pair):
            rng = random.Random(n * 1_000_003 + m * 10_007 + seed)
            q = rng.randint(7, 60)
            pmax = int(float(bound) * q)
            if pmax < 1:
                continue
            lam = Fraction(rng.randint(1, pmax), q)
            if feasibility_slack(n, m, lam) <= 0:
                continue
            out.append((n, m, lam, generate(n, m, lam, seed=seed)))
    return out


@pytest.fixture(scope="session")
def sweep_specs() -> list[tuple[int, int, Fraction, SelfSimilarSpec]]:
    specs = random_feasible_specs()
    assert len(specs) >= 100
    return specs


def tail_multiples(q, n, m, max_degree, bound, strategy="quotient"):
    """Brute force: the sorted monic nonneg-tail multiples of x^(2q)-n*x^q+m up
    to max_degree, and the leaves tested. "quotient" walks monic U with
    coefficients in [-bound, min(bound, (n*c_(j-q) - c_(j-2q)) // m)], which
    keeps product coefficient j <= 0; "dividend" trial-divides [0, bound]^p tails."""
    divisor, hits, leaves = family_poly(n, m, q), [], 0
    for p in range(2 * q, max_degree + 1):
        if strategy == "dividend":
            for tail in itertools.product(range(bound + 1), repeat=p):
                leaves += 1
                candidate = IntPoly([-b for b in tail] + [1])
                if exact_div(candidate, divisor) is not None:
                    hits.append(candidate)
            continue
        stack = [[]]
        while stack:
            c = stack.pop()
            if len(c) == p - 2 * q:
                leaves += 1
                product = IntPoly(c + [1]) * divisor
                if all(v <= 0 for v in product.coeffs[:-1]):
                    hits.append(product)
                continue
            back = [c[i] if i >= 0 else 0 for i in (len(c) - q, len(c) - 2 * q)]
            cap = (n * back[0] - back[1]) // m
            stack.extend(c + [v] for v in range(-bound, min(bound, cap) + 1))
    return sorted(hits, key=lambda f: (f.degree, f.coeffs)), leaves


@pytest.fixture(scope="session")
def tail_oracle():
    return tail_multiples


def fraction_expand(config, spec, policy):
    """Children of a configuration from exact offsets: copy i at a_i (a_(i+1) - a_i
    is 1 - lambda at O and 1 at T), its children at a_i + b_j (a shared one counted
    once), sorted, every step classified, then cut at G (and T under cut-touch)."""
    lam = spec.lam
    copies = [Fraction(0)]
    for letter in config.steps:
        copies.append(copies[-1] + (1 - lam if letter == OVERLAP else 1))
    offsets = sorted({a + b for a in copies for b in spec.offsets})
    kinds = classify_steps([right - left for left, right in zip(offsets, offsets[1:])], lam)
    assert None not in kinds, (config, spec)
    cut = {GAP} if policy is Policy.KEEP_TOUCH else {GAP, TOUCH}
    children, word = {}, []
    for kind in kinds + [GAP]:
        if kind in cut:
            child = Configuration("".join(word))
            children[child] = children.get(child, 0) + 1
            word = []
        else:
            word.append(kind)
    return children


@pytest.fixture(scope="session")
def expand_oracle():
    return fraction_expand
