"""Shared fixtures: a reproducible sweep of random in-class specs."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from overlapkit.exactnum import surd_to_float
from overlapkit.ifs import SelfSimilarSpec, _beta, feasibility_slack, generate

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
