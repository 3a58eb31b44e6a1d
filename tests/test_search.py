"""No monic nonneg-tail multiple of x^(2q) - n*x^q + m exists.

nonneg_tail_search answers from Descartes' rule of signs. These tests check
both halves of that proof by sympy's exact root counting, and compare the
answer with the brute-force enumeration `tail_oracle` on finite boxes.
"""

from __future__ import annotations

import random
import time

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from overlapkit.errors import InvalidArgument, NotInClass
from overlapkit.intpoly import (
    IntPoly,
    SearchStrategy,
    exact_div,
    family_poly,
    nonneg_tail_search,
    parse_poly,
)


def positive_roots(poly: IntPoly, bound: int) -> int:
    """Distinct real roots in (0, bound], counted by sympy."""
    closed = sp.Poly(list(reversed(poly.coeffs)), sp.Symbol("x")).count_roots(0, bound)
    return closed - (poly.coeffs[0] == 0)


def is_nonneg_tail(poly: IntPoly) -> bool:
    """Monic, with every coefficient below the leading one at most zero."""
    return poly.lc == 1 and all(c <= 0 for c in poly.coeffs[:-1])


class TestTailPredicate:
    def test_examples(self):
        assert is_nonneg_tail(parse_poly("x^2-x-1"))
        assert is_nonneg_tail(parse_poly("x^5-x^4-1"))
        assert is_nonneg_tail(parse_poly("x^3"))
        assert not is_nonneg_tail(parse_poly("x^2-x+1"))  # positive constant
        assert not is_nonneg_tail(parse_poly("2*x^2-x-1"))  # not monic
        assert not is_nonneg_tail(parse_poly("-x-1"))


class TestDescartesProof:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=12))
    def test_nonneg_tail_has_at_most_one_positive_root(self, tail):
        # exactly one once some tail coefficient is positive, else only x = 0
        f = IntPoly([-c for c in tail] + [1])
        assert positive_roots(f, 1 + max(tail)) == (1 if any(tail) else 0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(3, 20).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 2))),
        st.integers(1, 6),
    )
    def test_family_has_two_positive_roots(self, pair, q):
        n, m = pair
        assert positive_roots(family_poly(n, m, q), n) == 2

    def test_proof_names_the_discriminant_and_both_root_counts(self):
        assert nonneg_tail_search(2, 5, 3, 9, 1).proof == (
            "discriminant n^2-4m = 13 > 0 and m = 3 > 0, so x^4-5*x^2+3 and each of "
            "its multiples have 2 positive roots, while a monic nonneg-tail "
            "polynomial has at most 1 (Descartes' rule of signs)"
        )
        assert "x^2-3*x+1 " in nonneg_tail_search(1, 3, 1, 2, 0).proof


class TestInClassSearchesComeUpEmpty:
    def test_golden_cases_both_strategies(self, tail_oracle):
        for strategy in SearchStrategy:
            report = nonneg_tail_search(1, 3, 1, 6, 4, strategy)
            hits, leaves = tail_oracle(1, 3, 1, 6, 4, strategy)
            assert list(report.counterexamples) == hits == []
            assert leaves > 0
            assert report.strategy is strategy

    def test_strategies_count_differently_but_agree(self, tail_oracle):
        quotient = nonneg_tail_search(1, 4, 2, 5, 3, SearchStrategy.QUOTIENT)
        dividend = nonneg_tail_search(1, 4, 2, 5, 3, SearchStrategy.DIVIDEND)
        assert quotient.counterexamples == dividend.counterexamples == ()
        q_hits, q_leaves = tail_oracle(1, 4, 2, 5, 3, "quotient")
        d_hits, d_leaves = tail_oracle(1, 4, 2, 5, 3, "dividend")
        assert q_hits == d_hits == []
        assert q_leaves < d_leaves
        # the capped quotient walk tests 183 quotients up to degree 9 at bound
        # 10, where (2*10+1)^(p-2) per degree would be 1.9e9
        assert tail_oracle(1, 3, 1, 9, 10) == ([], 183)

    def test_random_monic_multiples_never_have_nonneg_tail(self):
        rng = random.Random(41)
        for _ in range(2000):
            n = rng.randint(3, 8)
            m = rng.randint(1, n - 2)
            q = rng.randint(1, 3)
            deg = rng.randint(0, 6)
            u = IntPoly([rng.randint(-5, 5) for _ in range(deg)] + [1])
            assert not is_nonneg_tail(u * family_poly(n, m, q))


class TestPlantedHits:
    """Out-of-class coefficients (n=1, m=1) do admit nonneg-tail multiples,
    which keeps the oracle's hit path from being vacuous:
    (x^3-x-1)(x^2-x+1) = x^5-x^4-1 and x^6-1 = (x^4+x^3-x-1)(x^2-x+1)."""

    def test_quotient_walker_finds_known_multiples(self, tail_oracle):
        divisor = family_poly(1, 1, 1)
        hits5, _ = tail_oracle(1, 1, 1, 5, 1)
        assert hits5 == [parse_poly("x^5-x^4-1")]
        hits6, _ = tail_oracle(1, 1, 1, 6, 1)
        assert parse_poly("x^6-1") in hits6
        for hit in hits6:
            assert is_nonneg_tail(hit)
            assert exact_div(hit, divisor) is not None

    def test_dividend_walker_agrees_with_quotient_walker(self, tail_oracle):
        # the strategies bound different things (quotient coefficients versus
        # dividend tail), so agreement is cross-containment after filtering
        divisor = family_poly(1, 1, 1)
        bound = 2
        q_hits, _ = tail_oracle(1, 1, 1, 6, bound, "quotient")
        d_hits, _ = tail_oracle(1, 1, 1, 6, bound, "dividend")
        assert q_hits and d_hits
        for hit in q_hits:
            if hit.max_norm() <= bound:
                assert hit in d_hits
        for hit in d_hits:
            u = exact_div(hit, divisor)
            assert u is not None
            if u.max_norm() <= bound:
                assert hit in q_hits

    def test_no_low_degree_hits(self, tail_oracle):
        for strategy in SearchStrategy:
            assert tail_oracle(1, 1, 1, 4, 3, strategy)[0] == []


class TestValidationAndLimits:
    def test_argument_validation(self):
        with pytest.raises(InvalidArgument):
            nonneg_tail_search(0, 3, 1, 6, 2)
        with pytest.raises(NotInClass):
            nonneg_tail_search(1, 3, 2, 6, 2)  # m > n-2
        with pytest.raises(NotInClass):
            nonneg_tail_search(1, 2, 1, 6, 2)  # n too small for any m
        with pytest.raises(InvalidArgument):
            nonneg_tail_search(2, 3, 1, 3, 2)  # max_degree < 2q
        with pytest.raises(InvalidArgument):
            nonneg_tail_search(1, 3, 1, 6, -1)

    def test_boxes_beyond_any_enumeration_answer_at_once(self):
        # an enumeration nests 1201 deep on the first box, and on the second
        # holds a degree-200000 divisor for each of 301 degrees
        for box in (
            (600, 3, 1, 1200, 0, SearchStrategy.DIVIDEND),
            (100_000, 3, 1, 200_300, 0, SearchStrategy.QUOTIENT),
            (10**18, 20, 18, 10**19, 10**6, SearchStrategy.QUOTIENT),
        ):
            start = time.monotonic()
            assert nonneg_tail_search(*box).counterexamples == ()
            assert time.monotonic() - start < 1.0, box

    def test_strategy_accepts_plain_strings(self):
        report = nonneg_tail_search(1, 3, 1, 4, 2, "dividend")
        assert report.strategy is SearchStrategy.DIVIDEND
