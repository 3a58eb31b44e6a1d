"""Exhaustive search for nonneg-tail multiples of x^(2q) - n*x^q + m."""

from __future__ import annotations

import random

import pytest

from overlapkit.errors import InvalidArgument, SearchSpaceTooLarge
from overlapkit.intpoly import (
    IntPoly,
    SearchStrategy,
    exact_div,
    family_poly,
    nonneg_tail_search,
    parse_poly,
)
from overlapkit.intpoly.search import (
    DEFAULT_SEARCH_CEILING,
    _is_nonneg_tail,
    _search_dividend_degree,
    _search_quotient_degree,
)


class TestTailPredicate:
    def test_examples(self):
        assert _is_nonneg_tail(parse_poly("x^2-x-1"))
        assert _is_nonneg_tail(parse_poly("x^5-x^4-1"))
        assert _is_nonneg_tail(parse_poly("x^3"))
        assert not _is_nonneg_tail(parse_poly("x^2-x+1"))  # positive constant
        assert not _is_nonneg_tail(parse_poly("2*x^2-x-1"))  # not monic
        assert not _is_nonneg_tail(parse_poly("-x-1"))


class TestInClassSearchesComeUpEmpty:
    def test_golden_cases_both_strategies(self):
        for strategy in SearchStrategy:
            report = nonneg_tail_search(1, 3, 1, 6, 4, strategy)
            assert report.counterexamples == ()
            assert report.candidates_tested > 0
            assert [s.degree for s in report.partitions] == [2, 3, 4, 5, 6]
            assert all(s.hits == 0 for s in report.partitions)

    def test_strategies_count_differently_but_agree(self):
        quotient = nonneg_tail_search(1, 4, 2, 5, 3, SearchStrategy.QUOTIENT)
        dividend = nonneg_tail_search(1, 4, 2, 5, 3, SearchStrategy.DIVIDEND)
        assert quotient.counterexamples == dividend.counterexamples == ()
        assert quotient.candidates_tested < dividend.candidates_tested

    def test_random_monic_multiples_never_have_nonneg_tail(self):
        rng = random.Random(41)
        for _ in range(2000):
            n = rng.randint(3, 8)
            m = rng.randint(1, n - 2)
            q = rng.randint(1, 3)
            deg = rng.randint(0, 6)
            u = IntPoly([rng.randint(-5, 5) for _ in range(deg)] + [1])
            assert not _is_nonneg_tail(u * family_poly(n, m, q))


class TestPlantedHits:
    """Out-of-class coefficients (n=1, m=1) do admit nonneg-tail multiples,
    which exercises the hit-reporting path that in-class runs never reach:
    (x^3-x-1)(x^2-x+1) = x^5-x^4-1 and x^6-1 = (x^4+x^3-x-1)(x^2-x+1)."""

    def test_quotient_walker_finds_known_multiples(self):
        divisor = family_poly(1, 1, 1)
        hits5, _, _ = _search_quotient_degree(1, 1, 1, 5, 1, DEFAULT_SEARCH_CEILING)
        assert hits5 == [parse_poly("x^5-x^4-1")]
        hits6, _, _ = _search_quotient_degree(1, 1, 1, 6, 1, DEFAULT_SEARCH_CEILING)
        assert parse_poly("x^6-1") in hits6
        for hit in hits5 + hits6:
            assert _is_nonneg_tail(hit)
            assert exact_div(hit, divisor) is not None

    def test_dividend_walker_agrees_with_quotient_walker(self):
        # the strategies bound different things (quotient coefficients versus
        # dividend tail), so agreement is cross-containment after filtering
        divisor = family_poly(1, 1, 1)
        bound = 2
        for p in range(2, 7):
            q_hits, _, _ = _search_quotient_degree(1, 1, 1, p, bound, DEFAULT_SEARCH_CEILING)
            d_hits, _, _ = _search_dividend_degree(1, 1, 1, p, bound, DEFAULT_SEARCH_CEILING)
            d_set = {f.coeffs for f in d_hits}
            for hit in q_hits:
                if hit.max_norm() <= bound:
                    assert hit.coeffs in d_set
            q_set = {f.coeffs for f in q_hits}
            for hit in d_hits:
                u = exact_div(hit, divisor)
                assert u is not None
                if u.max_norm() <= bound:
                    assert hit.coeffs in q_set

    def test_no_low_degree_hits(self):
        for p in (2, 3, 4):
            hits, _, _ = _search_quotient_degree(1, 1, 1, p, 3, DEFAULT_SEARCH_CEILING)
            assert hits == []


class TestValidationAndLimits:
    def test_argument_validation(self):
        with pytest.raises(InvalidArgument):
            nonneg_tail_search(0, 3, 1, 6, 2)
        with pytest.raises(InvalidArgument):
            nonneg_tail_search(1, 3, 2, 6, 2)  # m > n-2
        with pytest.raises(InvalidArgument):
            nonneg_tail_search(1, 2, 1, 6, 2)  # n too small for any m
        with pytest.raises(InvalidArgument):
            nonneg_tail_search(2, 3, 1, 3, 2)  # max_degree < 2q
        with pytest.raises(InvalidArgument):
            nonneg_tail_search(1, 3, 1, 6, -1)

    def test_search_space_ceiling(self, monkeypatch):
        # the dividend walk over (1, 3, 1, 6, 4) visits sum(5^0..5^p) nodes for
        # p = 2..6, 24405 in all; the ceiling counts them, inclusively
        monkeypatch.setattr("overlapkit.intpoly.search.DEFAULT_SEARCH_CEILING", 24405)
        nonneg_tail_search(1, 3, 1, 6, 4, SearchStrategy.DIVIDEND)
        monkeypatch.setattr("overlapkit.intpoly.search.DEFAULT_SEARCH_CEILING", 24404)
        with pytest.raises(SearchSpaceTooLarge) as info:
            nonneg_tail_search(1, 3, 1, 6, 4, SearchStrategy.DIVIDEND)
        assert info.value.exit_code == 2
        assert info.value.details == {"ceiling": 24404}

    def test_walk_deeper_than_the_recursion_limit_is_a_resource_error(self):
        # one partition of 1201 nodes, one per coefficient of x^1200
        with pytest.raises(SearchSpaceTooLarge) as info:
            nonneg_tail_search(600, 3, 1, 1200, 0, SearchStrategy.DIVIDEND)
        assert info.value.details == {"degree": 1200}

    def test_pruned_quotient_walk_is_charged_what_it_visits(self):
        # (2*10+1)^(p-2) quotients per degree up to 9 would be 1.9e9, but the
        # pruned walk tests 183 of them
        report = nonneg_tail_search(1, 3, 1, 9, 10)
        assert report.candidates_tested == 183

    def test_strategy_accepts_plain_strings(self):
        report = nonneg_tail_search(1, 3, 1, 4, 2, "dividend")
        assert report.strategy is SearchStrategy.DIVIDEND

    def test_report_partition_bookkeeping(self):
        report = nonneg_tail_search(1, 3, 1, 5, 2, SearchStrategy.DIVIDEND)
        assert report.candidates_tested == sum(s.candidates for s in report.partitions)
        # dividend candidates at degree p enumerate all (bound+1)^p tails
        for stat in report.partitions:
            assert stat.candidates == 3**stat.degree
