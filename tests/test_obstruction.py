"""Verdicts for (n, m) pairs and dust-like candidate checks."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overlapkit import obstruction
from overlapkit.errors import InvalidArgument, NotInClass
from overlapkit.exactnum import is_perfect_power
from overlapkit.ifs import DustIfsSpec
from overlapkit.intpoly import IntPoly, factor, family_poly, gcd_poly, is_irreducible, moran_poly
from overlapkit.obstruction import (
    Conclusion,
    RuledOutReason,
    Verdict,
    dust_candidate_check,
    obstruction_verdict,
    sweep,
)

F = Fraction
X = sp.Symbol("x")


def sympy_poly(poly: IntPoly) -> sp.Poly:
    return sp.Poly(list(reversed(poly.coeffs)), X)


def split_allowed(m: int, k: int) -> bool:
    """Capelli's divisor rule, by sympy's integer roots: some divisor d >= 2
    of k makes m a d-th power."""
    return any(k % d == 0 and sp.integer_nthroot(m, d)[1] for d in range(2, k + 1))


def in_class_pair(nmax: int):
    return st.integers(3, nmax).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 2)))


class TestVerdicts:
    def test_golden_met_case(self):
        report = obstruction_verdict(3, 1)
        assert report.verdict is Verdict.NECESSARY_CONDITION_MET
        assert report.perfect_power == (1, 2)
        assert [k for k, _ in report.reducible_ks] == [2, 4, 6, 8]
        k2 = report.reducible_ks[0][1]
        assert [f.to_string() for f, _ in k2.factors] == ["x^2-x-1", "x^2+x-1"]

    def test_obstructed_case(self):
        report = obstruction_verdict(4, 2)
        assert report.verdict is Verdict.OBSTRUCTED
        assert report.perfect_power is None
        assert report.reducible_ks == ()

    def test_open_case(self):
        # m = 4 is a perfect power but x^(2k)-6x^k+4 stays irreducible
        report = obstruction_verdict(6, 4, kmax=6)
        assert report.verdict is Verdict.NECESSARY_CONDITION_OPEN
        assert report.perfect_power == (2, 2)

    def test_reducibility_table_through_n_12(self):
        # quartic-family analysis: x^4-n*x^2+1 splits iff n-2 or n+2 is square,
        # x^4-n*x^2+4 iff n-4 or n+4 is; everything else here stays open
        met = {(3, 1), (6, 1), (7, 1), (8, 4), (11, 1), (12, 4)}
        for report in sweep(range(3, 13), kmax=8):
            if report.perfect_power is None:
                assert report.verdict is Verdict.OBSTRUCTED
            elif (report.n, report.m) in met:
                assert report.verdict is Verdict.NECESSARY_CONDITION_MET
            else:
                assert report.verdict is Verdict.NECESSARY_CONDITION_OPEN

    def test_verdict_matches_perfect_power_status(self):
        for report in sweep(range(3, 13)):
            assert (report.verdict is Verdict.OBSTRUCTED) == (
                is_perfect_power(report.m) is None
            )

    def test_out_of_class_and_bad_kmax(self):
        with pytest.raises(NotInClass):
            obstruction_verdict(3, 2)
        with pytest.raises(NotInClass):
            obstruction_verdict(2, 1)
        with pytest.raises(InvalidArgument):
            obstruction_verdict(3, 1, kmax=1)

    def test_report_json_schema(self):
        data = obstruction_verdict(3, 1, kmax=4).to_json()
        assert data["n"] == 3 and data["m"] == 1 and data["kmax"] == 4
        assert data["perfect_power"] == {"a": 1, "i": 2}
        assert data["verdict"] == "NecessaryConditionMet"
        assert data["reducible_ks"][0] == {"k": 2, "factors": ["x^2-x-1", "x^2+x-1"]}

    def test_verdict_factors_k1_and_where_a_split_is_possible(self, monkeypatch):
        # k = 1 as a check of the discriminant argument, and for k >= 2 only
        # the k where Capelli's divisor rule allows a split
        asked: list[int] = []

        def recorder(poly: IntPoly):
            asked.append(poly.degree // 2)
            return factor(poly)

        monkeypatch.setattr(obstruction, "factor", recorder)
        expected = {
            (10, 8): [1, 3, 6],
            (9, 4): [1, 2, 4, 6, 8],
            (7, 5): [],
            (3, 1): list(range(1, 9)),
        }
        for (n, m), ks in expected.items():
            asked.clear()
            obstruction_verdict(n, m, kmax=8)
            assert asked == ks, (n, m)

    def test_sweep_is_sorted_and_filterable(self):
        reports = sweep([5, 4, 3])
        assert [(r.n, r.m) for r in reports] == [
            (3, 1),
            (4, 1),
            (4, 2),
            (5, 1),
            (5, 2),
            (5, 3),
        ]
        odd_only = [(r.n, r.m) for r in sweep(range(3, 8)) if r.m % 2 == 1]
        assert odd_only == [(3, 1), (4, 1), (5, 1), (5, 3), (6, 1), (6, 3), (7, 1), (7, 3), (7, 5)]


class TestDustCandidateCheck:
    def test_not_ruled_out_golden(self):
        for lam in (F(1, 4), F(1, 5), F(1, 10)):
            dust = DustIfsSpec.from_exponents(lam, [F(1), F(1, 2)])
            check = dust_candidate_check(3, 1, lam, dust)
            assert check.conclusion is Conclusion.NOT_RULED_OUT
            assert check.reason is None
            assert check.k == 2
            assert check.exponents == (1, 2)
            assert check.gcd == IntPoly([-1, -1, 1])
            assert check.shared_root

    def test_dimension_mismatch(self):
        dust = DustIfsSpec.from_ratios([F(1, 4)] * 3)
        check = dust_candidate_check(3, 1, F(1, 4), dust)
        assert check.conclusion is Conclusion.RULED_OUT
        assert check.reason is RuledOutReason.DIMENSION_MISMATCH
        assert check.k == 1
        assert check.gcd == IntPoly([1])
        assert not check.shared_root

    def test_incommensurable_ratios(self):
        dust = DustIfsSpec.from_ratios([F(1, 4), F(1, 3)])
        check = dust_candidate_check(3, 1, F(1, 4), dust)
        assert check.conclusion is Conclusion.RULED_OUT
        assert check.reason is RuledOutReason.INCOMMENSURABLE_RATIOS
        assert check.k is None
        assert check.pbar is None and check.qbar is None and check.gcd is None

    def test_wrong_factor(self):
        # x^6-18x^3+1 = (x^2-3x+1)(x^4+3x^3+8x^2+3x+1) and beta^(1/3) is a
        # root of the quadratic; a dust system whose Moran polynomial is
        # (x-3)(x^4+3x^3+8x^2+3x+1) = x^5-x^3-21x^2-8x-3 shares only the
        # quartic, so the common factor misses the defining root
        exponents = [2] + [3] * 21 + [4] * 8 + [5] * 3
        dust = DustIfsSpec.from_exponents(F(1, 4), exponents)
        check = dust_candidate_check(18, 1, F(1, 64), dust)
        assert check.k == 3
        assert check.pbar == family_poly(18, 1, 3)
        assert check.qbar == IntPoly([-3, -8, -21, -1, 0, 1])
        assert check.gcd == IntPoly([1, 3, 8, 3, 1])
        assert not check.shared_root
        assert check.conclusion is Conclusion.RULED_OUT
        assert check.reason is RuledOutReason.WRONG_FACTOR

    def test_ratio_form_matches_exponent_form(self):
        by_ratio = dust_candidate_check(
            3, 1, F(1, 4), DustIfsSpec.from_ratios([F(1, 4), F(1, 2)])
        )
        by_exp = dust_candidate_check(
            3, 1, F(1, 4), DustIfsSpec.from_exponents(F(1, 2), [F(2), F(1)])
        )
        assert by_ratio.conclusion is by_exp.conclusion is Conclusion.NOT_RULED_OUT
        assert by_ratio.k == by_exp.k == 2
        assert by_ratio.exponents == by_exp.exponents == (1, 2)

    def test_out_of_class(self):
        with pytest.raises(NotInClass):
            dust_candidate_check(3, 2, F(1, 4), DustIfsSpec.from_ratios([F(1, 4), F(1, 2)]))

    def test_json_shapes(self):
        not_ruled = dust_candidate_check(
            3, 1, F(1, 4), DustIfsSpec.from_exponents(F(1, 4), [F(1), F(1, 2)])
        ).to_json()
        assert not_ruled["conclusion"] == "NotRuledOut"
        assert not_ruled["reason"] is None
        assert not_ruled["gcd"] == "x^2-x-1"
        assert not_ruled["exponents"] == [1, 2]
        ruled = dust_candidate_check(
            3, 1, F(1, 4), DustIfsSpec.from_ratios([F(1, 4), F(1, 3)])
        ).to_json()
        assert ruled["reason"] == "IncommensurableRatios"
        assert ruled["pbar"] is None and ruled["qbar"] is None and ruled["gcd"] is None


    def test_shared_root_matches_the_isolating_interval(self):
        # g holds beta^(1/k) iff g has a root in sympy's isolating interval of
        # the largest real root of x^(2k)-n*x^k+m; checked on every exponent
        # set of 2-4 maps over lambda^(1/k), k in {1,2,3,4,6}, whose Moran
        # polynomial meets the family polynomial, plus the WrongFactor example
        cases = [(18, 1, 3, tuple([2] + [3] * 21 + [4] * 8 + [5] * 3))]
        for n, m in ((3, 1), (6, 1), (7, 1), (8, 4), (11, 1), (12, 4)):
            for k in (1, 2, 3, 4, 6):
                pbar = family_poly(n, m, k)
                for size in (2, 3, 4):
                    for js in itertools.combinations_with_replacement(range(1, 2 * k + 1), size):
                        if gcd_poly(pbar, moran_poly(js)).degree > 0:
                            cases.append((n, m, k, js))
        assert len(cases) == 29
        verdicts = []
        for n, m, k, js in cases:
            lam = F(1, n + 1)
            dust = DustIfsSpec.from_exponents(lam, [F(j, k) for j in js])
            check = dust_candidate_check(n, m, lam, dust)
            (lo, hi), _ = sympy_poly(check.pbar).intervals()[-1]
            assert check.shared_root == (sympy_poly(check.gcd).count_roots(lo, hi) > 0), (n, m, js)
            verdicts.append(check.shared_root)
        assert verdicts.count(False) == 1  # the WrongFactor example

    @settings(max_examples=200, deadline=None)
    @given(
        in_class_pair(20),
        st.sampled_from((1, 2, 3, 4, 6)).flatmap(
            lambda k: st.tuples(st.just(k), st.lists(st.integers(1, 2 * k), min_size=2, max_size=4))
        ),
    )
    @example((3, 1), (2, [1, 2]))
    @example((6, 1), (2, [1, 1, 2]))
    @example((11, 1), (2, [1, 1, 1, 2]))
    @example((18, 1), (3, [2] + [3] * 21 + [4] * 8 + [5] * 3))  # WrongFactor
    def test_shared_root_is_a_root_of_the_gcd_in_one_to_n(self, pair, kjs):
        (n, m), (k, js) = pair, kjs
        lam = F(1, n + 1)
        dust = DustIfsSpec.from_exponents(lam, [F(j, k) for j in js])
        check = dust_candidate_check(n, m, lam, dust)
        closed = sympy_poly(check.gcd).count_roots(1, n)  # roots in [1, n]
        assert check.shared_root == (closed - (check.gcd.evaluate(1) == 0) > 0), (n, m, k, js)


class TestFamilyIrreducibilityBase:
    def test_k1_always_irreducible_in_class(self):
        # square discriminants never occur in class, so the k = 1 member can
        # never factor; the verdict path treats a factorization there as a
        # consistency failure, which this confirms can't be provoked
        for n in range(3, 16):
            for m in range(1, n - 1):
                assert is_irreducible(family_poly(n, m, 1))

    def test_family_splits_only_where_a_divisor_makes_m_a_power(self):
        # every in-class (n, m) with n <= 20 and 1 <= k <= 8: the factorizations
        # the verdict skips by Capelli's theorem are all irreducible
        checked = split = 0
        for n in range(3, 21):
            for m in range(1, n - 1):
                for k in range(1, 9):
                    if not factor(family_poly(n, m, k)).is_irreducible_shape:
                        assert split_allowed(m, k), (n, m, k)
                        split += 1
                    checked += 1
        assert (checked, split) == (1368, 49)

    @settings(max_examples=150, deadline=None)
    @given(in_class_pair(60), st.integers(1, 12))
    @example((18, 1), 3)  # (x^2-3x+1)(x^4+3x^3+8x^2+3x+1)
    @example((40, 8), 3)  # (x^2-4x+2)(x^4+4x^3+14x^2+8x+4)
    @example((12, 4), 2)  # (x^2-4x+2)(x^2+4x+2)
    @example((52, 1), 6)  # (x^4-4x^2+1)(x^8+4x^6+15x^4+4x^2+1)
    def test_sympy_splits_only_where_a_divisor_makes_m_a_power(self, pair, k):
        n, m = pair
        _, factors = sp.factor_list(X ** (2 * k) - n * X**k + m)
        if len(factors) > 1 or factors[0][1] > 1:
            assert split_allowed(m, k), (n, m, k)
