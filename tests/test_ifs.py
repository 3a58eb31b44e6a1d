"""Overlapping systems on [0,1]: validation, generation, dimension, Moran roots."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overlapkit import exactnum, ifs
from overlapkit.errors import (
    BadBoundary,
    Infeasible,
    InvalidArgument,
    InvalidStep,
    NotInClass,
    NotMonotone,
    ResourceLimitError,
    WorkBudget,
)
from overlapkit.exactnum import QuadSurd, quad_roots, surd_to_float
from overlapkit.ifs import (
    GAP,
    MAX_MORAN_WORK,
    MAX_PRECISION_BITS,
    MIN_PRECISION_BITS,
    OVERLAP,
    TOUCH,
    DustIfsSpec,
    SelfSimilarSpec,
    check_class,
    classify_steps,
    dimension,
    feasibility_slack,
    generate,
    moran_dimension,
    validate,
)

F = Fraction


class TestSpecValidation:
    def test_golden_spec(self):
        lam = F(1, 4)
        spec, pattern = validate(lam, [0, lam - lam * lam, F(3, 4)])
        assert pattern.word == "OG"
        assert (pattern.n, pattern.m) == (3, 1)
        assert pattern.sizes == (F(3, 16), F(9, 16))

    def test_classify_steps_is_exact(self):
        lam = F(1, 4)
        steps = [lam - lam * lam, lam, lam + F(1, 10**9), lam - F(1, 10**9), F(0)]
        assert classify_steps(steps, lam) == [OVERLAP, TOUCH, GAP, None, None]

    def test_touch_step_classification(self):
        lam = F(1, 5)
        spec = generate(4, 1, lam, "OTG")
        assert spec.offsets == (F(0), F(4, 25), F(9, 25), F(4, 5))
        _, pattern = validate(lam, spec.offsets)
        assert pattern.word == "OTG"

    def test_monotonicity(self):
        with pytest.raises(NotMonotone):
            validate(F(1, 4), [F(0), F(1, 2), F(1, 2), F(3, 4)])

    def test_boundary_conditions(self):
        with pytest.raises(BadBoundary):
            validate(F(1, 4), [F(1, 16), F(3, 4)])
        with pytest.raises(BadBoundary):
            validate(F(1, 4), [F(0), F(1, 2)])

    def test_inexact_overlap_is_an_invalid_step(self):
        with pytest.raises(InvalidStep) as info:
            validate(F(1, 4), [F(0), F(1, 8), F(3, 4)])
        assert info.value.details["index"] == 1

    def test_gap_only_pattern_is_out_of_class(self):
        # check_class's error, with the spec's pattern among its details
        with pytest.raises(NotInClass) as info:
            validate(F(1, 4), [F(0), F(1, 4), F(3, 4)])
        assert str(info.value) == "need 1 <= m <= n-2, got (n,m)=(3,0)"
        assert info.value.details == {"n": 3, "m": 0, "pattern": "TG"}

    def test_all_overlap_pattern_is_out_of_class(self):
        # m = n-1 exceeds n-2; lam = 1/2 makes two O steps reach 1-lam exactly
        with pytest.raises(NotInClass):
            validate(F(1, 2), [F(0), F(1, 4), F(1, 2)])

    def test_ratio_range(self):
        with pytest.raises(InvalidArgument):
            SelfSimilarSpec(F(3, 2), (F(0), F(1, 2)))
        with pytest.raises(InvalidArgument):
            SelfSimilarSpec(F(1, 2), (F(0),))

    def test_spec_json_round_trip(self):
        spec = generate(4, 2, F(1, 7), "OGO")
        again = SelfSimilarSpec.from_json(spec.to_json())
        assert again == spec and hash(again) == hash(spec)
        # the cached steps and kinds are no fields: equality, hash and repr ignore them
        assert repr(spec) == f"SelfSimilarSpec(lam={spec.lam!r}, offsets={spec.offsets!r})"


class TestGenerate:
    def test_pattern_realized_exactly(self):
        spec = generate(5, 2, F(1, 6), "OGTO")
        _, pattern = validate(spec.lam, spec.offsets)
        assert pattern.word == "OGTO"

    def test_multiple_gaps_split_slack(self):
        lam = F(1, 8)
        spec = generate(5, 1, lam, "OGGG")
        delta = feasibility_slack(5, 1, lam)
        gaps = [s - lam for s in spec.steps[1:]]
        assert all(g == delta / 3 for g in gaps)

    def test_seeded_generation_is_deterministic_and_valid(self):
        for seed in range(30):
            spec = generate(5, 2, F(1, 9), seed=seed)
            again = generate(5, 2, F(1, 9), seed=seed)
            assert spec == again
            _, pattern = validate(spec.lam, spec.offsets)
            assert (pattern.n, pattern.m) == (5, 2)

    def test_infeasible_ratio(self):
        with pytest.raises(Infeasible) as info:
            generate(3, 1, F(2, 5), "OG")
        assert abs(info.value.details["bound"] - 0.3819660) < 1e-6

    def test_gap_free_pattern_infeasible_for_rational_ratio(self):
        # delta = 1 - n*lam + m*lam^2 cannot vanish at rational lam in class,
        # so a pattern with no G letter can never absorb the slack; the fault
        # is the pattern, not the (feasible) ratio
        with pytest.raises(InvalidArgument, match="G letter"):
            generate(3, 1, F(1, 4), "OT")
        with pytest.raises(InvalidArgument, match="G letter"):
            generate(4, 1, F(1, 5), "OTT")

    def test_pattern_validation(self):
        with pytest.raises(InvalidArgument):
            generate(4, 1, F(1, 6), "OG")  # wrong length
        with pytest.raises(InvalidArgument):
            generate(4, 1, F(1, 6), "OOG")  # wrong overlap count
        with pytest.raises(InvalidArgument):
            generate(4, 1, F(1, 6), "OXG")
        with pytest.raises(NotInClass):
            generate(4, 3, F(1, 6), "OOO")

    def test_n_ceiling_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(ifs, "MAX_GENERATE_N", 10)
        assert generate(10, 1, F(1, 20)).n == 10
        with pytest.raises(ResourceLimitError) as info:
            generate(11, 1, F(1, 22))
        assert info.value.details["ceiling"] == 10

    def test_random_specs_round_trip_via_validate(self, sweep_specs):
        for n, m, lam, spec in sweep_specs:
            _, pattern = validate(spec.lam, spec.offsets)
            assert (pattern.n, pattern.m) == (n, m)
            assert spec.lam == lam


class TestDimension:
    def test_golden_value(self):
        result = dimension(3, 1, F(1, 4))
        assert abs(result.s - mpmath.mpf("0.6942419136306173")) < 1e-15
        assert result.beta == QuadSurd(F(3, 2), F(1, 2), 5)

    def test_defining_identity_high_precision(self):
        for n, m, lam in [(3, 1, F(1, 4)), (4, 1, F(1, 5)), (5, 3, F(1, 8))]:
            result = dimension(n, m, lam, precision_bits=192)
            with mpmath.workprec(200):
                beta = surd_to_float(result.beta, 200)
                lhs = mpmath.mpf(lam.numerator) / lam.denominator
                assert abs(lhs ** (-result.s) - beta) < beta * mpmath.mpf(2) ** -180

    def test_json_prints_full_precision(self):
        result = dimension(3, 1, F(1, 4), precision_bits=128)
        s_text = result.to_json()["s"]
        assert s_text.startswith("0.69424191363061730173879026689859522346")
        assert result.to_json()["beta"] == {"a": "3/2", "b": "1/2", "D": 5}

    def test_one_dimension_call_splits_the_radicand_once(self, monkeypatch):
        # beta alone is built, not its conjugate beside it
        split, calls = exactnum._squarefree_split, []

        def counted(D):
            calls.append(D)
            return split(D)

        monkeypatch.setattr(exactnum, "_squarefree_split", counted)
        n = 2**2047 + 12345
        result = dimension(n, 1, F(1, n))
        assert calls == [n * n - 4]
        assert result.beta == quad_roots(n, 1)[0]

    def test_dimension_monotone_in_ratio(self):
        values = [dimension(3, 1, lam).s for lam in (F(1, 10), F(1, 5), F(1, 4), F(38, 100))]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(0 < v < 1 for v in values)

    def test_feasibility_edge(self):
        # beta*lam <= 1 required; for (3,1) the bound is 1/beta ~ 0.381966
        assert dimension(3, 1, F(38, 100)).s < 1
        with pytest.raises(Infeasible):
            dimension(3, 1, F(39, 100))

    def test_argument_checks(self):
        with pytest.raises(NotInClass):
            dimension(3, 2, F(1, 4))
        with pytest.raises(InvalidArgument):
            dimension(3, 1, F(5, 4))
        with pytest.raises(InvalidArgument):
            dimension(3, 1, F(1, 4), precision_bits=64)

    def test_class_rule_and_size_ceiling(self):
        check_class(2**2048 - 1, 2**2048 - 3)
        for n, m in ((2**2048, 1), (5, -(2**2048)), (10**4200 + 1, 4)):
            with pytest.raises(ResourceLimitError) as info:
                check_class(n, m)
            assert info.value.details == {"ceiling": 2048}
        for n, m in ((3, 2), (2, 1), (5, 0)):
            with pytest.raises(NotInClass) as info:
                check_class(n, m)
            assert str(info.value) == f"need 1 <= m <= n-2, got (n,m)=({n},{m})"


def test_dimension_and_moran_share_the_precision_bounds():
    dust = DustIfsSpec.from_ratios([F(1, 3), F(1, 3)])
    for compute in (
        lambda bits: dimension(3, 1, F(1, 4), bits),
        lambda bits: moran_dimension(dust, bits),
    ):
        with pytest.raises(InvalidArgument):
            compute(MIN_PRECISION_BITS - 1)
        with pytest.raises(ResourceLimitError) as info:
            compute(MAX_PRECISION_BITS + 1)
        assert info.value.details["ceiling"] == MAX_PRECISION_BITS
        assert compute(MIN_PRECISION_BITS).s > 0


def near_ties(n: int, m: int, terms: int = 12) -> list[Fraction]:
    """Convergents of 1/beta = (-n + sqrt(D)) / (-2m), D = n^2 - 4m, and the
    mediants of consecutive ones, from its exact continued fraction: a term of
    (P + sqrt(D)) / Q is floor((P + isqrt(D)) / Q) for Q > 0 and
    floor((P + isqrt(D) + 1) / Q) for Q < 0."""
    disc = n * n - 4 * m
    root = math.isqrt(disc)
    P, Q = -n, -2 * m
    h0, k0, h1, k1 = 0, 1, 1, 0
    out = []
    for _ in range(terms):
        a = (P + root + (Q < 0)) // Q
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        out.append(Fraction(h1, k1))
        if k0:
            out.append(Fraction(h0 + h1, k0 + k1))
        P = a * Q - P
        Q = (disc - P * P) // Q
    return [lam for lam in dict.fromkeys(out) if 0 < lam < 1]


def lam_beta_exceeds_one(n: int, m: int, lam: Fraction) -> bool:
    """Integer oracle: with lam = a/q, lam*beta > 1 iff a*sqrt(D) > t = 2q - n*a."""
    a, q = lam.numerator, lam.denominator
    t = 2 * q - n * a
    return t < 0 or (n * n - 4 * m) * a * a > t * t


@st.composite
def in_class_ratios(draw):
    n = draw(st.integers(3, 20))
    m = draw(st.integers(1, n - 2))
    q = draw(st.integers(2, 10**4))
    random_ratio = st.builds(Fraction, st.integers(1, q - 1), st.just(q))
    return n, m, draw(st.one_of(st.sampled_from(near_ties(n, m)), random_ratio))


def raises_infeasible(call) -> bool:
    try:
        call()
    except Infeasible:
        return True
    return False


def test_near_ties_straddle_the_bound():
    # 1/beta = (3 - sqrt 5)/2 = [0; 2, 1, 1, ...]: Fibonacci ratios alternate sides
    ties = near_ties(3, 1)
    assert ties[:6] == [F(1, 2), F(1, 3), F(2, 5), F(3, 8), F(5, 13), F(8, 21)]
    assert [lam_beta_exceeds_one(3, 1, lam) for lam in ties[:4]] == [True, False, True, False]
    assert F(21, 55) in ties and F(34, 89) in ties
    assert not lam_beta_exceeds_one(3, 1, F(21, 55))
    assert lam_beta_exceeds_one(3, 1, F(34, 89))


@settings(max_examples=300, deadline=None)
@given(in_class_ratios())
@example((3, 1, F(21, 55)))  # 1/beta - 21/55 ~ 1.5e-4
@example((3, 1, F(34, 89)))  # 34/89 - 1/beta ~ 5.6e-5
@example((20, 18, F(1, 19)))
def test_feasibility_decided_by_the_slack_matches_the_integer_oracle(case):
    n, m, lam = case
    exceeds = lam_beta_exceeds_one(n, m, lam)
    assert (feasibility_slack(n, m, lam) < 0) == exceeds
    assert raises_infeasible(lambda: dimension(n, m, lam)) == exceeds
    assert raises_infeasible(lambda: generate(n, m, lam, seed=n * m)) == exceeds


class TestMoran:
    def test_equal_ratio_closed_form(self):
        # three maps of ratio 1/3 cover a set of dimension 1
        root = moran_dimension(DustIfsSpec.from_ratios([F(1, 3)] * 3))
        assert abs(root.s - 1) < 1e-11

    def test_cantor_middle_thirds(self):
        root = moran_dimension(DustIfsSpec.from_ratios([F(1, 3), F(1, 3)]))
        assert abs(root.s - mpmath.log(2) / mpmath.log(3)) < 1e-11

    def test_exponent_form_matches_ratio_form(self):
        by_exp = moran_dimension(DustIfsSpec.from_exponents(F(1, 4), [F(1), F(3, 2)]))
        by_ratio = moran_dimension(DustIfsSpec.from_ratios([F(1, 4), F(1, 8)]))
        assert abs(by_exp.s - by_ratio.s) < 1e-11

    def test_residual_reported(self):
        root = moran_dimension(DustIfsSpec.from_ratios([F(1, 2), F(1, 4)]))
        # golden case: s solves 2^-s + 4^-s = 1, so 2^-s is the golden ratio
        expected = mpmath.log((1 + mpmath.sqrt(5)) / 2) / mpmath.log(2)
        assert abs(root.s - expected) < 1e-11
        assert root.residual < 1e-11
        # Newton steps from s = 0: a few to reach the quadratic phase, then
        # log2(128) to the default precision
        assert 0 < root.iterations <= 10

    def test_root_is_correct_to_the_requested_bits(self):
        # 4^-s + 2^-s = 1 and dimension(3, 1, 1/4) both give s = log2(golden ratio)
        dust = DustIfsSpec.from_exponents(F(1, 4), [F(1), F(1, 2)])
        for bits in (128, 200, 1024):
            root = moran_dimension(dust, bits)
            exact = dimension(3, 1, F(1, 4), bits).s
            with mpmath.workprec(bits + 16):
                assert abs(root.s - exact) < mpmath.ldexp(1, 10 - bits), bits

    def test_ratio_near_one_keeps_its_digits(self):
        # r^s + r^s = 1 gives s = log 2 / -log r; with r = 1 - 10^-30 the
        # ratio must not be rounded before its logarithm is taken
        r = 1 - F(1, 10**30)
        root = moran_dimension(DustIfsSpec.from_ratios([r, r]), 128)
        with mpmath.workprec(400):
            exact = mpmath.log(2) / -mpmath.log(mpmath.mpf(r.numerator) / r.denominator)
            assert abs(root.s / exact - 1) < mpmath.ldexp(1, -120)

    def test_flat_root_gets_more_guard_bits(self):
        # at these roots the ratio close to 1 carries all but a sliver of the
        # weight, so 32 guard bits cannot certify them and more are taken;
        # at (1 - 10^-14, 1/5) the steps at 332 bits circle in rounding noise,
        # and (1 - 10^-300, 1/2) creeps up to its root in 691 Newton steps
        for near_one, other, bits, start in (
            (1 - F(1, 10**30), F(1, 2), 128, 93),
            (1 - F(1, 10**14), F(1, 5), 300, 18),
            (1 - F(1, 10**300), F(1, 2), 128, 987),
        ):
            root = moran_dimension(DustIfsSpec.from_ratios([near_one, other]), bits)
            with mpmath.workprec(bits + 1000):
                a, b = (
                    mpmath.log(mpmath.mpf(x.numerator) / x.denominator) for x in (near_one, other)
                )
                exact = mpmath.findroot(lambda s: mpmath.exp(s * a) + mpmath.exp(s * b) - 1, start)
                assert abs(root.s / exact - 1) < mpmath.ldexp(1, 8 - bits)

    def test_creeping_newton_is_a_resource_error(self):
        # Newton's steps from 0 grow s by about 1/log 2 each toward a root
        # near 3310, and as f = sum r_j^s - 1 cancels the guard bits double
        # with s (4096 by s = 2175), so the budget ends the call
        dust = DustIfsSpec.from_ratios([1 - F(1, 10**1000), F(1, 2)])
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as info:
            moran_dimension(dust, 128)
        assert time.perf_counter() - start < 3
        assert info.value.details == {"ceiling": MAX_MORAN_WORK}

    def test_work_budget(self, monkeypatch):
        # at the top precision 54 ratios 1/1001 are the most the budget admits
        # (16 Newton steps); 600 are refused at the logs, before any is taken
        with monkeypatch.context() as patched:
            patched.setattr(ifs, "_log_rational", None)
            start = time.perf_counter()
            with pytest.raises(ResourceLimitError) as info:
                moran_dimension(DustIfsSpec.from_ratios([F(1, 1001)] * 600), MAX_PRECISION_BITS)
            assert time.perf_counter() - start < 0.1
        assert info.value.exit_code == 2
        assert info.value.details == {"ceiling": MAX_MORAN_WORK}
        start = time.perf_counter()
        root = moran_dimension(DustIfsSpec.from_ratios([F(1, 1001)] * 54), MAX_PRECISION_BITS)
        assert time.perf_counter() - start < 3
        # 54 copies of 1/1001 give s = log(54) / log(1001)
        with mpmath.workprec(MAX_PRECISION_BITS + 16):
            exact = mpmath.log(54) / mpmath.log(1001)
            assert abs(root.s - exact) < mpmath.ldexp(1, 8 - MAX_PRECISION_BITS)

    @pytest.mark.parametrize(
        "ratios, bits, units",
        [
            ((F(1, 3), F(1, 3)), 128, 208),
            ((F(1, 3), F(1, 3)), 1024, 1344),
            ((F(1, 2), F(1, 3), F(1, 5)), 128, 312),
            ((F(1, 2), F(1, 3), F(1, 5)), 1024, 2016),
        ],
    )
    def test_each_call_spends_the_pinned_units(self, monkeypatch, ratios, bits, units):
        # the least MAX_MORAN_WORK that admits the call
        budgets = []

        class Recorded(WorkBudget):
            def __init__(self, *args):
                super().__init__(*args)
                budgets.append(self)

        dust = DustIfsSpec.from_ratios(list(ratios))
        monkeypatch.setattr(ifs, "WorkBudget", Recorded)
        moran_dimension(dust, bits)
        assert [budget.spent for budget in budgets] == [units]
        monkeypatch.setattr(ifs, "MAX_MORAN_WORK", units - 1)
        with pytest.raises(ResourceLimitError):
            moran_dimension(dust, bits)

    def test_dust_spec_validation(self):
        with pytest.raises(InvalidArgument):
            DustIfsSpec.from_ratios([F(1, 2)])
        with pytest.raises(InvalidArgument):
            DustIfsSpec.from_ratios([F(1, 2), F(3, 2)])
        with pytest.raises(InvalidArgument):
            DustIfsSpec.from_exponents(F(1, 2), [F(1), F(-1)])
        with pytest.raises(InvalidArgument):
            DustIfsSpec(ratios=(F(1, 2), F(1, 4)), base=F(1, 2), exponents=(F(1), F(2)))
        with pytest.raises(InvalidArgument):
            DustIfsSpec()
