"""Numerical laboratory: covers, growth counts, box counting, emitters."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from overlapkit import numlab
from overlapkit.errors import DegenerateFit, InvalidArgument, NotInClass, TooDeep
from overlapkit.ifs import SelfSimilarSpec, generate, validate
from overlapkit.numlab import (
    MAX_COVER_WORK,
    CoverLevel,
    box_count_dimension,
    cover,
    cover_levels,
    cylinder_growth,
    emit_csv,
    emit_svg,
)

F = Fraction


def golden_spec():
    return generate(3, 1, F(1, 4), "OG")


def brute_cover(spec: SelfSimilarSpec, depth: int) -> list[Fraction]:
    """Compose all depth-L map words directly and dedup the offsets."""
    offsets = set()
    for word in itertools.product(spec.offsets, repeat=depth):
        total = Fraction(0)
        scale = Fraction(1)
        for b in word:
            total += scale * b
            scale *= spec.lam
        offsets.add(total)
    return sorted(offsets)


@st.composite
def specs(draw):
    """Valid specs of 2-4 maps with overlap, touch and gap steps in any order,
    in the class or not, lambda = a/q with a up to 3, and the slack split
    over the gaps by weights with their own denominators."""
    lam = draw(st.builds(Fraction, st.integers(1, 3), st.integers(4, 13)))
    kinds = draw(st.lists(st.sampled_from("OTG"), min_size=1, max_size=3))
    step = {"O": lam - lam * lam, "T": lam, "G": lam}
    slack = 1 - lam - sum(step[kind] for kind in kinds)
    weights = [
        Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        for kind in kinds
        if kind == "G"
    ]
    assume(slack > 0 if weights else slack == 0)
    total = sum(weights)
    offsets = [Fraction(0)]
    for kind in kinds:
        extra = slack * weights.pop() / total if kind == "G" else 0
        offsets.append(offsets[-1] + step[kind] + extra)
    return SelfSimilarSpec(lam, tuple(offsets))


def fraction_box_counts(spec: SelfSimilarSpec, depth: int, grid_levels: int) -> list[int]:
    """Occupied lambda^j-cells of the brute-force cover, counted on Fractions."""
    offsets, length = brute_cover(spec, depth), spec.lam**depth
    counts = []
    for j in range(1, grid_levels + 1):
        cell = spec.lam**j
        occupied: set[int] = set()
        for offset in offsets:
            occupied.update(range(offset // cell, (offset + length) // cell + 1))
        counts.append(len(occupied))
    return counts


class TestCover:
    def test_matches_brute_force_composition(self):
        spec = golden_spec()
        for depth in range(5):
            level = cover(spec, depth)
            assert list(level.offsets) == brute_cover(spec, depth)
            assert level.length == spec.lam**depth
            assert level.depth == depth
        assert cover_levels(spec, 4) == [cover(spec, depth) for depth in range(5)]

    def test_brute_force_on_other_patterns(self):
        for spec in (generate(4, 1, F(1, 5), "OTG"), generate(4, 2, F(1, 7), "OGO")):
            for depth in range(4):
                assert list(cover(spec, depth).offsets) == brute_cover(spec, depth)

    def test_golden_counts(self):
        spec = golden_spec()
        counts = [cover(spec, d).count for d in range(5)]
        assert counts == [1, 3, 8, 21, 55]

    def test_levels_nest(self):
        # every deeper cylinder lies inside some coarser one
        spec = generate(4, 2, F(1, 6), "OGO")
        levels = cover_levels(spec, 4)
        for coarse, fine in zip(levels, levels[1:]):
            for off in fine.offsets:
                assert any(
                    c <= off and off + fine.length <= c + coarse.length
                    for c in coarse.offsets
                )

    def test_total_length_never_increases(self):
        spec = golden_spec()
        levels = cover_levels(spec, 6)
        lengths = [lvl.count * lvl.length for lvl in levels]
        assert all(a >= b for a, b in zip(lengths, lengths[1:]))

    def test_offsets_stay_in_unit_interval(self, sweep_specs):
        for _, _, _, spec in sweep_specs[:10]:
            level = cover(spec, 3)
            assert level.offsets[0] == 0
            assert level.offsets[-1] + level.length == 1

    def test_depth_zero_and_validation(self):
        level = cover(golden_spec(), 0)
        assert level == CoverLevel(depth=0, offsets=(F(0),), length=F(1))
        with pytest.raises(InvalidArgument):
            cover(golden_spec(), -1)

    def test_ceiling(self, monkeypatch):
        with pytest.raises(TooDeep) as info:
            cover(golden_spec(), 40)
        assert info.value.exit_code == 2
        assert info.value.details == {"ceiling": MAX_COVER_WORK, "n": 3, "depth": 40}
        # depth 6 charges 3 * (1 + 3 + 8 + 21 + 55 + 144) = 696 children, and
        # the budget is read at call time; its boundary is inclusive
        monkeypatch.setattr(numlab, "MAX_COVER_WORK", 696)
        assert cover(golden_spec(), 6).count == 377
        assert cylinder_growth(golden_spec(), 6).counts[-1] == 377
        monkeypatch.setattr(numlab, "MAX_COVER_WORK", 695)
        for call in (cover, cover_levels, cylinder_growth):
            with pytest.raises(TooDeep) as info:
                call(golden_spec(), 6)
            assert info.value.details == {"ceiling": 695, "n": 3, "depth": 6}


@settings(max_examples=150, deadline=None)
@given(specs(), st.integers(0, 5))
@example(SelfSimilarSpec(F(2, 9), (F(0), F(14, 81), F(7, 9))), 5)  # O then G
@example(SelfSimilarSpec(F(1, 3), (F(0), F(1, 3), F(2, 3))), 4)  # touches only
@example(SelfSimilarSpec(F(1, 4), (F(0), F(2, 5), F(3, 4))), 4)  # offsets over 5 and 4
def test_cover_matches_brute_force_on_random_specs(spec, depth):
    level = cover(spec, depth)
    assert list(level.offsets) == brute_cover(spec, depth)
    assert level.length == spec.lam**depth


def set_and_sort_levels(spec: SelfSimilarSpec, depth: int) -> list[tuple[list[int], int]]:
    """Each depth's numerators as the set of every parent's shifted children,
    sorted, over d*q^(L-1) (d at depth 0)."""
    a, q = spec.lam.numerator, spec.lam.denominator
    d = math.lcm(*(b.denominator for b in spec.offsets))
    scaled = [int(b * d) for b in spec.offsets]
    numerators, denominator, a_power = [0], d, 1
    levels = [(numerators, denominator)]
    for _ in range(depth):
        numerators = sorted({q * n + a_power * b for b in scaled for n in numerators})
        levels.append((numerators, denominator))
        denominator *= q
        a_power *= a
    return levels


@settings(max_examples=60, deadline=None)
@given(specs(), st.integers(0, 8))
@example(SelfSimilarSpec(F(2, 9), (F(0), F(14, 81), F(7, 9))), 8)  # O then G
@example(SelfSimilarSpec(F(1, 2), (F(0), F(1, 4), F(1, 2))), 8)  # O only
def test_parent_order_levels_match_the_set_and_sort(spec, depth):
    levels = list(numlab._numerator_levels(spec, depth))
    assert levels == set_and_sort_levels(spec, depth)
    counts = cylinder_growth(spec, depth).counts
    assert list(counts) == [len(cover(spec, level).offsets) for level in range(depth + 1)]


def merge_count(spec: SelfSimilarSpec, depth: int, cell: Fraction) -> int:
    """Runs of the brute-force cover, cylinders joined where a gap is at most cell."""
    offsets, length = brute_cover(spec, depth), spec.lam**depth
    return 1 + sum(b - (a + length) > cell for a, b in zip(offsets, offsets[1:]))


def test_box_count_charges_each_pass_its_input_runs(monkeypatch):
    # the cover charges its children, then each sweep from the finest grid to
    # the coarsest charges the runs it reads: the depth-6 cylinders first,
    # then the runs the sweep before it left
    spec, depth, grid_levels = golden_spec(), 6, 5
    runs = [len(brute_cover(spec, depth))] + [
        merge_count(spec, depth, spec.lam**j) for j in range(grid_levels, 1, -1)
    ]
    units = 696 + sum(runs)
    monkeypatch.setattr(numlab, "MAX_COVER_WORK", units)
    box_count_dimension(spec, depth, grid_levels)
    monkeypatch.setattr(numlab, "MAX_COVER_WORK", units - 1)
    with pytest.raises(TooDeep) as info:
        box_count_dimension(spec, depth, grid_levels)
    assert info.value.details == {"ceiling": units - 1, "n": 3, "depth": depth}


class TestCylinderGrowth:
    def test_recurrence_and_slope(self):
        result = cylinder_growth(golden_spec(), 8)
        assert result.counts[:5] == (1, 3, 8, 21, 55)
        assert result.recurrence_ok is True
        assert (result.n, result.m) == (3, 1)
        beta = (3 + math.sqrt(5)) / 2
        assert abs(result.slope - math.log(beta)) < 0.05

    def test_recurrence_on_sweep(self, sweep_specs):
        for n, m, lam, spec in sweep_specs[:8]:
            result = cylinder_growth(spec, 6)
            assert result.recurrence_ok is True
            assert (result.n, result.m) == (n, m)

    def test_out_of_class_spec_reports_none(self):
        # two maps with a gap: the Cantor-like set is not in the class
        spec = SelfSimilarSpec(F(1, 3), (F(0), F(2, 3)))
        result = cylinder_growth(spec, 5)
        assert result.recurrence_ok is None
        assert result.n is None and result.m is None
        assert result.counts == (1, 2, 4, 8, 16, 32)
        assert abs(result.slope - math.log(2)) < 1e-9

    @settings(max_examples=80, deadline=None)
    @given(specs(), st.integers(0, 5))
    @example(generate(4, 2, F(1, 7), "OGO"), 5)
    @example(SelfSimilarSpec(F(1, 3), (F(0), F(1, 3), F(2, 3))), 3)
    def test_classifies_the_spec_it_is_given(self, spec, depth):
        # no second spec is built; n, m and recurrence_ok are validate's, None out of class
        built = []
        post_init = SelfSimilarSpec.__post_init__
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                SelfSimilarSpec, "__post_init__", lambda self: built.append(self) or post_init(self)
            )
            result = cylinder_growth(spec, depth)
        assert built == []
        try:
            _, pattern = validate(spec.lam, spec.offsets)
        except NotInClass:
            assert (result.n, result.m, result.recurrence_ok) == (None, None, None)
            return
        counts, n, m = result.counts, pattern.n, pattern.m
        recurrence = all(
            counts[i + 2] == n * counts[i + 1] - m * counts[i] for i in range(len(counts) - 2)
        )
        assert (result.n, result.m, result.recurrence_ok) == (n, m, recurrence)

    def test_json_fields(self):
        data = cylinder_growth(golden_spec(), 3).to_json()
        assert data["depths"] == [0, 1, 2, 3]
        assert data["counts"] == [1, 3, 8, 21]
        assert data["recurrence_ok"] is True
        assert float(data["slope"]) > 0


class TestBoxCountDimension:
    def test_cantor_dust_estimate_is_sharp(self):
        # box counts follow the exact power law, so the fit is essentially exact
        spec = SelfSimilarSpec(F(1, 3), (F(0), F(2, 3)))
        result = box_count_dimension(spec, 8, 4)
        assert abs(result.estimate - math.log(2) / math.log(3)) < 1e-12
        assert all(abs(r) < 1e-12 for r in result.residuals)

    def test_golden_estimate_close_to_dimension(self):
        result = box_count_dimension(golden_spec(), 10, 6)
        assert abs(result.estimate - 0.6942419136306173) < 0.05
        assert len(result.scales) == 6
        assert [s.level for s in result.scales] == [1, 2, 3, 4, 5, 6]

    def test_occupied_counts_monotone_in_level(self):
        result = box_count_dimension(golden_spec(), 9, 5)
        occ = [s.occupied for s in result.scales]
        assert all(a <= b for a, b in zip(occ, occ[1:]))

    def test_validation(self):
        with pytest.raises(DegenerateFit):
            box_count_dimension(golden_spec(), 8, 1)
        with pytest.raises(InvalidArgument):
            box_count_dimension(golden_spec(), 4, 4)


@settings(max_examples=100, deadline=None)
@given(specs(), st.sampled_from([(3, 2), (4, 2), (4, 3), (5, 3), (5, 4), (6, 3), (6, 5)]))
@example(SelfSimilarSpec(F(2, 9), (F(0), F(14, 81), F(7, 9))), (5, 4))
# the gap 1/75 after the first map, scaled by 5^-k, joins two runs at cells
# of 5^-(k+2) but not of 5^-(k+3); 16/75 lies on no grid of 5^-j
@example(SelfSimilarSpec(F(1, 5), (F(0), F(16, 75), F(4, 5))), (6, 5))
def test_box_counts_match_the_fraction_formula(spec, sizes):
    depth, grid_levels = sizes
    result = box_count_dimension(spec, depth, grid_levels)
    assert [s.occupied for s in result.scales] == fraction_box_counts(spec, depth, grid_levels)
    assert [s.cell for s in result.scales] == [spec.lam**j for j in range(1, grid_levels + 1)]


class TestEmitters:
    def test_svg_shape(self):
        levels = cover_levels(golden_spec(), 2)
        svg = emit_svg(levels)
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
        assert svg.endswith("</svg>\n")
        assert svg.count("<rect ") == 1 + 3 + 8
        assert 'viewBox="0 0 1 0.36"' in svg

    def test_svg_is_deterministic(self):
        levels = cover_levels(golden_spec(), 3)
        assert emit_svg(levels) == emit_svg(levels)

    def test_csv_format(self):
        text = emit_csv(["depth", "offset"], [[0, F(0)], [1, F(3, 16)]])
        assert text == "depth,offset\n0,0\n1,3/16\n"
        assert emit_csv(["a"], []) == "a\n"
