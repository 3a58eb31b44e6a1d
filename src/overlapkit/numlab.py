"""Numerical cross-validation: exact interval covers, cylinder-count growth,
box-counting estimates, and SVG/CSV emission.

Cover construction, deduplication and box counting are exact integer
arithmetic on numerators over one denominator per depth; floats only appear
in the fitted statistics and the emitted documents.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DegenerateFit, InvalidArgument, NotInClass, TooDeep, WorkBudget
from .exactnum import format_rational
from .ifs import OVERLAP, SelfSimilarSpec, check_class

# One call's cover work, in units: each level's n*N_(L-1) children, charged
# before the level is built, and each boxdim merge pass's input runs. In-process
# on a 2-core Xeon a unit took 0.16-0.33 us, so the costliest admitted calls
# take up to about a second: growth on the Cantor set (n = 2) at depth 20, 2.1M
# units, 0.39 s and 132 MB peak; boxdim on (1/4; 0, 3/16, 3/4) at depth 14
# with 13 grid levels, 2.7M units, 0.78 s and 97 MB peak.
MAX_COVER_WORK = 3_000_000


@dataclass(frozen=True)
class CoverLevel:
    """All depth-L cylinder intervals [c, c + lambda^L], coincidences merged."""

    depth: int
    offsets: tuple[Fraction, ...]
    length: Fraction

    @property
    def count(self) -> int:
        return len(self.offsets)


def check_cylinders(n: int, depth: int, ceiling: int) -> None:
    """TooDeep when n^depth raw cylinders exceed the ceiling; as n >= 2, every
    depth from the ceiling's bit length on does, so no larger power is taken."""
    if n ** min(depth, ceiling.bit_length()) > ceiling:
        raise TooDeep(
            f"{n}^{depth} raw cylinders exceed the ceiling {ceiling}",
            n=n,
            depth=depth,
            ceiling=ceiling,
        )


def _cover_budget(depth: int) -> WorkBudget:
    return WorkBudget(
        MAX_COVER_WORK,
        f"the depth-{depth} cover needs more than {MAX_COVER_WORK} units of work",
        TooDeep,
    )


def _numerator_levels(
    spec: SelfSimilarSpec, depth: int, charge: Optional[WorkBudget] = None
) -> Iterator[tuple[list[int], int]]:
    """Sorted numerators and their shared denominator at each depth 0..depth.

    With lambda = a/q and B_i = d*b_i, where d is the lcm of the offsets'
    denominators, every depth-L offset (L >= 1) is N / (d*q^(L-1)) and the
    next depth's numerators are q*N + a^L*B_i. One positive denominator per
    depth makes integer dedup and order those of the offsets themselves.

    Parent order. A depth-L cylinder's children span (1 - lambda)*lambda^L
    from the first to the last, and every step between consecutive depth-L
    offsets is an O (exactly that span), a T (lambda^(L+1) more) or a G
    (more still), scaled from the steps of the spec (`graphdir.expand`). So
    the children of consecutive parents never interleave: across an O the
    last child of one parent is the first child of the next, and elsewhere
    they keep the gap left over, a T or G one level down. Laid out parent by
    parent, the children are already sorted, and a child equal to its left
    neighbour is the only duplicate. Each level's n*N_(L-1) children are
    charged before it is built, to charge or else to a budget of its own.
    """
    if depth < 0:
        raise InvalidArgument(f"depth must be >= 0, got {depth}")
    charge = charge or _cover_budget(depth)
    a, q = spec.lam.numerator, spec.lam.denominator
    d = 1
    for b in spec.offsets:
        d *= (b * d).denominator  # lcm(d, denominator of b)
    scaled = [int(b * d) for b in spec.offsets]
    n = len(scaled)
    numerators, denominator, a_power = [0], d, 1
    yield numerators, denominator  # the depth-0 offset 0
    for _ in range(depth):
        charge(n * len(numerators), n=n, depth=depth)
        base = [q * parent for parent in numerators]
        children = [0] * (n * len(base))
        for i, b in enumerate(scaled):
            shift = a_power * b
            children[i::n] = [parent + shift for parent in base]
        numerators = [c for left, c in zip([None] + children, children) if c != left]
        yield numerators, denominator
        denominator *= q
        a_power *= a


def _cover_level(
    spec: SelfSimilarSpec, level: int, numerators: list[int], denominator: int
) -> CoverLevel:
    return CoverLevel(
        depth=level,
        offsets=tuple(Fraction(n, denominator) for n in numerators),
        length=spec.lam**level,
    )


def cover_levels(spec: SelfSimilarSpec, depth: int) -> list[CoverLevel]:
    """Covers at every depth 0..depth (each level refines the previous one)."""
    return [
        _cover_level(spec, level, *numerators_over)
        for level, numerators_over in enumerate(_numerator_levels(spec, depth))
    ]


def cover(spec: SelfSimilarSpec, depth: int) -> CoverLevel:
    """Exact offsets of the depth-L cylinders with coincident ones merged."""
    for numerators, denominator in _numerator_levels(spec, depth):
        pass  # only the deepest level is needed
    return _cover_level(spec, depth, numerators, denominator)


@dataclass(frozen=True)
class GrowthResult:
    counts: tuple[int, ...]
    slope: float
    recurrence_ok: Optional[bool]
    n: Optional[int]
    m: Optional[int]

    def to_json(self) -> dict:
        return {
            "depths": list(range(len(self.counts))),
            "counts": list(self.counts),
            "slope": repr(self.slope),
            "recurrence_ok": self.recurrence_ok,
            "n": self.n,
            "m": self.m,
        }


def cylinder_growth(spec: SelfSimilarSpec, max_depth: int) -> GrowthResult:
    """Counts N_0..N_max_depth with the fitted slope of log N_L against L.

    For in-class specs the recurrence N_(L+2) = n*N_(L+1) - m*N_L is reported
    as an observation; it is never enforced.
    """
    counts = tuple(len(numerators) for numerators, _ in _numerator_levels(spec, max_depth))
    if len(counts) >= 2:
        fit = statistics.linear_regression(range(len(counts)), [math.log(c) for c in counts])
        slope = fit.slope
    else:
        slope = 0.0
    n, m = spec.n, spec.step_kinds.count(OVERLAP)
    try:
        check_class(n, m)
    except NotInClass:
        n = m = recurrence_ok = None
    else:
        recurrence_ok = all(c == n * b - m * a for a, b, c in zip(counts, counts[1:], counts[2:]))
    return GrowthResult(counts=counts, slope=slope, recurrence_ok=recurrence_ok, n=n, m=m)


@dataclass(frozen=True)
class ScaleCount:
    level: int
    cell: Fraction
    occupied: int


def _merge_runs(runs: Iterable[tuple[int, int]], cell: int) -> Iterator[tuple[int, int]]:
    """Sorted runs [start, end], ends rising with starts, with each two
    consecutive ones merged where the next start exceeds the end by at most
    cell."""
    runs = iter(runs)
    start, end = next(runs)
    for next_start, next_end in runs:
        if next_start - end > cell:
            yield start, end
            start = next_start
        end = next_end
    yield start, end


def _occupied_cells(spec: SelfSimilarSpec, depth: int, grid_levels: int) -> list[int]:
    """Cells of side lambda^j, j = 1..grid_levels, that the depth-L cover meets.

    Units. With lambda = a/q, D = d*q^(L-1) the depth-L denominator and
    1/(q*D) the unit, the cylinder [N/D, N/D + lambda^L] is [q*N, q*N + a^L*d]
    and the level-j cell side is c_j = a^j*d*q^(L-j), an integer for j <= L;
    a point x lies in cell x // c_j, so a run [s, e] meets the cells s // c_j
    through e // c_j. Numerators come sorted and every cylinder has one
    length, so starts and ends rise together.

    Runs. Let e be the end of a run and s the start of the next, and c a
    cell side. If s - e <= c, then s // c <= e // c + 1: the two cell ranges
    touch or overlap, and the merged run, from the first start to the next
    end, meets exactly their union. If s - e > c, then s // c > e // c: the
    runs share no cell. So, with the runs merged wherever the gap is at most
    c_j, the level-j count is the sum of e // c_j - s // c_j + 1 over them.
    As c_j falls with j, a gap at most c_(j+1) is at most c_j: the runs of
    level j are those of level j + 1 merged again, so one sweep per level,
    from the finest to the coarsest, works on a run list that only shrinks.
    Each sweep is charged its input runs, to the cover's budget, before it runs.
    """
    charge = _cover_budget(depth)
    for numerators, denominator in _numerator_levels(spec, depth, charge):
        pass  # only the deepest level is needed
    a, q = spec.lam.numerator, spec.lam.denominator
    d = denominator // q ** (depth - 1)
    reach = a**depth * d
    runs: Iterable[tuple[int, int]] = ((q * n, q * n + reach) for n in numerators)
    counts, size = [], len(numerators)
    for j in range(grid_levels, 0, -1):
        charge(size, n=spec.n, depth=depth)
        cell = a**j * d * q ** (depth - j)
        runs = list(_merge_runs(runs, cell))
        size = len(runs)
        counts.append(sum(end // cell - start // cell + 1 for start, end in runs))
    return counts[::-1]


@dataclass(frozen=True)
class BoxCountResult:
    estimate: float
    scales: tuple[ScaleCount, ...]
    residuals: tuple[float, ...]

    def to_json(self) -> dict:
        return {
            "estimate": repr(self.estimate),
            "scales": [
                {"level": s.level, "cell": format_rational(s.cell), "occupied": s.occupied}
                for s in self.scales
            ],
            "residuals": [repr(r) for r in self.residuals],
        }


def box_count_dimension(spec: SelfSimilarSpec, depth: int, grid_levels: int) -> BoxCountResult:
    """Slope of log(occupied cells) against log(1/cell) over lambda-power grids.

    Grid cells are powers of lambda. Cell boundaries need not fall on cylinder
    endpoints (lambda = 1/5 with the offset 16/75 has an endpoint on no
    5^-j grid), but every cell side and endpoint is an integer multiple of
    one unit, so the counts are exact (_occupied_cells). The depth must exceed
    grid_levels so every cylinder is smaller than the finest cell.
    """
    if grid_levels < 2:
        raise DegenerateFit(f"need at least 2 grid levels for a slope, got {grid_levels}")
    if depth <= grid_levels:
        raise InvalidArgument(
            f"depth must exceed grid_levels so cylinders are below cell size, "
            f"got depth={depth}, grid_levels={grid_levels}"
        )
    scales = [
        ScaleCount(level=j, cell=spec.lam**j, occupied=occupied)
        for j, occupied in enumerate(_occupied_cells(spec, depth, grid_levels), start=1)
    ]
    # from the integers: float(lambda) underflows to 0 below about 1e-324
    log_lam = math.log(spec.lam.numerator) - math.log(spec.lam.denominator)
    xs = [-j * log_lam for j in range(1, grid_levels + 1)]
    ys = [math.log(s.occupied) for s in scales]
    fit = statistics.linear_regression(xs, ys)
    residuals = tuple(y - (fit.slope * x + fit.intercept) for x, y in zip(xs, ys))
    return BoxCountResult(estimate=fit.slope, scales=tuple(scales), residuals=residuals)


_ROW_HEIGHT = 0.12
_BAR_HEIGHT = 0.1


def emit_svg(levels: Sequence[CoverLevel]) -> str:
    """One bar row per cover level, unit-wide viewBox, deterministic output."""
    height = max(_ROW_HEIGHT * len(levels), _ROW_HEIGHT)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 {height:g}">',
    ]
    for row, level in enumerate(levels):
        y = _ROW_HEIGHT * row + (_ROW_HEIGHT - _BAR_HEIGHT) / 2
        for offset in level.offsets:
            lines.append(
                f'  <rect x="{float(offset):g}" y="{y:g}" '
                f'width="{float(level.length):g}" height="{_BAR_HEIGHT:g}" '
                f'fill="#1f6fb2"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_csv(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Comma separated, LF line endings, header first."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([str(v) for v in row])
    return buf.getvalue()
