"""Exhaustive search for monic nonneg-tail multiples of x^(2q) - n*x^q + m.

A nonneg-tail polynomial is x^p minus a nonnegative-integer combination of
lower powers. The search confirms, over a finite box, that no such multiple
exists; any hit is returned as a counterexample and treated by callers as an
internal consistency failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..errors import InvalidArgument, SearchSpaceTooLarge
from .poly import IntPoly, exact_div, family_poly

# walk nodes one search may visit over all its partitions. A dividend-walk
# node costs 6-13 us for q <= 50 on a 2-core Xeon (its leaves build and
# divide a candidate), so a refused search stops within about 2 s; a
# quotient-walk node costs about 1.3 us
DEFAULT_SEARCH_CEILING = 150_000


class SearchStrategy(str, Enum):
    """How candidates are enumerated.

    QUOTIENT walks monic integer quotients U and tests whether U*(x^(2q)-n*x^q+m)
    is nonneg-tail; DIVIDEND walks nonneg-tail polynomials and trial-divides.
    """

    QUOTIENT = "quotient"
    DIVIDEND = "dividend"


@dataclass(frozen=True)
class PartitionStat:
    degree: int
    candidates: int
    hits: int


@dataclass(frozen=True)
class SearchReport:
    q: int
    n: int
    m: int
    max_degree: int
    coeff_bound: int
    strategy: SearchStrategy
    counterexamples: tuple[IntPoly, ...]
    candidates_tested: int
    partitions: tuple[PartitionStat, ...]


def _search_too_large() -> SearchSpaceTooLarge:
    return SearchSpaceTooLarge(
        f"the search walk visited more than {DEFAULT_SEARCH_CEILING} nodes",
        ceiling=DEFAULT_SEARCH_CEILING,
    )


def _is_nonneg_tail(poly: IntPoly) -> bool:
    """Monic, with every coefficient below the leading one at most zero."""
    return poly.lc == 1 and all(c <= 0 for c in poly.coeffs[:-1])


def _search_quotient_degree(
    q: int, n: int, m: int, p: int, coeff_bound: int, budget: int
) -> tuple[list[IntPoly], int, int]:
    """All monic quotients U, deg U = p-2q, |coeffs| <= bound, with U*P nonneg-tail.

    Product coefficient j of U*(x^(2q)-n*x^q+m) is m*c_j - n*c_(j-q) + c_(j-2q),
    so the nonneg-tail condition caps each c_j as soon as it is chosen; the
    depth-first walk prunes on that cap and the remaining 2q conditions are
    checked once the leading 1 is in place. Returns the hits, the quotients
    tested and the walk nodes visited, at most budget of them.
    """
    d = p - 2 * q
    divisor = family_poly(n, m, q)
    hits: list[IntPoly] = []
    visited = nodes = 0

    def coeff_at(c: list[int], j: int) -> int:
        if j < 0 or j > d:
            return 0
        if j == d:
            return 1
        return c[j]

    def tail_ok(c: list[int]) -> bool:
        for j in range(d, p):
            value = m * coeff_at(c, j) - n * coeff_at(c, j - q) + coeff_at(c, j - 2 * q)
            if value > 0:
                return False
        return True

    def walk(c: list[int], j: int):
        nonlocal visited, nodes
        nodes += 1
        if nodes > budget:
            raise _search_too_large()
        if j == d:
            visited += 1
            if tail_ok(c):
                u = IntPoly(c + [1])
                product = u * divisor
                if not _is_nonneg_tail(product):
                    raise AssertionError("pruned walk admitted a non-tail product")
                hits.append(product)
            return
        back1 = coeff_at(c, j - q)
        back2 = coeff_at(c, j - 2 * q)
        # need m*c_j - n*back1 + back2 <= 0
        cap = (n * back1 - back2) // m
        for value in range(-coeff_bound, min(coeff_bound, cap) + 1):
            c.append(value)
            walk(c, j + 1)
            c.pop()

    walk([], 0)
    return hits, visited, nodes


def _search_dividend_degree(
    q: int, n: int, m: int, p: int, coeff_bound: int, budget: int
) -> tuple[list[IntPoly], int, int]:
    """All nonneg-tail Q of degree p with tail entries <= bound divisible by P.

    Returns the hits, the candidates tested and the walk nodes visited, at
    most budget of them.
    """
    divisor = family_poly(n, m, q)
    hits: list[IntPoly] = []
    tested = nodes = 0
    tail = [0] * p

    def walk(i: int):
        nonlocal tested, nodes
        nodes += 1
        if nodes > budget:
            raise _search_too_large()
        if i == p:
            tested += 1
            candidate = IntPoly([-b for b in tail] + [1])
            if exact_div(candidate, divisor) is not None:
                hits.append(candidate)
            return
        for b in range(coeff_bound + 1):
            tail[i] = b
            walk(i + 1)
        tail[i] = 0

    walk(0)
    return hits, tested, nodes


def nonneg_tail_search(
    q: int,
    n: int,
    m: int,
    max_degree: int,
    coeff_bound: int,
    strategy: SearchStrategy = SearchStrategy.QUOTIENT,
) -> SearchReport:
    """Exhaust the degree/coefficient box; expected to return no counterexamples.

    Partitioned by candidate degree; each partition reports its size, so long
    runs show where the budget went. The walks of all partitions together may
    visit DEFAULT_SEARCH_CEILING nodes; one more raises SearchSpaceTooLarge.
    """
    if q < 1:
        raise InvalidArgument(f"q must be >= 1, got {q}")
    if not 1 <= m <= n - 2:
        raise InvalidArgument(f"need 1 <= m <= n-2, got (n,m)=({n},{m})")
    if max_degree < 2 * q:
        raise InvalidArgument(f"max_degree must be >= 2q = {2 * q}, got {max_degree}")
    if coeff_bound < 0:
        raise InvalidArgument(f"coeff_bound must be >= 0, got {coeff_bound}")
    strategy = SearchStrategy(strategy)
    walker = (
        _search_quotient_degree
        if strategy is SearchStrategy.QUOTIENT
        else _search_dividend_degree
    )
    budget = DEFAULT_SEARCH_CEILING
    counterexamples: list[IntPoly] = []
    partitions: list[PartitionStat] = []
    total = 0
    for p in range(2 * q, max_degree + 1):
        try:
            hits, count, nodes = walker(q, n, m, p, coeff_bound, budget)
        except RecursionError:
            # the walks recurse once per coefficient
            raise SearchSpaceTooLarge(f"the degree-{p} walk nests too deeply", degree=p) from None
        budget -= nodes
        partitions.append(PartitionStat(degree=p, candidates=count, hits=len(hits)))
        counterexamples.extend(hits)
        total += count
    counterexamples.sort(key=lambda f: (f.degree, f.coeffs))
    return SearchReport(
        q=q,
        n=n,
        m=m,
        max_degree=max_degree,
        coeff_bound=coeff_bound,
        strategy=strategy,
        counterexamples=tuple(counterexamples),
        candidates_tested=total,
        partitions=tuple(partitions),
    )
