"""Monic nonneg-tail multiples of x^(2q) - n*x^q + m: there are none.

A nonneg-tail polynomial is x^p - sum c_i x^i with every c_i >= 0. For q >= 1
and 1 <= m <= n-2, y^2 - n*y + m has discriminant n^2 - 4m >= (n-2)^2 + 4 > 0
and constant m > 0, so two distinct positive roots beta > betabar; hence
x^(2q) - n*x^q + m has two distinct positive roots, beta^(1/q) and
betabar^(1/q), and so does every multiple of it. The coefficients of a
nonneg-tail polynomial change sign at most once, so by Descartes' rule of signs
it has at most one positive root. Every degree/coefficient box is therefore
empty, whichever way it would be enumerated, and `nonneg_tail_search` returns
that answer in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .. import ifs  # as a module: ifs itself imports intpoly.poly
from ..errors import InvalidArgument
from ..exactnum import format_rational
from .poly import IntPoly


class SearchStrategy(str, Enum):
    """How a box would be enumerated: monic quotients U with U*(x^(2q)-n*x^q+m)
    nonneg-tail, or nonneg-tail dividends; the proof covers both."""

    QUOTIENT = "quotient"
    DIVIDEND = "dividend"


@dataclass(frozen=True)
class SearchReport:
    q: int
    n: int
    m: int
    max_degree: int
    coeff_bound: int
    strategy: SearchStrategy
    counterexamples: tuple[IntPoly, ...]
    proof: str


def nonneg_tail_search(
    q: int,
    n: int,
    m: int,
    max_degree: int,
    coeff_bound: int,
    strategy: SearchStrategy = SearchStrategy.QUOTIENT,
) -> SearchReport:
    """Answer the degree/coefficient box from the module's proof: no counterexamples."""
    if q < 1:
        raise InvalidArgument(f"q must be >= 1, got {q}")
    ifs.check_class(n, m)
    if max_degree < 2 * q:
        raise InvalidArgument(
            f"max_degree must be >= 2q = {format_rational(2 * q)}, got {max_degree}"
        )
    if coeff_bound < 0:
        raise InvalidArgument(f"coeff_bound must be >= 0, got {coeff_bound}")
    x_q = "x" if q == 1 else f"x^{q}"
    proof = (
        f"discriminant n^2-4m = {n * n - 4 * m} > 0 and m = {m} > 0, so "
        f"x^{2 * q}-{n}*{x_q}+{m} and each of its multiples have 2 positive roots, "
        f"while a monic nonneg-tail polynomial has at most 1 (Descartes' rule of signs)"
    )
    return SearchReport(
        q, n, m, max_degree, coeff_bound, SearchStrategy(strategy), counterexamples=(), proof=proof
    )
