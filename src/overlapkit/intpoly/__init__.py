"""Exact integer polynomials: arithmetic, parsing, factorization, real-root
isolation, and the proof that x^(2q) - n*x^q + m has no monic nonneg-tail
multiple."""

from .factor import Factorization, factor, is_irreducible
from .poly import (
    IntPoly,
    exact_div,
    family_poly,
    gcd_poly,
    moran_poly,
    parse_poly,
)
from .search import SearchReport, SearchStrategy, nonneg_tail_search

__all__ = [
    "Factorization",
    "IntPoly",
    "SearchReport",
    "SearchStrategy",
    "exact_div",
    "factor",
    "family_poly",
    "gcd_poly",
    "is_irreducible",
    "moran_poly",
    "nonneg_tail_search",
    "parse_poly",
]
