"""Exact analysis of self-similar sets with exact overlaps.

The toolkit decides whether a set in class A(lambda,n,m) can be Lipschitz
equivalent to a dust-like self-similar set, via exact quadratic-field
arithmetic, integer polynomial factorization, the graph-directed
decomposition of the set, and dimension computations.
"""

from __future__ import annotations

from .errors import (
    ConsistencyError,
    InputError,
    OverlapKitError,
    ResourceLimitError,
)
from .exactnum import (
    DEFAULT_PRECISION_BITS,
    CommonBase,
    QuadSurd,
    integer_root,
    is_perfect_power,
    multiplicative_dependence,
    parse_rational,
    quad_roots,
    surd_to_float,
)
from .graphdir import (
    Configuration,
    GraphSystem,
    Policy,
    SpectralResult,
    build_graph,
    emit_dot,
    expand,
    spectral_radius,
    verify_beta_eigen,
)
from .ifs import (
    DimensionResult,
    DustIfsSpec,
    MoranRoot,
    OverlapPattern,
    SelfSimilarSpec,
    dimension,
    generate,
    moran_dimension,
    validate,
)
from .intpoly import (
    Factorization,
    IntPoly,
    SearchReport,
    SearchStrategy,
    exact_div,
    factor,
    family_poly,
    gcd_poly,
    is_irreducible,
    moran_poly,
    nonneg_tail_search,
    parse_poly,
)
from .numlab import (
    BoxCountResult,
    CoverLevel,
    GrowthResult,
    box_count_dimension,
    cover,
    cover_levels,
    cylinder_growth,
    emit_csv,
    emit_svg,
)
from .obstruction import (
    Conclusion,
    EquivalenceCheck,
    ObstructionReport,
    Verdict,
    dust_candidate_check,
    obstruction_verdict,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BoxCountResult",
    "CommonBase",
    "Conclusion",
    "Configuration",
    "ConsistencyError",
    "CoverLevel",
    "DEFAULT_PRECISION_BITS",
    "DimensionResult",
    "DustIfsSpec",
    "EquivalenceCheck",
    "Factorization",
    "GraphSystem",
    "GrowthResult",
    "InputError",
    "IntPoly",
    "MoranRoot",
    "ObstructionReport",
    "OverlapKitError",
    "OverlapPattern",
    "Policy",
    "QuadSurd",
    "ResourceLimitError",
    "SearchReport",
    "SearchStrategy",
    "SelfSimilarSpec",
    "SpectralResult",
    "Verdict",
    "box_count_dimension",
    "build_graph",
    "cover",
    "cover_levels",
    "cylinder_growth",
    "dimension",
    "dust_candidate_check",
    "emit_csv",
    "emit_dot",
    "emit_svg",
    "exact_div",
    "expand",
    "factor",
    "family_poly",
    "gcd_poly",
    "generate",
    "integer_root",
    "is_irreducible",
    "is_perfect_power",
    "moran_dimension",
    "moran_poly",
    "multiplicative_dependence",
    "nonneg_tail_search",
    "obstruction_verdict",
    "parse_poly",
    "parse_rational",
    "quad_roots",
    "spectral_radius",
    "surd_to_float",
    "sweep",
    "validate",
    "verify_beta_eigen",
]
