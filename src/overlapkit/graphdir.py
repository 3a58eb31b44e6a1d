"""Graph-directed decomposition of an exact-overlap self-similar set.

A configuration is a block of unit-size copies of E whose consecutive offsets
differ by 1-lambda (exact overlap, letter O) or 1 (touch, letter T). Expanding
every copy one level and regrouping the children yields finitely many
configurations; the bookkeeping matrix A counts children per parent, and its
Perron root must match the dominant root beta of x^2 - nx + m.

Two regroupings are supported: cut-at-touch severs blocks at touching points
(configurations degenerate to all-O runs), keep-touch severs only at strictly
positive gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional

import mpmath

from .errors import InvalidArgument, UnexpectedChildGap, VertexExplosion
from .exactnum import RationalRoots, quad_roots
from .ifs import GAP, OVERLAP, TOUCH, SelfSimilarSpec, classify_steps
from .intpoly import exact_div, family_poly
from .intpoly.roots import charpoly, largest_root

_SPECTRAL_BITS = 128
# build_graph refuses a closure with more than this many configurations per map
VERTICES_PER_MAP = 10


class Policy(str, Enum):
    CUT_AT_TOUCH = "cut-touch"
    KEEP_TOUCH = "keep-touch"


@dataclass(frozen=True)
class Configuration:
    """A block of k unit copies; steps is the length-(k-1) word over {O, T}."""

    steps: str

    def __post_init__(self):
        if set(self.steps) - {OVERLAP, TOUCH}:
            raise InvalidArgument(f"configuration steps must be O or T, got {self.steps!r}")

    @property
    def k(self) -> int:
        return len(self.steps) + 1

    def copy_offsets(self, lam: Fraction) -> list[Fraction]:
        """Unit-scale offsets a_1 = 0 < ... < a_k of the copies."""
        out = [Fraction(0)]
        for letter in self.steps:
            out.append(out[-1] + (1 - lam if letter == OVERLAP else 1))
        return out


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    mult: int


@dataclass(frozen=True)
class GraphSystem:
    policy: Policy
    vertices: tuple[Configuration, ...]
    edges: tuple[Edge, ...]
    adjacency: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "policy": self.policy.value,
            "vertices": [
                {"id": i, "k": v.k, "steps": v.steps} for i, v in enumerate(self.vertices)
            ],
            "edges": [{"from": e.src, "to": e.dst, "mult": e.mult} for e in self.edges],
            "adjacency": [list(row) for row in self.adjacency],
        }


def expand(
    config: Configuration, spec: SelfSimilarSpec, policy: Policy
) -> dict[Configuration, int]:
    """One-level children of a configuration, grouped into child configurations.

    Each copy E + a spawns children at a + b_j of size lambda. At an exact
    overlap junction the last child of the left copy coincides with the first
    child of the right copy and is counted once. Consecutive child offsets are
    then classified exactly; anything that is neither an exact overlap, a
    touch, nor a gap aborts loudly because it would break the whole analysis.
    """
    lam = spec.lam
    seen = set()
    offsets: list[Fraction] = []
    for a in config.copy_offsets(lam):
        for b in spec.offsets:
            c = a + b
            if c not in seen:
                seen.add(c)
                offsets.append(c)
    offsets.sort()
    cut_at = {GAP} if policy is Policy.KEEP_TOUCH else {GAP, TOUCH}
    children: dict[Configuration, int] = {}
    word: list[str] = []

    def emit(word_letters: list[str]):
        child = Configuration("".join(word_letters))
        children[child] = children.get(child, 0) + 1

    diffs = [right - left for left, right in zip(offsets, offsets[1:])]
    for i, kind in enumerate(classify_steps(diffs, lam)):
        if kind is None:
            raise UnexpectedChildGap(
                f"child offsets {offsets[i]} and {offsets[i + 1]} differ by {diffs[i]}, "
                f"which is not an exact overlap ({lam - lam * lam}), a touch ({lam}), or a gap",
                gap=diffs[i],
            )
        if kind in cut_at:
            emit(word)
            word = []
        else:
            word.append(kind)
    emit(word)
    return children


def build_graph(spec: SelfSimilarSpec, policy: Policy = Policy.CUT_AT_TOUCH) -> GraphSystem:
    """Breadth-first closure from the single-copy configuration, refused past
    VERTICES_PER_MAP configurations per map."""
    vertex_ceiling = VERTICES_PER_MAP * spec.n
    root = Configuration("")
    vertices: list[Configuration] = [root]
    index = {root: 0}
    parent: dict[Configuration, Optional[Configuration]] = {root: None}
    rows: list[dict[int, int]] = []
    frontier = 0
    while frontier < len(vertices):
        current = vertices[frontier]
        row: dict[int, int] = {}
        for child, mult in expand(current, spec, policy).items():
            if child not in index:
                if len(vertices) >= vertex_ceiling:
                    history = [child.steps]
                    walk: Optional[Configuration] = current
                    while walk is not None:
                        history.append(walk.steps)
                        walk = parent[walk]
                    raise VertexExplosion(
                        f"more than {vertex_ceiling} configurations discovered",
                        ceiling=vertex_ceiling,
                        history=list(reversed(history)),
                    )
                index[child] = len(vertices)
                vertices.append(child)
                parent[child] = current
            row[index[child]] = mult
        rows.append(row)
        frontier += 1
    size = len(vertices)
    adjacency = tuple(tuple(row.get(j, 0) for j in range(size)) for row in rows)
    edges = tuple(
        Edge(src=i, dst=j, mult=adjacency[i][j])
        for i in range(size)
        for j in range(size)
        if adjacency[i][j]
    )
    return GraphSystem(
        policy=policy, vertices=tuple(vertices), edges=edges, adjacency=adjacency
    )


@dataclass(frozen=True)
class SpectralResult:
    rho: mpmath.mpf
    iterations: int
    exact_beta_eigen: Optional[bool] = None

    def with_beta_check(self, value: bool) -> "SpectralResult":
        return replace(self, exact_beta_eigen=value)

    def to_json(self) -> dict:
        return {
            "rho": str(self.rho),
            "iterations": self.iterations,
            "exact_beta_eigen": self.exact_beta_eigen,
        }


def spectral_radius(matrix) -> SpectralResult:
    """Perron root of a nonnegative integer matrix, isolated exactly.

    By Perron-Frobenius rho(A) is an eigenvalue and bounds every eigenvalue's
    modulus, so it is the largest real root of det(x*I - A), in [0, max row
    sum]. `iterations` counts the bisection steps down to width 2^-128.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise InvalidArgument("adjacency matrix must be square and nonempty")
    if any(c < 0 for row in matrix for c in row):
        raise InvalidArgument("adjacency matrix must be nonnegative")
    _, hi, steps = largest_root(charpoly(matrix), -1, max(map(sum, matrix)), _SPECTRAL_BITS)
    with mpmath.workprec(_SPECTRAL_BITS):
        rho = mpmath.mpf(hi.numerator) / hi.denominator
    return SpectralResult(rho=rho, iterations=steps)


def verify_beta_eigen(matrix, n: int, m: int) -> bool:
    """Whether beta is an eigenvalue of A, decided exactly: x^2 - n*x + m is
    irreducible when its discriminant is not a square, so beta is a root of
    det(x*I - A) exactly when x^2 - n*x + m divides it."""
    if isinstance(quad_roots(n, m), RationalRoots):
        raise InvalidArgument(f"x^2-{n}x+{m} has a square discriminant; beta is not a surd")
    return exact_div(charpoly(matrix), family_poly(n, m, 1)) is not None


def emit_dot(gs: GraphSystem) -> str:
    """Graphviz digraph; labels show copy count and step word, edges their multiplicity."""
    lines = ["digraph overlapkit {", "  rankdir=LR;"]
    for i, v in enumerate(gs.vertices):
        lines.append(f'  v{i} [label="k={v.k}[{v.steps}]"];')
    for e in sorted(gs.edges, key=lambda e: (e.src, e.dst)):
        lines.append(f'  v{e.src} -> v{e.dst} [label="{e.mult}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
