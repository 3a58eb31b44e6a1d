"""Graph-directed decomposition of an exact-overlap self-similar set.

A configuration is a block of unit-size copies of E whose consecutive offsets
differ by 1-lambda (exact overlap, letter O) or 1 (touch, letter T). Expanding
every copy one level and regrouping the children yields finitely many
configurations; the bookkeeping matrix A counts children per parent, and its
Perron root must match the dominant root beta of x^2 - nx + m.

Two regroupings are supported: cut-at-touch severs blocks at touching points
(configurations degenerate to all-O runs), keep-touch severs only at strictly
positive gaps.

A closure's charpoly is x^(V-2-e) * (x-1)^e * (x^2 - n*x + m), e = 1 exactly
for keep-touch and a T in the step word. By expand, configuration c's row is
u + o_c*dO + t_c*dT (o_c, t_c its O and T letters; u the root's row; dO, dT
the inner pieces plus the pieces of tail + head, of tail + T + head). So
A = P*R, P's rows (1, o_v, t_v), and det(x*I - P*R) = x^(V-r) det(x*I - R*P),
R*P counting each R row's pieces and their O and T letters: [[n-m, m],
[n-1-m, m]] under cut-touch, whose configurations have no T, and under
keep-touch [[g+1, m, t], [g, m, t], [g, m, t+1]] (g, t the word's G and T
letters; [[g+1, m], [g, m]] if t = 0), of charpoly (x-1)*(x^2 - n*x + m).
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Optional

from .errors import InvalidArgument, VertexExplosion
from .exactnum import RationalRoots, quad_roots
from .ifs import GAP, OVERLAP, TOUCH, SelfSimilarSpec
from .intpoly import IntPoly, exact_div, family_poly
from .intpoly.roots import charpoly, largest_root

if TYPE_CHECKING:
    import mpmath

_SPECTRAL_BITS = 128
# build_graph refuses a closure that may need more vertices than this. A graph
# call builds one O(V^4) Berkowitz charpoly, nearly all of its time; whole
# in-process calls on keep-touch specs of distinct O/T words joined by G
# (2-core Xeon, host speed swinging about 1.5x) took 0.25-0.50 s at V = 54,
# 0.38-0.66 s at V = 60, 0.48-0.84 s at V = 64 and 0.68-1.11 s at V = 70.
MAX_VERTICES = 64


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


def _step_word(spec: SelfSimilarSpec, policy: Policy) -> tuple[str, str]:
    """The spec's step word and the glue at a T junction, with the policy's
    cut letters (G, and T under cut-touch) written as G."""
    if policy is Policy.CUT_AT_TOUCH:
        return spec.step_kinds.replace(TOUCH, GAP), GAP
    return spec.step_kinds, TOUCH


def expand(
    config: Configuration, spec: SelfSimilarSpec, policy: Policy
) -> dict[Configuration, int]:
    """One-level children of a configuration, grouped into child configurations,
    in order of first appearance.

    The children are read off the spec's step word S alone. Copy i sits at
    a_i and its children at a_i + b_j, inside [a_i, a_i + 1 - lambda], with
    the steps of S between them. The next copy starts at
    a_(i+1) = a_i + 1 - lambda (O) or a_i + 1 (T), so the children of
    consecutive copies never interleave: across an O junction the last child
    of copy i is the first child of copy i+1 (counted once), and across a T
    junction they are lambda apart, a touch. Every step between children is
    therefore exactly an O, T or G letter, and the child word is S once per
    copy, glued by nothing at O and by T at T. Splitting it at the policy's
    cut letters (G, and T under cut-touch) gives the child configurations.
    This holds for any SelfSimilarSpec, in class or not.

    When S has a cut letter, split S into head, inner pieces and tail. The
    child word's pieces are then the head once, each inner piece once per
    copy, the tail once, and the junction word tail + glue + head split at
    its cuts once per letter of the configuration; in the word the junction
    of a letter first appears after the inner pieces of the first copy, in
    the order the letters first appear, so they are counted in that order in
    O(n + k). Without a cut letter the whole word is built and split.
    """
    word, touch = _step_word(spec, policy)
    if GAP not in word:
        word += config.steps.translate({ord(OVERLAP): word, ord(TOUCH): touch + word})
        return {Configuration(piece): mult for piece, mult in Counter(word.split(GAP)).items()}
    head, *inner, tail = word.split(GAP)
    counts = Counter({head: 1})
    for piece in inner:
        counts[piece] += config.k
    glue = {OVERLAP: "", TOUCH: touch}
    for letter, junctions in Counter(config.steps).items():
        for piece in (tail + glue[letter] + head).split(GAP):
            counts[piece] += junctions
    counts[tail] += 1
    return {Configuration(piece): mult for piece, mult in counts.items()}


def build_graph(spec: SelfSimilarSpec, policy: Policy = Policy.CUT_AT_TOUCH) -> GraphSystem:
    """Breadth-first closure from the single-copy configuration.

    By expand, every child is a piece of the step word S (a child of the
    root) or a junction piece, tail + head at O or tail + T + head at T under
    keep-touch. So with a cut letter in S the closure has at most the root,
    S's distinct pieces and two junction pieces; without one every expansion
    adds copies and the closure is infinite. Both are decided before anything
    is expanded, and a bound past MAX_VERTICES is refused.
    """
    try:
        policy = Policy(policy)
    except ValueError:
        raise InvalidArgument(f"policy must be cut-touch or keep-touch, got {policy!r}") from None
    word, _ = _step_word(spec, policy)
    if GAP not in word:
        raise VertexExplosion(
            f"the step word has no cut letter under {policy.value}, so the closure is infinite",
            ceiling=MAX_VERTICES,
            vertices=None,
        )
    bound = len(set(word.split(GAP))) + 3
    if bound > MAX_VERTICES:
        raise VertexExplosion(
            f"the closure may need {bound} vertices, more than {MAX_VERTICES}",
            ceiling=MAX_VERTICES,
            vertices=bound,
        )
    root = Configuration("")
    vertices: list[Configuration] = [root]
    index = {root: 0}
    rows: list[dict[int, int]] = []
    for current in vertices:
        row: dict[int, int] = {}
        for child, mult in expand(current, spec, policy).items():
            if child not in index:
                index[child] = len(vertices)
                vertices.append(child)
            row[index[child]] = mult
        rows.append(row)
    adjacency = tuple(tuple(row.get(j, 0) for j in range(len(vertices))) for row in rows)
    edges = tuple(
        Edge(i, j, mult) for i, row in enumerate(rows) for j, mult in sorted(row.items())
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


@functools.lru_cache(maxsize=1)
def _charpoly(matrix: tuple[tuple[int, ...], ...]) -> IntPoly:
    """charpoly of the last matrix asked for: a graph call asks both
    spectral_radius and verify_beta_eigen about one adjacency matrix."""
    return charpoly(matrix)


def spectral_radius(matrix) -> SpectralResult:
    """Perron root of a nonnegative integer matrix, bracketed exactly.

    By Perron-Frobenius rho(A) is an eigenvalue, in [0, max row sum], and
    every eigenvalue z has |z| <= rho, so Re z < rho unless z = rho. So for
    s = det(x*I - A), x >= rho iff no Taylor coefficient of s at x is
    negative: above rho each factor of s(x + t), repeated or not, has
    positive coefficients, and below it t = rho - x > 0 is a root.
    `iterations` is the depth S of the dyadic grid on which the bracket of
    width 2^-128 lies: the number of bisection steps that would reach it.
    It is not a count of tests: Newton steps find the cell with a handful.
    """
    import mpmath

    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise InvalidArgument("adjacency matrix must be square and nonempty")
    if any(c < 0 for row in matrix for c in row):
        raise InvalidArgument("adjacency matrix must be nonnegative")
    cp = _charpoly(tuple(map(tuple, matrix)))
    _, hi, steps = largest_root(cp, -1, max(map(sum, matrix)), _SPECTRAL_BITS)
    with mpmath.workprec(_SPECTRAL_BITS):
        rho = mpmath.mpf(hi.numerator) / hi.denominator
    return SpectralResult(rho=rho, iterations=steps)


def verify_beta_eigen(matrix, n: int, m: int) -> bool:
    """Whether beta is an eigenvalue of A, decided exactly: x^2 - n*x + m is
    irreducible when its discriminant is not a square, so beta is a root of
    det(x*I - A) exactly when x^2 - n*x + m divides it."""
    if isinstance(quad_roots(n, m), RationalRoots):
        raise InvalidArgument(f"x^2-{n}x+{m} has a square discriminant; beta is not a surd")
    return exact_div(_charpoly(tuple(map(tuple, matrix))), family_poly(n, m, 1)) is not None


def emit_dot(gs: GraphSystem) -> str:
    """Graphviz digraph; labels show copy count and step word, edges their multiplicity."""
    lines = ["digraph overlapkit {", "  rankdir=LR;"]
    for i, v in enumerate(gs.vertices):
        lines.append(f'  v{i} [label="k={v.k}[{v.steps}]"];')
    for e in sorted(gs.edges, key=lambda e: (e.src, e.dst)):
        lines.append(f'  v{e.src} -> v{e.dst} [label="{e.mult}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
