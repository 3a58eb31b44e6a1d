"""Graph-directed regrouping: expansion, closure, and the Perron root."""

from __future__ import annotations

import itertools
import json
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overlapkit import cli, graphdir, ifs
from overlapkit.errors import (
    InvalidArgument,
    NonPositiveDiscriminant,
    ResourceLimitError,
    VertexExplosion,
)
from overlapkit.exactnum import quad_roots, surd_to_float
from overlapkit.graphdir import (
    Configuration,
    GraphSystem,
    Policy,
    build_graph,
    expand,
    spectral_radius,
    verify_beta_eigen,
)
from overlapkit.ifs import SelfSimilarSpec, _beta, generate
from overlapkit.intpoly import IntPoly, family_poly
from overlapkit.intpoly.roots import charpoly

F = Fraction


def golden_spec():
    return generate(3, 1, F(1, 4), "OG")


def test_a_built_spec_is_never_classified_again(monkeypatch):
    spec = generate(6, 2, F(1, 8), "OTGOT")
    calls = []
    classify = ifs.classify_steps
    monkeypatch.setattr(ifs, "classify_steps", lambda *args: calls.append(args) or classify(*args))
    for policy in Policy:
        build_graph(spec, policy)
    assert calls == []
    assert spec.step_kinds == "OTGOT"


class TestConfiguration:
    def test_letter_validation(self):
        with pytest.raises(InvalidArgument):
            Configuration("OG")
        assert Configuration("").k == 1
        assert Configuration("OTO").k == 4


class TestExpand:
    def test_golden_root_expansion(self):
        children = expand(Configuration(""), golden_spec(), Policy.CUT_AT_TOUCH)
        assert children == {Configuration(""): 1, Configuration("O"): 1}

    def test_golden_overlap_block_expansion(self):
        children = expand(Configuration("O"), golden_spec(), Policy.CUT_AT_TOUCH)
        assert children == {Configuration(""): 1, Configuration("O"): 2}

    def test_overlap_junction_children_counted_once(self):
        # the two-copy block with an O junction spawns 2n children, one shared
        spec = golden_spec()
        total = sum(
            child.k * mult
            for child, mult in expand(Configuration("O"), spec, Policy.CUT_AT_TOUCH).items()
        )
        assert total == 2 * spec.n - 1

    def test_policies_differ_on_touching_children(self):
        spec = generate(4, 1, F(1, 5), "OTG")
        cut = expand(Configuration(""), spec, Policy.CUT_AT_TOUCH)
        keep = expand(Configuration(""), spec, Policy.KEEP_TOUCH)
        assert set(cut) == {Configuration(""), Configuration("O")}
        assert Configuration("OT") in keep

    def test_a_policy_value_is_its_policy(self):
        spec = generate(4, 1, F(1, 6), "OTG")
        for policy in Policy:
            assert expand(Configuration(""), spec, policy.value) == expand(
                Configuration(""), spec, policy
            )
        assert expand(Configuration(""), spec, "cut-touch") == {
            Configuration("O"): 1,
            Configuration(""): 2,
        }

    @pytest.mark.parametrize("policy", ["nonsense", "", None])
    def test_an_unknown_policy_is_refused_by_expand_and_build_graph(self, policy):
        spec = generate(4, 1, F(1, 6), "OTG")
        with pytest.raises(InvalidArgument, match="policy must be"):
            expand(Configuration(""), spec, policy)
        with pytest.raises(InvalidArgument, match="policy must be"):
            build_graph(spec, policy)


@st.composite
def in_class_specs(draw):
    """A generated in-class spec: n <= 8 maps, a random O/T/G pattern with
    m O letters and at least one G, and a feasible lambda = 1/q."""
    n = draw(st.integers(3, 8))
    m = draw(st.integers(1, n - 2))
    rest = draw(st.lists(st.sampled_from("TG"), min_size=n - 1 - m, max_size=n - 1 - m))
    if "G" not in rest:
        rest[0] = "G"
    pattern = "".join(draw(st.permutations(["O"] * m + rest)))
    q = draw(st.integers(n, 4 * n))
    return generate(n, m, F(1, q), pattern)


ALL_TOUCH = SelfSimilarSpec(F(1, 3), (F(0), F(1, 3), F(2, 3)))


@settings(max_examples=150, deadline=None)
@given(
    in_class_specs(),
    st.text(alphabet="OT", max_size=12),
    st.sampled_from(list(Policy)),
)
# S opening with a cut (empty head), closing with one (empty tail), with one
# cut (no inner piece), and with no cut at all; configurations of O or T alone
@example(generate(4, 1, F(1, 8), "GOT"), "OTO", Policy.KEEP_TOUCH)
@example(generate(4, 1, F(1, 8), "GOT"), "TOT", Policy.CUT_AT_TOUCH)
@example(generate(4, 1, F(1, 8), "OTG"), "TOT", Policy.KEEP_TOUCH)
@example(generate(4, 2, F(1, 8), "OGO"), "OOOO", Policy.KEEP_TOUCH)
@example(generate(4, 2, F(1, 8), "OGO"), "TTT", Policy.KEEP_TOUCH)
@example(generate(4, 2, F(1, 8), "OGO"), "TTT", Policy.CUT_AT_TOUCH)
@example(ALL_TOUCH, "OTOT", Policy.CUT_AT_TOUCH)
@example(ALL_TOUCH, "TOT", Policy.KEEP_TOUCH)
def test_expand_matches_the_fraction_oracle(expand_oracle, spec, steps, policy):
    # equal as dicts and in insertion order, which numbers the graph's vertices
    config = Configuration(steps)
    assert list(expand(config, spec, policy).items()) == list(
        expand_oracle(config, spec, policy).items()
    )


@settings(max_examples=150, deadline=None)
@given(in_class_specs(), st.sampled_from(list(Policy)))
@example(generate(4, 1, F(1, 8), "TGO"), Policy.KEEP_TOUCH)
@example(generate(5, 1, F(1, 8), "GTGO"), Policy.CUT_AT_TOUCH)
def test_charpoly_has_the_closed_form(spec, policy):
    # x^(V-2-e) * (x-1)^e * (x^2 - n*x + m), e = 1 for a keep-touch T (graphdir's docstring)
    graph = build_graph(spec, policy)
    n, m = spec.n, spec.step_kinds.count("O")
    e = int(policy is Policy.KEEP_TOUCH and "T" in spec.step_kinds)
    x = IntPoly.x()
    expected = x ** (len(graph.vertices) - 2 - e) * (x - 1) ** e * family_poly(n, m, 1)
    assert charpoly(graph.adjacency) == expected


class TestBuildGraph:
    def test_golden_graph(self):
        graph = build_graph(golden_spec(), Policy.CUT_AT_TOUCH)
        assert [v.steps for v in graph.vertices] == ["", "O"]
        assert graph.adjacency == ((1, 1), (1, 2))

    def test_four_map_cut_touch_graph(self):
        graph = build_graph(generate(4, 1, F(1, 5), "OTG"), Policy.CUT_AT_TOUCH)
        assert graph.adjacency == ((2, 1), (3, 2))

    def test_four_map_keep_touch_graph(self):
        graph = build_graph(generate(4, 1, F(1, 5), "OTG"), Policy.KEEP_TOUCH)
        assert [v.steps for v in graph.vertices] == ["", "OT", "TOT"]
        assert graph.adjacency == ((1, 1, 0), (1, 2, 1), (1, 2, 2))

    def test_edges_match_adjacency(self):
        graph = build_graph(generate(4, 1, F(1, 5), "OTG"), Policy.KEEP_TOUCH)
        for edge in graph.edges:
            assert graph.adjacency[edge.src][edge.dst] == edge.mult
        listed = {(e.src, e.dst) for e in graph.edges}
        for i, row in enumerate(graph.adjacency):
            for j, mult in enumerate(row):
                assert ((i, j) in listed) == (mult > 0)

    def test_vertex_ceiling(self, monkeypatch):
        # the golden word OG has the pieces O and "", so the closure may need
        # 2 + 3 vertices
        monkeypatch.setattr(graphdir, "MAX_VERTICES", 4)
        with pytest.raises(VertexExplosion) as info:
            build_graph(golden_spec(), Policy.CUT_AT_TOUCH)
        assert info.value.exit_code == 2
        assert info.value.details == {"ceiling": 4, "vertices": 5}
        monkeypatch.setattr(graphdir, "MAX_VERTICES", 5)
        assert len(build_graph(golden_spec(), Policy.CUT_AT_TOUCH).vertices) == 2

    def test_policy_strings_are_coerced_once(self):
        spec = generate(4, 1, F(1, 5), "OTG")
        graph = build_graph(spec, "keep-touch")
        assert graph.policy is Policy.KEEP_TOUCH
        assert [v.steps for v in graph.vertices] == ["", "OT", "TOT"]
        assert graph.to_json()["policy"] == "keep-touch"
        with pytest.raises(InvalidArgument, match="keep_touch"):
            build_graph(spec, "keep_touch")

    @pytest.mark.parametrize("n", [1000, 3000, 30000])
    def test_long_cut_touch_chain(self, n):
        # O^(n-2) G: the root and the (n-1)-copy overlap run
        spec = generate(n, n - 2, F(1, 4 * n), "O" * (n - 2) + "G")
        start = time.perf_counter()
        graph = build_graph(spec, Policy.CUT_AT_TOUCH)
        assert time.perf_counter() - start < 1.0
        assert graph.adjacency == ((1, 1), (1, n - 1))

    @pytest.mark.parametrize("n", [1000, 3000, 30000])
    def test_long_keep_touch_chain(self, n):
        # O T^(n-3) G: three vertices, two of them with n-1 and n copies
        spec = generate(n, 1, F(1, 4 * n), "O" + "T" * (n - 3) + "G")
        start = time.perf_counter()
        graph = build_graph(spec, Policy.KEEP_TOUCH)
        assert time.perf_counter() - start < 1.0
        chain = "O" + "T" * (n - 3)
        assert [v.steps for v in graph.vertices] == ["", chain, "T" + chain]
        assert graph.adjacency == ((1, 1, 0), (1, 2, n - 3), (1, 2, n - 2))

    def test_all_touch_spec_is_refused_not_hung(self):
        # out of class: with no G to cut at, keep-touch blocks grow n-fold per
        # level; cut-touch cuts at every T and closes on the root alone
        start = time.perf_counter()
        with pytest.raises(VertexExplosion) as info:
            build_graph(ALL_TOUCH, Policy.KEEP_TOUCH)
        assert time.perf_counter() - start < 1.0
        assert info.value.exit_code == 2
        assert info.value.details == {"ceiling": graphdir.MAX_VERTICES, "vertices": None}
        assert json.dumps(info.value.to_json(), sort_keys=True) == (
            f'{{"details": {{"ceiling": {graphdir.MAX_VERTICES}, "vertices": null}}, '
            '"error": "VertexExplosion", "message": "the step word has no cut letter under '
            'keep-touch, so the closure is infinite"}'
        )
        assert build_graph(ALL_TOUCH, Policy.CUT_AT_TOUCH).adjacency == ((3,),)

    def test_many_distinct_pieces_are_refused_not_hung(self):
        # every O/T word of length 1 to 6 joined by G: 126 distinct pieces, a
        # 129-vertex keep-touch closure whose two charpolys took about 29 s
        words = ["".join(w) for size in range(1, 7) for w in itertools.product("OT", repeat=size)]
        spec = generate(768, 321, F(1, 1536), "G".join(words))
        start = time.perf_counter()
        with pytest.raises(VertexExplosion) as info:
            build_graph(spec, Policy.KEEP_TOUCH)
        assert time.perf_counter() - start < 1.0
        assert info.value.exit_code == 2
        assert info.value.details == {"ceiling": graphdir.MAX_VERTICES, "vertices": 129}

    def test_json_schema(self):
        graph = build_graph(golden_spec(), Policy.CUT_AT_TOUCH)
        data = graph.to_json()
        assert data["policy"] == "cut-touch"
        assert data["vertices"] == [
            {"id": 0, "k": 1, "steps": ""},
            {"id": 1, "k": 2, "steps": "O"},
        ]
        assert {"from": 1, "to": 1, "mult": 2} in data["edges"]
        assert data["adjacency"] == [[1, 1], [1, 2]]

    def test_row_identities_on_sweep(self, sweep_specs):
        # children conserve copies: sum_v k_v A[u][v] = k_u (n-1) + 1 and the
        # overlap count reappears as sum_v (k_v - 1) A[u][v] = k_u m
        for n, m, lam, spec in sweep_specs[:40]:
            graph = build_graph(spec, Policy.CUT_AT_TOUCH)
            ks = [v.k for v in graph.vertices]
            for u, row in enumerate(graph.adjacency):
                assert sum(k * a for k, a in zip(ks, row)) == ks[u] * (n - 1) + 1
                assert sum((k - 1) * a for k, a in zip(ks, row)) == ks[u] * m


class TestSpectral:
    def test_golden_rho(self):
        graph = build_graph(golden_spec(), Policy.CUT_AT_TOUCH)
        result = spectral_radius(graph.adjacency)
        assert abs(result.rho - (3 + mpmath.sqrt(5)) / 2) < 1e-12
        assert result.iterations > 0

    def test_keep_touch_rho_matches_beta_not_matrix_trace(self):
        # the 3x3 keep-touch matrix has characteristic polynomial
        # (x - 1)(x^2 - 5x + 1) wrapped differently; its Perron root is still beta
        graph = build_graph(generate(4, 1, F(1, 5), "OTG"), Policy.KEEP_TOUCH)
        result = spectral_radius(graph.adjacency)
        assert abs(result.rho - (2 + mpmath.sqrt(3))) < 1e-12

    def test_golden_rho_is_exact_to_120_bits(self):
        rho = spectral_radius([[1, 1], [1, 2]]).rho
        with mpmath.workprec(128):
            assert abs(rho - (3 + mpmath.sqrt(5)) / 2) < mpmath.mpf(2) ** -120

    @pytest.mark.parametrize("bits", [80, 1024, ifs.MAX_PRECISION_BITS])
    def test_golden_rho_is_exact_to_its_precision(self, bits):
        result = spectral_radius([[1, 1], [1, 2]], bits)
        assert result.precision_bits == bits and result.iterations == bits + 2
        with mpmath.workprec(bits + 16):
            assert abs(result.rho - (3 + mpmath.sqrt(5)) / 2) < mpmath.mpf(2) ** (2 - bits)

    @pytest.mark.parametrize(
        "bits, error", [(79, InvalidArgument), (ifs.MAX_PRECISION_BITS + 1, ResourceLimitError)]
    )
    def test_refuses_the_precisions_dimension_refuses(self, bits, error):
        with pytest.raises(error) as spectral:
            spectral_radius([[1, 1], [1, 2]], bits)
        with pytest.raises(error) as dimension:
            ifs.dimension(3, 1, F(1, 4), bits)
        assert spectral.value.to_json() == dimension.value.to_json()

    def test_reducible_matrix_takes_component_max(self):
        matrix = [[2, 1], [0, 3]]
        result = spectral_radius(matrix)
        assert abs(result.rho - 3) < 1e-12

    def test_equal_rayleigh_plateau_is_not_trusted(self):
        # from the ones vector the first two Rayleigh quotients of B = A+I
        # are both exactly 6 while the true Perron root of A is (5+sqrt(21))/2
        matrix = [[2, 1, 0], [3, 3, 1], [2, 2, 1]]
        result = spectral_radius(matrix)
        assert abs(result.rho - (5 + mpmath.sqrt(21)) / 2) < 1e-12

    def test_zero_and_identity(self):
        assert abs(spectral_radius([[0]]).rho) < 1e-12
        assert abs(spectral_radius([[1, 0], [0, 1]]).rho - 1) < 1e-12

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            spectral_radius([])
        with pytest.raises(InvalidArgument):
            spectral_radius([[1, 2]])
        with pytest.raises(InvalidArgument):
            spectral_radius([[1, -1], [0, 1]])

    def test_sweep_rho_equals_beta(self, sweep_specs):
        for n, m, lam, spec in sweep_specs[:25]:
            beta = surd_to_float(_beta(n, m), 80)
            for policy in Policy:
                graph = build_graph(spec, policy)
                rho = spectral_radius(graph.adjacency).rho
                assert abs(rho - beta) < 1e-9 * beta


class TestExactEigenvalueCheck:
    def test_golden_matrices(self):
        assert verify_beta_eigen([[1, 1], [1, 2]], 3, 1)
        assert verify_beta_eigen([[2, 1], [3, 2]], 4, 1)
        assert verify_beta_eigen([[1, 1, 0], [1, 2, 1], [1, 2, 2]], 4, 1)

    def test_rejects_wrong_matrix(self):
        assert not verify_beta_eigen([[1, 1], [1, 3]], 3, 1)
        assert not verify_beta_eigen([[2, 1], [3, 2]], 3, 1)

    def test_rational_discriminant_rejected(self):
        with pytest.raises(InvalidArgument):
            verify_beta_eigen([[1, 1], [1, 2]], 5, 4)

    def test_invalid_pairs_raise_as_quad_roots_does(self):
        for n, m, error in (
            (2, 1, NonPositiveDiscriminant),
            (1, 1, NonPositiveDiscriminant),
            (0, 1, InvalidArgument),
            (3, 0, InvalidArgument),
        ):
            with pytest.raises(error) as ours:
                verify_beta_eigen([[1, 1], [1, 2]], n, m)
            with pytest.raises(error) as theirs:
                quad_roots(n, m)
            assert type(ours.value) is type(theirs.value)
            assert (str(ours.value), ours.value.details) == (str(theirs.value), theirs.value.details)

    def test_sweep_exact_eigen(self, sweep_specs):
        for n, m, lam, spec in sweep_specs[:25]:
            for policy in Policy:
                graph = build_graph(spec, policy)
                assert verify_beta_eigen(graph.adjacency, n, m)

    def test_spectral_result_json(self):
        result = spectral_radius([[1, 1], [1, 2]]).with_beta_check(True)
        data = result.to_json()
        assert data["exact_beta_eigen"] is True
        assert data["iterations"] == result.iterations
        assert data["rho"].startswith("2.618")

    def test_a_graph_call_builds_two_charpolys(self, monkeypatch, capsys):
        # one for spectral_radius and one for verify_beta_eigen, nothing cached
        calls = []
        charpoly = graphdir.charpoly
        monkeypatch.setattr(graphdir, "charpoly", lambda m: calls.append(m) or charpoly(m))
        assert cli.main(["graph", "--lambda", "1/4", "--b", "0,3/16,3/4"]) == 0
        assert '"exact_beta_eigen": true' in capsys.readouterr().out
        assert len(calls) == 2
