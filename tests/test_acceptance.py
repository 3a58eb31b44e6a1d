"""Acceptance checks: one test per required behavior, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines; each
test also enforces its runtime budget.
"""

from __future__ import annotations

import importlib
import inspect
import math
import random
import time
from fractions import Fraction

import mpmath

from overlapkit import exactnum, graphdir, ifs, numlab, obstruction
from overlapkit.errors import ResourceLimitError, WorkBudget
from overlapkit.exactnum import is_perfect_power, surd_to_float
from overlapkit.graphdir import Policy, build_graph, expand, spectral_radius, verify_beta_eigen
from overlapkit.ifs import DustIfsSpec, dimension, generate, moran_dimension, validate
from overlapkit.intpoly import (
    IntPoly,
    SearchStrategy,
    factor,
    family_poly,
    is_irreducible,
    nonneg_tail_search,
    parse_poly,
    roots,
    search,
)
from overlapkit.intpoly.factor import (
    MAX_FACTOR_WORK,
    _choose_prime,
    _ddf,
    _factor_mod_p,
    _frobenius,
)
from overlapkit.intpoly.poly import _add, _convolve, _divide, _gcd, _power, exact_div, gcd_poly
from overlapkit.numlab import box_count_dimension, cover, cylinder_growth
from overlapkit.obstruction import Verdict, obstruction_verdict, sweep

F = Fraction


def test_golden_quartic_and_verdict():
    start = time.monotonic()
    fac = factor(family_poly(3, 1, 2))
    assert [f.to_string() for f, _ in fac.factors] == ["x^2-x-1", "x^2+x-1"]
    assert fac.unit == 1 and fac.content == 1
    report = obstruction_verdict(3, 1)
    assert report.verdict is Verdict.NECESSARY_CONDITION_MET
    assert report.reducible_ks[0][0] == 2
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(
        f"\nPASS golden quartic: x^4-3*x^2+1 = (x^2-x-1)(x^2+x-1) and (3,1) "
        f"meets the necessary condition [{elapsed:.3f}s < 1s]"
    )


def test_verdict_table_matches_perfect_power_status():
    start = time.monotonic()
    reports = sweep(range(3, 13), kmax=8)
    for report in reports:
        obstructed = report.verdict is Verdict.OBSTRUCTED
        assert obstructed == (is_perfect_power(report.m) is None), (report.n, report.m)
    met = {(r.n, r.m) for r in reports if r.verdict is Verdict.NECESSARY_CONDITION_MET}
    assert met == {(3, 1), (6, 1), (7, 1), (8, 4), (11, 1), (12, 4)}
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"PASS verdict table: {len(reports)} pairs with n <= 12, Obstructed exactly "
        f"on non-perfect-power m [{elapsed:.2f}s < 30s]"
    )


def test_non_perfect_power_families_stay_irreducible():
    start = time.monotonic()
    checked = 0
    for m in range(2, 11):
        if is_perfect_power(m) is not None:
            continue
        for n in range(m + 2, 13):
            for k in range(1, 7):
                assert is_irreducible(family_poly(n, m, k)), (n, m, k)
                checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(
        f"PASS irreducibility: {checked} family polynomials with non-perfect-power "
        f"m never factor [{elapsed:.2f}s < 5min]"
    )


def test_slow_family_exponents_factor_quickly():
    # the first good prime splits these into 12-20 modular factors; the
    # fewest-factor prime among the first five gives 2-10
    start = time.monotonic()
    for n, m, k in ((12, 1, 20), (13, 1, 16), (20, 9, 24)):
        fac = factor(family_poly(n, m, k))
        assert fac.product() == family_poly(n, m, k)
        assert fac.is_irreducible_shape, (n, m, k)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(
        f"PASS family exponents: (12,1,20), (13,1,16) and (20,9,24) are irreducible "
        f"[{elapsed:.2f}s < 5s]"
    )


def test_equal_degree_split_of_degree_40_factors_is_fast():
    # modulo 19 it is two factors of degree 40, so each Cantor-Zassenhaus power
    # is 39 Frobenius steps; a 170-bit square-and-multiply instead took 1.8-2.4 s
    # on a 2-core Xeon, past this budget. factor decides it by root tests
    # alone (at 2 and 5, and the 4 clause), trying no prime, so the split mod
    # 19 is run on its own too
    start = time.monotonic()
    f = parse_poly("x^80-7*x^40+4")
    fp = [c % 19 for c in f.coeffs]
    rows = _frobenius(fp, 19, lambda units: None)
    parts = _ddf(fp, rows, 19, lambda units: None)
    modular = _factor_mod_p(fp, 19, parts, rows, lambda units: None)
    assert [len(g) - 1 for g in modular] == [40, 40]
    assert factor(f).product() == f
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(
        f"PASS equal-degree split: x^80-7*x^40+4 splits mod 19 into two factors of "
        f"degree 40, and factors [{elapsed:.2f}s < 1s]"
    )


def swinnerton_dyer(primes) -> IntPoly:
    """The minimal polynomial of the sum of sqrt(p) over the primes, of degree
    2^len(primes): each p takes Q(x) to Q(x + sqrt p) * Q(x - sqrt p), which is
    A^2 - p*B^2 for Q(x + sqrt p) = A + sqrt(p)*B."""
    q = IntPoly.x()
    for p in primes:
        a, b = [0] * len(q.coeffs), [0] * len(q.coeffs)
        for i, c in enumerate(q.coeffs):
            for j in range(i + 1):
                (b if j % 2 else a)[i - j] += c * math.comb(i, j) * p ** (j // 2)
        q = IntPoly(a) * IntPoly(a) - IntPoly(b) * IntPoly(b) * IntPoly([p])
    return q


def test_recombination_heavy_irreducible_is_fast():
    # the degree-32 Swinnerton-Dyer polynomial keeps 16 modular factors of
    # degree 2 at every prime tried, so only recombination proves it
    # irreducible; without the constant-coefficient veto on each subset it
    # took 7.7-11.5 s on a 2-core Xeon, with it 0.22-0.39 s
    f = swinnerton_dyer((2, 3, 5, 7, 11))
    assert f.degree == 32 and f.coeffs[-3:] == (-448, 0, 1)
    choice = _choose_prime(f, lambda units: None)
    assert (choice.count, choice.tried) == (16, (19, 23, 29, 31, 37))
    start = time.monotonic()
    assert factor(f).factors == ((f, 1),)
    elapsed = time.monotonic() - start
    assert elapsed < 3.0
    print(
        f"PASS recombination: the degree-32 Swinnerton-Dyer polynomial, 16 modular "
        f"factors at each of 5 primes, is irreducible [{elapsed:.2f}s < 3s]"
    )


def test_recombination_past_the_budget_is_refused_within_about_a_second():
    # sqrt 2 ... sqrt 13: degree 64, 131-bit coefficients and 32 modular
    # factors, so about 2^31 subsets; the factor budget stops the search
    f = swinnerton_dyer((2, 3, 5, 7, 11, 13))
    assert f.degree == 64 and max(abs(c) for c in f.coeffs).bit_length() == 131
    start = time.monotonic()
    try:
        factor(f)
    except ResourceLimitError as exc:
        assert exc.details == {"ceiling": MAX_FACTOR_WORK}
    else:
        raise AssertionError("the degree-64 Swinnerton-Dyer polynomial was factored")
    elapsed = time.monotonic() - start
    assert elapsed < 3.0
    print(
        f"PASS factor budget: the degree-64 Swinnerton-Dyer polynomial, 32 modular "
        f"factors, is refused with exit 2 [{elapsed:.2f}s < 3s]"
    )


def test_sweep_graphs_spectrally_consistent(sweep_specs):
    start = time.monotonic()
    assert len(sweep_specs) >= 100
    graphs = 0
    for n, m, lam, spec in sweep_specs:
        beta = surd_to_float(ifs._beta(n, m), 96)
        for policy in Policy:
            graph = build_graph(spec, policy)
            if policy is Policy.CUT_AT_TOUCH:
                assert max(v.k for v in graph.vertices) <= m + 1
            rho = spectral_radius(graph.adjacency).rho
            assert abs(rho - beta) < 1e-9 * beta, (n, m, lam, policy)
            assert verify_beta_eigen(graph.adjacency, n, m), (n, m, lam, policy)
            graphs += 1
    golden = build_graph(generate(3, 1, F(1, 4), "OG"), Policy.CUT_AT_TOUCH)
    assert golden.adjacency == ((1, 1), (1, 2))
    four = build_graph(generate(4, 1, F(1, 5), "OTG"), Policy.CUT_AT_TOUCH)
    assert four.adjacency == ((2, 1), (3, 2))
    keep = build_graph(generate(4, 1, F(1, 5), "OTG"), Policy.KEEP_TOUCH)
    assert keep.adjacency == ((1, 1, 0), (1, 2, 1), (1, 2, 2))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"PASS spectral sweep: {graphs} graphs from {len(sweep_specs)} specs have "
        f"rho within 1e-9 of beta and det(A - beta I) = 0 exactly; cut-at-touch "
        f"blocks stay below k = m+2 [{elapsed:.2f}s < 1min]"
    )


def test_sweep_row_identities(sweep_specs):
    rows = 0
    for n, m, lam, spec in sweep_specs:
        graph = build_graph(spec, Policy.CUT_AT_TOUCH)
        ks = [v.k for v in graph.vertices]
        for u, row in enumerate(graph.adjacency):
            assert sum(k * a for k, a in zip(ks, row)) == ks[u] * (n - 1) + 1
            assert sum((k - 1) * a for k, a in zip(ks, row)) == ks[u] * m
            rows += 1
    print(
        f"PASS row identities: copy and overlap conservation hold on all "
        f"{rows} adjacency rows with zero violations"
    )


def test_tail_search_exhaustive_and_consistent(tail_oracle):
    start = time.monotonic()
    pairs = [(3, 1), (4, 1), (4, 2)]
    searched = 0
    for n, m in pairs:
        for q in (1, 2, 3):
            report = nonneg_tail_search(q, n, m, 8, 10, SearchStrategy.QUOTIENT)
            hits, leaves = tail_oracle(q, n, m, 8, 10, SearchStrategy.QUOTIENT)
            assert list(report.counterexamples) == hits == [], (q, n, m)
            searched += leaves
    for n, m in pairs:
        for strategy in SearchStrategy:
            report = nonneg_tail_search(1, n, m, 5, 4, strategy)
            hits, _ = tail_oracle(1, n, m, 5, 4, strategy)
            assert list(report.counterexamples) == hits == [], (n, m, strategy)
    rng = random.Random(2026)
    for _ in range(10_000):
        n, m = pairs[rng.randrange(3)]
        q = rng.randint(1, 3)
        deg = rng.randint(0, 8)
        u = IntPoly([rng.randint(-9, 9) for _ in range(deg)] + [1])
        product = u * family_poly(n, m, q)
        assert product.lc == 1
        assert any(c > 0 for c in product.coeffs[:-1]), (n, m, q, u.coeffs)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(
        f"PASS tail search: Descartes' answer matches brute force on every box "
        f"({searched} leaves) under both strategies, and 10000 random monic "
        f"multiples all keep a positive tail coefficient [{elapsed:.2f}s < 5min]"
    )


def test_dust_equivalence_candidates():
    from overlapkit.obstruction import Conclusion, dust_candidate_check

    for lam in (F(1, 4), F(1, 5), F(1, 10)):
        dust = DustIfsSpec.from_exponents(lam, [F(1), F(1, 2)])
        check = dust_candidate_check(3, 1, lam, dust)
        assert check.conclusion is Conclusion.NOT_RULED_OUT, lam
        assert check.gcd == IntPoly([-1, -1, 1])
        moran = moran_dimension(dust)
        dim = dimension(3, 1, lam)
        assert abs(moran.s - dim.s) < 1e-9, lam
    print(
        "PASS dust candidates: exponents (1, 1/2) over lambda in {1/4, 1/5, 1/10} "
        "are never ruled out, share gcd x^2-x-1, and the Moran root matches the "
        "dimension within 1e-9"
    )


def test_dimension_counts_and_box_estimate():
    start = time.monotonic()
    dim = dimension(3, 1, F(1, 4))
    assert abs(dim.s - mpmath.mpf("0.6942419136")) < 1e-9
    spec = generate(3, 1, F(1, 4), "OG")
    growth = cylinder_growth(spec, 4)
    assert growth.counts == (1, 3, 8, 21, 55)
    assert growth.recurrence_ok is True
    box = box_count_dimension(spec, 10, 6)
    assert abs(box.estimate - float(dim.s)) < 0.05
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"PASS numerics: dimension 0.6942419136 +- 1e-9, counts (1,3,8,21,55), "
        f"box estimate {box.estimate:.4f} within 0.05 [{elapsed:.2f}s < 1min]"
    )


def test_exact_paths_never_touch_floats(sweep_specs, expand_oracle):
    # every function of the factorizer, whatever its name
    factor_module = importlib.import_module("overlapkit.intpoly.factor")
    factor_functions = [
        function
        for function in vars(factor_module).values()
        if inspect.isfunction(function) and function.__module__ == factor_module.__name__
    ]
    assert {factor, _choose_prime, _frobenius} <= set(factor_functions)
    dust_sources = [
        inspect.getsource(exactnum.multiplicative_dependence),
        inspect.getsource(obstruction._lambda_exponents),
        inspect.getsource(obstruction.dust_candidate_check),
    ]
    sources = dust_sources + [
        inspect.getsource(exactnum.integer_root),
        inspect.getsource(is_perfect_power),
        inspect.getsource(exactnum._squarefree_split),
        inspect.getsource(exactnum.QuadSurd.__init__),
        inspect.getsource(exactnum.QuadSurd.__eq__),
        inspect.getsource(obstruction_verdict),
        inspect.getsource(obstruction.split_primes),
        inspect.getsource(ifs.check_feasible),
        inspect.getsource(ifs.SelfSimilarSpec.__post_init__),
        inspect.getsource(ifs.classify_steps),
        inspect.getsource(ifs.validate),
        inspect.getsource(ifs.feasibility_slack),
        inspect.getsource(ifs.generate),
        inspect.getsource(graphdir.expand),
        inspect.getsource(graphdir.build_graph),
        inspect.getsource(numlab.cover_levels),
        inspect.getsource(numlab._numerator_levels),
        inspect.getsource(numlab._occupied_cells),
        inspect.getsource(graphdir.verify_beta_eigen),
        inspect.getsource(roots),
        inspect.getsource(search),
        inspect.getsource(_add),
        inspect.getsource(_convolve),
        inspect.getsource(_divide),
        inspect.getsource(_power),
        inspect.getsource(exact_div),
        inspect.getsource(gcd_poly),
        inspect.getsource(_gcd),
        inspect.getsource(WorkBudget),
    ] + [inspect.getsource(function) for function in factor_functions]
    for source in sources:
        for token in ("float(", "mpmath", "math.", "__float__", "1e-", "0.5"):
            assert token not in source, token
    # integer polynomial arithmetic stays in Z and Z/q, and the cover kernel
    # and its box counting in Z, without rationals
    for function in (
        _add,
        _convolve,
        _divide,
        _power,
        exact_div,
        gcd_poly,
        _gcd,
        WorkBudget,
        *factor_functions,
        numlab._numerator_levels,
        numlab._occupied_cells,
    ):
        assert "Fraction" not in inspect.getsource(function), function.__name__
    # the dust check decides commensurability by divisibility, never by factoring
    for source in dust_sources:
        assert "factor_integer" not in source
    expansions = 0
    for n, m, lam, spec in sweep_specs[:30]:
        for policy in Policy:
            graph = build_graph(spec, policy)
            for vertex in graph.vertices:
                assert list(expand(vertex, spec, policy).items()) == list(
                    expand_oracle(vertex, spec, policy).items()
                )
                expansions += 1
    level = cover(generate(3, 1, F(1, 4), "OG"), 6)
    assert all(isinstance(off, Fraction) for off in level.offsets)
    print(
        f"PASS exactness: integer roots, perfect powers, the obstruction verdict, the "
        f"radicand split and QuadSurd construction and equality, validation, step "
        f"classification, feasibility, generation, multiplicative dependence (without "
        f"integer factoring), the dust candidate check, "
        f"expansion, cover, integer cover kernel, box-counting cells, characteristic polynomial, "
        f"real-root, the integer list core (sum, product, division, power), exact division, "
        f"gcd (charged or not), and the {len(factor_functions)} functions of "
        f"intpoly.factor (the squarefree kernel, the Capelli loop, modular factoring, "
        f"Hensel lifting, recombination) are free of "
        f"floating-point operations and {expansions} re-expansions matched the "
        f"Fraction-offset expansion"
    )
