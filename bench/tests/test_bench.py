"""Tests of the benchmark itself: span self time, oracles and generators.

Run with: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

import oracles
import tracer as tracing
import workloads
import worker
from overlapkit.intpoly import IntPoly, family_poly, factor


def span(sid, name, parent, start, end, job=0, **counters):
    return tracing.Span(sid, name, parent, job, start, end, counters)


# -- spans ------------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(0, "cli.main", None, 0.0, 10.0),
        span(1, "intpoly.factor", 0, 1.0, 4.0),
        span(2, "intpoly.gcd_poly", 1, 2.0, 3.0),
        span(3, "intpoly.gcd_poly", 1, 2.5, 3.5),  # overlaps its sibling
        span(4, "ifs.validate", 0, 6.0, 7.5),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.5)
    assert selfs[1] == pytest.approx(3.0 - 1.5)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.5)


def test_layer_metrics_scale_self_time_per_job_and_count_work():
    spans = [
        span(0, "cli.main", None, 0.0, 2.0, job=0),
        span(1, "intpoly.factor", 0, 0.5, 1.5, job=0, degree=4, split=1),
        span(2, "cli.main", None, 3.0, 4.0, job=1),
        span(3, "intpoly.factor", 2, 3.0, 3.5, job=1, degree=6, split=0),
        span(4, "numlab.cylinder_growth", None, 5.0, 6.0, job=2, merged=8, raw=9),
    ]
    metrics = tracing.layer_metrics(spans, [1.0, 2.0, 1.0])
    assert metrics["cli.main.calls"] == 2
    assert metrics["cli.main.self_s"] == pytest.approx(1.0 + 0.5 * 2)
    assert metrics["intpoly.factor.self_s"] == pytest.approx(1.0 + 0.5 * 2)
    assert metrics["intpoly.factor.degree_sum"] == 10
    assert metrics["intpoly.factor.split_ratio"] == 0.5
    assert metrics["numlab.merge_ratio"] == pytest.approx(8 / 9)
    assert metrics["graphdir.build_graph.calls"] == 0


def test_tracer_wraps_every_lookup_and_restores_them():
    import overlapkit.cli as cli
    import overlapkit.obstruction as obstruction

    original = obstruction.factor
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert obstruction.factor is not original and cli.factor is obstruction.factor
        tracer.job = 7
        code, out, _, _ = worker.run_job(("obstruct", "--n", "3", "--m", "1", "--kmax", "3"))
    finally:
        tracer.uninstall()
    assert obstruction.factor is original and cli.factor is original
    assert code == 0 and json.loads(out)["verdict"] == "NecessaryConditionMet"
    spans = tracer.take()
    names = [s.name for s in spans]
    assert names[0] == "cli.main" and names.count("intpoly.factor") == 3
    assert all(s.job == 7 for s in spans)
    verdict = next(s for s in spans if s.name == "obstruction.obstruction_verdict")
    assert all(s.parent == verdict.sid for s in spans if s.name == "intpoly.factor")


# -- oracles ----------------------------------------------------------------------------


def first_job(workload, kind):
    return next(job for job in workloads.build(workload, 0) if job.kind == kind)


def run_and_check(job, corrupt=None):
    code, out, err, _ = worker.run_job(job.argv)
    if corrupt is not None:
        payload = json.loads(out)
        corrupt(payload)
        out = json.dumps(payload)
    return oracles.check(job, code, out, err)


def add_to_last_factor(payload):
    payload["factors"][-1] += "+1"


def flip_verdict(payload):
    obstructed = payload["verdict"] == "Obstructed"
    payload["verdict"] = "NecessaryConditionOpen" if obstructed else "Obstructed"


def bump_last_count(payload):
    payload["counts"][-1] += 1


def shift_estimate(payload):
    payload["estimate"] = str(float(payload["estimate"]) + 0.2)


def deny_beta_eigen(payload):
    payload["spectral"]["exact_beta_eigen"] = False


def nudge_rho(payload):
    payload["spectral"]["rho"] = str(float(payload["spectral"]["rho"]) + 1e-8)


def garble_last_digits(payload):
    payload["s"] = payload["s"][:-3] + ("000" if payload["s"].endswith("999") else "999")


def flip_conclusion(payload):
    payload["conclusion"] = "NotRuledOut" if payload["conclusion"] == "RuledOut" else "RuledOut"


def nudge_s(payload):
    payload["s"] = str(float(payload["s"]) + 1e-6)


@pytest.mark.parametrize(
    "workload, kind, corrupt",
    [
        ("factor-family", "factor", add_to_last_factor),
        ("verdict-sweep", "obstruct", flip_verdict),
        ("cover-growth", "growth", bump_last_count),
        ("cover-growth", "boxdim", shift_estimate),
        ("graph-spectral", "graph", deny_beta_eigen),
        ("graph-spectral", "graph", nudge_rho),
        ("graph-spectral", "dimension", garble_last_digits),
        ("graph-spectral", "dust-check", flip_conclusion),
        ("graph-spectral", "moran", nudge_s),
    ],
)
def test_oracle_accepts_the_real_output_and_rejects_a_corrupted_one(workload, kind, corrupt):
    job = first_job(workload, kind)
    assert run_and_check(job) is None
    assert run_and_check(job, corrupt) is not None


def test_oracle_counts_a_refusal_and_a_traceback_as_failures():
    job = first_job("factor-family", "factor")
    assert oracles.check(job, 2, "", '{"error": "TooManyModularFactors"}\n').startswith("exit 2")
    traceback = "Traceback (most recent call last):\n"
    assert oracles.check(job, None, "", traceback).startswith("exit None")


def test_oracle_poly_parser_reads_what_intpoly_prints():
    for poly in (family_poly(7, 1, 4), IntPoly((-3, 0, 12, -1, 1)), IntPoly((0, 1)), IntPoly((5,))):
        assert oracles.parse_printed_poly(poly.to_string()) == list(poly.coeffs)
    for text in ("3x", "x^2)", "x^2 1", "-", "2*"):
        with pytest.raises(oracles.Mismatch):
            oracles.parse_printed_poly(text)


def test_verdict_oracle_knows_the_met_pairs():
    fac = factor(family_poly(6, 1, 2))
    assert len(fac.factors) == 2 and (6, 1) in oracles.MET_UP_TO_12
    golden = oracles.exact_dimension(3, 1, Fraction(1, 4))
    assert str(golden).startswith("0.69424191363061730")


# -- generators -------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(workload):
    first = workloads.build(workload, 11)
    assert first == workloads.build(workload, 11)
    assert first != workloads.build(workload, 12)
    assert len(first) >= 100


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_asks_for_the_same_strata(workload):
    def strata(jobs):
        keys = ("n", "m", "depth")
        return sorted((job.kind, *(job.facts.get(key) for key in keys)) for job in jobs)

    assert strata(workloads.build(workload, 1)) == strata(workloads.build(workload, 2))


def test_factor_family_keeps_the_recombination_heavy_cases():
    jobs = workloads.build("factor-family", 3)
    cases = {(job.facts["n"], job.facts["m"], job.facts["k"]) for job in jobs}
    assert set(workloads.RECOMBINATION_HEAVY) <= cases
