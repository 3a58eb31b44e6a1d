"""End-to-end command-line behavior through in-process main() calls."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from overlapkit import cli, graphdir, ifs
from overlapkit.cli import main
from overlapkit.ifs import MAX_PRECISION_BITS
from overlapkit.intpoly.factor import MAX_FACTOR_WORK
from overlapkit.intpoly.poly import MAX_COEFF_BITS, MAX_DEGREE, MAX_PARSE_WORK
from overlapkit.obstruction import (
    DEFAULT_KMAX,
    MAX_GCD_WORK,
    MAX_KMAX,
    MAX_NMAX,
    obstruction_verdict,
    sweep,
)


# the first primes above 2^61+12345 and 2^62+999
_P, _Q = 2305843009213706309, 4611686018427388919


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestDimension:
    def test_json_output(self, capsys):
        data = run_json(capsys, "dimension", "--lambda", "1/4", "--n", "3", "--m", "1")
        assert data["n"] == 3 and data["m"] == 1
        assert data["lambda"] == "1/4"
        assert data["s"].startswith("0.694241913630617")
        assert data["beta"] == {"a": "3/2", "b": "1/2", "D": 5}
        assert data["precision_bits"] == 128

    def test_text_format_carries_identical_values(self, capsys):
        data = run_json(capsys, "dimension", "--lambda", "1/4", "--n", "3", "--m", "1")
        code, out, err = run(
            capsys, "dimension", "--lambda", "1/4", "--n", "3", "--m", "1", "--format", "text"
        )
        assert code == 0
        lines = dict(line.split(" = ", 1) for line in out.strip().splitlines())
        assert lines["s"] == data["s"]
        assert lines["beta.a"] == "3/2"
        assert lines["n"] == "3"

    def test_precision_flag_extends_digits(self, capsys):
        wide = run_json(
            capsys,
            "dimension", "--lambda", "1/4", "--n", "3", "--m", "1",
            "--precision-bits", "256",
        )
        assert wide["precision_bits"] == 256
        assert len(wide["s"]) > 60
        assert wide["s"].startswith("0.69424191363061730173879026689859522346")

    def test_precision_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("OVERLAPKIT_PRECISION_BITS", "192")
        data = run_json(capsys, "dimension", "--lambda", "1/4", "--n", "3", "--m", "1")
        assert data["precision_bits"] == 192

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("OVERLAPKIT_PRECISION_BITS", "192")
        data = run_json(
            capsys,
            "dimension", "--lambda", "1/4", "--n", "3", "--m", "1",
            "--precision-bits", "96",
        )
        assert data["precision_bits"] == 96

    def test_bad_env_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("OVERLAPKIT_PRECISION_BITS", "lots")
        code, out, err = run(capsys, "dimension", "--lambda", "1/4", "--n", "3", "--m", "1")
        assert code == 1
        assert json.loads(err)["error"] == "InvalidArgument"

    def test_precision_ceiling_exits_2(self, capsys, monkeypatch):
        argv = ["dimension", "--lambda", "1/4", "--n", "3", "--m", "1"]
        code, out, err = run(capsys, *argv, "--precision-bits", "100000000")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ResourceLimitError"
        monkeypatch.setenv("OVERLAPKIT_PRECISION_BITS", str(MAX_PRECISION_BITS + 1))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert json.loads(err)["details"]["ceiling"] == MAX_PRECISION_BITS
        monkeypatch.setenv("OVERLAPKIT_PRECISION_BITS", str(MAX_PRECISION_BITS))
        assert run_json(capsys, *argv)["precision_bits"] == MAX_PRECISION_BITS

    def test_radicand_beyond_trial_division_is_prompt(self, capsys):
        # a 77-bit n: D = n^2-4 is printed as it stands, after bounded trial division
        n = 10**23 + 3
        start = time.perf_counter()
        data = run_json(capsys, "dimension", "--n", str(n), "--m", "1", "--lambda", f"1/{10 * n}")
        assert time.perf_counter() - start < 5
        assert data["beta"] == {"a": f"{n}/2", "b": "1/2", "D": n * n - 4}
        assert data["s"] == "0.95833333333333333333333335595283759913"

    def test_infeasible_ratio_exits_1(self, capsys):
        code, out, err = run(capsys, "dimension", "--lambda", "2/5", "--n", "3", "--m", "1")
        assert (code, out) == (1, "")
        # the Fraction lam prints as its str, the float bound as a JSON number
        assert err == (
            '{"details": {"bound": 0.38196601125010515, "lam": "2/5"}, "error": "Infeasible", '
            '"message": "lambda = 2/5 exceeds the feasibility bound 1/beta for (n,m)=(3,1)"}\n'
        )


# one cheap valid call of every subcommand
_CHEAP_ARGV = {
    "dimension": ["--lambda", "1/4", "--n", "3", "--m", "1"],
    "validate": ["--lambda", "1/4", "--b", "0,3/16,3/4"],
    "generate": ["--n", "3", "--m", "1", "--lambda", "1/4"],
    "graph": ["--lambda", "1/4", "--b", "0,3/16,3/4"],
    "factor": ["--poly", "x^4-3*x^2+1"],
    "obstruct": ["--n", "3", "--m", "1", "--kmax", "2"],
    "obstruct-sweep": ["--nmax", "4", "--kmax", "2"],
    "dust-check": ["--n", "3", "--m", "1", "--lambda", "1/4", "--exponents", "1,1/2"],
    "moran": ["--exponents", "1,1/2", "--base", "1/4"],
    "tail-search": ["--q", "1", "--n", "3", "--m", "1", "--max-degree", "4", "--coeff-bound", "1"],
    "render": ["--lambda", "1/4", "--b", "0,3/16,3/4", "--depth", "2", "--svg", "cover.svg"],
    "growth": ["--lambda", "1/4", "--b", "0,3/16,3/4", "--depth", "3"],
    "boxdim": ["--lambda", "1/4", "--b", "0,3/16,3/4", "--depth", "6", "--grid-levels", "4"],
}


def _text_lines(value, prefix=""):
    """The text format's lines for a JSON value, written apart from the CLI's:
    a path per scalar, null/true/false as in JSON, and {} or [] when empty."""
    if isinstance(value, dict) and value:
        return [
            line
            for key in sorted(value)
            for line in _text_lines(value[key], f"{prefix}.{key}" if prefix else key)
        ]
    if isinstance(value, list) and value:
        return [
            line for i, item in enumerate(value) for line in _text_lines(item, f"{prefix}[{i}]")
        ]
    return [f"{prefix} = {value if isinstance(value, str) else json.dumps(value)}"]


@pytest.mark.parametrize(
    "argv, pinned",
    [
        # null and empty lists
        (
            ["obstruct", "--n", "5", "--m", "2"],
            ["perfect_power = null", "reducible_ks = []", "split_primes = []"],
        ),
        # lists of objects holding lists
        (
            ["obstruct", "--n", "3", "--m", "1", "--kmax", "4"],
            ["reducible_ks[1].factors[0] = x^4-x^2-1", "split_primes[0].norm = -1"],
        ),
        # true, nested lists and an empty string
        (
            ["graph", "--lambda", "1/4", "--b", "0,3/16,3/4"],
            ["adjacency[1][1] = 2", "spectral.exact_beta_eigen = true", "vertices[0].steps = "],
        ),
        # false and null beside a nested object
        (
            ["dust-check", "--n", "3", "--m", "1", "--lambda", "1/4", "--ratios", "1/4,1/3"],
            ["dust.ratios[1] = 1/3", "gcd = null", "shared_root = false"],
        ),
    ],
)
def test_text_format_flattens_every_json_value(capsys, argv, pinned):
    data = run_json(capsys, *argv)
    code, out, err = run(capsys, *argv, "--format", "text")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines == _text_lines(data)
    assert set(pinned) <= set(lines)


@pytest.mark.parametrize("bits, expected", [("-5", 1), ("79", 1), ("80", 0)])
@pytest.mark.parametrize("command", sorted(_CHEAP_ARGV))
def test_precision_floor_is_the_same_for_every_subcommand(capsys, tmp_path, command, bits, expected):
    argv = [str(tmp_path / arg) if arg == "cover.svg" else arg for arg in _CHEAP_ARGV[command]]
    code, out, err = run(capsys, command, *argv, "--precision-bits", bits)
    assert code == expected, err
    if expected:
        assert out == ""
        assert json.loads(err)["message"] == f"precision_bits must be >= 80, got {bits}"


class TestValidateAndGenerate:
    def test_validate_golden(self, capsys):
        data = run_json(capsys, "validate", "--lambda", "1/4", "--b", "0,3/16,3/4")
        assert data["pattern"] == "OG"
        assert data["n"] == 3 and data["m"] == 1
        assert data["steps"][0] == {"kind": "O", "size": "3/16"}

    def test_validate_rejects_bad_step(self, capsys):
        code, out, err = run(capsys, "validate", "--lambda", "1/4", "--b", "0,1/8,3/4")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "InvalidStep"
        assert payload["details"]["index"] == 1

    def test_generate_explicit_pattern(self, capsys):
        data = run_json(
            capsys, "generate", "--n", "4", "--m", "1", "--lambda", "1/5", "--pattern", "OTG"
        )
        assert data["pattern"] == "OTG"
        assert data["offsets"] == ["0", "4/25", "9/25", "4/5"]

    def test_generate_seeded_is_deterministic(self, capsys):
        a = run_json(capsys, "generate", "--n", "5", "--m", "2", "--lambda", "1/9", "--seed", "7")
        b = run_json(capsys, "generate", "--n", "5", "--m", "2", "--lambda", "1/9", "--seed", "7")
        c = run_json(capsys, "generate", "--n", "5", "--m", "2", "--lambda", "1/9", "--seed", "8")
        assert a == b
        assert a != c

    def test_generate_n_ceiling_exits_2(self, capsys):
        n = ifs.MAX_GENERATE_N + 1
        code, out, err = run(
            capsys, "generate", "--n", str(n), "--m", "1", "--lambda", f"1/{2 * n}"
        )
        assert code == 2 and out == ""
        assert json.loads(err)["details"]["ceiling"] == ifs.MAX_GENERATE_N

    def test_generate_infeasible_pattern(self, capsys):
        # 1/4 is feasible for (3, 1); a pattern without G cannot absorb the slack
        code, out, err = run(
            capsys, "generate", "--n", "3", "--m", "1", "--lambda", "1/4", "--pattern", "OT"
        )
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "InvalidArgument"
        assert payload["message"] == "pattern needs a G letter to absorb the slack, got 'OT'"


class TestGraph:
    def test_golden_graph_with_spectral_check(self, capsys):
        data = run_json(capsys, "graph", "--lambda", "1/4", "--b", "0,3/16,3/4")
        assert data["policy"] == "cut-touch"
        assert data["adjacency"] == [[1, 1], [1, 2]]
        assert data["spectral"]["exact_beta_eigen"] is True
        assert abs(float(data["spectral"]["rho"]) - (3 + math.sqrt(5)) / 2) < 1e-10

    def test_printed_rho_digits_are_correct(self, capsys):
        # (3+sqrt(5))/2 = 2.61803398874989484820458683436563811772030917...,
        # so the 38 digits of the default 128 bits must round up to ...1177
        data = run_json(capsys, "graph", "--lambda", "1/4", "--b", "0,3/16,3/4")
        assert data["spectral"]["rho"] == "2.6180339887498948482045868343656381177"

    @pytest.mark.parametrize("bits", [80, 128, 1024, 4096])
    @pytest.mark.parametrize(
        "n, m, policy, argv",
        [
            (3, 1, "cut-touch", ["--lambda", "1/4", "--b", "0,3/16,3/4"]),
            (4, 1, "keep-touch", ["--lambda", "1/5", "--b", "0,4/25,9/25,4/5"]),
        ],
    )
    def test_rho_carries_the_digits_of_its_precision(self, capsys, bits, n, m, policy, argv):
        sympy = pytest.importorskip("sympy")
        data = run_json(capsys, "graph", *argv, "--policy", policy, "--precision-bits", str(bits))
        rho = data["spectral"]["rho"]
        digits = max(17, bits * 3 // 10)
        assert len(rho.replace(".", "")) == digits
        assert rho == str(sympy.N((n + sympy.sqrt(n * n - 4 * m)) / 2, digits))

    def test_rho_reads_the_precision_env_and_the_flag_beats_it(self, capsys, monkeypatch):
        argv = ["graph", "--lambda", "1/4", "--b", "0,3/16,3/4"]
        monkeypatch.setenv("OVERLAPKIT_PRECISION_BITS", "256")
        from_env = run_json(capsys, *argv)["spectral"]
        assert len(from_env["rho"].replace(".", "")) == 76 and from_env["iterations"] == 258
        from_flag = run_json(capsys, *argv, "--precision-bits", "96")["spectral"]
        assert from_flag == {
            "exact_beta_eigen": True,
            "iterations": 98,
            "rho": "2.618033988749894848204586834",
        }
        monkeypatch.setenv("OVERLAPKIT_PRECISION_BITS", str(MAX_PRECISION_BITS + 1))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["details"]["ceiling"] == MAX_PRECISION_BITS

    @pytest.mark.parametrize("policy", ["cut-touch", "keep-touch"])
    def test_golden_graph_output_is_pinned(self, capsys, policy):
        # every byte, iterations included: the bisection depth for width 2^-128
        # at the default precision, and rho to the 38 digits that 128 bits carry
        code, out, err = run(
            capsys, "graph", "--lambda", "1/4", "--b", "0,3/16,3/4", "--policy", policy
        )
        assert code == 0 and err == ""
        edges = [(0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 2, 1)]
        assert out == json.dumps(
            {
                "adjacency": [[1, 1], [1, 2]],
                "edges": [{"from": i, "mult": k, "to": j} for i, k, j in edges],
                "m": 1,
                "n": 3,
                "policy": policy,
                "spectral": {
                    "exact_beta_eigen": True,
                    "iterations": 130,
                    "rho": "2.6180339887498948482045868343656381177",
                },
                "vertices": [{"id": 0, "k": 1, "steps": ""}, {"id": 1, "k": 2, "steps": "O"}],
            },
            indent=2,
            sort_keys=True,
        ) + "\n"

    def test_keep_touch_policy(self, capsys):
        data = run_json(
            capsys,
            "graph", "--lambda", "1/5", "--b", "0,4/25,9/25,4/5", "--policy", "keep-touch",
        )
        assert data["adjacency"] == [[1, 1, 0], [1, 2, 1], [1, 2, 2]]
        assert [v["steps"] for v in data["vertices"]] == ["", "OT", "TOT"]

    def test_dot_file(self, capsys, tmp_path):
        dot = tmp_path / "graph.dot"
        data = run_json(
            capsys, "graph", "--lambda", "1/4", "--b", "0,3/16,3/4", "--dot", str(dot)
        )
        assert data["dot"] == str(dot)
        text = dot.read_text()
        assert text.startswith("digraph")
        assert 'label="2"' in text  # the O -> O edge has multiplicity 2

    def test_over_the_vertex_ceiling_exits_2_before_expanding(self, capsys, monkeypatch):
        # the golden word OG bounds the closure by 2 pieces + 3 vertices
        def never(*args):
            raise AssertionError("expand called past the ceiling")

        monkeypatch.setattr(graphdir, "MAX_VERTICES", 4)
        monkeypatch.setattr(graphdir, "expand", never)
        code, out, err = run(capsys, "graph", "--lambda", "1/4", "--b", "0,3/16,3/4")
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "VertexExplosion"
        assert payload["details"] == {"ceiling": 4, "vertices": 5}


class TestFactorAndObstruct:
    def test_factor_golden(self, capsys):
        data = run_json(capsys, "factor", "--poly", "x^4-3*x^2+1")
        assert data == {
            "content": 1,
            "factors": ["x^2-x-1", "x^2+x-1"],
            "input": "x^4-3*x^2+1",
            "irreducible": False,
            "unit": 1,
        }

    def test_factor_irreducible_and_multiplicity(self, capsys):
        assert run_json(capsys, "factor", "--poly", "x^2-x-1")["irreducible"] is True
        data = run_json(capsys, "factor", "--poly", "(x+1)^2(x-1)")
        assert data["factors"] == ["x-1", "x+1", "x+1"]

    @pytest.mark.parametrize("degree, bits", [(60, 600), (100, 300)])
    def test_dense_factor_gcd_exits_2_within_3_s(self, capsys, degree, bits):
        # the remainder sequence of gcd(f, f') alone ran 16-27 s on these
        # shapes before its pseudo-divisions were charged to the budget
        rng = random.Random(degree)
        coeffs = [rng.getrandbits(bits) - (1 << bits - 1) for _ in range(degree)]
        text = "+".join(f"({c})*x^{i}" for i, c in enumerate(coeffs)) + f"+x^{degree}"
        start = time.perf_counter()
        code, out, err = run(capsys, "factor", "--poly", text)
        assert time.perf_counter() - start < 3
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "details": {"ceiling": 16_000_000},
            "error": "ResourceLimitError",
            "message": "factoring needs more than 16000000 units of work",
        }

    def test_factor_syntax_error(self, capsys):
        code, out, err = run(capsys, "factor", "--poly", "x^")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "PolySyntaxError"
        assert "position" in payload["details"]

    def test_flag_values_may_start_with_a_dash(self, capsys):
        joined = run(capsys, "factor", "--poly=-x^2+1")
        assert joined[0] == 0
        assert run(capsys, "factor", "--poly", "-x^2+1") == joined
        assert run(capsys, "factor", "--po", "-x^2+1") == joined  # argparse's prefix of --poly
        assert run_json(capsys, "factor", "--poly", "-x")["factors"] == ["x"]
        code, out, err = run(capsys, "factor", "--poly", "--format")
        assert (code, out) == (1, "")
        assert json.loads(err)["message"] == "argument --poly: expected one argument"

    def test_obstruct_verdicts(self, capsys):
        met = run_json(capsys, "obstruct", "--n", "3", "--m", "1")
        assert met["verdict"] == "NecessaryConditionMet"
        assert [r["k"] for r in met["reducible_ks"]] == [2, 4, 6, 8]
        blocked = run_json(capsys, "obstruct", "--n", "4", "--m", "2")
        assert blocked["verdict"] == "Obstructed"
        open_ = run_json(capsys, "obstruct", "--n", "6", "--m", "4")
        assert open_["verdict"] == "NecessaryConditionOpen"

    def test_obstruct_sweep(self, capsys):
        data = run_json(capsys, "obstruct-sweep", "--nmax", "6", "--kmax", "4")
        assert data["nmax"] == 6 and data["kmax"] == 4
        assert len(data["reports"]) == 10  # (3,1),(4,1..2),(5,1..3),(6,1..4)
        keyed = {(r["n"], r["m"]): r["verdict"] for r in data["reports"]}
        assert keyed[(3, 1)] == "NecessaryConditionMet"
        assert keyed[(6, 2)] == "Obstructed"

    def test_kmax_defaults_to_the_library_default(self, capsys):
        verdict = run_json(capsys, "obstruct", "--n", "3", "--m", "1")
        assert verdict == obstruction_verdict(3, 1).to_json()
        assert verdict["kmax"] == DEFAULT_KMAX
        swept = run_json(capsys, "obstruct-sweep", "--nmax", "4")
        assert swept["kmax"] == DEFAULT_KMAX
        assert swept["reports"] == [report.to_json() for report in sweep(range(3, 5))]

    def test_kmax_ceiling_exits_2(self, capsys):
        for argv in (
            ["obstruct", "--n", "3", "--m", "1"],
            ["obstruct-sweep", "--nmax", "5"],
        ):
            code, out, err = run(capsys, *argv, "--kmax", "100000")
            assert code == 2 and out == ""
            payload = json.loads(err)
            assert payload["error"] == "ResourceLimitError"
            assert payload["details"]["ceiling"] == MAX_KMAX

    def test_sweep_checks_kmax_before_anything_else(self, capsys):
        # an empty sweep (nmax 2) and an nmax over its ceiling still get the kmax check
        for nmax in ("2", "21"):
            for kmax, code, error in (("99", 2, "ResourceLimitError"), ("1", 1, "InvalidArgument")):
                got, out, err = run(capsys, "obstruct-sweep", "--nmax", nmax, "--kmax", kmax)
                assert (got, out) == (code, ""), (nmax, kmax)
                payload = json.loads(err)
                assert payload["error"] == error and f"got {kmax}" in payload["message"]

    def test_parse_and_sweep_ceilings_exit_2(self, capsys):
        for argv, ceiling in (
            (["factor", "--poly", "x^99999999"], MAX_DEGREE),
            (["factor", "--poly", "(x+1)^3000"], MAX_DEGREE),
            (["obstruct-sweep", "--nmax", "100000"], MAX_NMAX),
            # inside the parse ceilings, but its factoring would take seconds
            (["factor", "--poly", "(x+1)^512+1"], MAX_FACTOR_WORK),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            payload = json.loads(err)
            assert payload["error"] == "ResourceLimitError"
            assert payload["details"]["ceiling"] == ceiling

    def test_work_budget_refusals_print_their_message_and_details(self, capsys):
        # the factor and parse budgets' refusals as stderr JSON; the parse
        # budget runs out at the second power of the sum, at its "^"
        for poly, details, message in (
            (
                "(x+1)^512+1",
                {"ceiling": MAX_FACTOR_WORK},
                f"factoring needs more than {MAX_FACTOR_WORK} units of work",
            ),
            (
                "+".join(["(7x+8)^512"] * 20),
                {"ceiling": MAX_PARSE_WORK, "position": 17},
                f"the expression needs more than {MAX_PARSE_WORK} coefficient operations",
            ),
        ):
            code, out, err = run(capsys, "factor", "--poly", poly)
            assert (code, out) == (2, "")
            assert err == json.dumps(
                {"details": details, "error": "ResourceLimitError", "message": message}
            ) + "\n"

    def test_out_of_class_exits_1(self, capsys):
        code, out, err = run(capsys, "obstruct", "--n", "3", "--m", "2")
        assert code == 1
        assert json.loads(err)["error"] == "NotInClass"

    def test_class_size_ceiling_exits_2(self, capsys):
        # a 13953-bit n: refused before any polynomial, surd or JSON holds it
        n = 10**4200 + 1
        for argv in (
            ["obstruct", "--n", str(n), "--m", "4", "--kmax", "15"],
            ["dimension", "--n", str(n), "--m", "4", "--lambda", f"1/{10 * n}"],
        ):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1
            assert code == 2 and out == "", argv[0]
            payload = json.loads(err)
            assert payload["error"] == "ResourceLimitError"
            assert payload["details"]["ceiling"] == MAX_COEFF_BITS
        # the largest n is decided fast at the largest kmax, for m = 1 too,
        # where about 420 primes are candidates
        n = 2**MAX_COEFF_BITS - 1
        for m in ("1", "4"):
            start = time.perf_counter()
            data = run_json(capsys, "obstruct", "--n", str(n), "--m", m, "--kmax", str(MAX_KMAX))
            assert time.perf_counter() - start < 1
            assert data["n"] == n and data["split_primes"] == [], m


# each subcommand that checks the class, at (n, m) = (3, 2): given by --n and
# --m, or by the offsets of three maps with two O steps
_NM = ["--n", "3", "--m", "2"]
_OO = ["--lambda", "1/2", "--b", "0,1/4,1/2"]
_CLASS_ARGV = {
    "obstruct": _NM,
    "dust-check": [*_NM, "--lambda", "1/4", "--ratios", "1/4,1/2"],
    "dimension": [*_NM, "--lambda", "1/4"],
    "generate": [*_NM, "--lambda", "1/4"],
    "tail-search": [*_NM, "--q", "1", "--max-degree", "6", "--coeff-bound", "2"],
    "validate": _OO,
    "graph": _OO,
}


@pytest.mark.parametrize("command", sorted(_CLASS_ARGV))
def test_out_of_class_is_the_same_error_everywhere(capsys, command):
    code, out, err = run(capsys, command, *_CLASS_ARGV[command])
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "NotInClass"
    assert payload["message"] == "need 1 <= m <= n-2, got (n,m)=(3,2)"
    pattern = {"pattern": "OO"} if _CLASS_ARGV[command] is _OO else {}
    assert payload["details"] == {"n": 3, "m": 2, **pattern}


class TestDustCheckAndMoran:
    def test_dust_check_not_ruled_out(self, capsys):
        data = run_json(
            capsys,
            "dust-check", "--n", "3", "--m", "1", "--lambda", "1/4",
            "--exponents", "1,1/2",
        )
        assert data["conclusion"] == "NotRuledOut"
        assert data["gcd"] == "x^2-x-1"
        assert data["exponents"] == [1, 2]

    def test_dust_check_explicit_base(self, capsys):
        data = run_json(
            capsys,
            "dust-check", "--n", "3", "--m", "1", "--lambda", "1/4",
            "--exponents", "2,1", "--base", "1/2",
        )
        assert data["conclusion"] == "NotRuledOut"
        assert data["k"] == 2

    def test_dust_check_ruled_out_reasons(self, capsys):
        mismatch = run_json(
            capsys,
            "dust-check", "--n", "3", "--m", "1", "--lambda", "1/4",
            "--ratios", "1/4,1/4,1/4",
        )
        assert mismatch["reason"] == "DimensionMismatch"
        incomm = run_json(
            capsys,
            "dust-check", "--n", "3", "--m", "1", "--lambda", "1/4",
            "--ratios", "1/4,1/3",
        )
        assert incomm["reason"] == "IncommensurableRatios"
        assert incomm["gcd"] is None
        # through the base: 1/3 is no rational power of 1/4
        base = run_json(
            capsys,
            "dust-check", "--n", "3", "--m", "1", "--lambda", "1/4",
            "--exponents", "1,1/2", "--base", "1/3",
        )
        assert base["reason"] == "IncommensurableRatios"
        assert (base["k"], base["exponents"], base["gcd"]) == (None, None, None)
        # eight ratios 1/7 and three 1/7^(3/2): x^3-8*x-3 meets x^4-7*x^2+1
        # in x^2+3*x+1, whose roots are negative, so not at beta^(1/2)
        wrong = run_json(
            capsys,
            "dust-check", "--n", "7", "--m", "1", "--lambda", "1/7",
            "--exponents", "1,1,1,1,1,1,1,1,3/2,3/2,3/2",
        )
        assert (wrong["conclusion"], wrong["reason"]) == ("RuledOut", "WrongFactor")
        assert (wrong["gcd"], wrong["qbar"], wrong["k"]) == ("x^2+3*x+1", "x^3-8*x-3", 2)
        assert wrong["shared_root"] is False

    def test_dust_check_requires_one_form(self, capsys):
        code, out, err = run(
            capsys,
            "dust-check", "--n", "3", "--m", "1", "--lambda", "1/4",
            "--ratios", "1/4,1/2", "--exponents", "1,2",
        )
        assert code == 1
        assert json.loads(err)["error"] == "InvalidArgument"

    def test_dust_check_degree_ceiling_exits_2(self, capsys):
        # a largest exponent of 100000, and k = lcm(255, 256) = 65280: the gcd
        # ceiling refuses every degree from 592 on, whatever the coefficients
        for exponents in ("1,100000", "1/255,1/256,2"):
            code, out, err = run(
                capsys,
                "dust-check", "--n", "3", "--m", "1", "--lambda", "1/4",
                "--exponents", exponents,
            )
            assert code == 2 and out == ""
            assert json.loads(err)["details"]["ceiling"] == MAX_GCD_WORK
        # k = lcm(2, 3, 5, ..., 10099) has more digits than the interpreter
        # prints, and the refusal still ends in exit 2, not a traceback
        primes = [p for p in range(2, 10100) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        code, out, err = run(
            capsys,
            "dust-check", "--n", "3", "--m", "1", "--lambda", "1/4",
            "--exponents", ",".join(f"1/{p}" for p in primes),
        )
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "ResourceLimitError"
        for exponents in ("1,512", "1/256,1"):
            run_json(
                capsys,
                "dust-check", "--n", "3", "--m", "1", "--lambda", "1/4",
                "--exponents", exponents,
            )

    def test_dust_check_gcd_ceiling_exits_2(self, capsys):
        # k = 256 over a 2048-bit n: both polynomials have degree 512, and
        # their gcd would run for minutes
        n = 2**2048 - 1
        start = time.perf_counter()
        code, out, err = run(
            capsys,
            "dust-check", "--n", str(n), "--m", "1", "--lambda", f"1/{2**2049}",
            "--exponents", "255/256,1/256,2",
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert json.loads(err)["details"] == {"ceiling": MAX_GCD_WORK}
        # degree 90 over a 128-bit n is just inside the ceiling, a 129-bit n past it
        exponents = "52/45,22/15,47/45,2/5,1/45,2"
        start = time.perf_counter()
        data = run_json(
            capsys,
            "dust-check", "--n", str(2**128 - 1), "--m", "1", "--lambda", f"1/{2**129}",
            "--exponents", exponents,
        )
        assert time.perf_counter() - start < 3
        assert (data["k"], data["reason"]) == (45, "DimensionMismatch")
        code, out, err = run(
            capsys,
            "dust-check", "--n", str(2**129 - 1), "--m", "1", "--lambda", f"1/{2**130}",
            "--exponents", exponents,
        )
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "details": {"ceiling": MAX_GCD_WORK},
            "error": "ResourceLimitError",
            "message": "the dust-check gcd at degree 90 over 130-bit coefficients "
            f"exceeds {MAX_GCD_WORK} degree^2 * bits",
        }

    def test_dust_check_never_factors_the_ratios(self, capsys):
        # 1/(P*Q) for two primes above 2^61 and 2^62, beyond any factoring budget
        data = run_json(
            capsys,
            "dust-check", "--n", "3", "--m", "1", "--lambda", "1/4",
            "--ratios", f"1/4,1/{_P * _Q}",
        )
        assert data["conclusion"] == "RuledOut"
        assert data["reason"] == "IncommensurableRatios"

    def test_base_beside_ratios_exits_1(self, capsys):
        for argv in (
            ["moran", "--ratios", "1/3,1/3", "--base", "1/2"],
            ["dust-check", "--n", "3", "--m", "1", "--lambda", "1/4",
             "--ratios", "1/4,1/2", "--base", "1/2"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", argv[0]
            payload = json.loads(err)
            assert payload["error"] == "InvalidArgument"
            assert payload["message"] == "give either ratios or base+exponents, not both"

    def test_bad_dust_values_print_as_rationals(self, capsys):
        for argv, message in (
            (["moran", "--ratios", "1/2,3/2"], "ratios must lie in (0,1), got 1/2, 3/2"),
            (["dust-check", "--n", "3", "--m", "1", "--lambda", "1/4", "--exponents", "1,-1/2"],
             "exponents must be positive, got 1, -1/2"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", argv[0]
            assert "Fraction(" not in err
            assert json.loads(err)["message"] == message

    def test_moran_ratios(self, capsys):
        data = run_json(capsys, "moran", "--ratios", "1/3,1/3")
        assert abs(float(data["s"]) - math.log(2) / math.log(3)) < 1e-10
        assert data["dust"] == {"ratios": ["1/3", "1/3"]}
        assert data["iterations"] > 0

    def test_moran_exponents_need_base(self, capsys):
        code, out, err = run(capsys, "moran", "--exponents", "1,2")
        assert code == 1
        assert json.loads(err)["error"] == "InvalidArgument"
        data = run_json(capsys, "moran", "--exponents", "1,2", "--base", "1/2")
        # 2^-s + 4^-s = 1 at the golden-ratio exponent
        assert abs(float(data["s"]) - math.log((1 + math.sqrt(5)) / 2) / math.log(2)) < 1e-10

    def test_moran_agrees_with_dimension(self, capsys):
        moran = run_json(capsys, "moran", "--exponents", "1,1/2", "--base", "1/4")
        dim = run_json(capsys, "dimension", "--lambda", "1/4", "--n", "3", "--m", "1")
        assert abs(float(moran["s"]) - float(dim["s"])) < 1e-9

    def test_moran_prints_the_digits_of_its_precision(self, capsys):
        moran = run_json(
            capsys, "moran", "--exponents", "1,1/2", "--base", "1/4", "--precision-bits", "200"
        )
        dim = run_json(
            capsys,
            *("dimension", "--lambda", "1/4", "--n", "3", "--m", "1", "--precision-bits", "200"),
        )
        digits = moran["s"].replace("0.", "", 1)
        assert len(digits) >= 55
        assert digits[:55] == dim["s"].replace("0.", "", 1)[:55]

    def test_moran_json_is_pinned(self, capsys):
        # whole outputs, byte for byte; the second root takes 75 Newton steps
        # through two guard doublings
        near_one = "999999999999999999999999999999/1000000000000000000000000000000"
        for ratios, expected in (
            (
                "1/2,1/4",
                '{\n  "dust": {\n    "ratios": [\n      "1/2",\n      "1/4"\n    ]\n  },\n'
                '  "iterations": 8,\n  "residual": "0.0",\n'
                '  "s": "0.69424191363061730173879026689859522346"\n}\n',
            ),
            (
                f"{near_one},1/2",
                f'{{\n  "dust": {{\n    "ratios": [\n      "{near_one}",\n      "1/2"\n    ]\n  }},\n'
                '  "iterations": 75,\n  "residual": "0.0",\n'
                '  "s": "93.116872153585032825706656971418601034"\n}\n',
            ),
        ):
            assert run(capsys, "moran", "--ratios", ratios) == (0, expected, "")

    def test_moran_work_budget_exits_2(self, capsys):
        # one ratio near 1 makes Newton creep beside 46 small ones at the top
        # precision: refused within the budget, not after 179 steps
        ratios = [f"{10**70 - 1}/{10**70}", "1/2"] + [f"1/{10**6 + i}" for i in range(46)]
        start = time.perf_counter()
        code, out, err = run(
            capsys, "moran", "--ratios", ",".join(ratios), "--precision-bits", "4096"
        )
        assert time.perf_counter() - start < 3
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "details": {"ceiling": ifs.MAX_MORAN_WORK},
            "error": "ResourceLimitError",
            "message": f"the Moran root to 4096 bits needs more than {ifs.MAX_MORAN_WORK} "
            "units of work",
        }


class TestTailSearch:
    def test_empty_search_exits_0(self, capsys):
        code, out, err = run(
            capsys,
            "tail-search", "--q", "1", "--n", "3", "--m", "1",
            "--max-degree", "6", "--coeff-bound", "4",
        )
        assert code == 0
        data = json.loads(out)
        assert data["counterexamples"] == []
        assert "Descartes' rule of signs" in data["proof"]
        assert sorted(data) == [
            "coeff_bound", "counterexamples", "m", "max_degree", "n", "proof", "q", "strategy",
        ]

    def test_strategy_flag(self, capsys):
        data = run_json(
            capsys,
            "tail-search", "--q", "1", "--n", "4", "--m", "2",
            "--max-degree", "4", "--coeff-bound", "2", "--strategy", "dividend",
        )
        assert data["strategy"] == "dividend"


class TestRenderGrowthBoxdim:
    def test_render_writes_svg_and_csv(self, capsys, tmp_path):
        svg = tmp_path / "cover.svg"
        csv_path = tmp_path / "cover.csv"
        data = run_json(
            capsys,
            "render", "--lambda", "1/4", "--b", "0,3/16,3/4",
            "--depth", "2", "--svg", str(svg), "--csv", str(csv_path),
        )
        assert data["counts"] == [1, 3, 8]
        svg_text = svg.read_text()
        assert svg_text.count("<rect ") == 12
        csv_lines = csv_path.read_text().splitlines()
        assert csv_lines[0] == "depth,offset,length"
        assert csv_lines[1] == "0,0,1"
        assert len(csv_lines) == 1 + 1 + 3 + 8

    def test_render_ceiling_exits_2_before_writing(self, capsys, tmp_path, monkeypatch):
        svg, csv_path = tmp_path / "cover.svg", tmp_path / "cover.csv"
        argv = [
            "render", "--lambda", "1/4", "--b", "0,3/16,3/4",
            "--svg", str(svg), "--csv", str(csv_path),
        ]
        for depth in ("11", "1000000000"):
            code, out, err = run(capsys, *argv, "--depth", depth)
            assert code == 2 and out == ""
            payload = json.loads(err)
            assert payload["error"] == "TooDeep"
            assert payload["details"]["ceiling"] == cli.MAX_RENDER_CYLINDERS
            assert list(tmp_path.iterdir()) == []
        # the ceiling is read at call time: 3^2 cylinders pass a ceiling of 9, 3^3 do not
        monkeypatch.setattr(cli, "MAX_RENDER_CYLINDERS", 9)
        assert run_json(capsys, *argv, "--depth", "2")["counts"] == [1, 3, 8]
        svg.unlink()
        csv_path.unlink()
        code, out, err = run(capsys, *argv, "--depth", "3")
        assert code == 2 and list(tmp_path.iterdir()) == []

    def test_growth_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "growth.csv"
        data = run_json(
            capsys,
            "growth", "--lambda", "1/4", "--b", "0,3/16,3/4",
            "--depth", "4", "--csv", str(csv_path),
        )
        assert data["counts"] == [1, 3, 8, 21, 55]
        assert data["recurrence_ok"] is True
        assert csv_path.read_text() == "L,N_L\n0,1\n1,3\n2,8\n3,21\n4,55\n"

    def test_growth_out_of_class(self, capsys):
        # b = 0,1/4,3/4 at lambda 1/4 touches twice: counts grow as 3^L, and
        # no (n, m) or recurrence is reported
        data = run_json(capsys, "growth", "--lambda", "1/4", "--b", "0,1/4,3/4", "--depth", "3")
        assert data["counts"] == [1, 3, 9, 27]
        assert (data["n"], data["m"], data["recurrence_ok"]) == (None, None, None)

    def test_growth_depth_ceiling_exits_2(self, capsys):
        code, out, err = run(
            capsys, "growth", "--lambda", "1/4", "--b", "0,3/16,3/4", "--depth", "99"
        )
        assert code == 2
        assert json.loads(err)["error"] == "TooDeep"

    def test_boxdim_cantor(self, capsys):
        data = run_json(
            capsys, "boxdim", "--lambda", "1/3", "--b", "0,2/3", "--depth", "8",
            "--grid-levels", "4",
        )
        assert abs(float(data["estimate"]) - math.log(2) / math.log(3)) < 1e-9
        assert len(data["scales"]) == 4

    def test_boxdim_at_a_lambda_below_float_range(self, capsys):
        # float(1/(10^400+1)) is 0; the log is taken from the integers
        q = 10**400 + 1
        data = run_json(
            capsys, "boxdim", "--lambda", f"1/{q}", "--b", f"0,{q - 1}/{q}", "--depth", "5",
            "--grid-levels", "4",
        )
        assert abs(float(data["estimate"]) - math.log(2) / math.log(q)) < 1e-12
        assert data["scales"][0]["cell"] == f"1/{q}"


# past the interpreter's int-to-str limit (4300 digits): exit 2, and no file
_Q = 10**2200 + 1
_LONG_NUMBER_ARGV = [
    ["generate", "--n", "3", "--m", "1", "--lambda", f"1/{_Q}", "--pattern", "OG"],
    ["validate", "--lambda", f"1/{_Q}", "--b", f"0,1/{2 * _Q},{_Q - 1}/{_Q}"],
    ["render", "--lambda", f"1/{_Q}", "--b", f"0,{_Q - 1}/{_Q}", "--depth", "2",
     "--svg", "c.svg", "--csv", "c.csv"],
    # error messages: 2q past the limit, and the exponents' lcm k (about 8,000 digits)
    ["tail-search", "--q", "9" * 4300, "--n", "3", "--m", "1", "--max-degree", "1",
     "--coeff-bound", "0"],
    ["dust-check", "--n", "3", "--m", "1", "--lambda", "1/4",
     "--exponents", f"1/{10**4000 + 1},1/{10**3999 + 3}"],
]


@pytest.mark.parametrize("argv", _LONG_NUMBER_ARGV, ids=lambda argv: argv[0])
def test_numbers_past_the_digit_limit_exit_2_and_write_nothing(capsys, tmp_path, argv):
    argv = [str(tmp_path / arg) if arg in ("c.svg", "c.csv") else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err
    payload = json.loads(err)
    assert payload["error"] == "ResourceLimitError"
    assert payload["details"]["ceiling"] == sys.get_int_max_str_digits()
    assert list(tmp_path.iterdir()) == []


class TestHarness:
    def test_unwritable_paths_exit_1_without_traceback(self, capsys, tmp_path):
        growth = ["growth", "--lambda", "1/4", "--b", "0,3/16,3/4", "--depth", "3"]
        missing = str(tmp_path / "missing" / "x.csv")
        for argv in (
            [*growth, "--csv", missing],
            [*growth, "--output", str(tmp_path)],
            ["graph", "--lambda", "1/4", "--b", "0,3/16,3/4", "--dot", missing],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert "Traceback" not in err
            assert json.loads(err)["error"] == "InputError"
        assert list(tmp_path.iterdir()) == []  # no temporary file left behind

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "--lambda", "1/4", "--b", "0,3/16,3/4", "--dot", "g.dot"],
            ["growth", "--lambda", "1/4", "--b", "0,3/16,3/4", "--depth", "3", "--csv", "c.csv"],
            ["render", "--lambda", "1/4", "--b", "0,3/16,3/4", "--depth", "3", "--svg", "s.svg"],
        ],
        ids=["graph", "growth", "render"],
    )
    @pytest.mark.parametrize("output", ["missing/out.json", "outdir"])
    def test_failing_output_writes_no_file(self, capsys, tmp_path, argv, output):
        (tmp_path / "outdir").mkdir()
        argv = [str(tmp_path / arg) if arg in ("g.dot", "c.csv", "s.svg") else arg for arg in argv]
        code, out, err = run(capsys, *argv, "--output", str(tmp_path / output))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"
        # neither the file nor a .overlapkit-* temporary
        assert [p.name for p in tmp_path.rglob("*")] == ["outdir"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["render", "--lambda", "1/4", "--b", "0,3/16,3/4", "--depth", "2",
             "--svg", "out.x", "--csv", "out.x"],
            ["graph", "--lambda", "1/4", "--b", "0,3/16,3/4", "--dot", "g.json",
             "--output", "./g.json"],
            ["growth", "--lambda", "1/4", "--b", "0,3/16,3/4", "--depth", "3",
             "--csv", "g.csv", "--output", "g.csv"],
        ],
        ids=["render", "graph", "growth"],
    )
    def test_two_outputs_naming_one_file_are_refused(self, capsys, tmp_path, monkeypatch, argv):
        # one file cannot hold both texts: without the check the later one
        # replaced the earlier and the call exited 0
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "InvalidArgument"
        assert payload["details"]["path"] == argv[-1]
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_names_the_given_path(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["graph", "--lambda", "1/4", "--b", "0,3/16,3/4", "--dot", "g.dot"]
        first = run(capsys, *argv, "--output", "missing/out.json")
        assert run(capsys, *argv, "--output", "missing/out.json") == first
        code, out, err = first
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "InputError"
        assert "'missing/out.json'" in err and ".overlapkit-" not in err
        assert list(tmp_path.iterdir()) == []

    def test_output_file_replaces_stdout(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, err = run(
            capsys,
            "dimension", "--lambda", "1/4", "--n", "3", "--m", "1", "--output", str(path),
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["n"] == 3

    def test_written_files_follow_the_umask(self, capsys, tmp_path):
        svg, csv_path, out = tmp_path / "c.svg", tmp_path / "c.csv", tmp_path / "out.json"
        old = os.umask(0o022)
        try:
            run_json(
                capsys, "graph", "--lambda", "1/4", "--b", "0,3/16,3/4",
                "--dot", str(tmp_path / "g.dot"),
            )
            code, _, err = run(
                capsys, "render", "--lambda", "1/4", "--b", "0,3/16,3/4", "--depth", "2",
                "--svg", str(svg), "--csv", str(csv_path), "--output", str(out),
            )
            assert code == 0, err
        finally:
            os.umask(old)
        modes = {path.name: path.stat().st_mode & 0o777 for path in tmp_path.iterdir()}
        assert modes == {"g.dot": 0o644, "c.svg": 0o644, "c.csv": 0o644, "out.json": 0o644}

    def test_parser_is_built_once(self, capsys):
        cli._build_parser.cache_clear()
        run_json(capsys, "obstruct", "--n", "3", "--m", "1", "--kmax", "2")
        run_json(capsys, "dimension", "--lambda", "1/4", "--n", "3", "--m", "1")
        assert cli._build_parser.cache_info().misses == 1

    def test_reused_parser_matches_fresh_processes(self, capsys):
        # a parse error, --help's SystemExit and an explicit --seed leave no
        # trace in the next call of the one cached parser
        generate = ["generate", "--n", "5", "--m", "2", "--lambda", "1/9"]
        calls = [
            ["graph", "--lambda", "1/4", "--b", "0,3/16,3/4", "--policy", "bogus"],
            ["--help"],
            [*generate, "--seed", "5"],
            generate,
        ]
        in_process = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        fresh = [_fresh_run(*argv) for argv in calls]
        assert in_process == fresh
        assert [code for code, _, _ in fresh] == [1, 0, 0, 0]
        assert in_process[2][1] != in_process[3][1]

    def test_import_loads_no_mpmath(self):
        # mpmath is imported by the functions that print or bracket a float,
        # so the package and its command line start without it
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = "import sys, overlapkit, overlapkit.cli; sys.exit('mpmath' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_entry_point_maps_the_exit_code(self):
        code, out, _ = _fresh_run("obstruct", "--n", "3", "--m", "1", "--kmax", "2")
        assert code == 0 and json.loads(out)["verdict"] == "NecessaryConditionMet"
        code, out, err = _fresh_run("obstruct", "--n", "3", "--m", "2")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "NotInClass"

    def test_reruns_are_byte_identical(self, capsys):
        argv = ["obstruct-sweep", "--nmax", "8"]
        code1 = main(argv)
        first = capsys.readouterr().out
        code2 = main(argv)
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second

    def test_json_keys_are_sorted(self, capsys):
        code, out, err = run(capsys, "dimension", "--lambda", "1/4", "--n", "3", "--m", "1")
        data = json.loads(out)
        assert list(data) == sorted(data)

    def test_unknown_subcommand_exits_1(self, capsys):
        code, out, err = run(capsys, "no-such-command")
        assert code == 1
        assert json.loads(err)["error"] == "InvalidArgument"

    def test_missing_required_flag_exits_1(self, capsys):
        code, out, err = run(capsys, "dimension", "--lambda", "1/4", "--n", "3")
        assert code == 1
        assert json.loads(err)["error"] == "InvalidArgument"

    def test_bad_rational_exits_1(self, capsys):
        code, out, err = run(capsys, "dimension", "--lambda", "0.25", "--n", "3", "--m", "1")
        assert code == 1
        assert json.loads(err)["error"] == "InvalidArgument"
        assert json.loads(err)["message"] == "not an exact rational: '0.25'"


def _fresh_run(*argv):
    """(exit code, stdout, stderr) of `python -m overlapkit argv` in a new interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("OVERLAPKIT_PRECISION_BITS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "overlapkit", *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


# -- argv fuzz ------------------------------------------------------------------------

_RATIONALS = st.sampled_from(
    ["0", "1", "-1", "1/4", "2/9", "3/16", "1/3", "1/0", "0/0", "-1/2", "1/-4", "0.25",
     "1e5", "abc", "", " 1/4", "1//4", "99999999999999999999/3"]
) | st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 40), st.integers(-2, 40))
_LISTS = st.lists(_RATIONALS, max_size=5).map(",".join)
_SMALL = st.integers(-3, 12).map(str) | st.sampled_from(["", "x", "1.5", "99999999999999999999"])
# (lambda, offsets) of valid specs, in the class and out of it
_SPECS = st.sampled_from(
    [("1/4", "0,3/16,3/4"), ("1/3", "0,2/3"), ("1/3", "0,1/3,2/3"), ("2/9", "0,14/81,7/9"),
     ("1/5", "0,4/25,9/25,4/5"), ("1/7", "0,6/49,36/49,6/7"), ("1/6", "0,1/6,11/36,25/36,5/6")]
)
# each flag's values: usable ones first, then malformed and edge cases
_FLAG_VALUES = {
    "--lambda": _SPECS.map(lambda spec: spec[0]) | _RATIONALS,
    "--b": _SPECS.map(lambda spec: spec[1]) | _LISTS,
    "--base": st.sampled_from(["1/4", "1/3"]) | _RATIONALS,
    "--ratios": st.sampled_from(["1/3,1/3", "1/4,1/2,1/8", "1/2,1/2"]) | _LISTS,
    "--exponents": st.lists(st.integers(-2, 32).map(str) | _RATIONALS, max_size=4).map(",".join),
    "--n": st.integers(2, 8).map(str) | _SMALL,
    "--m": st.integers(0, 4).map(str) | _SMALL,
    "--q": st.integers(-1, 3).map(str),
    "--depth": st.integers(-2, 8).map(str),
    "--grid-levels": st.integers(-2, 8).map(str),
    "--kmax": st.integers(-2, MAX_KMAX + 1).map(str),
    "--nmax": st.integers(-2, 7).map(str),
    "--max-degree": st.integers(-1, 7).map(str),
    "--coeff-bound": st.integers(-1, 3).map(str),
    "--precision-bits": st.integers(-8, 300).map(str) | st.sampled_from(["x", "99999999"]),
    "--seed": _SMALL,
    "--format": st.sampled_from(["json", "text", "xml"]),
    "--policy": st.sampled_from(["cut-touch", "keep-touch", "bogus"]),
    "--strategy": st.sampled_from(["quotient", "dividend", "bogus"]),
    "--pattern": st.text(alphabet="OTGX", max_size=5),
    "--poly": st.sampled_from(["x^4-3x^2+1", "(x+1)^3", "x^6-1"])
    | st.text(alphabet="x0123456789+-*^() ", max_size=12),
    "--output": st.sampled_from(["out.txt", "missing/out.txt"]),
    "--dot": st.sampled_from(["g.dot", "missing/g.dot"]),
    "--svg": st.sampled_from(["c.svg", "missing/c.svg"]),
    "--csv": st.sampled_from(["c.csv", "missing/c.csv"]),
}
_PATH_FLAGS = ("--output", "--dot", "--svg", "--csv")
_COMMON = ["--format", "--output", "--precision-bits", "--seed", "--help"]
_SUBCOMMANDS = {
    "dimension": ["--lambda", "--n", "--m"],
    "validate": ["--lambda", "--b"],
    "generate": ["--n", "--m", "--lambda", "--pattern"],
    "graph": ["--lambda", "--b", "--policy", "--dot"],
    "factor": ["--poly"],
    "obstruct": ["--n", "--m", "--kmax"],
    "obstruct-sweep": ["--nmax", "--kmax"],
    "dust-check": ["--n", "--m", "--lambda", "--ratios", "--exponents", "--base"],
    "moran": ["--ratios", "--exponents", "--base"],
    "tail-search": ["--q", "--n", "--m", "--max-degree", "--coeff-bound", "--strategy"],
    "render": ["--lambda", "--b", "--depth", "--svg", "--csv"],
    "growth": ["--lambda", "--b", "--depth", "--csv"],
    "boxdim": ["--lambda", "--b", "--depth", "--grid-levels"],
}


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_help_lists_the_flags_of_the_fuzz_table(capsys, command):
    # the fuzz's table is kept apart from cli's, so drift in either one fails
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == {*_SUBCOMMANDS[command], *_COMMON}


@st.composite
def argvs(draw):
    """A subcommand (now and then an unknown word) with a subset of its flags,
    now and then a common or foreign flag, and each value drawn, or left out."""
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS) + ["", "bogus", "--help"]))
    own = _SUBCOMMANDS.get(command, [])
    flags = [flag for flag in own if draw(st.integers(0, 9))]
    flags += draw(
        st.lists(st.sampled_from(_COMMON) | st.sampled_from(sorted(_FLAG_VALUES)), max_size=1)
    )
    spec = draw(_SPECS) if draw(st.booleans()) else None  # keeps --lambda and --b matched
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        if flag == "--help" or not draw(st.integers(0, 19)):
            continue
        if spec and flag in ("--lambda", "--b"):
            argv.append(spec[flag == "--b"])
        else:
            argv.append(draw(_FLAG_VALUES[flag]))
    return argv


@settings(max_examples=300, deadline=None)
@given(argvs())
@example(["growth", "--lambda", "1/4", "--b", "0,3/16,3/4", "--depth", "8"])
@example(
    ["tail-search", "--q", "100000", "--n", "3", "--m", "1", "--max-degree", "200300",
     "--coeff-bound", "0"]
)
@example(["render", "--lambda", "1/3", "--b", "0,2/3", "--depth", "3", "--svg", "missing/c.svg"])
@example(["dust-check", "--n", "3", "--m", "1", "--lambda", "1/4", "--exponents", "1,100000"])
@example(["dust-check", "--n", "3", "--m", "1", "--lambda", "1/4", "--exponents", "1/255,1/256,2"])
@example(
    ["boxdim", "--lambda", f"1/{10**400 + 1}", "--b", f"0,{10**400}/{10**400 + 1}",
     "--depth", "5", "--grid-levels", "4"]
)
@example(_LONG_NUMBER_ARGV[0])
@example(_LONG_NUMBER_ARGV[1])
@example(_LONG_NUMBER_ARGV[2])
def test_argv_fuzz_exits_with_a_documented_code(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [
            os.path.join(tmp, arg) if flag in _PATH_FLAGS else arg
            for flag, arg in zip([""] + argv, argv)
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help prints the usage and exits 0
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert json.loads(err.getvalue())["error"]
