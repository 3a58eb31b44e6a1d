"""Exact oracles for the benchmark's jobs.

Each oracle re-derives what the output must say without calling the code
under test: printed polynomials are parsed by a parser of their own and
multiplied back with plain integer lists, cylinder counts follow the
recurrence, and dimensions are recomputed with `decimal` or by bisection.
`check` returns None for a correct job and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional

from workloads import Job, beta, cylinder_counts, family_coeffs, is_perfect_power

# Pairs with n <= 12 whose family x^(2k)-n*x^k+m factors for some 2 <= k <= 8.
MET_UP_TO_12 = frozenset({(3, 1), (6, 1), (7, 1), (8, 4), (11, 1), (12, 4)})
BOX_TOLERANCE = 0.05
BETA_TOLERANCE = 1e-9
MORAN_TOLERANCE = 1e-9

_TERM = re.compile(r"([+-]?)(?:(\d+)(\*)?)?(x(?:\^(\d+))?)?")


class Mismatch(Exception):
    pass


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def parse_printed_poly(text: str) -> list[int]:
    """Ascending coefficients of a polynomial as `IntPoly.to_string` prints it."""
    coeffs: dict[int, int] = {}
    pos = 0
    while pos < len(text):
        term = _TERM.match(text, pos)
        sign, digits, star, var, power = term.groups()
        if term.end() == pos or (pos > 0 and not sign) or bool(star) != bool(digits and var):
            raise Mismatch(f"unparseable polynomial {text!r}")
        if digits is None and var is None:
            raise Mismatch(f"unparseable polynomial {text!r}")
        exponent = 0 if var is None else int(power or 1)
        value = int(digits or 1) * (-1 if sign == "-" else 1)
        coeffs[exponent] = coeffs.get(exponent, 0) + value
        pos = term.end()
    _expect(bool(coeffs), f"empty polynomial {text!r}")
    out = [0] * (max(coeffs) + 1)
    for exponent, value in coeffs.items():
        out[exponent] = value
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def product(texts: list[str]) -> list[int]:
    out = [1]
    for text in texts:
        factor = parse_printed_poly(text)
        _expect(len(factor) >= 2, f"factor {text!r} is a constant")
        out = poly_mul(out, factor)
    return out


def exact_dimension(n: int, m: int, lam: Fraction, digits: int = 100) -> Decimal:
    """log(beta) / -log(lambda) in `digits`-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = digits
        root = (Decimal(n) + Decimal(n * n - 4 * m).sqrt()) / 2
        return root.ln() / (Decimal(lam.denominator).ln() - Decimal(lam.numerator).ln())


def moran_dimension(lam: Fraction, exponents) -> float:
    """The s > 0 with sum lam^(e*s) = 1, by bisection in floats."""
    log_lam = math.log(lam)

    def excess(s: float) -> float:
        return sum(math.exp(float(e) * s * log_lam) for e in exponents) - 1

    lo, hi = 0.0, 1.0
    while excess(hi) > 0:
        lo, hi = hi, hi * 2
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
    return (lo + hi) / 2


# -- per-kind checks on the parsed JSON payload -----------------------------------------


def _echoes(payload: dict, facts: dict, *keys: str) -> None:
    for key in keys:
        _expect(payload[key] == facts[key], f"echoed {key} is {payload[key]}, not {facts[key]}")


def _obstruct(payload: dict, facts: dict) -> None:
    _echoes(payload, facts, "n", "m", "kmax")
    n, m, kmax = facts["n"], facts["m"], facts["kmax"]
    pp = payload["perfect_power"]
    if pp is not None:
        _expect(pp["i"] >= 2 and pp["a"] ** pp["i"] == m, f"bad perfect-power witness {pp}")
    _expect((pp is not None) == is_perfect_power(m), f"perfect-power status of m={m} is wrong")
    for entry in payload["reducible_ks"]:
        k = entry["k"]
        _expect(2 <= k <= kmax, f"reducible k={k} outside 2..{kmax}")
        _expect(len(entry["factors"]) >= 2, f"k={k} lists fewer than two factors")
        witness = product(entry["factors"])
        _expect(witness == family_coeffs(n, m, k), f"k={k} factors do not multiply back")
    if not is_perfect_power(m):
        expected = "Obstructed"
    elif n <= 12:
        expected = "NecessaryConditionMet" if (n, m) in MET_UP_TO_12 else "NecessaryConditionOpen"
    else:
        expected = "NecessaryConditionMet" if payload["reducible_ks"] else "NecessaryConditionOpen"
    _expect(payload["verdict"] == expected, f"verdict {payload['verdict']}, expected {expected}")


def _factor(payload: dict, facts: dict) -> None:
    coeffs = facts["coeffs"]
    _expect(parse_printed_poly(payload["input"]) == coeffs, "echoed input differs")
    scale = payload["unit"] * payload["content"]
    got = [scale * c for c in product(payload["factors"])]
    _expect(got == coeffs, "factors do not multiply back to the input")
    single = payload["content"] == 1 and len(payload["factors"]) == 1
    _expect(payload["irreducible"] == single, "irreducible flag disagrees with the factor list")


def _growth(payload: dict, facts: dict) -> None:
    _echoes(payload, facts, "n", "m")
    counts = cylinder_counts(facts["n"], facts["m"], facts["depth"])
    _expect(payload["counts"] == counts, "counts break N_(L+2) = n*N_(L+1) - m*N_L")
    _expect(payload["recurrence_ok"] is True, "recurrence_ok is not true")


def _boxdim(payload: dict, facts: dict) -> None:
    lam, levels = facts["lam"], facts["grid_levels"]
    cells = [Fraction(scale["cell"]) for scale in payload["scales"]]
    _expect(cells == [lam**j for j in range(1, levels + 1)], "grid cells are not lambda powers")
    exact = float(exact_dimension(facts["n"], facts["m"], lam, 30))
    estimate = float(payload["estimate"])
    _expect(
        abs(estimate - exact) <= BOX_TOLERANCE,
        f"box estimate {estimate} is not within {BOX_TOLERANCE} of {exact}",
    )


def _graph(payload: dict, facts: dict) -> None:
    _echoes(payload, facts, "n", "m", "policy")
    size = len(payload["vertices"])
    rows = payload["adjacency"]
    _expect(len(rows) == size and all(len(row) == size for row in rows), "adjacency is not square")
    spectral = payload["spectral"]
    _expect(spectral["exact_beta_eigen"] is True, "beta is not an exact eigenvalue")
    rho, target = float(spectral["rho"]), beta(facts["n"], facts["m"])
    _expect(
        abs(rho - target) <= BETA_TOLERANCE,
        f"rho {rho} is not within {BETA_TOLERANCE} of beta {target}",
    )


def _decimal(text: str) -> Decimal:
    value = Fraction(text)
    return Decimal(value.numerator) / Decimal(value.denominator)


def _dimension(payload: dict, facts: dict) -> None:
    n, m, lam = facts["n"], facts["m"], facts["lam"]
    b = payload["beta"]
    with localcontext() as ctx:
        ctx.prec = 100
        surd = _decimal(b["a"]) + _decimal(b["b"]) * Decimal(b["D"]).sqrt()
        root = (Decimal(n) + Decimal(n * n - 4 * m).sqrt()) / 2
        _expect(abs(surd - root) < Decimal("1e-90"), "beta surd is not the dominant root")
        printed = Decimal(payload["s"])
        error = abs(printed - exact_dimension(n, m, lam))
    # faithful rounding: off by less than one unit in the last printed place
    unit = Decimal(1).scaleb(printed.as_tuple().exponent)
    _expect(error < unit, f"s is off by {error:.3e}, more than its last digit {unit:.0e}")


def _dust_check(payload: dict, facts: dict) -> None:
    _echoes(payload, facts, "n", "m")
    dust_s = moran_dimension(facts["lam"], facts["exponents"])
    set_s = float(exact_dimension(facts["n"], facts["m"], facts["lam"], 30))
    shared = abs(dust_s - set_s) < MORAN_TOLERANCE
    expected = "NotRuledOut" if shared else "RuledOut"
    conclusion = payload["conclusion"]
    _expect(conclusion == expected, f"conclusion {conclusion}, expected {expected}")
    _expect(payload["shared_root"] == shared, "shared_root disagrees with the conclusion")
    _expect((payload["reason"] is None) == shared, "reason disagrees with the conclusion")


def _moran(payload: dict, facts: dict) -> None:
    s = float(payload["s"])
    expected = moran_dimension(facts["lam"], facts["exponents"])
    _expect(abs(s - expected) <= MORAN_TOLERANCE, f"s {s} is not within 1e-9 of {expected}")


CHECKS = {
    "obstruct": _obstruct,
    "factor": _factor,
    "growth": _growth,
    "boxdim": _boxdim,
    "graph": _graph,
    "dimension": _dimension,
    "dust-check": _dust_check,
    "moran": _moran,
}


def check(job: Job, code: Optional[int], stdout: str, stderr: str) -> Optional[str]:
    """None when the job exited 0, wrote nothing to stderr and its report is right."""
    if code != 0:
        first = stderr.strip().splitlines()[-1:] or [""]
        return f"exit {code}: {first[0][:200]}"
    if stderr:
        return f"unexpected stderr: {stderr.strip()[:200]}"
    try:
        CHECKS[job.kind](json.loads(stdout), job.facts)
    except Mismatch as err:
        return str(err)
    except (ValueError, KeyError, TypeError) as err:
        return f"malformed report: {type(err).__name__}: {err}"
    return None
