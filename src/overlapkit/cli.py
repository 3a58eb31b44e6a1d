"""Command-line front end.

Every subcommand prints one report (JSON by default, or a flat key=value text
rendering of the same data) and exits 0 on success, 1 on invalid input, 2 on
a resource ceiling, and 3 on an internal consistency failure. Errors are
additionally written to stderr as machine-readable JSON. File outputs (DOT,
SVG, CSV, and --output) are written all or none, and two that name one file
are refused before anything is written.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InputError, InvalidArgument, OverlapKitError
from .exactnum import DEFAULT_PRECISION_BITS, format_rational, parse_rational
from .graphdir import Policy, build_graph, emit_dot, spectral_radius, verify_beta_eigen
from .ifs import (
    DustIfsSpec,
    SelfSimilarSpec,
    check_precision,
    dimension,
    format_dimension,
    generate,
    moran_dimension,
    validate,
)
from .intpoly import SearchStrategy, factor, nonneg_tail_search, parse_poly
from .numlab import (
    box_count_dimension,
    check_cylinders,
    cover_levels,
    cylinder_growth,
    emit_csv,
    emit_svg,
)
from .obstruction import DEFAULT_KMAX, dust_candidate_check, obstruction_verdict, sweep

# render draws every cylinder of every level, n^depth * n/(n-1) when none
# merge; (1/5; 0,2/5,4/5) at depth 10 (3^10) then takes 1.4 s with --csv
MAX_RENDER_CYLINDERS = 60_000


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route that through the
    # error taxonomy instead so exit code 2 stays reserved for resource limits
    def error(self, message: str):
        raise InvalidArgument(message)


def _rational_list(text: str) -> tuple[Fraction, ...]:
    items = [part for part in text.split(",") if part.strip()]
    if not items:
        raise InvalidArgument(f"expected a comma-separated list, got {text!r}")
    return tuple(parse_rational(part) for part in items)


def _atomic_write(files: list[tuple[str, str]]) -> None:
    """Each (path, text) goes to a temporary file beside its path, and the paths
    are replaced only once all are written; a failure unlinks every one and
    names the path it was writing, never its temporary file. Two paths that
    resolve to one file raise InvalidArgument before anything is written."""
    real = [os.path.realpath(path) for path, _ in files]
    for i, (path, _) in enumerate(files):
        if real[i] in real[:i]:
            raise InvalidArgument(f"two outputs name one file: {path!r}", path=path)
    temps: list[str] = []
    try:
        for path, text in files:
            if os.path.isdir(path):  # os.replace would fail only after other targets were replaced
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            directory = os.path.dirname(os.path.abspath(path))
            tmp = os.path.join(directory, f".overlapkit-{os.urandom(8).hex()}")
            # created 0666 less the umask, the mode the replaced path keeps
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            temps.append(tmp)
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        for tmp, (path, _) in zip(temps, files):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in temps:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _flatten(prefix: str, value, lines: list[str]) -> None:
    if isinstance(value, dict) and value:
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], lines)
    elif isinstance(value, (list, tuple)) and value:
        for i, item in enumerate(value):
            _flatten(f"{prefix}[{i}]", item, lines)
    else:  # null, true, false, {} and [] as in JSON; numbers and strings bare
        bare = value is not None and not isinstance(value, (bool, dict, list, tuple))
        lines.append(f"{prefix} = {value if bare else json.dumps(value)}")


def _render_text(payload: dict) -> str:
    lines: list[str] = []
    _flatten("", payload, lines)
    return "\n".join(lines) + "\n"


def _resolve_precision(args: argparse.Namespace) -> int:
    bits = args.precision_bits
    if bits is None:
        raw = os.environ.get("OVERLAPKIT_PRECISION_BITS")
        try:
            bits = DEFAULT_PRECISION_BITS if raw is None else int(raw)
        except ValueError as exc:
            raise InvalidArgument(
                f"OVERLAPKIT_PRECISION_BITS must be an integer, got {raw!r}"
            ) from exc
    check_precision(bits)
    return bits


# -- subcommand handlers: (args) -> payload -----------------------------------
# main resolves args.precision_bits before any handler runs and writes the files
# a handler puts in args.files ((path, text) pairs) with --output, all or none. A
# handler reports failure only by raising; main maps the error to its exit code.


def _cmd_dimension(args) -> dict:
    return dimension(args.n, args.m, args.lam, args.precision_bits).to_json()


def _cmd_validate(args) -> dict:
    spec, pattern = validate(args.lam, args.b)
    return {**spec.to_json(), **pattern.to_json()}


def _cmd_generate(args) -> dict:
    spec = generate(args.n, args.m, args.lam, args.pattern, seed=args.seed)
    return {**spec.to_json(), "pattern": spec.step_kinds}


def _cmd_graph(args) -> dict:
    spec, pattern = validate(args.lam, args.b)
    gs = build_graph(spec, Policy(args.policy))
    spectral = spectral_radius(gs.adjacency, args.precision_bits)
    spectral = spectral.with_beta_check(
        verify_beta_eigen(gs.adjacency, pattern.n, pattern.m)
    )
    payload = {
        **gs.to_json(),
        "n": pattern.n,
        "m": pattern.m,
        "spectral": spectral.to_json(),
    }
    if args.dot:
        args.files.append((args.dot, emit_dot(gs)))
        payload["dot"] = args.dot
    return payload


def _cmd_factor(args) -> dict:
    poly = parse_poly(args.poly)
    fac = factor(poly)
    return {
        "input": poly.to_string(),
        "unit": fac.unit,
        "content": fac.content,
        "factors": fac.listed(),
        "irreducible": poly.degree >= 1 and fac.is_irreducible_shape,
    }


def _cmd_obstruct(args) -> dict:
    return obstruction_verdict(args.n, args.m, args.kmax).to_json()


def _cmd_obstruct_sweep(args) -> dict:
    reports = sweep(range(3, args.nmax + 1), kmax=args.kmax)
    return {
        "nmax": args.nmax,
        "kmax": args.kmax,
        "reports": [r.to_json() for r in reports],
    }


def _dust_spec(args, default_base: Optional[Fraction] = None) -> DustIfsSpec:
    """The system of --ratios, or of --exponents over --base (default_base if
    not given); DustIfsSpec refuses any other combination."""
    base = args.base
    if base is None and args.exponents is not None:
        base = default_base
    return DustIfsSpec(ratios=args.ratios, base=base, exponents=args.exponents)


def _cmd_dust_check(args) -> dict:
    return dust_candidate_check(args.n, args.m, args.lam, _dust_spec(args, args.lam)).to_json()


def _cmd_moran(args) -> dict:
    dust = _dust_spec(args)
    root = moran_dimension(dust, args.precision_bits)
    return {
        "dust": dust.to_json(),
        "s": format_dimension(root.s, args.precision_bits),
        "residual": str(root.residual),
        "iterations": root.iterations,
    }


def _cmd_tail_search(args) -> dict:
    report = nonneg_tail_search(
        args.q,
        args.n,
        args.m,
        args.max_degree,
        args.coeff_bound,
        SearchStrategy(args.strategy),
    )
    return {
        "q": report.q,
        "n": report.n,
        "m": report.m,
        "max_degree": report.max_degree,
        "coeff_bound": report.coeff_bound,
        "strategy": report.strategy.value,
        "counterexamples": [c.to_string() for c in report.counterexamples],
        "proof": report.proof,
    }


def _cmd_render(args) -> dict:
    spec = SelfSimilarSpec(args.lam, tuple(args.b))
    check_cylinders(spec.n, args.depth, MAX_RENDER_CYLINDERS)
    levels = cover_levels(spec, args.depth)
    args.files.append((args.svg, emit_svg(levels)))
    payload = {
        "depth": args.depth,
        "counts": [level.count for level in levels],
        "svg": args.svg,
    }
    if args.csv:
        rows = [
            (level.depth, format_rational(offset), format_rational(level.length))
            for level in levels
            for offset in level.offsets
        ]
        args.files.append((args.csv, emit_csv(("depth", "offset", "length"), rows)))
        payload["csv"] = args.csv
    return payload


def _cmd_growth(args) -> dict:
    spec = SelfSimilarSpec(args.lam, tuple(args.b))
    result = cylinder_growth(spec, args.depth)
    payload = result.to_json()
    if args.csv:
        args.files.append((args.csv, emit_csv(("L", "N_L"), list(enumerate(result.counts)))))
        payload["csv"] = args.csv
    return payload


def _cmd_boxdim(args) -> dict:
    spec = SelfSimilarSpec(args.lam, tuple(args.b))
    return box_count_dimension(spec, args.depth, args.grid_levels).to_json()


# -- the parser, as data --------------------------------------------------------
# Every flag once: dest -> (option string, add_argument keywords).
_FLAGS = {
    "format": ("--format", dict(choices=("json", "text"), default="json")),
    "output": ("--output", dict(metavar="PATH")),
    "precision_bits": ("--precision-bits", dict(type=int)),
    "seed": ("--seed", dict(type=int, default=0)),
    "lam": ("--lambda", dict(type=parse_rational, required=True)),
    "n": ("--n", dict(type=int, required=True)),
    "m": ("--m", dict(type=int, required=True)),
    "b": ("--b", dict(type=_rational_list, required=True, metavar="c0,c1,...")),
    "pattern": ("--pattern", dict(metavar="OTG-word")),
    "policy": (
        "--policy",
        dict(choices=[p.value for p in Policy], default=Policy.CUT_AT_TOUCH.value),
    ),
    "dot": ("--dot", dict(metavar="PATH")),
    "poly": ("--poly", dict(required=True, metavar="EXPR")),
    "kmax": ("--kmax", dict(type=int, default=DEFAULT_KMAX)),
    "nmax": ("--nmax", dict(type=int, required=True)),
    "ratios": ("--ratios", dict(type=_rational_list, metavar="r1,r2,...")),
    "exponents": ("--exponents", dict(type=_rational_list, metavar="e1,e2,...")),
    "base": ("--base", dict(type=parse_rational, help="base for --exponents (dust-check: lambda)")),
    "q": ("--q", dict(type=int, required=True)),
    "max_degree": ("--max-degree", dict(type=int, required=True)),
    "coeff_bound": ("--coeff-bound", dict(type=int, required=True)),
    "strategy": (
        "--strategy",
        dict(choices=[s.value for s in SearchStrategy], default=SearchStrategy.QUOTIENT.value),
    ),
    "depth": ("--depth", dict(type=int, required=True)),
    "svg": ("--svg", dict(metavar="PATH", required=True)),
    "csv": ("--csv", dict(metavar="PATH")),
    "grid_levels": ("--grid-levels", dict(type=int, required=True)),
}

# name -> (handler, help, flag dests in usage order); "a|b" is a required
# choice of exactly one of two flags. Every subcommand also takes _COMMON.
_COMMON = "format output precision_bits seed"
_DUST = "ratios|exponents base"
_SUBCOMMANDS = {
    "dimension": (_cmd_dimension, "Hausdorff dimension of a class member", "lam n m"),
    "validate": (_cmd_validate, "classify offsets and check class membership", "lam b"),
    "generate": (_cmd_generate, "build offsets realizing an O/T/G pattern", "n m lam pattern"),
    "graph": (_cmd_graph, "graph-directed decomposition and spectral radius", "lam b policy dot"),
    "factor": (_cmd_factor, "factor an integer polynomial", "poly"),
    "obstruct": (_cmd_obstruct, "dust-equivalence obstruction verdict", "n m kmax"),
    "obstruct-sweep": (_cmd_obstruct_sweep, "verdicts for every (n,m) up to nmax", "nmax kmax"),
    "dust-check": (_cmd_dust_check, "test a dust-like candidate against E", f"n m lam {_DUST}"),
    "moran": (_cmd_moran, "Moran-equation dimension of a dust-like system", _DUST),
    "tail-search": (
        _cmd_tail_search,
        "no nonneg-tail multiple exists (Descartes' rule)",
        "q n m max_degree coeff_bound strategy",
    ),
    "render": (_cmd_render, "draw the interval cover as SVG bar rows", "lam b depth svg csv"),
    "growth": (_cmd_growth, "cylinder counts and growth rate", "lam b depth csv"),
    "boxdim": (_cmd_boxdim, "box-counting dimension estimate", "lam b depth grid_levels"),
}


@functools.cache
def _build_parser() -> _Parser:
    """The parser of both tables, built on the first main() call and reused."""
    parser = _Parser(
        prog="overlapkit",
        description="Exact analysis of self-similar sets with exact overlaps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, dests) in _SUBCOMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        for slot in f"{_COMMON} {dests}".split():
            either = slot.split("|")
            target = cmd.add_mutually_exclusive_group(required=True) if len(either) > 1 else cmd
            for dest in either:
                flag, keywords = _FLAGS[dest]
                target.add_argument(flag, dest=dest, **keywords)
    return parser


def _join_dash_values(argv: Sequence[str]) -> list[str]:
    """argv with each value that starts with a single '-' (but -h) joined to the
    flag before it as --flag=value, since argparse would take it for an option.
    Every flag but --help takes a value, and argparse accepts their prefixes."""
    joined: list[str] = []
    for token in argv:
        flag = joined[-1] if joined else ""
        value = token.startswith("-") and not token.startswith("--") and token != "-h"
        if value and flag.startswith("--") and "=" not in flag and not "--help".startswith(flag):
            joined[-1] += f"={token}"
        else:
            joined.append(token)
    return joined


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(_join_dash_values(sys.argv[1:] if argv is None else argv))
        args.precision_bits = _resolve_precision(args)
        args.files = []
        payload = args.handler(args)
        text = _render_json(payload) if args.format == "json" else _render_text(payload)
        if args.output:
            args.files.append((args.output, text))
        _atomic_write(args.files)
        if not args.output:
            sys.stdout.write(text)
        return 0
    except OSError as exc:
        # e.g. an --output, --dot, --svg or --csv path that cannot be written
        err = InputError(str(exc))
    except OverlapKitError as exc:
        err = exc
    sys.stderr.write(json.dumps(err.to_json(), sort_keys=True) + "\n")
    return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
