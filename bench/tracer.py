"""Span recorder for the benchmark's traced run.

The tracer wraps the public functions of each overlapkit module wherever a
caller looks them up: the defining module, every module that imported the
name, and the package re-exports. Each call records one span (name, start,
end, parent span, job id, plus counters read from the arguments and result).
Spans stay in memory; `layer_metrics` turns one pass's spans into the
per-layer metrics, where a layer's self time is its span's duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence


def _factor_counters(args, kwargs, result) -> dict:
    pieces = sum(mult for _, mult in result.factors)
    return {"degree": args[0].degree, "split": int(pieces > 1)}


def _cover_counters(args, kwargs, result) -> dict:
    spec, depth = args[0], args[1]
    return {"merged": result.count, "raw": spec.n**depth}


def _growth_counters(args, kwargs, result) -> dict:
    spec, depth = args[0], args[1]
    return {"merged": result.counts[-1], "raw": spec.n**depth}


# span name -> (defining module, attribute, counter reader or None)
LAYERS: dict[str, tuple[str, str, Optional[Callable]]] = {
    "cli.main": ("overlapkit.cli", "main", None),
    "obstruction.obstruction_verdict": ("overlapkit.obstruction", "obstruction_verdict", None),
    "obstruction.dust_candidate_check": ("overlapkit.obstruction", "dust_candidate_check", None),
    "intpoly.factor": ("overlapkit.intpoly.factor", "factor", _factor_counters),
    "intpoly.gcd_poly": ("overlapkit.intpoly.poly", "gcd_poly", None),
    "intpoly.parse_poly": ("overlapkit.intpoly.poly", "parse_poly", None),
    "exactnum.is_perfect_power": ("overlapkit.exactnum", "is_perfect_power", None),
    "exactnum.multiplicative_dependence": (
        "overlapkit.exactnum",
        "multiplicative_dependence",
        None,
    ),
    "ifs.validate": ("overlapkit.ifs", "validate", None),
    "ifs.dimension": ("overlapkit.ifs", "dimension", None),
    "ifs.moran_dimension": (
        "overlapkit.ifs",
        "moran_dimension",
        lambda args, kwargs, result: {"iterations": result.iterations},
    ),
    "graphdir.build_graph": (
        "overlapkit.graphdir",
        "build_graph",
        lambda args, kwargs, result: {"vertices": len(result.vertices)},
    ),
    "graphdir.spectral_radius": (
        "overlapkit.graphdir",
        "spectral_radius",
        lambda args, kwargs, result: {"iterations": result.iterations},
    ),
    "graphdir.verify_beta_eigen": ("overlapkit.graphdir", "verify_beta_eigen", None),
    "numlab.cylinder_growth": ("overlapkit.numlab", "cylinder_growth", _growth_counters),
    "numlab.box_count_dimension": ("overlapkit.numlab", "box_count_dimension", None),
    "numlab.cover": ("overlapkit.numlab", "cover", _cover_counters),
}


@dataclass
class Span:
    sid: int
    name: str
    parent: Optional[int]
    job: int
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent,
            "job": self.job,
            "start": self.start,
            "end": self.end,
            **self.counters,
        }


class Tracer:
    """Records spans while installed; `job` tags the spans of the current job."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = -1
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, counters: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(
                sid=len(self.spans),
                name=name,
                parent=self._open[-1] if self._open else None,
                job=self.job,
                start=time.perf_counter(),
            )
            self.spans.append(span)
            self._open.append(span.sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counters is not None:
                span.counters = counters(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of each layer function in the loaded overlapkit modules."""
        modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "overlapkit" or mod_name.startswith("overlapkit."))
        ]
        for name, (home, attr, counters) in LAYERS.items():
            original = getattr(sys.modules[home], attr)
            traced = self._wrap(name, original, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.sid] = (span.end - span.start) - covered
    return out


def layer_metrics(spans: list[Span], job_scales: Sequence[float]) -> dict[str, float]:
    """Per-layer metrics of one pass: calls and self time of every layer, plus
    the factorizer, graph, Moran and cover counters. Self times are scaled by
    the speed factor of the job each span belongs to."""
    selfs = self_times(spans)
    metrics: dict[str, float] = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.self_s"] = 0.0
    sums: dict[str, int] = {}
    for span in spans:
        metrics[f"{span.name}.calls"] += 1
        metrics[f"{span.name}.self_s"] += selfs[span.sid] * job_scales[span.job]
        for key, value in span.counters.items():
            sums[f"{span.name}.{key}"] = sums.get(f"{span.name}.{key}", 0) + value
    factor_calls = metrics["intpoly.factor.calls"]
    metrics["intpoly.factor.degree_sum"] = sums.get("intpoly.factor.degree", 0)
    metrics["intpoly.factor.split_ratio"] = (
        sums.get("intpoly.factor.split", 0) / factor_calls if factor_calls else 0.0
    )
    metrics["graphdir.build_graph.vertices"] = sums.get("graphdir.build_graph.vertices", 0)
    metrics["graphdir.spectral_radius.iterations"] = sums.get(
        "graphdir.spectral_radius.iterations", 0
    )
    metrics["ifs.moran_dimension.iterations"] = sums.get("ifs.moran_dimension.iterations", 0)
    merged = sums.get("numlab.cylinder_growth.merged", 0) + sums.get("numlab.cover.merged", 0)
    raw = sums.get("numlab.cylinder_growth.raw", 0) + sums.get("numlab.cover.raw", 0)
    metrics["numlab.cylinders_merged"] = merged
    metrics["numlab.cylinders_raw"] = raw
    metrics["numlab.merge_ratio"] = merged / raw if raw else 0.0
    return metrics


def write_spans(path: str, passes: list[list[Span]]) -> None:
    """One JSON object per line, each tagged with its traced pass."""
    with open(path, "w", encoding="utf-8") as handle:
        for index, spans in enumerate(passes):
            for span in spans:
                handle.write(json.dumps({"pass": index, **span.to_json()}) + "\n")
