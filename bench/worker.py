"""Run one workload in this process and print its measurements as one JSON line.

Started by run.py in a fresh interpreter. The jobs are generated first, then
run in passes through `overlapkit.cli.main(argv)` with stdout and stderr
captured: one caller, one job at a time, each starting when the previous one
returned. The first pass warms up and has every output checked by its
oracle; the timed passes that follow, until --seconds have been spent, must
reproduce those outputs byte for byte. Each job's time is scaled to
reference seconds by the speed gauge (see speed.py). With --trace 1 the
timed passes alternate between untraced and traced, which gives both the
per-layer metrics and the tracing overhead.

Usage: python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Optional

import overlapkit
import overlapkit.cli as cli

import oracles
import tracer as tracing
import workloads
from speed import SpeedGauge

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_REASONS = 5


def run_job(argv: tuple[str, ...]) -> tuple[Optional[int], str, str, float]:
    """(exit code, or None when an exception escaped; stdout; stderr; seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except (Exception, SystemExit):
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


class Pass:
    """One timed pass: per-job raw and scaled milliseconds and job scales."""

    def __init__(self) -> None:
        self.raw_ms: list[float] = []
        self.scaled_ms: list[float] = []
        self.scales: list[float] = []
        self.elapsed = 0.0


def wall(passes: list[Pass], scaled: bool = True) -> float:
    """Median over the passes of the summed job times, in seconds."""
    return statistics.median(sum(p.scaled_ms if scaled else p.raw_ms) / 1000 for p in passes)


class Runner:
    def __init__(self, jobs: list[workloads.Job]):
        self.jobs = jobs
        self.gauge = SpeedGauge()
        self.reference: list[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def _fail(self, index: int, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append(f"{' '.join(self.jobs[index].argv)}: {reason}")

    def warm_up(self) -> None:
        """Run every job once, outside the timed window, and check it."""
        for index, job in enumerate(self.jobs):
            code, out, err, _ = run_job(job.argv)
            self.attempted += 1
            reason = oracles.check(job, code, out, err)
            if reason is not None:
                self._fail(index, reason)
            self.reference.append((code, out, err))

    def timed_pass(self, tracer: Optional[tracing.Tracer] = None) -> Pass:
        record = Pass()
        start = time.perf_counter()
        for index, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = index
            before = self.gauge.scale()
            code, out, err, elapsed = run_job(job.argv)
            # a long job gets a fresh reading after it too
            scale = (before + self.gauge.scale()) / 2
            record.raw_ms.append(elapsed * 1000)
            record.scaled_ms.append(elapsed * 1000 * scale)
            record.scales.append(scale)
            self.attempted += 1
            if (code, out, err) != self.reference[index]:
                self._fail(index, "output differs from the checked warm-up pass")
        record.elapsed = time.perf_counter() - start
        return record


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    source = os.path.join(ROOT, "src", "overlapkit")
    if os.path.dirname(os.path.abspath(overlapkit.__file__)) != source:
        sys.stderr.write(f"imported overlapkit from {overlapkit.__file__}, expected {source}\n")
        return 1

    runner = Runner(workloads.build(args.workload, args.seed))
    runner.warm_up()

    tracer = tracing.Tracer() if args.trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    layer_passes: list[dict] = []
    span_passes: list[list] = []
    # stop before a pass that would overrun --seconds, once every kind of
    # pass has run at least once
    spent = last = 0.0
    while spent + last <= args.seconds or not plain or (tracer is not None and not traced):
        if tracer is not None and len(traced) < len(plain):
            tracer.install()
            try:
                record = runner.timed_pass(tracer)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            traced.append(record)
            layer_passes.append(tracing.layer_metrics(spans, record.scales))
            span_passes.append(spans)
        else:
            record = runner.timed_pass()
            plain.append(record)
        spent += record.elapsed
        last = record.elapsed

    scaled = [ms for record in plain for ms in record.scaled_ms]
    raw = [ms for record in plain for ms in record.raw_ms]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs_per_pass": len(runner.jobs),
        "timed_passes": len(plain),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "reasons": runner.reasons,
        "wall_s": wall(plain),
        "job_p50_ms": statistics.median(scaled),
        "job_p90_ms": p90(scaled),
        "job_samples": len(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw_wall_s": wall(plain, scaled=False),
        "raw_job_p50_ms": statistics.median(raw),
        "raw_job_p90_ms": p90(raw),
        "host_scale": statistics.median(s for record in plain for s in record.scales),
    }
    if tracer is not None:
        layers = {
            key: statistics.median(metrics[key] for metrics in layer_passes)
            for key in layer_passes[0]
        }
        traced_wall = wall(traced)
        layers["trace.traced_wall_s"] = traced_wall
        layers["trace.untraced_wall_s"] = result["wall_s"]
        layers["trace.overhead_s"] = traced_wall - result["wall_s"]
        layers["trace.spans"] = len(span_passes[-1])
        result["layers"] = layers
        result["traced_passes"] = len(traced)
        result["spans_file"] = os.path.join(".bench_out", f"spans-{args.workload}.jsonl")
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        tracing.write_spans(os.path.join(ROOT, result["spans_file"]), span_passes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
