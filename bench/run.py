"""overlapkit benchmark: seeded CLI workloads with exact oracles.

Usage (from the repository root):
    python3 bench/run.py --workload verdict-sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all

For each workload this measures `setup_s` (fresh interpreter until
`overlapkit.cli` is imported, median of several starts), then runs the
workload in one fresh subprocess (bench/worker.py) with PYTHONHASHSEED fixed
and OVERLAPKIT_PRECISION_BITS cleared. Workloads never run at the same time.
It prints every metric by name and unit, and as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics of the traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from speed import REFERENCE_KERNEL_S, SpeedGauge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verdict-sweep", "factor-family", "cover-growth", "graph-spectral")
SETUP_STARTS = 7
GAUGE_READS = 3
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def environment() -> dict:
    env = dict(os.environ)
    env.pop("OVERLAPKIT_PRECISION_BITS", None)
    # an installed CLI runs from cached bytecode, so let the unmeasured first
    # start write it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def measure_setup(env: dict) -> tuple[float, float]:
    """Median (reference, raw) seconds from spawning an interpreter to it
    exiting after `import overlapkit.cli`. One unmeasured start first writes
    the bytecode; the speed gauge is read right before and after each start."""
    argv = [sys.executable, "-c", "import overlapkit.cli"]
    subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)
    gauge = SpeedGauge(window=2 * GAUGE_READS)
    scaled, raw = [], []
    for _ in range(SETUP_STARTS):
        for _ in range(GAUGE_READS):
            gauge.sample()
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)
        elapsed = time.perf_counter() - start
        for _ in range(GAUGE_READS):
            gauge.sample()
        raw.append(elapsed)
        scaled.append(elapsed * REFERENCE_KERNEL_S / statistics.median(gauge.samples))
    return statistics.median(scaled), statistics.median(raw)


def run_worker(workload: str, seed: int, seconds: int, trace: int, env: dict) -> dict:
    argv = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    with subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{workload} worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    env = environment()
    setup_s, raw_setup_s = measure_setup(env)
    report = run_worker(workload, seed, seconds, trace, env)
    failed_ratio = report["failed"] / report["attempted"]
    print(
        f"{workload}: seed {seed}, {report['jobs_per_pass']} jobs per pass, "
        f"{report['timed_passes']} timed passes, {report['job_samples']} job samples"
    )
    for reason in report["reasons"]:
        print(f"  FAILED {reason}")
    end_to_end = {
        "wall_s": report["wall_s"],
        "job_p50_ms": report["job_p50_ms"],
        "job_p90_ms": report["job_p90_ms"],
        "setup_s": setup_s,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    raw = {
        "wall_s": report["raw_wall_s"],
        "job_p50_ms": report["raw_job_p50_ms"],
        "job_p90_ms": report["raw_job_p90_ms"],
        "setup_s": raw_setup_s,
    }
    print(f"  host speed scale {report['host_scale']:.4g} (reference seconds / measured seconds)")
    for name, value in end_to_end.items():
        unscaled = f"   measured {raw[name]:.6g}" if name in raw else ""
        print(f"  {name:<40} {value:>14.6g} {END_TO_END_UNITS[name]}{unscaled}")
    counts = f"({report['failed']}/{report['attempted']})"
    print(f"  {'failed_ratio':<40} {failed_ratio:>14.6g} ratio {counts}")
    if trace:
        print(f"  traced passes: {report['traced_passes']}, spans in {report['spans_file']}")
        for name, value in report["layers"].items():
            print(f"  {name:<40} {value:>14.6g} {layer_unit(name)}")
        units = {name: layer_unit(name) for name in report["layers"]}
        values = report["layers"]
    else:
        units, values = END_TO_END_UNITS, end_to_end
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="overlapkit benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "overlapkit", "cli.py")):
        sys.stderr.write(f"no overlapkit sources under {os.path.join(ROOT, 'src')}\n")
        return 1
    # One CPU for this process and every child, so the speed gauge times the
    # CPU that runs the measured code.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.SubprocessError, ValueError) as err:
            sys.stderr.write(f"benchmark failed: {err}\n")
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
