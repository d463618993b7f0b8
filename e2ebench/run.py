"""End-to-end benchmark of the DB2 + accelerator federation.

Run from the repository root::

    python3 e2ebench/run.py --workload oltp_rw --seed 1 --seconds 25 --trace 0

``--workload`` is one of ``report_star_pool2``, ``oltp_rw``,
``elt_mining`` or ``all`` (every workload, one after another, each in a
child process of its own so that ``peak_rss_mb`` is its own). Each workload is a single closed-loop client issuing whole
rounds of a fixed operation sequence through the public API. A run is a
fixed amount of work, not a time box: ``--seconds`` times the workload's
nominal round rate (calibrated on a 2-core box), and never fewer than
``MIN_ROUNDS`` rounds, so every run issues the identical operations.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced blocks of rounds and prints the per-layer metrics
(and writes the spans to ``e2ebench/out/``). The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# The script's own directory is on sys.path, so the sibling modules import.
from harness import (
    CLOCKS, REFERENCE_CALIBRATION_S, Recorder, calibrate, class_quantile,
    geometric_mean, read_clocks, since,
)
from layers import TIMED, LayerTracer, per_layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

#: Every class runs at least once per round, so this many rounds give
#: each class 100 timed samples (a p90 with ten samples beyond it).
MIN_ROUNDS = 100

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "interconnect_bytes_per_op": "bytes/op",
}


def scan_workers() -> int:
    """The program's default scan pool (4 workers), capped at the CPUs
    this process may run on."""
    return min(4, len(os.sched_getaffinity(0)))


def set_up(workload, repro, workers: int, calibration: list):
    """Build, load, accelerate and warm up ``workload.setup_repeats`` times.

    Returns the last run state and the median set-up seconds per clock.
    The warm-up round pays lazy first-use costs (first UPDATE, kernel
    compilation, first procedure call) so they count toward set-up, not
    latency; the time its checks take is left out. Appends one host-speed
    sample per set-up to ``calibration``.
    """
    seconds = {clock: [] for clock in CLOCKS}
    run = None
    for __ in range(workload.setup_repeats):
        run = None
        gc.collect()  # reclaim the previous set-up before timing the next
        calibration.append(calibrate())
        started = read_clocks()
        run = workload.setup(repro, workers)
        warm_up = Recorder(workload.classes)
        run.round(warm_up, 0)
        for clock, value in since(started).items():
            seconds[clock].append(value - warm_up.check_seconds[clock])
    gc.collect()
    return run, {c: statistics.median(v) for c, v in seconds.items()}


def round_count(workload, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds * workload.rounds_per_second))


def run_round(run, rec, index: int) -> dict[str, float]:
    """One round; returns its seconds per clock, checks excluded."""
    checks = dict(rec.check_seconds)
    started = read_clocks()
    run.round(rec, index)
    return {
        clock: value - (rec.check_seconds[clock] - checks[clock])
        for clock, value in since(started).items()
    }


def end_to_end(workload, repro, workers: int, seconds: float) -> dict:
    calibration: list[float] = []
    run, setup = set_up(workload, repro, workers, calibration)
    rec = Recorder(workload.classes)
    movement = run.db.movement_snapshot()
    phase = {clock: 0.0 for clock in CLOCKS}
    for index in range(1, round_count(workload, seconds) + 1):
        calibration.append(calibrate())
        for clock, value in run_round(run, rec, index).items():
            phase[clock] += value
    moved = run.db.movement_since(movement)
    shared = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "interconnect_bytes_per_op": (
            moved.bytes_to_accelerator + moved.bytes_from_accelerator
        ) / rec.attempted,
    }
    values = {}
    for clock in CLOCKS:
        samples = rec.samples[clock]
        values[clock] = {
            "setup_s": setup[clock],
            "throughput_ops_s": rec.attempted / phase[clock],
            "latency_p50_ms": geometric_mean(
                [class_quantile(samples[c], 0.5) for c in workload.classes]
            ) * 1000.0,
            "latency_p90_ms": geometric_mean(
                [class_quantile(samples[c], 0.9) for c in workload.classes]
            ) * 1000.0,
            **shared,
        }
    report(workload, rec)
    for c in workload.classes:
        path, wall = rec.samples["path"][c], rec.samples["wall"][c]
        print(
            f"  {c:<14} engine={rec.engines.get(c, '-'):<11} n={len(path):<6}"
            f" p50={class_quantile(path, 0.5) * 1000:9.3f} ms"
            f" p90={class_quantile(path, 0.9) * 1000:9.3f} ms"
            f" (wall p50={class_quantile(wall, 0.5) * 1000:9.3f} ms"
            f" p90={class_quantile(wall, 0.9) * 1000:9.3f} ms)"
            f" failed={rec.failures[c]}"
        )
    # Scale critical-path CPU times to the reference host speed.
    speed = statistics.median(calibration) / REFERENCE_CALIBRATION_S
    gated = dict(values["path"])
    for name in ("setup_s", "latency_p50_ms", "latency_p90_ms"):
        gated[name] /= speed
    gated["throughput_ops_s"] *= speed
    print(f"host slowdown vs reference (calibration loop): {speed:.3f}")
    for clock in CLOCKS:
        print(f"{clock} clock, unscaled (not gated): {json.dumps(values[clock])}")
    metrics = {
        name: {"value": gated[name], "unit": unit}
        for name, unit in END_TO_END.items()
    }
    return outcome(workload, rec, metrics)


def traced(workload, repro, workers: int, seconds: float, seed: int) -> dict:
    """Alternate traced and untraced blocks of ``workload.cycle_rounds``
    rounds (so both halves see every literal and batch equally often);
    per-layer metrics only."""
    run, __ = set_up(workload, repro, workers, [])
    rec = Recorder(workload.classes)
    tracer = LayerTracer(rec)
    # traced? -> [ops, critical-path s, process CPU s]; checks excluded
    totals = {True: [0, 0.0, 0.0], False: [0, 0.0, 0.0]}
    for index in range(1, round_count(workload, seconds) + 1):
        is_traced = (index - 1) // workload.cycle_rounds % 2 == 0
        if is_traced:
            tracer.begin_round(run.db)
            rec.on_operation = tracer.begin_operation
        ops = rec.attempted
        elapsed = run_round(run, rec, index)
        if is_traced:
            rec.on_operation = None
            tracer.end_round(run.db)
        totals[is_traced][0] += rec.attempted - ops
        totals[is_traced][1] += elapsed["path"]
        totals[is_traced][2] += elapsed["process"]
    path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write_spans(path)
    metrics = per_layer_metrics(
        tracer, totals[True][0], totals[True][1], totals[True][2],
        totals[False][0], totals[False][1],
    )
    report(workload, rec)
    print(f"  traced ops={totals[True][0]} untraced ops={totals[False][0]}")
    for name, metric in metrics.items():
        layer = TIMED.get(name)
        calls = f" calls={tracer.calls[layer]}" if layer else ""
        print(
            f"  {name:<42} {metric['value']:14.6f} {metric['unit']:<6}{calls}"
        )
    print(f"  spans written to {path.relative_to(BENCH_DIR.parent)}")
    return outcome(workload, rec, metrics)


def report(workload, rec) -> None:
    print(
        f"{workload.name}: attempted={rec.attempted} failed={rec.failed} "
        f"inputs={json.dumps(workload.describe())}"
    )
    for name, message in rec.errors.items():
        print(f"  failing class {name}: {rec.failures[name]}x ({message})")


def outcome(workload, rec, metrics: dict) -> dict:
    unexpected = set(rec.failures) - set(workload.known_failures)
    return {
        "correct": not unexpected,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }


def run_child(name: str, args) -> dict:
    """Run one workload in a child process; echo its report, return its
    result."""
    child = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed",
         str(args.seed), "--seconds", str(args.seconds), "--trace",
         str(args.trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = child.stdout.rstrip("\n").splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is not at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import repro
    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
        results = [run_child(name, args) for name in names]
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in zip(names, results)
                for metric, value in result["metrics"].items()
            },
        }
    elif args.workload in WORKLOADS:
        workload = WORKLOADS[args.workload](args.seed)
        if args.trace:
            final = traced(
                workload, repro, scan_workers(), args.seconds, args.seed
            )
        else:
            final = end_to_end(workload, repro, scan_workers(), args.seconds)
    else:
        parser.error(f"unknown workload {args.workload!r}")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
