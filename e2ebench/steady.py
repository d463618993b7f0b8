"""Steadiness check: repeat every workload and report each end-to-end
metric's median and interquartile spread beside its bound.

Run from the repository root::

    python3 e2ebench/steady.py --seed 1 --runs 10
    python3 e2ebench/steady.py --seed 1 --runs 10 --save e2ebench/out/a.json
    python3 e2ebench/steady.py --seed 1 --runs 10 --compare e2ebench/out/a.json

The workloads and the run length are those of ``BENCHMARK.json``. Run
``i`` uses seed ``--seed + i``; the workload order alternates between
repetitions. Each run is its own ``run.py`` process, one at a
time. The spread is ``(q3 - q1) / median`` with the quartiles of
``statistics.quantiles(values, n=4)``; it should stay below a third of
the bound in ``BENCHMARK.json`` (``setup_s`` excepted, whose bound
limits only the shift of its median). ``--compare`` also prints how far
each median moved from an earlier saved set, in the metric's worse
direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in config["end_to_end"]}

    results: dict[str, list[dict]] = {w: [] for w in names}
    for i in range(args.runs):
        order = names if i % 2 == 0 else names[::-1]
        for workload in order:
            result = run_once(workload, args.seed + i, config["run_seconds"])
            results[workload].append(result)
            print(
                f"run {i + 1}/{args.runs} {workload} seed={args.seed + i} "
                f"correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}",
                flush=True,
            )
    earlier = json.loads(args.compare.read_text()) if args.compare else None

    steady = True
    for workload, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"\n{workload}: failed share per run {shares}, "
              f"all correct={all(r['correct'] for r in runs)}")
        print(f"  {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}" + ("  shift" if earlier else ""))
        for name, spec in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            line = (f"  {name:<26} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                    f"{share:8.2%} {spec['bound']:6.0%}")
            if name != "setup_s" and share > spec["bound"] / 3:
                line += "  SPREAD ABOVE A THIRD OF BOUND"
                steady = False
            if earlier:
                before = statistics.median(
                    r["metrics"][name]["value"] for r in earlier[workload]
                )
                worse = (median - before) / before
                if spec["better"] == "higher":
                    worse = -worse
                line += f"  {worse:+.2%}"
                if worse > spec["bound"]:
                    line += " WORSE THAN BOUND"
                    steady = False
            print(line)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(results))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
