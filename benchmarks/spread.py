#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py                          # every workload
    python3 benchmarks/spread.py --workload tune_b16 --seeds 1-10

Runs ``benchmarks/run.py`` once per workload and seed, one after
another, and prints for every metric the median, the quartile spread
(distance between the first and third quartile as a share of the median)
and, for end-to-end metrics, the bound from ``BENCHMARK.json``. Exits
non-zero if a run fails or reports incorrect results. The per-seed
values are saved to ``benchmarks/out/spread-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from statistics import median

from stats import quartile_spread

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def sweep(workload: str, seeds: list[int], seconds: int, trace: int,
          bounds: dict) -> bool:
    """Run one workload once per seed, print the summary, save the values."""
    values: dict[str, list[float]] = {}
    runs = []
    print(f"== {workload} (--trace {trace})", flush=True)
    for seed in seeds:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        started = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        elapsed = time.perf_counter() - started
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return False
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "elapsed_s": elapsed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} in {elapsed:.1f} s", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':44s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    summary = {}
    for name, vals in values.items():
        med = median(vals)
        spread = quartile_spread(vals) if med and len(vals) >= 2 else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread <= bound / 3 else
                                         "WIDE" if spread <= bound else "OVER")
        print(f"{name:44s} {med:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6} {flag}")
        summary[name] = {"median": med, "spread": spread, "values": vals}
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{workload}-trace{trace}.json").write_text(
        json.dumps({"workload": workload, "seconds": seconds, "runs": runs,
                    "summary": summary}, indent=1) + "\n")
    return all(r["correct"] for r in runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="a workload of BENCHMARK.json, or all of them (default)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else [args.workload])
    ok = [sweep(name, parse_seeds(args.seeds), seconds, args.trace, bounds)
          for name in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
