#!/usr/bin/env python3
"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/baseline.py --seeds 10 --output perfbench/out/baseline.json

For every workload it makes one untraced run per seed (seeds 1..N) and
one traced run (seed 1), then writes, per metric, the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median,
together with the interpreter and library versions, the CPU count and the
cold-suite output fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0,
        "values": values,
    }


def versions() -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--output", type=Path, required=True)
    args = p.parse_args()

    record = {"seconds": args.seconds, "seeds": list(range(1, args.seeds + 1)), "environment": versions(), "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        correct = True
        for seed in record["seeds"]:
            last, stdout = run_once(workload, seed, args.seconds, 0)
            correct = correct and last["correct"]
            for name, metric in last["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            found = re.search(r"cold suite stdout sha256 ([0-9a-f]{64})", stdout)
            if found:
                record["cli_suite_sha256"] = found.group(1)
            print(f"{workload} seed {seed}: correct={last['correct']}", file=sys.stderr, flush=True)
        traced, _ = run_once(workload, 1, args.seconds, 1)
        record["workloads"][workload] = {
            "correct": correct and traced["correct"],
            "end_to_end": {name: summary(v) for name, v in values.items()},
            "per_layer_seed_1": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    for workload, data in record["workloads"].items():
        for name, s in data["end_to_end"].items():
            print(f"{workload:10s} {name:18s} median {s['median']:12.6g}  spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
