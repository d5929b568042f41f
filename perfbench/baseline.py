#!/usr/bin/env python3
"""Measure the baseline: every workload on seeds 1..N untraced, and once traced.

    python3 perfbench/baseline.py --runs 10 --seconds 15 --out perfbench/baseline.json

Run from the repository root. Each run is a separate `run.py` process, run
one after another. For every workload and end-to-end metric the output holds
the median, the quartiles and their spread (q3 - q1) / median, as
`statistics.quantiles(values, n=4)` gives them; the traced run adds the
per-layer table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if not last["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {last['failed']} failed operations")
    out = HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(out.read_text())


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    doc = {"run_seconds": args.seconds, "seeds": list(range(1, args.runs + 1)),
           "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        results = [run(name, seed, args.seconds, 0) for seed in doc["seeds"]]
        traced = run(name, 1, args.seconds, 1)
        metrics = {k: {"unit": v["unit"],
                       **summary([r["metrics"][k]["value"] for r in results])}
                   for k, v in results[0]["metrics"].items()}
        extras = {k: {"unit": v["unit"], "median": statistics.median(
                      r["extras"][k]["value"] for r in results)}
                  for k, v in results[0]["extras"].items()}
        doc["workloads"][name] = {
            "why": w["why"],
            "end_to_end": metrics,
            "extras": extras,
            "per_layer": {k: v for k, v in traced["metrics"].items()},
            "machine_at_first_run": results[0]["machine"],
        }
        for k, m in metrics.items():
            print(f"{name:<10} {k:<16} median {m['median']:.6g} {m['unit']} "
                  f"spread {m['spread']:.3f}", flush=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
