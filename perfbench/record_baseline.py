#!/usr/bin/env python3
"""Record the benchmark's baseline for the code in ``src/``.

    python3 perfbench/record_baseline.py

Runs every workload of BENCHMARK.json once per seed 1-10 with tracing off
and once with tracing on (seed 1), each as its own process exactly as
``BENCHMARK.json``'s command is run, and writes per workload: the median,
quartiles and spread (interquartile range over median) of each end-to-end
metric across seeds, the error rate, the single-pass time range of one run,
and the per-layer figures with the exact work counts kept apart from the
timings, to ``perfbench/baseline.json``.
"""
from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# per-layer metrics in these units are timings; the rest are exact counts
TIMED_UNITS = {"s", "1/s"}
SEEDS = list(range(1, 11))
OUT = HERE / "baseline.json"


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    samples = next(json.loads(line[len("samples "):]) for line in lines
                   if line.startswith("samples "))
    return json.loads(lines[-1]), samples


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    import numpy

    out = {
        "source_sha256": source_digest(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cores, Python "
                   f"{platform.python_version()}, numpy {numpy.__version__}",
        "seeds": SEEDS,
        "run_seconds": bench["run_seconds"],
        "time_unit_note": "times are calibrated seconds, see README.md",
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        runs = []
        for seed in SEEDS:
            t0 = time.monotonic()
            result, samples = run_once(bench, name, seed, 0)
            runs.append((result, samples))
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"in {time.monotonic() - t0:.1f} s", file=sys.stderr)
        traced, traced_samples = run_once(bench, name, SEEDS[0], 1)
        metrics = {m["name"]: summary([r["metrics"][m["name"]]["value"] for r, _ in runs])
                   | {"unit": m["unit"], "bound": m["bound"]}
                   for m in bench["end_to_end"]}
        attempted = sum(r["attempted"] for r, _ in runs) + traced["attempted"]
        failed = sum(r["failed"] for r, _ in runs) + traced["failed"]
        layer = traced["metrics"]
        out["workloads"][name] = {
            "why": w["why"],
            "end_to_end": metrics,
            "error_rate": {"failed": failed, "attempted": attempted},
            "params": runs[0][1]["params"],
            "samples_per_run": {k: v for k, v in runs[0][1].items()
                                if k not in ("params", "pass_seconds")},
            "single_pass_seconds": runs[0][1]["pass_seconds"],
            "per_layer_timings": {k: v for k, v in layer.items() if v["unit"] in TIMED_UNITS},
            "per_layer_exact_counts": {k: v for k, v in layer.items()
                                       if v["unit"] not in TIMED_UNITS},
            "tracing": traced_samples,
        }
        for metric, s in metrics.items():
            print(f"  {name} {metric}: median {s['median']:.6g} spread {s['spread']:.4f}"
                  f" bound {s['bound']}", file=sys.stderr)
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
