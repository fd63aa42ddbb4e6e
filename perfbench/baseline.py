"""Measure a baseline: repeated runs of every workload, then a summary file.

    python3 perfbench/baseline.py

For each workload of ``BENCHMARK.json`` it makes one untraced run per seed
(seeds 0..9) and one traced run on seed 0, all with ``run_seconds``.  For
each end-to-end metric it reports the median and the spread, the distance
between the first and third quartile as a share of the median, against the
metric's bound.  It writes the run context (Python version, core count, CPU
model, seeds), every metric's median and spread, each run's per-pass speed
factors, the per-layer metrics and the tracing overhead to
``perfbench/baseline.json``.  The failure and error lines the runs print are
kept, and so is the output of ``defects.py`` on seed 0 for every workload
with known defects, so known defects are recorded by name and count.
"""

from __future__ import annotations

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
SEEDS = list(range(10))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str], list[float], float]:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    notes = [l for l in lines if l.startswith(("FAILED", "RAISED", "WRONG", "    "))]
    factors = [json.loads(l.split(None, 1)[1]) for l in lines if l.split()[:1] == ["speed_factors"]]
    return json.loads(lines[-1]), notes, factors[0] if factors else [], wall


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {
        "context": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "run_seconds": seconds,
            "seeds": SEEDS,
            "traced_seed": SEEDS[0],
        },
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        results, walls, notes, factors = [], [], [], []
        for seed in SEEDS:
            res, note, factor, wall = run_once(workload, seed, seconds, 0)
            results.append(res)
            walls.append(wall)
            factors.append(factor)
            notes = notes or note
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {vals} ({wall:.0f} s)",
                  flush=True)
        entry = {
            "correct": [r["correct"] for r in results],
            "failed_per_run": [r["failed"] for r in results],
            "attempted_per_run": [r["attempted"] for r in results],
            "run_wall_s_max": max(walls),
            "speed_factors_per_run": factors,
            "notes": notes,
            "end_to_end": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            entry["end_to_end"][name] = {
                "median": statistics.median(values),
                "spread": s,
                "bound": bound,
                "values": values,
            }
            flag = "ok" if s < bound / 3 else ("WIDE" if s < bound else "OVER BOUND")
            print(f"  {name:<14} median {statistics.median(values):.5g} "
                  f"spread {s:.4f} bound {bound} {flag}", flush=True)
        res, _, _, wall = run_once(workload, SEEDS[0], seconds, 1)
        entry["traced_correct"] = res["correct"]
        entry["trace_wall_s"] = wall
        entry["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
        entry["trace_overhead_s"] = entry["per_layer"]["trace.overhead_s"]
        print(f"  traced: correct={res['correct']} overhead "
              f"{res['metrics']['trace.overhead_s']['value']:.3f} s ({wall:.0f} s)",
              flush=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "defects.py"), "--workload", workload,
             "--seed", str(SEEDS[0])],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        defects = json.loads(proc.stdout.strip().splitlines()[-1])
        if defects["defects"]:
            entry["known_defects"] = defects
            print(proc.stdout.strip(), flush=True)
        summary["workloads"][workload] = entry
    (HERE / "baseline.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
