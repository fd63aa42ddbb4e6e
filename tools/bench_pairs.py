"""Alternating parent/change runs of the benchmark, and their summary.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent DIR --change DIR --pairs N --seed0 S \
        [--workload W ...] --out BENCH_x.json

DIR is a checkout of each side (for example a `git archive` of each commit).
For every workload (all of BENCHMARK.json's by default) and every pair i,
seed S + i, the benchmark command of BENCHMARK.json runs once in each
checkout for its run_seconds, one run at a time, with
PYTHONDONTWRITEBYTECODE=1; the parent runs first on even i and the change on
odd i.  The tool writes only --out.  If a run fails, --out holds raw as it
stands (the failing pair with the side that ran before it, if any) and an
error naming the failing "workload/seed", side and message, and the tool
exits 1; otherwise it holds:

  raw      "workload/seed" -> {"first": side, "parent": run, "change": run},
           a run being the benchmark's last output line with the end-to-end
           metrics of BENCHMARK.json only
  summary  workload -> seeds, pairs, all_correct, the failed and attempted
           counts seen, and per end-to-end metric each side's median, q1,
           q3 (statistics.quantiles(method="inclusive"), rounded to 4
           digits) and iqr, change_wins (pairs where the change is strictly
           better), ratio_median (change / parent), worse_by, the bound of
           BENCHMARK.json, within_bound and median_gap_exceeds_parent_iqr
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(benchmark: dict, checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in checkout; its result line, end-to-end metrics only."""
    command = [*benchmark["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    done = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(command)} exited {done.returncode}:\n"
                           f"{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    names = [m["name"] for m in benchmark["end_to_end"]]
    result["metrics"] = {name: result["metrics"][name] for name in names}
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4)}


def summarize(raw: dict, end_to_end: list[dict]) -> dict:
    """The per-workload summary of raw runs, keyed "workload/seed"."""
    by_workload: dict[str, dict[int, dict]] = {}
    for key, pair in raw.items():
        workload, seed = key.rsplit("/", 1)
        by_workload.setdefault(workload, {})[int(seed)] = pair
    summary = {}
    for workload, pairs in by_workload.items():
        runs = [pair[side] for pair in pairs.values() for side in SIDES]
        entry = {
            "seeds": sorted(pairs),
            "pairs": len(pairs),
            "all_correct": all(run["correct"] for run in runs),
            "failed": sorted({run["failed"] for run in runs}),
            "attempted": {
                side: sorted({pair[side]["attempted"] for pair in pairs.values()})
                for side in SIDES
            },
        }
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {
                side: [pair[side]["metrics"][name]["value"] for pair in pairs.values()]
                for side in SIDES
            }
            stats = {side: quartiles(values[side]) for side in SIDES}
            ratio = stats["change"]["median"] / stats["parent"]["median"]
            worse_by = round(ratio - 1 if lower else 1 - ratio, 4)
            entry[name] = {
                **stats,
                "change_wins": sum((c < p) if lower else (c > p)
                                   for p, c in zip(values["parent"], values["change"])),
                "ratio_median": round(ratio, 4),
                "worse_by": worse_by,
                "bound": metric["bound"],
                "within_bound": worse_by <= metric["bound"],
                "median_gap_exceeds_parent_iqr":
                    abs(stats["change"]["median"] - stats["parent"]["median"])
                    > stats["parent"]["iqr"],
            }
        summary[workload] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    benchmark = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in benchmark["workloads"]])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("quartiles need --pairs 2 or more")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    record = {
        "command": " ".join([*benchmark["command"], "--workload W --seed S",
                             f"--seconds {benchmark['run_seconds']} --trace 0"]),
        "context": {"python": platform.python_version(), "nproc": os.cpu_count()},
    }
    raw = {}
    for workload in workloads:
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = raw[f"{workload}/{seed}"] = {"first": order[0]}
            for side in order:
                try:
                    pair[side] = run_once(benchmark, checkouts[side], workload, seed)
                except (RuntimeError, ValueError, LookupError) as exc:
                    # a run that exits nonzero or prints no result line: keep
                    # every finished run, this pair with the side run before it
                    record.update(raw=raw, error={
                        "run": f"{workload}/{seed}", "side": side, "message": str(exc)})
                    args.out.write_text(json.dumps(record, indent=1) + "\n")
                    print(exc, file=sys.stderr)
                    return 1
                verdict = pair[side]["metrics"]["verdict_s"]["value"]
                print(f"{workload}/{seed} {side}: verdict_s {verdict:.4f}", file=sys.stderr)
    record.update(summary=summarize(raw, benchmark["end_to_end"]), raw=raw)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
