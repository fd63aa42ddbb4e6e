"""rgdcheck benchmark: end-to-end verdict metrics and a traced layer breakdown.

Usage, from the repository root:

    python3 perfbench/run.py --workload split-a2 --seed 0 --seconds 18 --trace 0

Workloads are defined in ``workloads.py``.  Load is closed-loop: one process
at a time, one thread, one verification at a time, all on one core.

``--trace 0`` starts set-up-only interpreters, then two workload
interpreters, each running whole verification passes (every model and suite
of the workload) for half of ``--seconds``.  It reports:

  setup_s       interpreter start through ``import rgdcheck`` and
                ``build_model`` for every model, median over the set-up runs
  verdict_s     first suite call to the rendered JSON report, median pass
  cases_per_s   cases checked per pass / verdict_s
  peak_rss_mib  peak resident memory of the workload processes

Times are rescaled to a reference machine, because the speed of a shared
machine drifts by up to 2x within a minute.  Pass times are rescaled by the
speed probe in ``speed.py``.  Each set-up time is divided by the time of a
bare interpreter start taken just before it (``setup_probe.py --bare``),
and the median ratio is multiplied by ``REF_BARE_START_S``.  The wall times
as read (``setup_wall_s``, ``bare_start_wall_s``, ``verdict_wall_s``,
``cases_per_wall_s``), each pass's speed factor and the shares of failed
cases and raised suites are printed on the lines above the result.

``--trace 1`` runs the tracer self-test, then alternates untraced and traced
passes in one interpreter and reports the per-layer metrics listed in
``BENCHMARK.json``: counts from the traced passes (which must agree), times
as medians (rescaled like ``verdict_s``; suite times come from the untraced
passes), and ``trace.overhead_s``, the traced minus the untraced
``verdict_s``.  The spans of the first traced pass are written to
``perfbench/out/``.

Correctness: every suite of every model must pass, every pass must give the
same ``report_determinism_view`` (traced or not, in either process), and in
traced runs the tracer's counts must match the counts the code fixes.  A
failed case or a suite that raised is a wrong output: it is counted in
``failed`` and printed by workload, model and suite.  ``attempted`` and
``failed`` are the counts of one pass (cases plus suite calls that raised),
since every pass gives the same report.  A workload's ``known_defects``,
the (model, suite) pairs on which rgdcheck's verdict is wrong today, are
left out of the passes and named on a line above the result; ``defects.py``
runs them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import TIME_SUFFIXES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 11
# a bare interpreter start (setup_probe.py --bare) on an uncontended 2-vCPU
# Intel Xeon with Python 3.11.7
REF_BARE_START_S = 0.07
MIN_PASSES = 3  # passes per untraced run, even when they overrun --seconds
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def spawn(script: str, argv: list[str], deadline: float) -> tuple[float, object]:
    """Run one child interpreter to completion; returns (the time.monotonic()
    reading taken just before it started, its last line of output as JSON)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *argv], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} passed the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{script} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def work(args, mode: str, deadline: float, until: float, *extra: str) -> dict:
    _, out = spawn(
        "worker.py",
        ["--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
         "--until", repr(until), *extra],
        deadline,
    )
    return out


def pass_totals(p: dict) -> dict:
    calls = p["calls"]
    return {
        "cases": sum(c["cases"] for c in calls),
        "failed": sum(c["failed"] for c in calls),
        "raised": sum(1 for c in calls if "error" in c),
        "suites": len(calls),
    }


def identities(workload: str, p: dict) -> list[str]:
    """One line per failed or raised suite call of a pass."""
    lines = []
    for c in p["calls"]:
        where = f"{workload} {c['model']} {c['suite']}"
        if "error" in c:
            lines.append(f"RAISED {where}: {c['error']}")
            lines.extend(f"    at {frame.strip()}" for frame in c["where"])
        elif c["failed"]:
            lines.append(f"FAILED {where}: {c['failed']} of {c['cases']} cases")
            lines.extend(f"    inputs: {s}" for s in c["inputs"])
    return lines


def check_passes(passes: list[dict], problems: list[str]) -> tuple[int, int]:
    """Verdict and determinism checks; returns (attempted, failed) of one
    pass.  Every pass must give the same report, so one pass stands for all
    of them, and the counts do not depend on how many passes fit the run."""
    if any(p["digest"] != passes[0]["digest"] for p in passes):
        problems.append("two passes with one seed gave different reports")
    first = pass_totals(passes[0])
    if first["failed"] or first["raised"]:
        problems.append(
            f"verdict is not 'every suite passes': {first['failed']} failed cases, "
            f"{first['raised']} suites raised"
        )
    return first["cases"] + first["raised"], first["failed"] + first["raised"]


def untraced_run(args, deadline: float) -> tuple[dict, list[dict], list[tuple]]:
    # Each set-up is compared with a bare start of the interpreter taken
    # just before it.  Start-up follows the state of the machine more
    # closely than the probe in speed.py does: over six rounds of 11
    # set-ups on a 2-vCPU Xeon, the ratio to a bare start spread 0.03-0.04
    # (IQR / median) and the wall time times the probe's factor 0.07-0.15.
    setups = []  # (set-up wall time, bare start wall time)
    for _ in range(SETUP_PROBES):
        spawned, ready = spawn("setup_probe.py", ["--bare"], deadline)
        bare = ready - spawned
        spawned, ready = spawn("setup_probe.py", [args.workload], deadline)
        setups.append((ready - spawned, bare))
    start = time.monotonic()
    workers = []
    for share in (0.5, 1.0):
        done = sum(len(w["passes"]) for w in workers)
        # the second process makes up the passes the first one left short
        min_passes = 1 if not workers else max(1, MIN_PASSES - done)
        workers.append(
            work(args, "run", deadline, start + share * args.seconds,
                 "--min-passes", str(min_passes))
        )
    passes = [p for w in workers for p in w["passes"]]
    verdict = statistics.median(p["verdict_s"] for p in passes)
    t = pass_totals(passes[0])
    metrics = {
        "setup_s": REF_BARE_START_S * statistics.median(s / b for s, b in setups),
        "verdict_s": verdict,
        "cases_per_s": t["cases"] / verdict,
        "peak_rss_mib": max(w["peak_rss_kib"] for w in workers) / 1024.0,
    }
    return metrics, passes, setups


def traced_run(args, deadline: float, problems: list[str]) -> tuple[dict, list[dict]]:
    out = work(args, "trace", deadline, time.monotonic() + args.seconds)
    problems.extend(f"self-test: {s}" for s in out["selftest"])
    untraced, traced = out["passes"], out["traced"]
    for rec in traced:
        problems.extend(f"trace invariant: {s}" for s in rec["problems"])
        if rec["digest"] != untraced[0]["digest"]:
            problems.append("tracing changed the report")
    layers = dict(traced[0]["layers"])
    for key in layers:
        if key.endswith(TIME_SUFFIXES):
            layers[key] = statistics.median(r["layers"][key] for r in traced)
        elif any(r["layers"][key] != layers[key] for r in traced):
            problems.append(f"traced passes disagree on {key}")
    tags = [k.split(".")[1] for k in metric_units()[1] if k.endswith(".cases")]
    for tag in tags:
        layers[f"verify.{tag}.s"] = statistics.median(
            sum(c["s"] for c in p["calls"] if c["suite"] == tag) for p in untraced
        )
        layers[f"verify.{tag}.cases"] = sum(
            c["cases"] for c in untraced[0]["calls"] if c["suite"] == tag
        )
    t = pass_totals(untraced[0])
    layers["verify.case_fail_share"] = t["failed"] / t["cases"] if t["cases"] else 0.0
    layers["verify.suite_error_share"] = t["raised"] / t["suites"]
    layers["cli.report_bytes"] = untraced[0]["report_bytes"]
    layers["trace.overhead_s"] = statistics.median(
        r["verdict_s"] for r in traced
    ) - statistics.median(p["verdict_s"] for p in untraced)
    return layers, untraced + traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rgdcheck benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run raises SystemExit, so subprocess.run kills its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # Keep this process and its children on one core, so that the speed the
    # probe measures is the speed of the core the measured work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "rgdcheck" / "__init__.py").is_file():
        print(f"rgdcheck sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    end_to_end, per_layer = metric_units()
    problems: list[str] = []
    try:
        if args.trace:
            values, passes = traced_run(args, deadline, problems)
            units = per_layer
        else:
            values, passes, setups = untraced_run(args, deadline)
            units = end_to_end
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    attempted, failed = check_passes(passes, problems)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"benchmark error: no value for {missing}", file=sys.stderr)
        return 1

    t = pass_totals(passes[0])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes of {t['cases']} cases in {t['suites']} suite calls")
    if not args.trace:
        # wall times as the clock read them, before rescaling
        walls = [s for s, _ in setups]
        print(f"  {'setup_wall_s':<28} {statistics.median(walls):.6g} s "
              f"(samples {', '.join(f'{w:.4f}' for w in walls)})")
        print(f"  {'bare_start_wall_s':<28} {statistics.median(b for _, b in setups):.6g} s")
        walls = [p["wall_s"] for p in passes]
        print(f"  {'verdict_wall_s':<28} {statistics.median(walls):.6g} s "
              f"(passes {', '.join(f'{w:.3f}' for w in walls)})")
        print(f"  {'cases_per_wall_s':<28} {t['cases'] / statistics.median(walls):.6g} 1/s")
        print(f"  {'speed_factors':<28} {json.dumps([round(p['factor'], 4) for p in passes])}")
        # shares are 0 on a correct workload, so they are printed, not gated
        print(f"  {'case_fail_share':<28} {t['failed'] / t['cases'] if t['cases'] else 0.0:.6f} ratio")
        print(f"  {'suite_error_share':<28} {t['raised'] / t['suites']:.6f} ratio")
    for name, unit in units.items():
        print(f"  {name:<28} {values[name]:.6g} {unit}")
    wl = WORKLOADS[args.workload]
    if wl.known_defects:
        print("known defects, left out of the passes (run perfbench/defects.py): "
              + ", ".join(f"{label} {tag}" for label, tag in wl.known_defects))
    for line in identities(args.workload, passes[0]):
        print(line)
    for line in dict.fromkeys(problems):
        print(f"WRONG: {line}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
