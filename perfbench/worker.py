"""One workload process: set up, then run verification passes.

Started by ``run.py`` in a fresh interpreter with ``src`` on ``sys.path``.
It drives rgdcheck through its public API the way the ``rgdcheck`` command
does, minus argument parsing: ``build_model``, then ``verify.run_suites``
once per suite, then ``cli.render_json``.  Calling one suite at a time means
a suite that raises is recorded and the remaining suites still run.

Modes:
  run     untraced passes until --until (a time.monotonic() value) and at
          least --min-passes passes
  trace   the tracer self-test, then alternating untraced and traced passes
          until --until, at least one of each; the spans of the first traced
          pass are written to perfbench/out/spans-<workload>-seed<seed>.tsv.gz

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from rgdcheck import cli, verify  # noqa: E402
from rgdcheck.models import build_model  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from workloads import ALL, WORKLOADS  # noqa: E402


def build(wl):
    return [(spec.label, build_model(spec.kind, **dict(spec.params))) for spec in wl.models]


def suite_tags(wl) -> tuple[str, ...]:
    return verify.ALL_SUITES if wl.suites == ALL else tuple(wl.suites)


def call_suite(model, cfg, rec: dict) -> dict:
    """Run the one suite of ``cfg``; fills in ``rec`` (cases, failed and
    the first failures' inputs, or the error and where it was raised) and
    returns the suite's entry for the report."""
    try:
        (rep,) = verify.run_suites(model, cfg)
    except Exception as exc:  # an internal error: count it, keep going
        rec["error"] = f"{type(exc).__name__}: {exc}"[:300]
        frames = traceback.format_exc(limit=-2).strip().splitlines()[-3:]
        # paths relative to the checkout, as in the repository
        rec["where"] = [f.replace(f"{HERE.parent}/", "") for f in frames]
        return {"suite": cfg.suites[0], "error": rec["error"]}
    rec["cases"] = rep.cases
    rec["failed"] = len(rep.failures)
    rec["inputs"] = [f["inputs"] for f in rep.failures[:3]]
    return rep.to_dict()


def run_pass(wl, models, seed: int, probe: SpeedProbe, tracer=None) -> dict:
    """Verify every model of the workload once, on every suite but its
    known defects; returns the pass record.

    Times exclude the speed probe's ticks and are rescaled by the pass's
    speed factor; ``wall_s`` is the verdict time as the clock read it."""
    tags = suite_tags(wl)
    pass_mark = probe.mark()
    calls = []  # one record per suite call
    reports = []
    report_bytes = 0
    start = time.perf_counter()
    for label, model in models:
        suites = []
        run = [tag for tag in tags if (label, tag) not in wl.known_defects]
        for tag in run:
            cfg = verify.SuiteConfig(wl.level_min, wl.level_max, wl.samples, seed, (tag,))
            rec = {"model": label, "suite": tag, "cases": 0, "failed": 0}
            region = tracer.region(f"verify.{tag}") if tracer else nullcontext()
            mark = probe.mark()
            t0 = time.perf_counter()
            with region as span:
                suites.append(call_suite(model, cfg, rec))
            rec["s"] = time.perf_counter() - t0 - probe.spent(mark)
            rec["span"] = span
            calls.append(rec)
        report = {
            "model": model.descriptor(),
            "config": {
                "workload": wl.name,
                "level_min": wl.level_min,
                "level_max": wl.level_max,
                "samples": wl.samples,
                "seed": seed,
                "suites": run,
            },
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "suites": suites,
            "summary": {"pass": all(s.get("pass", False) for s in suites)},
        }
        text = cli.render_json(report)
        report_bytes += len(text.encode())
        reports.append(report)
    wall_s = time.perf_counter() - start - probe.spent(pass_mark)
    factor = probe.factor(pass_mark)
    for rec in calls:
        rec["s"] *= factor
    digest = hashlib.sha256()
    for report in reports:
        view = cli.report_determinism_view(report)
        digest.update(json.dumps(view, sort_keys=True).encode())
    return {
        "verdict_s": wall_s * factor,
        "wall_s": wall_s,
        "factor": factor,
        "report_bytes": report_bytes,
        "digest": digest.hexdigest(),
        "calls": calls,
    }


def invariant_problems(wl, tracer, record) -> list[str]:
    """Counts that the code's structure fixes, checked against the trace."""
    totals = tracer.suite_totals()
    problems = []
    for rec in record["calls"]:
        if "error" in rec:
            continue
        got = totals.get(rec["span"], {})
        where = f"{rec['model']} {rec['suite']}"
        if rec["suite"] == "rgd0":
            pins = got.get("models.relative_pinning", 0)
            if pins != rec["cases"]:
                problems.append(f"{where}: {pins} pinnings for {rec['cases']} cases")
        if rec["suite"] == "rgd1":
            intervals = got.get("affine.open_interval", 0)
            if intervals * wl.samples != rec["cases"]:
                problems.append(
                    f"{where}: {intervals} intervals x {wl.samples} samples "
                    f"!= {rec['cases']} cases"
                )
            peels = got.get("models.peel_product", 0)
            if peels != rec["cases"]:
                problems.append(f"{where}: {peels} peel_product calls for {rec['cases']} cases")
            caps = got.get("models.peel_product!ResidueNotIdentity", 0)
            if caps != rec["failed"]:
                problems.append(f"{where}: {caps} cap hits for {rec['failed']} failures")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("run", "trace"))
    ap.add_argument("--until", type=float, required=True)
    ap.add_argument("--min-passes", type=int, default=1)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    models = build(wl)
    out = {}
    if args.mode == "run":
        passes = []
        with SpeedProbe() as probe:
            while len(passes) < args.min_passes or time.monotonic() < args.until:
                passes.append(run_pass(wl, models, args.seed, probe))
        out["passes"] = passes
    else:
        from selftest import selftest_problems
        from tracer import TIME_SUFFIXES, Tracer, bindings

        out["selftest"] = selftest_problems()
        untraced, traced = [], []
        original = bindings()
        with SpeedProbe() as probe:
            while not traced or time.monotonic() < args.until:
                untraced.append(run_pass(wl, models, args.seed, probe))
                with Tracer() as tracer:
                    rec = run_pass(wl, models, args.seed, probe, tracer)
                traced.append((rec, tracer))
                if bindings() != original:
                    out["selftest"].append("a wrapper outlived its traced pass")
        for rec, tracer in traced:
            rec["layers"] = {
                k: v * rec["factor"] if k.endswith(TIME_SUFFIXES) else v
                for k, v in tracer.metrics().items()
            }
            rec["problems"] = invariant_problems(wl, tracer, rec)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        traced[0][1].write_spans(out_dir / f"spans-{wl.name}-seed{args.seed}.tsv.gz")
        out["passes"] = untraced
        out["traced"] = [rec for rec, _ in traced]
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
