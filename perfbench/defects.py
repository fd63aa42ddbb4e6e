"""The workloads' known defects, run on their own.

    python3 perfbench/defects.py --workload unitary-bc2 --seed 0

Each (model, suite) pair in a workload's ``known_defects`` is left out of the
timed passes of ``run.py``, because rgdcheck's verdict on it is wrong today.
This script runs each such pair once, traced, prints every failed case and
raised suite by workload, model and suite, and checks that the RGD1 failures
are the ``peel_product`` cap hits.  It exits 0 once the pairs have run,
whatever their verdicts; ``baseline.py`` records what it prints.

The last line of standard output is one JSON object: per pair, its cases,
failed cases, cap hits and the error it raised, if any.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import identities  # noqa: E402
from tracer import RESIDUE, Tracer  # noqa: E402
from worker import build, call_suite, verify  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    models = dict(build(wl))
    calls, problems = [], []
    for label, tag in wl.known_defects:
        cfg = verify.SuiteConfig(wl.level_min, wl.level_max, wl.samples, args.seed, (tag,))
        rec = {"model": label, "suite": tag, "cases": 0, "failed": 0}
        with Tracer() as tracer:
            with tracer.region(f"verify.{tag}") as span:
                call_suite(models[label], cfg, rec)
        rec["cap_hits"] = tracer.suite_totals()[span].get(f"models.peel_product!{RESIDUE}", 0)
        if tag == "rgd1" and "error" not in rec and rec["cap_hits"] != rec["failed"]:
            problems.append(
                f"{label} rgd1: {rec['cap_hits']} cap hits for {rec['failed']} failures"
            )
        calls.append(rec)
    for line in identities(wl.name, {"calls": calls}):
        print(line)
    for line in problems:
        print(f"WRONG: {line}")
    print(json.dumps({"workload": wl.name, "seed": args.seed, "defects": calls,
                      "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
