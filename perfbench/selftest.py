"""Self-test of the tracer against call counts that the code fixes.

On SL2 at levels [-1, 1] with two samples:

* RGD0 builds one pinning per case, and each pinning runs one membership
  test, which for SL is one determinant.
* RGD1 asks ``is_prenilpotent`` once per pair of in-range affine roots and
  once more inside each ``open_interval`` call, and calls ``open_interval``
  once per prenilpotent pair.  A1 has no doubled roots, so every interval
  is empty and every commutator is the identity: each case makes four
  pinnings, three products and one single-pass ``peel_product``.

The counts are derived here from the root system alone, without rgdcheck's
affine helpers.  The test also checks that a wrapper reaches a name that
``verify`` imported from ``affine``, that every wrapper is removed on exit,
and that tracing leaves the report unchanged.

Run it with ``python3 perfbench/selftest.py`` from the repository root.
"""

from __future__ import annotations

import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from rgdcheck import affine, verify  # noqa: E402
from rgdcheck.models import build_model  # noqa: E402

from tracer import COUNTERS, Tracer, bindings  # noqa: E402

LEVELS = (-1, 1)
SAMPLES = 2


def _run(model, tracer=None):
    """Run every suite once; per suite: (report, span counts, counter deltas)."""
    out = {}
    for tag in verify.ALL_SUITES:
        cfg = verify.SuiteConfig(LEVELS[0], LEVELS[1], SAMPLES, 0, (tag,))
        if tracer is None:
            out[tag] = (verify.run_suites(model, cfg)[0].to_dict(), None, None)
            continue
        before = {name: tracer.count(name) for name in COUNTERS}
        with tracer.region(f"verify.{tag}") as span:
            rep = verify.run_suites(model, cfg)[0].to_dict()
        counted = {name: tracer.count(name) - before[name] for name in COUNTERS}
        out[tag] = (rep, span, counted)
    return out


def selftest_problems() -> list[str]:
    model = build_model("sl", rank=1)
    problems: list[str] = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"SL2 {what}: traced {got}, expected {want}")

    roots = [(a, l) for a in model.system.roots for l in range(LEVELS[0], LEVELS[1] + 1)]
    pairs = len(roots) * (len(roots) - 1) // 2
    # gradients of A1 are +-a: a pair is prenilpotent unless they are opposite
    prenilpotent = sum(
        1 for (a, _), (b, _) in combinations(roots, 2) if tuple(-x for x in a) != b
    )

    untraced = _run(model)
    before = bindings()
    original = verify.open_interval
    tracer = Tracer()
    with tracer:
        if verify.open_interval is original:
            problems.append("verify.open_interval is not wrapped")
        traced = _run(model, tracer)
    if bindings() != before:
        problems.append("a wrapper was not removed on exit")
    if verify.open_interval is not affine.open_interval:
        problems.append("verify.open_interval differs from affine.open_interval")
    totals = tracer.suite_totals()

    for tag in verify.ALL_SUITES:
        expect(f"{tag} report", traced[tag][0] | {"elapsed_ms": 0}, untraced[tag][0] | {"elapsed_ms": 0})

    rep, span, _ = traced["rgd0"]
    got = totals[span]
    expect("rgd0 cases", rep["cases"], len(roots))
    for name in ("models.relative_pinning", "models.contains", "laurent.det"):
        expect(f"rgd0 {name}", got.get(name, 0), rep["cases"])

    rep, span, counted = traced["rgd1"]
    got = totals[span]
    cases = prenilpotent * SAMPLES
    expect("rgd1 cases", rep["cases"], cases)
    expect("rgd1 affine.open_interval", got.get("affine.open_interval", 0), prenilpotent)
    expect("rgd1 affine.is_prenilpotent", counted["affine.is_prenilpotent"], pairs + prenilpotent)
    expect("rgd1 models.relative_pinning", got.get("models.relative_pinning", 0), 4 * cases)
    expect("rgd1 laurent.det", got.get("laurent.det", 0), 4 * cases)
    expect("rgd1 laurent.matmul", got.get("laurent.matmul", 0), 3 * cases)
    expect("rgd1 models.peel_product", got.get("models.peel_product", 0), cases)
    expect("rgd1 laurent.inverse", got.get("laurent.inverse", 0), 0)
    expect(
        "rgd1 cap hits",
        got.get("models.peel_product!ResidueNotIdentity", 0),
        len(rep["failures"]),
    )
    layers = tracer.metrics()
    expect("peel_product passes", layers["models.peel_product.passes"], cases)
    expect("peel_product useful_share", layers["models.peel_product.useful_share"], 1.0)
    if layers["scalars.mul.calls"] <= 0 or layers["roots.dot.calls"] <= 0:
        problems.append("SL2: scalar or root counters stayed at zero")
    return problems


if __name__ == "__main__":
    found = selftest_problems()
    for line in found:
        print(line)
    print("tracer self-test:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
