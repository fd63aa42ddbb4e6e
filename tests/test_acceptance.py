"""Acceptance suite: one test per criterion, exact arithmetic, timed budgets.

Each test prints a single verdict line of the form

    criterion N <label>: PASS (elapsed, budget)

and fails if any check inside misses or the stated time budget is exceeded.
"""

import time
from dataclasses import replace
from fractions import Fraction as Q

from rgdcheck import (
    RootGroupCoords,
    SuiteConfig,
    affine_root,
    basis_generators,
    run_suites,
    special_unitary,
    split_sl,
)
from rgdcheck.cli import RunConfig, build_report, report_determinism_view
from rgdcheck.roots import vec
from rgdcheck.verify import _PROFILE_TESTS, in_range_affine_roots, rgd3_case

SL2 = split_sl(1)
SL3 = split_sl(2)
SU31 = special_unitary(3, 1)
SU52 = special_unitary(5, 2)


def run_one(tag, model, cfg):
    """The report of one suite, run through `run_suites`."""
    (report,) = run_suites(model, replace(cfg, suites=(tag,)))
    return report


def conclude(num, label, failures, elapsed, budget):
    ok = not failures and elapsed < budget
    verdict = "PASS" if ok else "FAIL"
    print(
        f"criterion {num} {label}: {verdict} "
        f"({elapsed:.2f}s elapsed, {budget:.0f}s budget)"
    )
    assert not failures, f"criterion {num}: {failures[:3]}"
    assert elapsed < budget, f"criterion {num}: {elapsed:.2f}s over {budget}s budget"


def test_criterion_1_affine_combinatorics():
    start = time.perf_counter()
    cfg = SuiteConfig(level_min=-3, level_max=3, samples=20, suites=("combinatorics",))
    failures = []
    for model in (SL2, SL3, SU31, SU52):
        r = run_one("combinatorics", model, cfg)
        if not r.passed:
            failures.extend(r.failures)
    conclude(1, "affine combinatorics A1 A2 BC1 BC2", failures, time.perf_counter() - start, 10.0)


def test_criterion_2_coroot_shift_law():
    start = time.perf_counter()
    cfg = SuiteConfig(level_min=-2, level_max=2, samples=8)
    failures = []
    for model in (SL2, SL3, SU31):
        r = run_one("coroot-shift", model, cfg)
        if not r.passed:
            failures.extend(r.failures)
    conclude(2, "coroot shift law", failures, time.perf_counter() - start, 30.0)


def test_criterion_3_rgd1_commutators():
    start = time.perf_counter()
    cfg = SuiteConfig(level_min=-2, level_max=2, samples=8)
    failures = []
    for model in (SL3, SU31):
        r = run_one("rgd1", model, cfg)
        if not r.passed:
            failures.extend(r.failures)
    conclude(3, "RGD1 commutator containment", failures, time.perf_counter() - start, 120.0)


def test_criterion_4_rgd2_weyl_conjugation():
    start = time.perf_counter()
    cfg = SuiteConfig(level_min=-2, level_max=2, samples=8)
    failures = []
    for model in (SL2, SU31):
        r = run_one("rgd2", model, cfg)
        if not r.passed:
            failures.extend(r.failures)
    conclude(4, "RGD2 Weyl representatives", failures, time.perf_counter() - start, 60.0)


def test_criterion_5_rgd3_triangular_profiles():
    start = time.perf_counter()
    cfg = SuiteConfig(level_min=-2, level_max=2, samples=8)
    failures = []
    for model in (SL2, SL3, SU31, SU52):
        r = run_one("rgd3", model, cfg)
        if not r.passed:
            failures.extend(r.failures)
    # classification is exclusive: each generator fits its own profile and
    # none of the other three
    for model in (SL2, SU31):
        for alpha in in_range_affine_roots(model, cfg):
            case = rgd3_case(model, alpha)
            for coords in basis_generators(model, alpha):
                g = model.relative_pinning(coords)
                for name, test in _PROFILE_TESTS.items():
                    if test(g) != (name == case):
                        failures.append(
                            {"inputs": f"alpha={alpha}", "expected": case, "actual": name}
                        )
    conclude(5, "RGD3 triangularity", failures, time.perf_counter() - start, 10.0)


def test_criterion_6_rgd5_centralizer_normalizes():
    start = time.perf_counter()
    cfg = SuiteConfig(level_min=-2, level_max=2, samples=8)
    failures = []
    for model in (SL2, SL3, SU31, SU52):
        r = run_one("rgd5", model, cfg)
        if not r.passed:
            failures.extend(r.failures)
    conclude(6, "RGD5 centralizer normalization", failures, time.perf_counter() - start, 30.0)


def test_criterion_7_unitary_pinning_coherence():
    start = time.perf_counter()
    failures = []
    samples = [
        (Q(1), Q(0)),
        (Q(0), Q(1)),
        (Q(-1), Q(2)),
        (Q(1, 2), Q(-3, 2)),
    ]
    corners = (Q(0), Q(1), Q(-1, 2))
    for a in SU31.system.roots:
        nc, nd = SU31.coord_lengths(a)
        for level in range(-2, 3):
            alpha = affine_root(a, level)
            for c2 in samples:
                c = c2[:nc]
                for d in [(x,)[:nd] for x in corners]:
                    g = SU31.relative_pinning(RootGroupCoords(alpha, c, d))
                    if not SU31.contains(g):
                        failures.append({"inputs": f"{alpha} {c} {d}", "expected": "member", "actual": "outside"})
    # the doubled root group commutes with the whole single root group
    for sign in (1, -1):
        a = vec(sign)
        for level in range(-2, 3):
            for mlevel in range(-2, 3):
                u = SU31.relative_pinning(
                    RootGroupCoords(affine_root(a, level), (Q(1), Q(-2)), (Q(1),))
                )
                z = SU31.relative_pinning(
                    RootGroupCoords(affine_root(vec(2 * sign), mlevel), (Q(3),), ())
                )
                if u @ z != z @ u:
                    failures.append(
                        {"inputs": f"a={a} l={level} m={mlevel}", "expected": "commute", "actual": "differ"}
                    )
    r = run_one("q2-additive", SU31, SuiteConfig(level_min=-2, level_max=2, samples=16))
    if not r.passed:
        failures.extend(r.failures)
    conclude(7, "SU(3,1) pinning coherence", failures, time.perf_counter() - start, 30.0)


def test_criterion_8_projection_table():
    start = time.perf_counter()
    failures = []
    witt, dim = 2, 5

    def mirrored(x):
        return dim - 1 - x

    def expected_projection(i, j):
        # five cases by where the two indices sit relative to the blocks
        w = [Q(0)] * witt
        for idx, sgn in ((i, 1), (j, -1)):
            if idx < witt:
                w[idx] += sgn
            elif idx >= dim - witt:
                w[mirrored(idx)] -= sgn
        return tuple(w)

    count = 0
    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            count += 1
            absolute = [Q(0)] * dim
            absolute[i], absolute[j] = Q(1), Q(-1)
            got = SU52.project_root(tuple(absolute))
            want = expected_projection(i, j)
            want_or_none = None if all(x == 0 for x in want) else want
            if got != want_or_none:
                failures.append({"inputs": f"e{i}-e{j}", "expected": str(want_or_none), "actual": str(got)})
                continue
            if i < j and got is not None and not SU52.system.is_positive_root(got):
                failures.append({"inputs": f"e{i}-e{j}", "expected": "positive image", "actual": str(got)})
    if count != 20:
        failures.append({"inputs": "root count", "expected": "20", "actual": str(count)})
    conclude(8, "SU(5,2) projection table", failures, time.perf_counter() - start, 1.0)


def test_criterion_9_report_determinism():
    cfg = RunConfig(
        group="su",
        dim=3,
        witt=1,
        suite=SuiteConfig(
            level_min=-1, level_max=1, samples=2, suites=("rgd0", "rgd3", "q2-additive")
        ),
    )
    from rgdcheck.models import build_model

    model = build_model("su", dim=3, witt=1)
    first = build_report(model, cfg)
    start = time.perf_counter()
    second = build_report(model, cfg)
    failures = []
    if report_determinism_view(first) != report_determinism_view(second):
        failures.append({"inputs": "identical config", "expected": "identical views", "actual": "differ"})
    conclude(9, "report determinism", failures, time.perf_counter() - start, 1.0)
