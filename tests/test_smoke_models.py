"""Smoke test: every suite on every reference model, on the smallest window.

Levels [0, 0] with one sample keep each run short while still reaching the
code paths of every model: anisotropic middle blocks of one and two slots,
the non-reduced BC2 intervals and 4x4 to 6x6 matrices.  The coroot-shift
suite conjugates by coroot values at nonzero levels only, so it gets [-1, 0].
On A1 a single level holds no prenilpotent pair, so SL2's RGD1 has no case.
"""

import pytest

from rgdcheck import ALL_SUITES, SuiteConfig, run_suites, special_unitary, split_sl

MODELS = {
    "SL2": lambda: split_sl(1),
    "SL3": lambda: split_sl(2),
    "SL4": lambda: split_sl(3),
    "SU(3,1)": lambda: special_unitary(3, 1),
    "SU(4,1)": lambda: special_unitary(4, 1),
    "SU(5,2)": lambda: special_unitary(5, 2),
    "SU(6,2)": lambda: special_unitary(6, 2),
}

# On BC_n with n >= 2, open_interval returns a multipliable (a, l) together
# with its double (2a, 2l), whose coordinate the pinning of (a, l) already
# carries; peel_product then counts that corner twice and hits its cap.
BC2_INTERVAL_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="BC_n doubled-root interval defect: peel_product counts U_2a twice",
)
KNOWN_DEFECTS = {("SU(5,2)", "rgd1"), ("SU(6,2)", "rgd1")}

CASES = [
    pytest.param(
        name,
        suite,
        id=f"{name}-{suite}",
        marks=[BC2_INTERVAL_DEFECT] if (name, suite) in KNOWN_DEFECTS else [],
    )
    for name in MODELS
    for suite in ALL_SUITES
]


@pytest.mark.parametrize("name,suite", CASES)
def test_suite_passes_on_the_smallest_window(name, suite):
    level_min = -1 if suite == "coroot-shift" else 0
    cfg = SuiteConfig(level_min=level_min, level_max=0, samples=1, suites=(suite,))
    (report,) = run_suites(MODELS[name](), cfg)
    assert report.passed, report.failures[:2]
