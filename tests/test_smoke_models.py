"""Smoke test: every suite on every reference model, on the smallest window.

Levels [0, 0] with one sample keep each run short while still reaching the
code paths of every model: anisotropic middle blocks of one and two slots,
the non-reduced BC2 and BC3 intervals and 4x4 to 7x7 matrices.  The
coroot-shift suite conjugates by coroot values at nonzero levels only, so it
gets [-1, 1]: l = -1 and l = 1 shift levels down and up, to the half-integer
levels of the images above the window as well as below it.
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
    "SU(7,3)": lambda: special_unitary(7, 3),
}

CASES = [
    pytest.param(name, suite, id=f"{name}-{suite}")
    for name in MODELS
    for suite in ALL_SUITES
]


@pytest.mark.parametrize("name,suite", CASES)
def test_suite_passes_on_the_smallest_window(name, suite):
    window = 1 if suite == "coroot-shift" else 0
    cfg = SuiteConfig(level_min=-window, level_max=window, samples=1, suites=(suite,))
    (report,) = run_suites(MODELS[name](), cfg)
    assert report.passed, report.failures[:2]
