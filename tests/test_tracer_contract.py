"""The benchmark tracer's contract with the code it patches.

`perfbench/selftest.py` runs every suite on SL2 under the tracer and compares
the traced call counts with counts that the code fixes (one pinning, one
membership test and one determinant per RGD0 case; four pinnings, four
determinants, three products and one `peel_product` per RGD1 case), checks
that every wrapper reaches its target and is removed on exit, and that the
report is unchanged.  A kernel change that alters a span's call count or
drops a patched name fails here, in the unit tests, not only in a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_tracer_selftest_finds_no_problem():
    spec = importlib.util.spec_from_file_location("perfbench_selftest", SELFTEST)
    selftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(selftest)
    assert selftest.selftest_problems() == []
