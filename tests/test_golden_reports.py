"""Golden reports: the determinism view of five fixed runs, byte for byte.

Each run goes through the command line entry point and is compared, as
rendered JSON, with the view stored in `tests/golden/determinism_views.json`.
The stored views pin every suite's case count and every failure record, so a
refactor of the suites that changes either shows up here.

Every entry passes.  SU(5,2) RGD1 (236 cases at levels [-1, 0], 1 sample)
held 32 false failures until `open_interval` indexed the commutator product
by root groups: it returned a multipliable (a, l) together with its double
(2a, 2l), whose coordinate the pinning of (a, l) already carries, and
`peel_product` counted that corner twice and never reached the identity
(such an order breaks the one-read rule, and now raises ValueError).  A
change that alters a view on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_reports.py

and states the change in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from rgdcheck.cli import main, render_json, report_determinism_view

GOLDEN = Path(__file__).parent / "golden" / "determinism_views.json"
COMMENT = (
    "determinism views of five reference runs; SU(5,2) RGD1 passes since "
    "open_interval leaves out (2a, 2l) when (a, l) is a member"
)

WIDE = ["--level-min", "-1", "--level-max", "1", "--samples", "2"]
NARROW = ["--level-min", "-1", "--level-max", "0", "--samples", "1"]

RUNS = {
    "SL2": ["--group", "sl", "--rank", "1", *WIDE],
    "SL3": ["--group", "sl", "--rank", "2", *WIDE],
    "SU(3,1)": ["--group", "su", "--dim", "3", "--witt", "1", *WIDE],
    "SU(4,1)": ["--group", "su", "--dim", "4", "--witt", "1", *NARROW],
    "SU(5,2)": ["--group", "su", "--dim", "5", "--witt", "2", *NARROW],
}


def determinism_view(argv, out_path):
    main([*argv, "--out", str(out_path)])
    return report_determinism_view(json.loads(Path(out_path).read_text()))


@pytest.mark.parametrize("name", list(RUNS))
def test_determinism_view_matches_golden(name, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = determinism_view(RUNS[name], tmp_path / "report.json")
    assert render_json(got) == render_json(golden[name])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        views = {"comment": COMMENT}
        views |= {
            name: determinism_view(argv, Path(tmp) / "report.json")
            for name, argv in RUNS.items()
        }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(render_json(views) + "\n", encoding="utf-8")
