"""The line counter in tools/ runs in a fresh interpreter and adds up."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rgdcheck"


def test_src_lines_prints_every_module_and_the_total():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_lines.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    header, *rows, total = [line.split() for line in done.stdout.splitlines()]
    assert header == ["module", "raw", "code"]
    modules = sorted(p.name for p in PACKAGE.glob("*.py"))
    assert [name for name, _, _ in rows] == modules
    raw = {p.name: len(p.read_text().splitlines()) for p in PACKAGE.glob("*.py")}
    assert {name: int(r) for name, r, _ in rows} == raw
    # code lines leave out blanks, comments and docstrings: fewer, never zero
    assert all(0 < int(c) < int(r) for _, r, c in rows)
    assert total == ["total", str(sum(raw.values())), str(sum(int(c) for _, _, c in rows))]
