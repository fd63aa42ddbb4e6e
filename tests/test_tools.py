"""The tools under tools/: the line counter adds up, and the benchmark pair
runner alternates sides, reproduces a committed summary and keeps its
finished runs when a later run fails."""

import importlib.util
import json
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


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_reproduces_a_committed_record():
    tool = _bench_pairs()
    record = json.loads((ROOT / "BENCH_simple_roots.json").read_text())
    end_to_end = tool.load_benchmark()["end_to_end"]
    got = tool.summarize(record["raw"], end_to_end)
    assert set(got) == set(record["summary"]) and len(got) == 4
    for workload, want in record["summary"].items():
        for metric in end_to_end:
            name = metric["name"]
            for side in ("parent", "change"):
                for stat in ("median", "q1", "q3"):
                    assert got[workload][name][side][stat] == want[name][side][stat], (
                        workload, name, side, stat
                    )
            assert got[workload][name]["change_wins"] == want[name]["change_wins"]
    # the rest of the schema follows too
    assert got == record["summary"]


FAKE_RUN = """
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
side = os.path.basename(os.getcwd())  # the checkout runs it
value = {"parent": 2.0, "change": 1.0}[side] + int(args["--seed"]) / 100
metrics = {m: {"value": value, "unit": "s"} for m in
           ("setup_s", "verdict_s", "cases_per_s", "peak_rss_mib", "trace.spans")}
print("a line above the result")
print(json.dumps({"correct": True, "attempted": 7, "failed": 0, "metrics": metrics}))
"""


def test_bench_pairs_alternates_sides_and_writes_only_its_record(tmp_path, capsys):
    tool = _bench_pairs()
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(FAKE_RUN)
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "BENCH_fake.json"
    assert tool.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--pairs", "3", "--seed0", "10", "--workload", "split-a2", "--out", str(out),
    ]) == 0
    assert sorted(tmp_path.rglob("*")) == sorted([*before, out])
    record = json.loads(out.read_text())
    assert list(record["raw"]) == ["split-a2/10", "split-a2/11", "split-a2/12"]
    assert [pair["first"] for pair in record["raw"].values()] == ["parent", "change", "parent"]
    # per-layer metrics are left out of raw
    assert set(record["raw"]["split-a2/10"]["parent"]["metrics"]) == {
        "setup_s", "verdict_s", "cases_per_s", "peak_rss_mib"
    }
    summary = record["summary"]["split-a2"]
    assert summary["seeds"] == [10, 11, 12] and summary["attempted"]["change"] == [7]
    # lower is better for verdict_s and higher for cases_per_s
    assert summary["verdict_s"]["change_wins"] == 3
    assert summary["cases_per_s"]["change_wins"] == 0
    assert summary["verdict_s"]["parent"] == {"median": 2.11, "q1": 2.105, "q3": 2.115, "iqr": 0.01}
    # one line per end-to-end metric: the change wins every pair and by far
    # more than the parent's IQR where lower is better, and none where higher is
    assert capsys.readouterr().out.splitlines() == [
        "split-a2 setup_s: parent 2.11 [2.105, 2.115], change 1.11; "
        "wins 3/3, ratio 0.5261; claim holds",
        "split-a2 verdict_s: parent 2.11 [2.105, 2.115], change 1.11; "
        "wins 3/3, ratio 0.5261; claim holds",
        "split-a2 cases_per_s: parent 2.11 [2.105, 2.115], change 1.11; "
        "wins 0/3, ratio 0.5261; claim does not hold",
        "split-a2 peak_rss_mib: parent 2.11 [2.105, 2.115], change 1.11; "
        "wins 3/3, ratio 0.5261; claim holds",
    ]


def test_bench_pairs_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr():
    tool = _bench_pairs()
    metrics = [{"name": "verdict_s", "better": "lower"},
               {"name": "cases_per_s", "better": "higher"}]

    def entry(wins, change_median):
        parent = {"median": 1.0, "q1": 0.95, "q3": 1.05, "iqr": 0.1}
        stats = {"parent": parent, "change": {"median": change_median}, "change_wins": wins,
                 "ratio_median": change_median}
        return {"pairs": 10, "verdict_s": stats, "cases_per_s": stats}

    summary = {"nine": entry(9, 0.85), "eight": entry(8, 0.85), "near": entry(10, 0.95)}
    claims = [line.rsplit("; claim ", 1)[1] for line in tool.claim_lines(summary, metrics)]
    # lower is better for verdict_s, higher for cases_per_s: a gap the wrong
    # way is no gain, however many pairs were won
    assert claims == ["holds", "does not hold"] + ["does not hold"] * 4


def test_bench_pairs_keeps_finished_runs_when_a_later_run_fails(tmp_path):
    tool = _bench_pairs()
    failing = FAKE_RUN.replace(
        "args = dict(zip(sys.argv[1::2], sys.argv[2::2]))",
        "args = dict(zip(sys.argv[1::2], sys.argv[2::2]))\n"
        "if args['--seed'] == '11':\n    sys.exit('no result on the second seed')",
    )
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(failing)
    out = tmp_path / "BENCH_fake.json"
    assert tool.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--pairs", "3", "--seed0", "10", "--workload", "split-a2", "--out", str(out),
    ]) == 1
    record = json.loads(out.read_text())
    # the finished pair is kept whole; the change runs first on seed 11 and fails
    assert list(record["raw"]) == ["split-a2/10", "split-a2/11"]
    assert set(record["raw"]["split-a2/10"]) == {"first", "parent", "change"}
    assert record["raw"]["split-a2/10"]["change"]["metrics"]["verdict_s"]["value"] == 1.1
    assert record["raw"]["split-a2/11"] == {"first": "change"}
    assert record["error"]["run"] == "split-a2/11" and record["error"]["side"] == "change"
    assert "exited 1" in record["error"]["message"]
    assert "no result on the second seed" in record["error"]["message"]
    assert "summary" not in record
