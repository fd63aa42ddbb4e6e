"""Tests for the command line runner and report rendering."""

import json

import pytest

from rgdcheck import ConfigError, SuiteConfig
from rgdcheck.cli import (
    RunConfig,
    build_report,
    main,
    render_json,
    render_markdown,
    report_determinism_view,
    run,
)
from rgdcheck.models import build_model

FAST = ["--level-min", "-1", "--level-max", "1", "--samples", "2"]


def test_main_passes_and_prints_json(capsys):
    code = main(["--group", "sl", "--rank", "1", *FAST, "--suites", "rgd0,rgd3"])
    assert code == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["summary"]["pass"] is True
    assert report["model"]["kind"] == "sl"
    assert [s["axiom"] for s in report["suites"]] == ["RGD0", "RGD3"]
    assert set(report["config"]) >= {"group", "level_min", "samples", "seed", "suites"}
    assert "generated_at" in report
    for suite in report["suites"]:
        assert set(suite) == {"axiom", "cases", "failures", "pass", "elapsed_ms"}


def test_main_runs_the_unitary_model(capsys):
    code = main(
        ["--group", "su", "--dim", "3", "--witt", "1", *FAST, "--suites", "rgd0"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["model"]["dim"] == 3
    assert report["model"]["relative_system"] == "BC1"


def test_configuration_errors_exit_two(capsys):
    assert main(["--group", "sl"]) == 2  # missing rank
    assert main(["--group", "su", "--dim", "2", "--witt", "1"]) == 2
    assert main(["--group", "su", "--dim", "5"]) == 2  # missing witt
    assert main(["--group", "sl", "--rank", "1", "--suites", "rgd9"]) == 2
    assert main(["--group", "sl", "--rank", "1", "--level-min", "1"]) == 2
    assert main(["--group", "sl", "--rank", "1", "--suites", ","]) == 2  # no suite
    # a discriminant that is not squarefree is an input error, not a crash
    assert main(["--group", "su", "--dim", "3", "--witt", "1", "--disc", "-4"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err


def test_internal_errors_exit_three(monkeypatch, capsys):
    from rgdcheck import verify

    def broken(model, cfg, report):
        raise ZeroDivisionError("suite bug")

    monkeypatch.setitem(verify.SUITES, "rgd0", ("RGD0", broken))
    code = main(["--group", "sl", "--rank", "1", *FAST, "--suites", "rgd0"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.strip().splitlines()[-1]
    assert last == "rgdcheck: internal error: ZeroDivisionError: suite bug"


def test_markdown_format(capsys):
    code = main(
        [
            "--group",
            "sl",
            "--rank",
            "1",
            *FAST,
            "--suites",
            "rgd0",
            "--format",
            "md",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("# rgdcheck report")
    assert "| RGD0 |" in out
    assert "summary: PASS" in out


def test_out_file_written(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        [
            "--group",
            "sl",
            "--rank",
            "1",
            *FAST,
            "--suites",
            "rgd0",
            "--out",
            str(target),
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(target.read_text())
    assert report["summary"]["pass"] is True


def test_unwritable_out_path_is_a_configuration_error(tmp_path, monkeypatch, capsys):
    """Exit 1 means only that an axiom failed: a report destination that
    cannot be written exits 2, and a missing directory is caught before any
    suite runs."""
    from rgdcheck import cli

    args = ["--group", "sl", "--rank", "1", *FAST, "--suites", "rgd0", "--out"]
    missing = tmp_path / "missing" / "r.json"
    with monkeypatch.context() as m:
        m.setattr(cli, "run_suites", lambda *a: pytest.fail("suites ran"))
        assert main([*args, str(missing)]) == 2
        with pytest.raises(ConfigError):
            RunConfig(group="sl", rank=1, out=str(missing))
    assert not missing.exists()
    err = capsys.readouterr().err
    assert err.startswith("rgdcheck: configuration error:") and "Traceback" not in err
    # a destination that is a directory is caught before any suite runs too;
    # see test_out_directory_fails_before_any_suite_runs
    assert main([*args, str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("rgdcheck: configuration error: --out:")


class ClosedPipe:
    """A stdout whose reader has gone, as under `rgdcheck ... | head -c 10`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_is_not_an_axiom_failure(monkeypatch, capsys):
    """Every suite passes, so a report that cannot be printed exits 2, with
    one line on stderr and no traceback, and stdout is left pointing at a
    sink that takes the flush at exit."""
    import sys

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    args = ["--group", "sl", "--rank", "1", "--samples", "1"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == "rgdcheck: configuration error: stdout: [Errno 32] Broken pipe\n"
    assert not isinstance(sys.stdout, ClosedPipe)
    print("after the pipe closed", flush=True)


def test_out_directory_fails_before_any_suite_runs(tmp_path, monkeypatch, capsys):
    """--out naming an existing directory is a configuration error of the run,
    not a failure to write a report that every suite was run for."""
    from rgdcheck import cli

    args = ["--group", "sl", "--rank", "1", *FAST, "--suites", "rgd0", "--out"]
    monkeypatch.setattr(cli, "run_suites", lambda *a: pytest.fail("suites ran"))
    with pytest.raises(ConfigError, match="is a directory"):
        RunConfig(group="sl", rank=1, out=str(tmp_path))
    for target in (tmp_path, f"{tmp_path}/", "."):
        assert main([*args, str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rgdcheck: configuration error: --out:")
        assert "Traceback" not in captured.err


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(group="sp")
    with pytest.raises(ConfigError):
        RunConfig(group="sl")
    with pytest.raises(ConfigError):
        RunConfig(group="su", dim=4)
    with pytest.raises(ConfigError):
        RunConfig(group="sl", rank=1, format="yaml")
    # the model constructors check the model's parameters when the run builds it
    with pytest.raises(ConfigError):
        run(RunConfig(group="su", dim=4, witt=2))
    with pytest.raises(ConfigError):
        run(RunConfig(group="sl", rank=0))


def test_flags_of_the_other_group_are_configuration_errors(capsys):
    # the report's config block records every flag, so a flag that did not
    # apply to the model would read as if it had
    sl = ["--group", "sl", "--rank", "1", *FAST, "--suites", "rgd0"]
    assert main([*sl, "--dim", "7", "--witt", "3", "--disc", "-5"]) == 2
    su = ["--group", "su", "--dim", "3", "--witt", "1", *FAST, "--suites", "rgd0"]
    assert main([*su, "--rank", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "configuration error" in captured.err
    for extra in ({"dim": 7}, {"witt": 3}, {"disc": -5}):
        with pytest.raises(ConfigError):
            RunConfig(group="sl", rank=1, **extra)
    # an sl run records the default --disc -1, as it always has
    assert RunConfig(group="sl", rank=1, disc=-1).disc == -1
    assert main([*sl, "--disc", "-1"]) == 0


def test_determinism_view_strips_volatile_fields():
    cfg = RunConfig(
        group="su",
        dim=3,
        witt=1,
        suite=SuiteConfig(
            level_min=-1, level_max=1, samples=2, suites=("rgd0", "combinatorics")
        ),
    )
    model = build_model("su", dim=3, witt=1)
    va = report_determinism_view(build_report(model, cfg))
    vb = report_determinism_view(build_report(model, cfg))
    assert va == vb
    assert "generated_at" not in va
    assert all("elapsed_ms" not in s for s in va["suites"])
    # rendered views are byte identical
    assert render_json(va) == render_json(vb)


def test_run_returns_code_and_report():
    cfg = RunConfig(
        group="sl",
        rank=1,
        suite=SuiteConfig(level_min=-1, level_max=1, samples=2, suites=("rgd0",)),
    )
    code, report = run(cfg)
    assert code == 0
    assert report["summary"]["pass"] is True


def test_repeated_suite_tags_run_and_report_once(capsys):
    code = main(["--group", "sl", "--rank", "1", *FAST, "--suites", "rgd3,rgd0,rgd0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["suites"] == ["rgd0", "rgd3"]
    assert [s["axiom"] for s in report["suites"]] == ["RGD0", "RGD3"]
    code = main(["--group", "sl", "--rank", "1", *FAST, "--suites", "rgd0,rgd0"])
    assert json.loads(capsys.readouterr().out)["config"]["suites"] == ["rgd0"]


def test_markdown_renders_failures_section():
    report = {
        "model": {"kind": "sl", "rank": 1, "relative_system": "A1"},
        "config": {
            "group": "sl",
            "level_min": -1,
            "level_max": 1,
            "samples": 2,
            "seed": 0,
        },
        "generated_at": "2026-01-01T00:00:00+00:00",
        "suites": [
            {
                "axiom": "RGD1",
                "cases": 5,
                "failures": [
                    {"inputs": "alpha=x", "expected": "identity", "actual": "residue"}
                ],
                "pass": False,
                "elapsed_ms": 1.0,
            }
        ],
        "summary": {"pass": False},
    }
    text = render_markdown(report)
    assert "summary: FAIL" in text
    assert "## RGD1 failures" in text
    assert "inputs: alpha=x" in text


def test_module_runner_invokes_cli(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    # the child finds the package in src/ also when it is not installed
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "rgdcheck",
            "--group",
            "sl",
            "--rank",
            "1",
            *FAST,
            "--suites",
            "rgd0",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["summary"]["pass"] is True
