"""Command line runner: build a model, run the axiom suites, emit a report.

Exit codes: 0 when every suite passes, 1 when some axiom check fails, 2 for
configuration problems and a report that cannot be written, 3 for internal
errors.  Reports are reproducible: a fixed configuration yields identical
output but for timestamp and timings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .errors import ConfigError, UnsupportedType
from .models import GroupModel, build_model
from .verify import ALL_SUITES, SuiteConfig, run_suites


@dataclass(frozen=True)
class RunConfig:
    """A command line run: which model to build, which suites to run on it
    and how to write the report.  The model constructors check the model's
    parameters (`_make_model` turns their `UnsupportedType` into a
    `ConfigError`) and `SuiteConfig` checks the suite settings."""

    group: str
    rank: int | None = None
    dim: int | None = None
    witt: int | None = None
    disc: int = -1
    suite: SuiteConfig = field(default_factory=SuiteConfig)
    format: str = "json"
    out: str | None = None

    def __post_init__(self):
        if self.group not in ("sl", "su"):
            raise ConfigError(f"group must be sl or su, got {self.group!r}")
        if self.group == "sl" and self.rank is None:
            raise ConfigError("sl needs --rank")
        if self.group == "su" and (self.dim is None or self.witt is None):
            raise ConfigError("su needs --dim and --witt")
        # the report's config block records every flag, so none may go unused
        if self.group == "sl" and (self.dim, self.witt, self.disc) != (None, None, -1):
            raise ConfigError("--dim, --witt and --disc apply to su only")
        if self.group == "su" and self.rank is not None:
            raise ConfigError("--rank applies to sl only")
        if self.format not in ("json", "md"):
            raise ConfigError(f"format must be json or md, got {self.format!r}")
        if self.out and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise ConfigError(f"no directory to write {self.out!r} into")
        if self.out and os.path.isdir(self.out):
            raise ConfigError(f"--out: {self.out!r} is a directory")


def _make_model(cfg: RunConfig) -> GroupModel:
    try:
        if cfg.group == "sl":
            return build_model("sl", rank=cfg.rank)
        return build_model("su", dim=cfg.dim, witt=cfg.witt, disc=cfg.disc)
    except UnsupportedType as exc:
        raise ConfigError(str(exc)) from exc


def build_report(model: GroupModel, cfg: RunConfig) -> dict:
    suite = cfg.suite
    reports = run_suites(model, suite)
    return {
        "model": model.descriptor(),
        "config": {
            "group": cfg.group,
            "rank": cfg.rank,
            "dim": cfg.dim,
            "witt": cfg.witt,
            "disc": cfg.disc,
            "level_min": suite.level_min,
            "level_max": suite.level_max,
            "samples": suite.samples,
            "seed": suite.seed,
            "suites": list(suite.suites),
        },
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "suites": [r.to_dict() for r in reports],
        "summary": {"pass": all(r.passed for r in reports)},
    }


def report_determinism_view(report: dict) -> dict:
    """The report minus timestamp and timings, for byte-identity comparisons."""
    out = {k: v for k, v in report.items() if k != "generated_at"}
    out["suites"] = [
        {k: v for k, v in suite.items() if k != "elapsed_ms"}
        for suite in report["suites"]
    ]
    return out


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2)


def render_markdown(report: dict) -> str:
    model = report["model"]
    cfg = report["config"]
    lines = ["# rgdcheck report", ""]
    desc = " ".join(
        f"{k}={model[k]}" for k in ("kind", "rank", "dim", "witt", "disc") if k in model
    )
    lines.append(f"model: {desc} (relative system {model['relative_system']})")
    lines.append(
        f"config: levels [{cfg['level_min']}, {cfg['level_max']}], "
        f"samples {cfg['samples']}, seed {cfg['seed']}"
    )
    lines.append(f"generated: {report['generated_at']}")
    lines.append("")
    lines.append("| axiom | cases | failures | pass | elapsed_ms |")
    lines.append("|---|---|---|---|---|")
    for suite in report["suites"]:
        lines.append(
            f"| {suite['axiom']} | {suite['cases']} | {len(suite['failures'])} "
            f"| {'yes' if suite['pass'] else 'NO'} | {suite['elapsed_ms']} |"
        )
    lines.append("")
    lines.append(f"summary: {'PASS' if report['summary']['pass'] else 'FAIL'}")
    for suite in report["suites"]:
        if suite["failures"]:
            lines.append("")
            lines.append(f"## {suite['axiom']} failures")
            for f in suite["failures"]:
                lines.append(
                    f"- inputs: {f['inputs']}; expected: {f['expected']}; "
                    f"actual: {f['actual']}"
                )
    lines.append("")
    return "\n".join(lines)


def _parse_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="rgdcheck",
        description=(
            "verify root group data axioms for a matrix group over the "
            "rational Laurent ring"
        ),
    )
    parser.add_argument("--group", required=True, choices=("sl", "su"))
    parser.add_argument("--rank", type=int, help="rank of the split model")
    parser.add_argument("--dim", type=int, help="matrix size of the unitary model")
    parser.add_argument("--witt", type=int, help="Witt index of the hermitian form")
    parser.add_argument(
        "--disc",
        type=int,
        default=-1,
        help="squarefree negative discriminant of the quadratic extension",
    )
    defaults = SuiteConfig()
    parser.add_argument("--level-min", type=int, default=defaults.level_min)
    parser.add_argument("--level-max", type=int, default=defaults.level_max)
    parser.add_argument("--samples", type=int, default=defaults.samples)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument(
        "--suites",
        default="all",
        help=f"comma separated subset of {','.join(ALL_SUITES)} (or 'all')",
    )
    parser.add_argument("--format", choices=("json", "md"), default="json")
    parser.add_argument("--out", help="write the report to this path")
    ns = parser.parse_args(argv)
    if ns.suites == "all":
        suites = defaults.suites
    else:
        suites = tuple(s.strip() for s in ns.suites.split(",") if s.strip())
    return RunConfig(
        group=ns.group,
        rank=ns.rank,
        dim=ns.dim,
        witt=ns.witt,
        disc=ns.disc,
        suite=SuiteConfig(ns.level_min, ns.level_max, ns.samples, ns.seed, suites),
        format=ns.format,
        out=ns.out,
    )


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Run the suites for a configuration; returns (exit_code, report)."""
    model = _make_model(cfg)
    report = build_report(model, cfg)
    code = 0 if report["summary"]["pass"] else 1
    return code, report


def main(argv=None) -> int:
    try:
        cfg = _parse_args(argv if argv is not None else sys.argv[1:])
        code, report = run(cfg)
    except ConfigError as exc:
        print(f"rgdcheck: configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, never an axiom verdict
        traceback.print_exc()
        print(f"rgdcheck: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    text = render_json(report) if cfg.format == "json" else render_markdown(report)
    try:
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        else:
            print(text, flush=True)
    except OSError as exc:
        where = "--out" if cfg.out else "stdout"
        print(f"rgdcheck: configuration error: {where}: {exc}", file=sys.stderr)
        if not cfg.out:
            _silence_stdout()
        return 2
    return code


def _silence_stdout() -> None:
    """Point stdout at devnull, so that the flush at exit does not meet the
    closed pipe again."""
    devnull = open(os.devnull, "w", encoding="utf-8")
    try:
        os.dup2(devnull.fileno(), sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):  # a stdout with no descriptor
        pass
    sys.stdout = devnull


if __name__ == "__main__":
    sys.exit(main())
