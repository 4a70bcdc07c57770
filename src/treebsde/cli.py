"""Command-line entry points: run, list, validate.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 config or
runtime error.
"""
from __future__ import annotations

import argparse
import sys

from treebsde.experiments import (
    EXPERIMENTS,
    ConfigValidationError,
    load_config,
    run_experiment,
)


def _show(v) -> str:
    """A check's value, bound or target for the terminal, numbers to 6
    significant digits."""
    if isinstance(v, list):
        return "[" + ", ".join(map(_show, v)) + "]"
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigValidationError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    import warnings  # not at module level: only this command records them
    # printed as bare messages: a warning's location would be the first frame
    # outside the package, under `python -m` one of runpy's
    with warnings.catch_warnings(record=True) as caught:
        try:
            result, error = run_experiment(cfg), None
        except Exception as exc:  # runtime failure, not a check verdict
            result, error = None, exc
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if error is not None:
        print(f"runtime error: {error}", file=sys.stderr)
        return 2
    for check in result.report["checks"]:
        words = ["PASS" if check["passed"] else "FAIL", check["name"]]
        words += [f"{key}={_show(check[key])}"
                  for key in ("value", "bound", "target", "reason") if key in check]
        if check.get("flagged"):
            words.append("[flagged]")
        print(" ".join(words))
    print(f"report: {result.out_dir}/report.json")
    return 0 if result.passed else 1


def _cmd_list(_args) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        print(f"{name:<{width}}  {EXPERIMENTS[name].description}")
        fields = EXPERIMENTS[name].fields
        for bench, names in fields.items():
            where = f"benchmark '{bench}'" if len(fields) > 1 else "fields"
            print(f"{'':<{width}}    {where}: {', '.join(names)}")
    return 0


def _cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigValidationError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    print(f"ok: {cfg.experiment} (seed {cfg.seed})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treebsde",
        description="Tree-based experiments for controlled backward SDE "
                    "optimization: run registered experiments from JSON "
                    "configs, producing deterministic report and CSV "
                    "artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the JSON config file")
    p_run.set_defaults(func=_cmd_run)
    p_list = sub.add_parser("list", help="list registered experiments")
    p_list.set_defaults(func=_cmd_list)
    p_val = sub.add_parser("validate",
                           help="validate a config without running it")
    p_val.add_argument("config", help="path to the JSON config file")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
