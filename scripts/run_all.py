"""Run every shipped experiment config and summarize the verdicts.

Usage: python scripts/run_all.py [--configs DIR] [--output-dir DIR] [--skip NAME ...]
"""
import argparse
import glob
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from treebsde.cli import main as cli_main  # noqa: E402


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--configs", default=os.path.join(os.path.dirname(__file__), "configs"))
    ap.add_argument("--output-dir", default=None,
                    help="override the output_dir of every config")
    ap.add_argument("--skip", nargs="*", default=[],
                    help="config basenames (without .json) to skip")
    args = ap.parse_args(argv)

    paths = sorted(glob.glob(os.path.join(args.configs, "*.json")))
    if not paths:
        print(f"no configs found under {args.configs}", file=sys.stderr)
        return 2
    results = []
    with tempfile.TemporaryDirectory() as scratch:
        for path in paths:
            name = os.path.splitext(os.path.basename(path))[0]
            if name in args.skip:
                results.append((name, "skipped"))
                continue
            if args.output_dir is not None:
                # the rewritten config goes to scratch, not into the output dir
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
                doc["output_dir"] = args.output_dir
                path = os.path.join(scratch, f"{name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh, indent=2, sort_keys=True)
            print(f"=== {name}")
            code = cli_main(["run", path])
            results.append((name, {0: "pass", 1: "FAIL", 2: "ERROR"}[code]))
    print()
    width = max(len(n) for n, _ in results)
    for name, verdict in results:
        print(f"{name:<{width}}  {verdict}")
    bad = [n for n, v in results if v in ("FAIL", "ERROR")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(run())
