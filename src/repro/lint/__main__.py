"""``python -m repro.lint [paths...]`` — the determinism lint gate.

Runs every rule, per-file (DET001–DET006) and whole-program
(DET007–DET010), over the ``.py`` files under ``paths`` and prints one
``path:line:col: CODE message`` line per unsuppressed finding.

Exit codes (the contract every ``repro`` command uses):

- **0** — no findings,
- **1** — at least one finding (SUP001 and ``PARSE`` included),
- **2** — usage errors (unknown flag or rule code, missing path).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.lint.engine import lint_project
from repro.lint.report import explain, list_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Determinism linter: protocol code must be reproducible "
            "from a seed."
        ),
        epilog="exit codes: 0 no findings, 1 findings, 2 usage errors",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--explain",
        metavar="CODE",
        help="print the full rationale for one rule code and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the rules (per-file and whole-program) and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for line in list_rules():
            print(line)
        return 0

    if args.explain:
        text = explain(args.explain)
        if text is None:
            print(f"unknown rule code: {args.explain}", file=sys.stderr)
            return 2
        print(text)
        return 0

    try:
        findings = lint_project(args.paths)
    except FileNotFoundError as error:
        print(error, file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.render())
    if findings:
        print(
            f"\n{len(findings)} finding(s). Fix them or suppress with an "
            "inline '# lint: disable=<code> — <why>'.",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
