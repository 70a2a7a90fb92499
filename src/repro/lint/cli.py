"""Command-line entry point: ``python -m repro.lint [paths] [options]``.

Exit status: 0 when the tree is clean, 1 when findings (or parse errors)
exist, 2 on usage errors.  The repository root is auto-detected by
walking up from the first path argument until ``src/repro`` appears, so
the tool works from any subdirectory; ``--root`` overrides.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.lint.core import run_lint
from repro.lint.reporters import render
from repro.lint.rules import ALL_RULES, rules_by_id


def detect_root(start: Path) -> Path:
    """Nearest ancestor of ``start`` that contains ``src/repro``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in [current] + list(current.parents):
        if (candidate / "src" / "repro").is_dir():
            return candidate
    return start.resolve() if start.is_dir() else start.resolve().parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Determinism-invariant static analyzer (rules RL001, RL003-RL005).",
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: <root>/src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated rule subset, e.g. RL003,RL004 (default: all)",
    )
    parser.add_argument(
        "--root", default=None, metavar="DIR",
        help="repository root (default: auto-detected from the first path)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the report here as well as stdout",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for cls in ALL_RULES:
            print(f"{cls.id}  {cls.title}")
        return 0

    try:
        rules = rules_by_id(args.rules.split(",")) if args.rules else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    paths: List[Path] = [Path(p) for p in (args.paths or [])]
    root = Path(args.root).resolve() if args.root else detect_root(
        paths[0] if paths else Path.cwd()
    )
    if not paths:
        paths = [root / "src"]
    for path in paths:
        if not path.exists():
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2

    result = run_lint(root, paths, rules=rules)
    report = render(result, args.format)
    sys.stdout.write(report)
    if args.out:
        Path(args.out).write_text(report)
    return 0 if result.clean else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
