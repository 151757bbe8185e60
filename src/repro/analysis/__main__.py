"""Command-line entry point: ``python -m repro.analysis`` / ``scripts/lint.py``.

Exit status 0 means no findings; 1 means findings (printed one per line
as ``path:line:RULE: message``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.engine import DEFAULT_TARGETS, discover_files, lint_paths


def main(argv: list[str] | None = None, root: Path | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism lint: AST rules D1-D6 over the repo's Python sources.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help=f"files or directories to lint (default: {', '.join(DEFAULT_TARGETS)})",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=root,
        help="repository root (default: the current directory)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI mode: exit 1 on any finding (same behaviour as the default "
        "run; the flag exists so intent is explicit in ci.yml)",
    )
    args = parser.parse_args(argv)

    repo_root = (args.root or Path.cwd()).resolve()

    if args.paths:
        files: list[Path] = []
        for raw in args.paths:
            path = raw if raw.is_absolute() else repo_root / raw
            if path.is_dir():
                files.extend(discover_files(repo_root, (path.relative_to(repo_root).as_posix(),)))
            else:
                files.append(path)
    else:
        files = discover_files(repo_root, DEFAULT_TARGETS)

    findings = lint_paths(files, repo_root)

    for finding in findings:
        print(finding.render())
    if findings:
        print(
            f"\n{len(findings)} determinism finding(s) in {len(files)} file(s); "
            "fix, or pragma with `# repro: allow(RULE, reason=...)`",
            file=sys.stderr,
        )
        return 1
    print(f"determinism lint: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
