"""``python -m repro.analysis``: run the static passes, exit nonzero on
findings.

Findings print one per line as ``path:line: [rule] message`` (paths relative
to the ``repro`` package root), so editors and CI logs link straight to the
offending line.  ``--list`` shows what is covered without checking anything;
``--root`` points the passes at a different package tree (used by the
self-tests, which lint deliberately broken scratch copies).  A reader that
stops early (``--list | head -1``) ends the output quietly.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.analysis import guards
from repro.analysis.durability import check_durability, durability_modules
from repro.analysis.lockcheck import lock_discipline

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static lock-discipline and durability checks over the "
                    "repro package.")
    parser.add_argument(
        "--root", type=Path, default=None, metavar="DIR",
        help="package root to analyze (defaults to the installed repro "
             "package)")
    parser.add_argument(
        "--list", action="store_true",
        help="show the lock contracts and durability modules, then exit")
    args = parser.parse_args(argv)

    if args.list:
        status, lines = 0, _coverage(args.root)
    else:
        status, lines = _check(args.root)
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away: point stdout at devnull so the interpreter's
        # final flush does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


def _check(root: Path | None) -> tuple[int, list[str]]:
    findings, declared = lock_discipline(root)
    findings += check_durability(root)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    lines = [str(finding) for finding in findings]
    if findings:
        return 1, lines + [f"analysis: {len(findings)} finding(s)"]
    helpers = sum(guard.helper for guard in declared)
    return 0, [f"analysis: clean ({len(declared) - helpers} guarded "
               f"attributes, {helpers} called-with-lock helpers, "
               f"{len(durability_modules(root))} durability modules "
               f"discovered from source)"]


def _coverage(root: Path | None) -> list[str]:
    declared = guards.discover(root)
    rows: dict[tuple[str, str, str], list[str]] = {}
    for guard in declared:
        if not guard.helper:
            rows.setdefault((guard.path, guard.cls, guard.lock),
                            []).append(guard.name)
    lines = [f"lock discipline: ({len(rows)} guarded classes)"]
    lines += [f"  {path}: {cls} [{', '.join(sorted(names))}] guarded by "
              f"{lock}" for (path, cls, lock), names in rows.items()]
    helpers = [guard for guard in declared if guard.helper]
    lines.append(f"called with lock held: ({len(helpers)} helpers)")
    lines += [f"  {guard.path}: {guard.cls}.{guard.name} holds {guard.lock}"
              for guard in helpers]
    modules = durability_modules(root)
    lines.append(f"durability: ({len(modules)} modules)")
    lines += [f"  {rel}" for rel in modules]
    return lines
