"""``python -m repro.analysis``: run the static passes, exit nonzero on
findings.

Findings print one per line as ``path:line: [rule] message`` (paths relative
to the ``repro`` package root), so editors and CI logs link straight to the
offending line.  ``--list`` shows what is covered without checking anything;
``--root`` points the passes at a different package tree (used by the
self-tests, which lint deliberately broken scratch copies).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.analysis.durability import check_durability
from repro.analysis.guards import CONFINED, DURABILITY_MODULES, REGISTRY
from repro.analysis.lockcheck import check_lock_discipline
from repro.analysis.shapes import check_shapes
from repro.analysis.shapes_spec import discover

__all__ = ["main"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static lock-discipline, durability and shape/dtype "
                    "checks over the repro package.")
    parser.add_argument(
        "--root", type=Path, default=None, metavar="DIR",
        help="package root to analyze (defaults to the installed repro "
             "package)")
    parser.add_argument(
        "--list", action="store_true",
        help="show the guarded classes, durability modules and shape "
             "contracts, then exit")
    args = parser.parse_args(argv)

    if args.list:
        _print_coverage(args.root)
        return 0

    findings = (check_lock_discipline(args.root) + check_durability(args.root)
                + check_shapes(args.root))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding)
    if findings:
        print(f"analysis: {len(findings)} finding(s)")
        return 1
    print(f"analysis: clean ({len(REGISTRY)} guarded classes, "
          f"{len(CONFINED)} confined, "
          f"{len(DURABILITY_MODULES)} durability modules, "
          f"{len(discover(args.root))} shape contracts discovered from "
          f"source)")
    return 0


def _print_coverage(root: Path | None) -> None:
    print(f"lock discipline: ({len(REGISTRY)} guarded classes)")
    for spec in REGISTRY:
        lock = (f"self.{spec.lock}" if spec.state is None
                else f"self.{spec.state}.{spec.lock}")
        print(f"  {spec.path}: {spec.cls} "
              f"[{', '.join(sorted(spec.guarded))}] guarded by {lock}")
    print(f"thread-confined: ({len(CONFINED)} classes)")
    for confined in CONFINED:
        print(f"  {confined.path}: {confined.cls} "
              f"[{', '.join(sorted(confined.attrs))}]")
    print(f"durability: ({len(DURABILITY_MODULES)} modules)")
    for rel in DURABILITY_MODULES:
        print(f"  {rel}")
    shapes = discover(root)
    print(f"shapes: ({len(shapes)} contracts)")
    for spec in shapes:
        suffix = f" [{spec.dtype}]" if spec.dtype != "any" else ""
        print(f"  {spec.path}: {spec.qualname} '{spec.shape}'{suffix}")
