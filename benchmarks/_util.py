"""Helpers shared by the benchmark modules."""

from __future__ import annotations

from pathlib import Path


def write_result(results_dir: Path, name: str, title: str, body: str) -> None:
    """Persist one benchmark's table so EXPERIMENTS.md numbers are traceable."""
    text = f"{title}\n{'=' * len(title)}\n\n{body}\n"
    (results_dir / f"{name}.txt").write_text(text)
    print("\n" + text)

