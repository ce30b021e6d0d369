#!/usr/bin/env python
"""Retention windows: an endless feed in bounded memory.

The paper's ONGOING scenario assumes a camera that never stops.  Without
retention, every ``db.ingest()`` grows the corpus and the materialized
virtual columns forever.  A ``RetentionPolicy`` turns a table
into a *sliding window* over its feed:

1. open a database with ``retention=RetentionPolicy(max_rows=N)`` and a
   store byte budget, register a predicate,
2. stream many times the window's worth of frames through ``db.ingest()`` —
   the table never holds more than N rows, the store never exceeds its
   budget, and image ids stay stable (dropped ids are never reused),
3. query the live window: results carry the original ids, surviving rows are
   never re-classified, and
4. switch a table to an age-based window (``max_age`` against the newest
   frame's timestamp) with ``db.set_retention()`` and sweep it on demand
   with ``db.retain()``.

Run with:  python examples/retention_window.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro.core import ArchitectureSpec, TahomaConfig, TrainingConfig, UserConstraints
from repro.data import build_predicate_splits, generate_corpus, get_category
from repro.db import RetentionPolicy
from repro.transforms import standard_transform_grid

IMAGE_SIZE = 32
CATEGORY = "komondor"
SQL = f"SELECT * FROM images WHERE contains_object({CATEGORY})"
WINDOW = 48


def make_frames(n: int, seed: int):
    return generate_corpus((get_category(CATEGORY),), n_images=n,
                           image_size=IMAGE_SIZE,
                           rng=np.random.default_rng(seed), positive_rate=0.5)


def main() -> None:
    rng = np.random.default_rng(0)

    print("[1/4] database with a sliding window + predicate training ...")
    budget = 6 * WINDOW * IMAGE_SIZE * IMAGE_SIZE * 3
    db = repro.connect(make_frames(WINDOW, seed=1),
                       retention=RetentionPolicy(max_rows=WINDOW),
                       store_budget=budget,
                       default_constraints=UserConstraints(max_accuracy_loss=0.05))
    splits = build_predicate_splits(get_category(CATEGORY), n_train=96,
                                    n_config=64, n_eval=64,
                                    image_size=IMAGE_SIZE, rng=rng)
    config = TahomaConfig(
        architectures=(ArchitectureSpec(1, 8, 16), ArchitectureSpec(2, 8, 16)),
        transforms=tuple(standard_transform_grid(
            resolutions=(8, 16, 32), color_modes=("rgb", "gray"))),
        precision_targets=(0.93, 0.97),
        max_depth=2,
        training=TrainingConfig(epochs=3, batch_size=16))
    db.register_predicate(CATEGORY, splits, config=config,
                          reference_params={"epochs": 4, "base_width": 8,
                                            "n_stages": 2, "blocks_per_stage": 1})
    db.use_scenario("ongoing")
    db.execute(SQL)  # registers the cascade's representations with the store

    print(f"[2/4] streaming 6x the window through a {WINDOW}-row table ...")
    for round_index in range(6):
        batch = make_frames(WINDOW, seed=10 + round_index)
        new_ids = db.ingest(batch.images, metadata=batch.metadata,
                            content=batch.content)
        store = db.executor.store
        print(f"      round {round_index + 1}: ingested ids "
              f"[{new_ids[0]}..{new_ids[-1]}] -> corpus={len(db.corpus)} "
              f"rows (offset={db.executor.id_offset}), store "
              f"{store.bytes_stored():,}/{budget:,} bytes")

    print("[3/4] querying the live window ...")
    result = db.execute(SQL)
    ids = result.image_ids
    print(f"      {len(result)} hits among ids [{ids.min()}..{ids.max()}], "
          f"classified {result.images_classified[CATEGORY]} frames")
    repeat = db.execute(SQL)
    print(f"      repeated query classified "
          f"{repeat.images_classified[CATEGORY]} frames "
          f"(survivors keep their labels across retention)")

    print("[4/4] switching to an age-based window ...")
    newest = float(db.corpus.metadata["timestamp"].max())
    db.set_retention("images", RetentionPolicy(max_age=newest / 2))
    dropped = db.retain()
    print(f"      retain() dropped {dropped['images']} rows older than "
          f"{newest / 2:.0f}s before the newest frame; "
          f"corpus={len(db.corpus)} rows, ids still start at "
          f"{db.executor.id_offset}")


if __name__ == "__main__":
    main()
