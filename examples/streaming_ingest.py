#!/usr/bin/env python
"""Streaming ingest: the ONGOING scenario as an executable path.

The paper's ONGOING deployment transforms video into its input
representations *at ingest time*; queries then load only the (much smaller)
representation bytes.  This example runs that lifecycle end to end:

1. open a database over an initial archive and register a predicate,
2. switch to the ``ongoing`` scenario and run the first query — the
   representations the selected cascade needs are materialized corpus-wide
   and registered with the store,
3. ingest three batches of new frames: each ``db.ingest()`` extends the
   corpus, the materialized virtual columns and every registered
   representation in place, so the repeated query classifies *only* the new
   frames,
4. cap the store with a byte budget and watch eviction hold the footprint
   constant while results stay identical.

Run with:  python examples/streaming_ingest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
from repro.core.optimizer import TahomaConfig
from repro.core.selector import UserConstraints
from repro.core.spec import ArchitectureSpec
from repro.core.trainer import TrainingConfig
from repro.data.categories import get_category
from repro.data.corpus import build_predicate_splits, generate_corpus
from repro.transforms.spec import standard_transform_grid

IMAGE_SIZE = 32
CATEGORY = "komondor"
SQL = f"SELECT * FROM images WHERE contains_object({CATEGORY})"


def make_frames(n: int, seed: int):
    return generate_corpus((get_category(CATEGORY),), n_images=n,
                           image_size=IMAGE_SIZE,
                           rng=np.random.default_rng(seed), positive_rate=0.5)


def main() -> None:
    rng = np.random.default_rng(0)

    print("[1/4] initial archive + predicate training ...")
    corpus = make_frames(48, seed=1)
    splits = build_predicate_splits(get_category(CATEGORY), n_train=96,
                                    n_config=64, n_eval=64,
                                    image_size=IMAGE_SIZE, rng=rng)
    db = repro.connect(corpus,
                       default_constraints=UserConstraints(max_accuracy_loss=0.05))
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

    print("[2/4] first query under the ONGOING scenario ...")
    db.use_scenario("ongoing")
    result = db.execute(SQL)
    store = db.executor.store
    print(f"      {len(result)} hits, classified "
          f"{result.images_classified[CATEGORY]} frames; store holds "
          f"{len(store)} representations "
          f"({store.bytes_stored():,} simulated bytes), extended at ingest: "
          f"{[spec.name for spec in store.specs()]}")

    print("[3/4] ingesting three batches of new frames ...")
    for index in range(3):
        batch = make_frames(16, seed=10 + index)
        new_ids = db.ingest(batch.images, metadata=batch.metadata,
                            content=batch.content)
        result = db.execute(SQL)
        print(f"      batch {index + 1}: +{new_ids.size} frames "
              f"(corpus={len(db.corpus)}), repeated query classified "
              f"{result.images_classified[CATEGORY]} frames, "
              f"{len(result)} total hits")

    print("[4/4] replaying with a store byte budget ...")
    budget = store.bytes_stored() // 3
    bounded = repro.connect(make_frames(48, seed=1), store_budget=budget,
                            default_constraints=UserConstraints(max_accuracy_loss=0.05))
    bounded.register_optimizer(CATEGORY, db.optimizer(CATEGORY))
    bounded.use_scenario("ongoing")
    bounded_result = bounded.execute(SQL)
    bounded_store = bounded.executor.store
    within = bounded_store.bytes_stored() <= budget
    print(f"      budget {budget:,} bytes -> store holds "
          f"{bounded_store.bytes_stored():,} bytes after "
          f"{bounded_store.evictions} evictions (within budget: {within}); "
          f"query still classified all "
          f"{bounded_result.images_classified[CATEGORY]} frames")


if __name__ == "__main__":
    main()
