#!/usr/bin/env python
"""Multi-camera catalogs: named tables, FROM <table> routing and fan-out.

The paper's CAMERA scenario assumes many live feeds.  This example opens one
database over three camera shards and walks the catalog API end to end:

1. ``connect({name: corpus})`` attaches one table per camera; a predicate is
   trained *once* and shared by every shard,
2. ``SELECT * FROM cam_north`` routes to one shard's executor — other
   cameras' caches stay untouched,
3. ``SELECT * FROM all_cameras`` fans the query out: each shard is planned
   with its own observed selectivity, the shards run one after another, and the
   merged result carries a ``__table__`` provenance column plus per-shard
   execution statistics,
4. a new camera comes online mid-session via ``db.attach`` and immediately
   participates in the next fan-out; frames stream into a single shard via
   ``db.ingest(..., table=...)``.

Run with:  python examples/multi_camera_fanout.py
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
FANOUT_SQL = f"SELECT * FROM all_cameras WHERE contains_object({CATEGORY})"


def make_feed(n: int, seed: int, positive_rate: float = 0.5):
    return generate_corpus((get_category(CATEGORY),), n_images=n,
                           image_size=IMAGE_SIZE,
                           rng=np.random.default_rng(seed),
                           positive_rate=positive_rate)


def main() -> None:
    rng = np.random.default_rng(0)

    print("[1/4] opening a three-camera catalog + training one predicate ...")
    cameras = {"cam_north": make_feed(48, seed=1, positive_rate=0.7),
               "cam_south": make_feed(32, seed=2, positive_rate=0.3),
               "cam_east": make_feed(40, seed=3, positive_rate=0.5)}
    db = repro.connect(cameras,
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
    db.use_scenario("camera")
    print(f"      tables: {db.tables()}")

    print("[2/4] routing a query to one shard ...")
    north = db.execute(f"SELECT * FROM cam_north WHERE contains_object({CATEGORY})")
    print(f"      cam_north: {len(north)} hits, classified "
          f"{north.images_classified[CATEGORY]} frames "
          f"(cam_south untouched: "
          f"{db.executor_for('cam_south').materialized_categories() == []})")

    print("[3/4] fanning out across every camera ...")
    merged = db.execute(FANOUT_SQL)
    print(f"      {len(merged)} merged hits from {merged.tables}")
    for table in merged.tables:
        stats = merged.images_classified[table]
        plan = merged.plans[table]
        print(f"      {table:>10}: {len(merged.per_table(table))} hits, "
              f"classified {stats[CATEGORY]}, planned selectivity "
              f"{plan.content_steps[0].selectivity:.2f}")
    sample = merged.fetchone()
    print(f"      provenance sample: __table__={sample['__table__']!r}, "
          f"image_id={sample['image_id']}")

    print("[4/4] a new camera comes online; frames stream into one shard ...")
    db.attach("cam_west", make_feed(24, seed=4, positive_rate=0.6))
    batch = make_feed(12, seed=5)
    db.ingest(batch.images, metadata=batch.metadata, content=batch.content,
              table="cam_north")
    merged = db.execute(FANOUT_SQL)
    classified = {table: merged.images_classified[table][CATEGORY]
                  for table in merged.tables}
    print(f"      fan-out now covers {merged.tables}")
    print(f"      frames classified per shard (only new work): {classified}")


if __name__ == "__main__":
    main()
