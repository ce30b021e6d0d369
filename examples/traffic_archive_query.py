#!/usr/bin/env python
"""Archived traffic-camera analytics: the paper's motivating SELECT query.

Scenario: a city stores full frames from its traffic cameras on an SSD
archive, together with metadata (location, timestamp, camera id).  An analyst
later asks

    SELECT * FROM images
    WHERE location = 'detroit' AND contains_object(komondor)

The ``repro.db`` facade decomposes this into a cheap metadata predicate and
an expensive binary content predicate: the planner evaluates the metadata
predicate first, selects a Pareto-optimal cascade for the ARCHIVE deployment
scenario (loading + transforming + inference all count) and the executor
classifies only the surviving rows, materializing the ``contains_komondor``
virtual column for future queries.

Run with:  python examples/traffic_archive_query.py
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


def main() -> None:
    rng = np.random.default_rng(1)

    print("[1/3] generating the archived camera corpus ...")
    corpus = generate_corpus((get_category(CATEGORY), get_category("scorpion")),
                             n_images=60, image_size=IMAGE_SIZE, rng=rng,
                             positive_rate=0.6)
    print(f"      {len(corpus)} frames, locations: "
          f"{sorted(set(corpus.metadata['location']))}")

    print("[2/3] initializing TAHOMA for contains_object(komondor) ...")
    db = repro.connect(corpus, scenario="archive",
                       default_constraints=UserConstraints(max_accuracy_loss=0.05))
    splits = build_predicate_splits(get_category(CATEGORY), n_train=96,
                                    n_config=64, n_eval=64,
                                    image_size=IMAGE_SIZE, rng=rng)
    config = TahomaConfig(
        architectures=(ArchitectureSpec(1, 8, 16), ArchitectureSpec(2, 8, 32)),
        transforms=tuple(standard_transform_grid(
            resolutions=(8, 16, 32), color_modes=("rgb", "gray", "red"))),
        precision_targets=(0.95,),
        training=TrainingConfig(epochs=4))
    db.register_predicate(CATEGORY, splits, config=config,
                          reference_params={"epochs": 6, "base_width": 16,
                                            "n_stages": 3, "blocks_per_stage": 1})
    optimizer = db.optimizer(CATEGORY)
    print(f"      {optimizer.n_models} models, {optimizer.n_cascades:,} cascades")

    print("[3/3] running the SELECT query under the ARCHIVE scenario ...")
    sql = (f"SELECT * FROM images WHERE location = 'detroit' "
           f"AND contains_object({CATEGORY})")
    print("\n" + str(db.explain(sql)) + "\n")

    result = db.execute(sql)
    chosen = result.cascades_used[CATEGORY]
    truth = corpus.content[CATEGORY]
    print(f"  cascade selected   : {chosen.name}")
    print(f"  expected accuracy  : {chosen.accuracy:.3f}")
    print(f"  expected throughput: {chosen.throughput:,.0f} fps under ARCHIVE")
    print(f"  frames classified  : {result.images_classified[CATEGORY]} "
          f"(of {len(corpus)} in the corpus)")
    print(f"  rows returned      : {len(result)}")
    if len(result) > 0:
        hits = truth[result.image_ids]
        print(f"  true positives     : {int(hits.sum())}/{len(result)}")

    # A follow-up query over the whole corpus reuses the materialized column
    # for the Detroit rows and classifies only the remaining frames.
    second = db.execute(f"SELECT * FROM images WHERE contains_object({CATEGORY})")
    print(f"\n  follow-up query classified only "
          f"{second.images_classified[CATEGORY]} additional frames")


if __name__ == "__main__":
    main()
