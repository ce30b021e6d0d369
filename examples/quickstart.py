#!/usr/bin/env python
"""Quickstart: open a visual database, register a predicate, run a query.

This walks the whole TAHOMA pipeline through the ``repro.db`` facade:

1. render a small synthetic camera corpus plus labeled training splits for
   the ``komondor`` predicate,
2. ``connect()`` to the corpus and ``register_predicate`` — the database
   trains the reference classifier and the A x F model grid, calibrates
   thresholds and enumerates cascades internally,
3. run the paper's motivating SELECT query under two deployment scenarios,
   letting the planner pick the Pareto-optimal cascade per scenario,
4. ``explain()`` the plan and round-trip the trained database through
   ``save()`` / ``load()``.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import sys
import tempfile
import time
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
SQL = f"SELECT * FROM images WHERE location = 'detroit' AND contains_object({CATEGORY})"


def main() -> None:
    rng = np.random.default_rng(0)

    print(f"[1/4] rendering corpus + labeled data for contains_object({CATEGORY}) ...")
    category = get_category(CATEGORY)
    corpus = generate_corpus((category, get_category("scorpion")), n_images=60,
                             image_size=IMAGE_SIZE, rng=rng, positive_rate=0.6)
    splits = build_predicate_splits(category, n_train=96, n_config=64, n_eval=64,
                                    image_size=IMAGE_SIZE, rng=rng)
    print(f"      {len(corpus)} corpus frames; "
          f"train/config/eval sizes: {splits.sizes()}")

    print("[2/4] connect() and register the predicate (trains everything) ...")
    db = repro.connect(corpus,
                       default_constraints=UserConstraints(max_accuracy_loss=0.05))
    config = TahomaConfig(
        architectures=(ArchitectureSpec(1, 8, 16), ArchitectureSpec(2, 8, 16)),
        transforms=tuple(standard_transform_grid(
            resolutions=(8, 16, 32),
            color_modes=("rgb", "red", "green", "blue", "gray"))),
        precision_targets=(0.93, 0.97),
        max_depth=2,
        training=TrainingConfig(epochs=4, batch_size=32))
    start = time.time()
    db.register_predicate(CATEGORY, splits, config=config,
                          reference_params={"epochs": 6, "base_width": 16,
                                            "n_stages": 3, "blocks_per_stage": 1})
    optimizer = db.optimizer(CATEGORY)
    print(f"      {optimizer.n_models} models, {optimizer.n_cascades:,} cascades "
          f"in {time.time() - start:.1f}s")

    print("[3/4] running the query under two deployment scenarios ...")
    for scenario in ("infer_only", "camera"):
        db.use_scenario(scenario)
        results = db.execute(SQL)
        chosen = results.cascades_used[CATEGORY]
        print(f"\n  scenario: {scenario}")
        print(f"    selected cascade   : {chosen.name}")
        print(f"    expected accuracy  : {chosen.accuracy:.3f}")
        print(f"    expected throughput: {chosen.throughput:,.0f} fps "
              f"(reference classifier: ~75 fps)")
        print(f"    rows returned      : {len(results)} "
              f"({results.images_classified[CATEGORY]} frames classified)")

    print("\n[4/4] explain() and save/load round trip ...")
    print("\n" + str(db.explain(SQL)) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        db.save(Path(tmp) / "quickstart.vdb")
        reloaded = repro.VisualDatabase.load(Path(tmp) / "quickstart.vdb")
        reloaded.use_scenario("camera")
        again = reloaded.execute(SQL)
        print(f"      reloaded database returns {len(again)} rows "
              f"(identical: {np.array_equal(again.image_ids, results.image_ids)})")


if __name__ == "__main__":
    main()
