#!/usr/bin/env python
"""Serving a VisualDatabase over the network: sessions, cursors, backpressure.

The ``repro.server`` package turns the in-process engine into a multi-client
system — a stdlib-only TCP server speaking the SQL dialect over
newline-delimited JSON.  This example walks the serving layer end to end:

1. a two-camera catalog with one trained predicate goes behind
   ``repro.server.serve`` (ephemeral port, in-process — the same server
   works across processes and hosts),
2. a client ``connect()``s and pages a content query — the first page rides
   on the ``execute`` answer, and only a longer result parks a server-side
   cursor that ``fetch`` pages without re-running the query,
3. a repeated dashboard query is served from the plan cache (exact repeat:
   *hit*; same shape with a new literal: *rebind* — cascade selection is
   never repeated),
4. per-query timeouts abort at executor chunk boundaries and the session
   survives; an overfull admission queue rejects immediately with a
   structured backpressure error,
5. the server shuts down gracefully, draining in-flight queries.

Run with:  python examples/network_serving.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro
import repro.server
from repro.core.optimizer import TahomaConfig
from repro.core.selector import UserConstraints
from repro.core.spec import ArchitectureSpec
from repro.core.trainer import TrainingConfig
from repro.data.categories import get_category
from repro.data.corpus import build_predicate_splits, generate_corpus
from repro.query.ast import QueryTimeoutError
from repro.transforms.spec import standard_transform_grid

IMAGE_SIZE = 32
CATEGORY = "komondor"
CONTENT_SQL = (f"SELECT * FROM all_cameras WHERE contains_object({CATEGORY}) "
               "LIMIT 8")


def make_feed(n: int, seed: int, positive_rate: float = 0.5):
    return generate_corpus((get_category(CATEGORY),), n_images=n,
                           image_size=IMAGE_SIZE,
                           rng=np.random.default_rng(seed),
                           positive_rate=positive_rate)


def build_database() -> repro.VisualDatabase:
    db = repro.connect(
        {"cam_north": make_feed(48, seed=1, positive_rate=0.7),
         "cam_south": make_feed(32, seed=2, positive_rate=0.3)},
        default_constraints=UserConstraints(max_accuracy_loss=0.05))
    splits = build_predicate_splits(get_category(CATEGORY), n_train=96,
                                    n_config=64, n_eval=64,
                                    image_size=IMAGE_SIZE,
                                    rng=np.random.default_rng(0))
    config = TahomaConfig(
        architectures=(ArchitectureSpec(1, 8, 16), ArchitectureSpec(2, 8, 16)),
        transforms=tuple(standard_transform_grid(
            resolutions=(8, 16, 32), color_modes=("rgb", "gray"))),
        precision_targets=(0.93, 0.97),
        max_depth=2,
        training=TrainingConfig(epochs=3, batch_size=16))
    db.register_predicate(CATEGORY, splits, config=config,
                          reference_params={"epochs": 4, "base_width": 8,
                                            "n_stages": 2,
                                            "blocks_per_stage": 1})
    db.use_scenario("camera")
    return db


def main() -> None:
    print("[1/5] training one predicate and starting the server ...")
    db = build_database()
    server = repro.server.serve(db, port=0, max_workers=2, max_queue=8)
    host, port = server.address
    print(f"      listening on {host}:{port} "
          f"(wire protocol: one JSON object per line)")

    with repro.server.connect(host, port) as conn:
        print("[2/5] paging a fan-out query ...")
        cursor = conn.execute(CONTENT_SQL)
        parked = ("no server-side cursor parked" if cursor.cursor_id is None
                  else f"cursor {cursor.cursor_id} parked for the rest")
        print(f"      {cursor.rowcount} rows, the first page came with the "
              f"execute answer ({parked}); columns include __table__ "
              "provenance")
        while True:
            page = cursor.fetchmany(3)
            if not page:
                break
            tagged = [f"{row['__table__']}#{row['image_id']}" for row in page]
            print(f"      page of {len(page)}: {', '.join(tagged)} "
                  f"({cursor.remaining} remaining)")

        print("[3/5] repeated shapes hit the plan cache ...")
        dashboard = ("SELECT image_id FROM cam_north "
                     "WHERE location = '{loc}'")
        for loc in ("detroit", "detroit", "seattle"):
            conn.execute(dashboard.format(loc=loc)).fetchall()
        stats = conn.stats()["plan_cache"]
        print(f"      {stats['hits']} hits, {stats['rebinds']} rebinds, "
              f"{stats['misses']} misses "
              f"(hit rate {stats['hit_rate']:.2f}) — an exact repeat skips "
              "parse+plan, a new literal reuses the cascade selections")

        print("[4/5] a per-query timeout aborts at a chunk boundary ...")
        try:
            conn.execute(CONTENT_SQL, timeout=1e-6)
        except QueryTimeoutError as exc:
            print(f"      QueryTimeoutError: {exc}")
        print(f"      session survived: ping -> {conn.ping()}; the same "
              "query without a timeout:")
        print(f"      {conn.execute(CONTENT_SQL).rowcount} rows "
              "(admission queue full would instead raise BackpressureError "
              "immediately)")

    print("[5/5] graceful shutdown (in-flight queries drain) ...")
    server.close()
    try:
        repro.server.connect(host, port, timeout=0.5)
    except OSError:
        print("      port released; new connections are refused")


if __name__ == "__main__":
    main()
