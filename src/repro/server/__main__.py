"""``python -m repro.server``: serve a saved database, or a built-in demo.

Two ways to get a database behind the socket::

    python -m repro.server --load my.vdb --port 7432
    python -m repro.server --demo --port 7432

``--demo`` synthesizes a small two-camera catalog and trains a reduced
``komondor`` predicate (CPU-scale, under a minute), so the wire protocol can
be exercised with nothing on disk.  Then, from any process::

    import repro.server
    with repro.server.connect(port=7432) as conn:
        conn.execute("SELECT * FROM all_cameras "
                     "WHERE contains_object(komondor) LIMIT 5")

The process serves until interrupted; Ctrl-C shuts down gracefully
(in-flight queries drain before the port is released).
"""

from __future__ import annotations

import argparse
import threading

from repro.server.server import VisualDatabaseServer


def build_demo_database(seed: int = 0, n_images: int = 60,
                        image_size: int = 16):
    """A self-contained two-camera database with one trained predicate."""
    import numpy as np

    from repro.core.optimizer import TahomaConfig
    from repro.core.spec import ArchitectureSpec
    from repro.core.trainer import TrainingConfig
    from repro.data.categories import get_category
    from repro.data.corpus import build_predicate_splits, generate_corpus
    from repro.db import connect
    from repro.transforms.spec import TransformSpec

    category = get_category("komondor")
    rng = np.random.default_rng(seed)
    corpora = {name: generate_corpus((category,), n_images=n_images,
                                     image_size=image_size,
                                     rng=np.random.default_rng(seed + shift),
                                     positive_rate=0.5)
               for shift, name in enumerate(("cam_north", "cam_south"), 1)}
    database = connect(corpora, calibrate_target_fps=None)
    splits = build_predicate_splits(category, n_train=48, n_config=32,
                                    n_eval=32, image_size=image_size, rng=rng)
    config = TahomaConfig(
        architectures=(ArchitectureSpec(1, 4, 8), ArchitectureSpec(2, 4, 8)),
        transforms=(TransformSpec(8, "rgb"), TransformSpec(16, "rgb")),
        precision_targets=(0.9, 0.95),
        max_depth=2,
        training=TrainingConfig(epochs=2, batch_size=16, augment=True))
    database.register_predicate(
        "komondor", splits, config=config,
        reference_params={"epochs": 4, "base_width": 8, "n_stages": 2,
                          "blocks_per_stage": 1})
    return database


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a VisualDatabase over the NDJSON wire protocol.")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--load", metavar="PATH",
                        help="serve a database saved with VisualDatabase.save")
    source.add_argument("--demo", action="store_true",
                        help="serve a synthesized two-camera demo database")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7432)
    parser.add_argument("--workers", type=int, default=4,
                        help="concurrent queries (default: 4)")
    parser.add_argument("--queue", type=int, default=16,
                        help="queries allowed to wait beyond them "
                             "(default: 16)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="default per-query timeout in seconds")
    parser.add_argument("--scenario", default=None,
                        help="deployment scenario (archive/ongoing/camera)")
    args = parser.parse_args(argv)

    if args.demo:
        print("building demo database (two cameras, one trained predicate)…",
              flush=True)
        database = build_demo_database()
    else:
        from repro.db import VisualDatabase

        database = VisualDatabase.load(args.load)
    if args.scenario:
        database.use_scenario(args.scenario)

    server = VisualDatabaseServer(
        database, args.host, args.port, max_workers=args.workers,
        max_queue=args.queue, default_timeout=args.timeout,
        close_database=True).start()
    host, port = server.address
    print(f"serving {database!r}", flush=True)
    print(f"listening on {host}:{port} — connect with "
          f"repro.server.connect(host={host!r}, port={port})", flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("shutting down (draining in-flight queries)…", flush=True)
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
