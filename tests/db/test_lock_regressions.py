"""Regression tests for races the static lock checker found and this tree
fixed: unlocked catalog membership, unlocked executor/materialized reads,
unlocked store lookups, and the server start/close flag races.

Each test hammers the previously-unlocked path from several threads while a
writer churns the state it reads; the assertion is simply "no exception and
a consistent answer" — exactly what the unlocked versions could not promise
(dict-changed-during-iteration, torn reads).
"""

import threading

import numpy as np
import pytest

from repro.data.categories import get_category
from repro.data.corpus import generate_corpus
from repro.db.catalog import Catalog
from repro.db.executor import QueryExecutor
from repro.storage.store import RepresentationStore
from repro.transforms.spec import TransformSpec
from tests.conftest import TINY_SIZE


def make_corpus(n_images=8, seed=11):
    return generate_corpus((get_category("komondor"),), n_images=n_images,
                           image_size=TINY_SIZE,
                           rng=np.random.default_rng(seed), positive_rate=0.9)


def _run_threads(workers, errors):
    threads = [threading.Thread(target=worker, name=f"regress-{i}")
               for i, worker in enumerate(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


class TestCatalogMembershipRaces:
    def test_concurrent_attach_detach_and_iteration(self):
        catalog = Catalog()
        corpus = make_corpus()
        catalog.attach("stable", make_corpus(seed=12))
        stop = threading.Event()
        errors = []

        def churn():
            try:
                for round_ in range(40):
                    name = f"cam_{round_ % 4}"
                    if name in catalog:
                        catalog.detach(name)
                    else:
                        catalog.attach(name, corpus)
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)
            finally:
                stop.set()

        def read():
            try:
                while not stop.is_set():
                    # Unlocked, each of these could raise
                    # "dictionary changed size during iteration".
                    names = list(catalog)
                    assert "stable" in names
                    assert len(catalog) >= 1
                    assert catalog.tables()
                    # Read once: a detach between two calls is not a bug.
                    default = catalog.default_table()
                    assert default is None or isinstance(default, str)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        _run_threads([churn, read, read, read], errors)
        assert "stable" in catalog

    def test_duplicate_attach_race_leaves_one_winner(self):
        catalog = Catalog()
        corpus = make_corpus()
        outcomes = []
        barrier = threading.Barrier(4)

        def contend():
            barrier.wait()
            try:
                catalog.attach("cam", corpus)
                outcomes.append("attached")
            except ValueError:
                outcomes.append("rejected")

        errors = []
        _run_threads([contend] * 4, errors)
        assert outcomes.count("attached") == 1
        assert outcomes.count("rejected") == 3


class TestExecutorSnapshotRaces:
    def test_materialized_categories_during_ingest(self):
        executor = QueryExecutor(make_corpus(n_images=12))
        batch = make_corpus(n_images=4, seed=13)
        stop = threading.Event()
        errors = []

        def ingest():
            try:
                for _ in range(25):
                    executor.ingest(batch.images, metadata=batch.metadata,
                                    content=batch.content)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                stop.set()

        def read():
            try:
                while not stop.is_set():
                    # Previously iterated self._materialized unlocked.
                    assert isinstance(executor.materialized_categories(),
                                      list)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        _run_threads([ingest, read, read], errors)


class TestStoreLookupRaces:
    def test_contains_and_evictions_during_churn(self):
        spec = TransformSpec(8, "rgb")
        array = np.zeros((4,) + spec.shape, dtype=np.float32)
        store = RepresentationStore()
        stop = threading.Event()
        errors = []

        def churn():
            try:
                for _ in range(200):
                    store.add(spec, array)
                    store.clear()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
            finally:
                stop.set()

        def read():
            try:
                while not stop.is_set():
                    assert (spec in store) in (True, False)
                    assert store.evictions >= 0
                    assert isinstance(store.specs(), list)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        _run_threads([churn, read, read], errors)


class TestServerLifecycleRaces:
    @pytest.fixture()
    def server(self, tiny_optimizer, tiny_device):
        from repro.costs.scenario import CAMERA
        from repro.db import connect
        from repro.server.server import VisualDatabaseServer

        database = connect({"cam": make_corpus(n_images=10, seed=14)},
                           device=tiny_device, scenario=CAMERA,
                           calibrate_target_fps=None)
        return VisualDatabaseServer(database, max_workers=2, max_queue=4,
                                    close_database=True)

    def test_concurrent_close_runs_shutdown_once(self, server):
        server.start()
        barrier = threading.Barrier(4)
        errors = []

        def close():
            barrier.wait()
            try:
                server.close()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        _run_threads([close] * 4, errors)

    def test_start_after_close_raises(self, server):
        server.start()
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.start()
