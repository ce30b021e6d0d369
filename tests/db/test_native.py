"""The native representation (RGB at the frames' own resolution) is the
frames: the executor reads them in its place, so it is never transformed,
copied, stored, budgeted or checkpointed.  Every test pins a
cascade that reads the native representation at one level and a derived
one at another, and checks the answers against a brute-force
``Cascade.classify`` over the same frames."""

import json

import numpy as np
import pytest

from repro.core.cascade import Cascade
from repro.core.optimizer import TahomaOptimizer
from repro.data.categories import get_category
from repro.data.corpus import generate_corpus
from repro.db import VisualDatabase, connect
from repro.db.executor import QueryExecutor
from repro.db.planner import ContentStep, MetadataStep, PlanAnd, QueryPlan
from repro.query.predicates import ContainsObject, MetadataPredicate
from repro.storage.encoding import representation_bytes
from repro.storage.store import RepresentationStore
from repro.transforms.spec import TransformSpec
from tests.conftest import TINY_SIZE

NATIVE = TransformSpec(TINY_SIZE, "rgb")
REFERENCE_PARAMS = {"base_width": 8, "n_stages": 2, "blocks_per_stage": 1}
SQL = "SELECT * FROM images WHERE contains_object(komondor)"


def make_corpus(n_images, seed):
    return generate_corpus((get_category("komondor"),), n_images=n_images,
                           image_size=TINY_SIZE,
                           rng=np.random.default_rng(seed), positive_rate=0.9)


def reads_native_and_derived(evaluation):
    specs = {model.transform for model in evaluation.cascade.models}
    return NATIVE in specs and len(specs) > 1


def native_evaluation(optimizer, profiler):
    """The first evaluated cascade reading native and a derived spec."""
    return next(evaluation
                for evaluation in optimizer.evaluate(profiler).evaluations
                if reads_native_and_derived(evaluation))


def derived_specs(evaluation):
    return sorted({model.transform for model in evaluation.cascade.models}
                  - {NATIVE}, key=lambda spec: spec.name)


def plan_for(evaluation, *metadata):
    step = ContentStep(predicate=ContainsObject("komondor"),
                       evaluation=evaluation, selectivity=0.5,
                       cost_per_image_s=evaluation.cost.total_s)
    if not metadata:
        return QueryPlan(predicate_tree=step)
    return QueryPlan(predicate_tree=PlanAnd(
        (*(MetadataStep(predicate) for predicate in metadata), step)))


def assert_brute_force(ids, executor, cascade, mask=None):
    expected = cascade.classify(executor.corpus.images).astype(bool)
    if mask is not None:
        expected &= mask
    np.testing.assert_array_equal(
        ids, executor.id_offset + np.flatnonzero(expected))


@pytest.fixture()
def evaluation(tiny_optimizer, camera_profiler):
    return native_evaluation(tiny_optimizer, camera_profiler)


class TestExecutor:
    def test_materializing_query_stores_no_native(self, evaluation):
        executor = QueryExecutor(make_corpus(24, seed=77))
        result = executor.execute(plan_for(evaluation))
        assert result.images_classified["komondor"] == 24  # materializes

        assert NATIVE not in executor.store
        derived = derived_specs(evaluation)
        assert executor.store.specs() == derived
        assert len(executor.store) == len(derived)
        assert_brute_force(result.selected_indices, executor,
                           evaluation.cascade)

    def test_ongoing_ingests_store_only_derived_arrays(self, evaluation):
        executor = QueryExecutor(make_corpus(24, seed=77))
        plan = plan_for(evaluation)
        executor.execute(plan)
        for seed in range(3):
            batch = make_corpus(10, seed=78 + seed)
            executor.ingest(batch.images, metadata=batch.metadata,
                            materialize=True)
        derived = derived_specs(evaluation)
        assert executor.store.specs() == derived
        for spec in derived:
            assert executor.store.rows(spec) == 54
        result = executor.execute(plan)
        assert result.images_classified["komondor"] == 30  # new rows only
        assert NATIVE not in executor.store
        assert_brute_force(result.selected_indices, executor,
                           evaluation.cascade)

    def test_budget_spent_on_derived_arrays_only(self, evaluation):
        # The budget fits native plus derived arrays over the seed rows; the
        # derived arrays alone still fit once three batches are ingested
        # (native plus derived would not), so nothing is evicted.
        seed_rows, final_rows = 24, 54
        derived = derived_specs(evaluation)
        derived_bytes = sum(representation_bytes(spec) for spec in derived)
        budget = seed_rows * (representation_bytes(NATIVE) + derived_bytes)
        assert final_rows * derived_bytes <= budget
        assert final_rows * (representation_bytes(NATIVE)
                             + derived_bytes) > budget
        store = RepresentationStore(byte_budget=budget)
        executor = QueryExecutor(make_corpus(seed_rows, seed=77), store=store)
        plan = plan_for(evaluation)
        executor.execute(plan)
        for seed in range(3):
            batch = make_corpus(10, seed=78 + seed)
            executor.ingest(batch.images, metadata=batch.metadata,
                            materialize=True)
            result = executor.execute(plan)
            assert_brute_force(result.selected_indices, executor,
                           evaluation.cascade)
        assert store.evictions == 0
        assert store.specs() == derived
        for spec in derived:
            assert store.rows(spec) == final_rows

    @pytest.mark.parametrize("shape", ["wide", "narrow"])
    def test_cascade_reads_the_snapshot_frames(self, evaluation, monkeypatch,
                                               shape):
        # Materializing or not, the cascade's native input is the frames
        # themselves, not a copy, and it is not a store access.
        seen = []
        classify = Cascade.classify_with_stats

        def spy(self, raw_images, *args, **kwargs):
            seen.append((raw_images, kwargs["representations"]))
            return classify(self, raw_images, *args, **kwargs)

        monkeypatch.setattr(Cascade, "classify_with_stats", spy)
        executor = QueryExecutor(make_corpus(24, seed=77))
        metadata = ()
        if shape == "narrow":
            metadata = (MetadataPredicate("location", "==", "detroit"),)
        result = executor.execute(plan_for(evaluation, *metadata))
        monkeypatch.undo()

        [(frames, representations)] = seen
        assert representations[NATIVE.name] is frames
        assert np.shares_memory(frames, executor.corpus.images)
        misses = executor.metrics.value("repro_store_misses_total")
        assert misses == len(derived_specs(evaluation))
        assert executor.metrics.value("repro_store_hits_total") == 0
        mask = None
        if shape == "narrow":
            mask = executor.relation["location"] == "detroit"
            assert NATIVE not in executor.store
            assert len(executor.store) == 0
        assert_brute_force(result.selected_indices, executor,
                           evaluation.cascade, mask)


class TestPersistence:
    @pytest.fixture()
    def db(self, fresh_optimizer, tiny_device, monkeypatch):
        # Every optimizer (the loaded one too) serves the pinned cascade.
        monkeypatch.setattr(
            TahomaOptimizer, "select",
            lambda self, profiler, constraints=None: native_evaluation(
                self, profiler))
        database = connect(make_corpus(24, seed=77), device=tiny_device,
                           scenario="archive", calibrate_target_fps=None)
        database.register_optimizer("komondor", fresh_optimizer(),
                                    reference_params=REFERENCE_PARAMS)
        return database

    @staticmethod
    def stored_specs(root):
        manifest = json.loads((root / "database.json").read_text())
        [entry] = manifest["tables"]
        names = [TransformSpec(**item["spec"]).name
                 for item in entry["store_arrays"]]
        with np.load(root / entry["table_dir"] / "table.npz") as archive:
            assert len([name for name in archive.files
                        if name.startswith("store/")]) == len(names)
        return names

    def test_a_checkpoint_writes_no_native_entry(self, db, tmp_path):
        root = tmp_path / "vdb"
        db.enable_wal(root)
        db.execute(SQL)
        executor = db.executor_for("images")
        assert NATIVE not in executor.store
        derived = executor.store.specs()
        assert derived
        # A store filled by hand may hold a copy of the frames; no
        # checkpoint writes it.
        executor.store.add(NATIVE, executor.corpus.images.copy())
        db.checkpoint()
        assert sorted(self.stored_specs(root)) == [spec.name
                                                   for spec in derived]
        db.close()

        with VisualDatabase.load(root) as loaded:
            store = loaded.executor_for("images").store
            assert NATIVE not in store
            assert store.specs() == derived
            loaded.use_scenario("ongoing")
            batch = make_corpus(6, seed=79)
            loaded.ingest(batch.images, metadata=batch.metadata)
            for spec in derived:
                assert store.rows(spec) == 30
            result = loaded.execute(SQL)
            cascade = native_evaluation(loaded.optimizer("komondor"),
                                        loaded.profiler).cascade
            assert_brute_force(result.image_ids,
                               loaded.executor_for("images"), cascade)
            loaded.checkpoint()
            assert self.stored_specs(root)
            assert NATIVE.name not in self.stored_specs(root)
