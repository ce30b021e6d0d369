"""Plan cache: shape normalization, hit/rebind/miss, LRU, invalidation hooks."""

import numpy as np
import pytest

from repro.core.selector import UserConstraints
from repro.data.categories import get_category
from repro.data.corpus import generate_corpus
from repro.db import connect
from repro.db import plan_cache as plan_cache_module
from repro.db.plan_cache import PlanCache, normalize
from repro.db.retention import RetentionPolicy
from repro.query.ast import SqlParseError
from tests.conftest import TINY_SIZE


class TestNormalize:
    def test_literals_stripped(self):
        shape, literals = normalize(
            "SELECT * FROM images WHERE location = 'detroit' AND speed > 3.5")
        assert "'detroit'" not in shape and "3.5" not in shape
        assert shape.count("?") == 2
        assert literals == ("detroit", 3.5)

    def test_same_shape_different_literals(self):
        shape_a, lit_a = normalize("SELECT * FROM images WHERE ts > 10")
        shape_b, lit_b = normalize("SELECT * FROM images WHERE ts > 99")
        assert shape_a == shape_b
        assert lit_a != lit_b

    def test_whitespace_insensitive(self):
        a, _ = normalize("SELECT *  FROM   images")
        b, _ = normalize("SELECT * FROM images")
        assert a == b

    def test_structure_preserved(self):
        a, _ = normalize("SELECT * FROM cam_a")
        b, _ = normalize("SELECT * FROM cam_b")
        assert a != b

    def test_untokenizable_raises_parse_error(self):
        with pytest.raises(SqlParseError):
            normalize("SELECT ~ FROM images")


class TestPlanCache:
    KEY = ("shape", None, None, "archive")

    def test_miss_then_hit(self):
        cache = PlanCache()
        status, entry = cache.lookup(self.KEY, ("a",))
        assert status == "miss" and entry is None
        cache.store(self.KEY, ("a",), "plan")
        status, entry = cache.lookup(self.KEY, ("a",))
        assert status == "hit" and entry.plans == "plan"

    def test_rebind_on_new_literals(self):
        cache = PlanCache()
        cache.store(self.KEY, ("a",), "plan")
        status, entry = cache.lookup(self.KEY, ("b",))
        assert status == "rebind" and entry.plans == "plan"
        assert cache.stats()["rebinds"] == 1

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(plan_cache_module, "CAPACITY", 2)
        cache = PlanCache()
        cache.store("k1", (), "p1")
        cache.store("k2", (), "p2")
        cache.lookup("k1", ())          # k1 becomes most recent
        cache.store("k3", (), "p3")     # evicts k2
        assert cache.lookup("k2", ())[0] == "miss"
        assert cache.lookup("k1", ())[0] == "hit"
        assert cache.stats()["evictions"] == 1

    def test_capacity_validated(self):
        # The bound the cache enforces is the module constant.
        cache = PlanCache()
        for index in range(plan_cache_module.CAPACITY + 1):
            cache.store(f"k{index}", (), index)
        stats = cache.stats()
        assert stats["entries"] == stats["capacity"] == 128
        assert stats["evictions"] == 1
        assert cache.lookup("k0", ())[0] == "miss"
        assert cache.lookup("k1", ())[0] == "hit"

    def test_invalidate_clears(self):
        cache = PlanCache()
        cache.store(self.KEY, (), "plan")
        cache.invalidate()
        assert len(cache) == 0
        assert cache.lookup(self.KEY, ())[0] == "miss"

    def test_key_includes_constraints_and_scenario(self):
        loose = UserConstraints(max_accuracy_loss=0.2)
        tight = UserConstraints(max_accuracy_loss=0.01)
        sql = "SELECT * FROM images"
        key_a, _ = PlanCache.key_for(sql, loose, "archive")
        key_b, _ = PlanCache.key_for(sql, tight, "archive")
        key_c, _ = PlanCache.key_for(sql, loose, "camera")
        assert len({key_a, key_b, key_c}) == 3

    def test_hit_rate(self):
        cache = PlanCache()
        cache.lookup("k", ())            # miss
        cache.store("k", (), "p")
        cache.lookup("k", ())            # hit
        cache.lookup("k", ("x",))        # rebind
        stats = cache.stats()
        assert stats["hit_rate"] == pytest.approx(2 / 3)


@pytest.fixture()
def cached_db():
    corpus = generate_corpus((get_category("komondor"),), n_images=24,
                             image_size=TINY_SIZE,
                             rng=np.random.default_rng(3))
    return connect({"cam_a": corpus, "cam_b": corpus},
                   calibrate_target_fps=None, plan_cache=True)


class TestDatabaseIntegration:
    SQL = "SELECT image_id FROM cam_a WHERE location = 'detroit'"

    def test_repeat_query_hits(self, cached_db):
        first = cached_db.execute(self.SQL).fetchall()
        second = cached_db.execute(self.SQL).fetchall()
        assert first == second
        stats = cached_db.plan_cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_rebind_changes_results(self, cached_db):
        cached_db.execute(self.SQL)
        seattle = cached_db.execute(
            "SELECT image_id FROM cam_a WHERE location = 'seattle'")
        assert cached_db.plan_cache.stats()["rebinds"] == 1
        fresh = connect({"cam_a": cached_db.corpus_for("cam_a")},
                        calibrate_target_fps=None)
        expected = fresh.execute(
            "SELECT image_id FROM cam_a WHERE location = 'seattle'")
        assert seattle.fetchall() == expected.fetchall()

    def test_explain_shares_cache(self, cached_db):
        cached_db.explain(self.SQL)
        cached_db.execute(self.SQL)
        stats = cached_db.plan_cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_scenario_switch_invalidates(self, cached_db):
        cached_db.execute(self.SQL)
        cached_db.use_scenario("camera")
        assert len(cached_db.plan_cache) == 0
        cached_db.execute(self.SQL)
        assert cached_db.plan_cache.stats()["misses"] == 2

    def test_attach_detach_invalidate(self, cached_db):
        cached_db.execute(self.SQL)
        cached_db.attach("cam_c", cached_db.corpus_for("cam_a"))
        assert len(cached_db.plan_cache) == 0
        cached_db.execute(self.SQL)
        cached_db.detach("cam_c")
        assert len(cached_db.plan_cache) == 0

    def test_retention_change_invalidates(self, cached_db):
        cached_db.execute(self.SQL)
        cached_db.set_retention("cam_a", RetentionPolicy(max_rows=10))
        assert len(cached_db.plan_cache) == 0

    def test_explicit_tables_bypass_cache(self, cached_db):
        cached_db.execute("SELECT count(*) FROM all_cameras",
                          tables=["cam_a"])
        stats = cached_db.plan_cache.stats()
        assert stats["hits"] + stats["rebinds"] + stats["misses"] == 0

    def test_enable_is_idempotent(self, cached_db):
        cache = cached_db.plan_cache
        assert cached_db.enable_plan_cache() is cache

    def test_constructor_capacity(self):
        corpus = generate_corpus((get_category("komondor"),), n_images=8,
                                 image_size=TINY_SIZE,
                                 rng=np.random.default_rng(5))
        db = connect(corpus, calibrate_target_fps=None, plan_cache=True)
        assert db.plan_cache.stats()["capacity"] == plan_cache_module.CAPACITY
        assert connect(corpus, calibrate_target_fps=None).plan_cache is None


class TestPlansStayFresh:
    """A cached plan never outlives the facts it was priced on."""

    @staticmethod
    def _sql(location: str) -> str:
        return ("SELECT image_id FROM cam_a WHERE contains_object(komondor) "
                f"AND location = '{location}'")

    def test_rebind_reads_current_selectivity(self, cached_db,
                                              fresh_optimizer):
        cached_db.register_optimizer("komondor", fresh_optimizer())
        locations = sorted(set(cached_db.corpus_for("cam_a")
                               .metadata["location"]))
        # Planned before any row is classified: the evaluation-set estimate.
        estimated = cached_db.explain(self._sql(locations[0])).content_steps[0]
        cached_db.execute(self._sql(locations[0]))
        observed = cached_db.executor_for("cam_a").observed_positive_rate(
            "komondor", estimated.evaluation.cascade.name)
        assert observed is not None and observed != estimated.selectivity

        rebound = cached_db.explain(self._sql(locations[1])).content_steps[0]
        stats = cached_db.plan_cache.stats()
        assert (stats["misses"], stats["hits"], stats["rebinds"]) == (1, 1, 1)
        assert rebound.evaluation.name == estimated.evaluation.name
        assert rebound.selectivity == observed

    def test_calibration_invalidates_cached_plans(self, fresh_optimizer):
        """A predicate registered without a reference leaves the device
        uncalibrated; the first reference that arrives re-prices everything."""
        corpus = generate_corpus((get_category("komondor"),), n_images=8,
                                 image_size=TINY_SIZE,
                                 rng=np.random.default_rng(4))
        sql = "SELECT image_id FROM images WHERE contains_object(plain)"

        def plan_after_second_registration(plan_cache: bool) -> dict:
            db = connect(corpus, plan_cache=plan_cache)
            db.register_optimizer("plain",
                                  fresh_optimizer(with_reference=False))
            uncalibrated = db.device
            db.explain(sql)
            db.register_optimizer("anchored", fresh_optimizer())
            assert db.device != uncalibrated
            return db.explain(sql).to_dict()

        assert plan_after_second_registration(plan_cache=True) == \
            plan_after_second_registration(plan_cache=False)
