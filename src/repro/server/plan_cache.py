"""The plan cache: physical plans keyed by normalized query shape.

Dashboards re-issue the same handful of queries, often with nothing but a
literal changed (a fresh timestamp bound, a different location).
:class:`~repro.db.database.VisualDatabase` can route plan resolution through
this cache (``connect(..., plan_cache=True)`` / ``enable_plan_cache()``;
the network server enables it for the database it serves) so an exact
repeat pays for neither parsing nor lowering.  Cascade selection (the
Pareto analysis over a predicate's model pool) is not this cache's business:
each :class:`~repro.core.optimizer.TahomaOptimizer` remembers its evaluated
frontier per cost profile, whether or not a plan cache is on.

The key is the query's *shape*: its token stream with every literal
(string/number) replaced by ``?``, plus the effective constraints and the
active scenario.  Three outcomes per lookup, all counted:

* **hit** — same shape, same literals: the cached plan is returned with no
  parsing and no planning at all;
* **rebind** — same shape, different literals: parsed and planned like a
  miss (so selectivities are the shard's current ones) and the entry is
  replaced; counted apart from a miss because it tells an operator the
  shape is hot and only its literals churn;
* **miss** — unknown shape: parsed, planned, then cached.

The cache is *invalidated* — cleared — on scenario switches, device
calibration, attach / detach / replace and retention changes (the database hooks call
:meth:`PlanCache.invalidate`).  Ingest does not invalidate: a cached plan
stays *correct* under ingest, its estimated selectivities merely go stale,
which can only affect predicate ordering.  Entries are LRU-evicted beyond
:data:`CAPACITY`.  All operations are thread-safe — server connection
threads share one cache.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.locking import make_lock
from repro.query.ast import tokenize
from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.selector import UserConstraints
    from repro.db.planner import QueryPlan

__all__ = ["PlanCache", "CacheEntry", "normalize"]

#: Cached shapes kept before the least recently used one is evicted.
CAPACITY = 128


def normalize(sql: str) -> tuple[str, tuple]:
    """One query's (shape, literals): literals stripped from the tokens.

    The shape is the token stream with every STRING/NUMBER token replaced
    by ``?`` — whitespace and literal spelling differences disappear, while
    structure, identifiers and keywords (case-sensitively, so an exact
    dashboard repeat always matches itself) survive.  The literals come
    back as a tuple of Python values in token order, used to distinguish an
    exact repeat (cache *hit*) from a shape repeat (*rebind*).

    Raises :class:`~repro.query.ast.SqlParseError` on untokenizable text,
    exactly as parsing would.
    """
    shape_parts: list[str] = []
    literals: list = []
    for token in tokenize(sql):
        if token.type in ("STRING", "NUMBER"):
            shape_parts.append("?")
            literals.append(token.value)
        else:
            shape_parts.append(token.text)
    return " ".join(shape_parts), tuple(literals)


@dataclass
class CacheEntry:
    """One cached shape: the literals it was planned for and its plan(s).

    ``plans`` is a single :class:`~repro.db.planner.QueryPlan` for a
    single-table query or a ``{table: plan}`` mapping for a fan-out.
    """

    literals: tuple
    plans: "QueryPlan | dict[str, QueryPlan]"


class PlanCache:
    """A bounded, thread-safe, LRU plan cache with hit/miss/rebind counters.

    The counters live on a :class:`~repro.telemetry.metrics.MetricsRegistry`
    (``repro_plan_cache_*`` metrics) — the served database injects its own
    registry so the ``stats`` and ``metrics`` wire views agree by
    construction; a standalone cache gets a private one.
    """

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = make_lock("plan-cache")
        self._entries: OrderedDict[Any, CacheEntry] = OrderedDict()  # guarded by: self._lock
        self._lookups = self.metrics.counter("repro_plan_cache_lookups_total")
        self._invalidations = self.metrics.counter(
            "repro_plan_cache_invalidations_total")
        self._evictions = self.metrics.counter(
            "repro_plan_cache_evictions_total")

    @staticmethod
    def key_for(sql: str, constraints: "UserConstraints",
                scenario: str) -> tuple[Any, tuple]:
        """The cache key and literal bindings for one query.

        Constraints and scenario are part of the key — the same SQL under a
        tighter accuracy budget or another deployment scenario selects
        different cascades.  (Scenario switches *also* clear the cache; the
        key keeps entries correct even if a caller bypasses the hooks.)
        """
        shape, literals = normalize(sql)
        key = (shape, constraints.max_accuracy_loss,
               constraints.min_throughput, scenario)
        return key, literals

    def lookup(self, key, literals: tuple
               ) -> tuple[str, CacheEntry | None]:
        """``("hit"|"rebind"|"miss", entry)`` for one key, counting it."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                outcome = "miss"
            else:
                self._entries.move_to_end(key)
                outcome = ("hit" if entry.literals == literals
                           else "rebind")
        self._lookups.inc(outcome=outcome)
        return outcome, entry

    def store(self, key, literals: tuple, plans) -> None:
        """Install (or refresh) one shape's plan, evicting LRU beyond capacity."""
        evicted = 0
        with self._lock:
            self._entries[key] = CacheEntry(literals=literals, plans=plans)
            self._entries.move_to_end(key)
            while len(self._entries) > CAPACITY:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            self._evictions.inc(evicted)

    def invalidate(self) -> None:
        """Drop every cached plan (scenario/catalog/retention changed)."""
        with self._lock:
            self._entries.clear()
        self._invalidations.inc()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _count(self, outcome: str) -> int:
        return int(self._lookups.value(outcome=outcome))

    def stats(self) -> dict:
        """Counters + occupancy, as surfaced by the server's ``stats``."""
        hits, rebinds, misses = (self._count("hit"), self._count("rebind"),
                                 self._count("miss"))
        lookups = hits + rebinds + misses
        return {"hits": hits,
                "rebinds": rebinds,
                "misses": misses,
                "invalidations": int(self._invalidations.value()),
                "evictions": int(self._evictions.value()),
                "entries": len(self),
                "capacity": CAPACITY,
                "hit_rate": ((hits + rebinds) / lookups if lookups else 0.0)}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PlanCache(entries={len(self)}, "
                f"hits={self._count('hit')}, "
                f"rebinds={self._count('rebind')}, "
                f"misses={self._count('miss')})")
