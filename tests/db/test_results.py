"""Tests for ResultSet: cursor semantics, streaming, columnar access."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.planner import QueryPlan
from repro.db.results import ResultSet
from repro.query.model import QueryResult
from repro.query.relation import Relation, to_python


def _result_set(n_rows: int = 5) -> ResultSet:
    relation = Relation({
        "image_id": np.arange(n_rows),
        "location": np.array([f"city{i}" for i in range(n_rows)]),
        "contains_komondor": np.ones(n_rows, dtype=np.int64),
    })
    result = QueryResult(relation=relation,
                         selected_indices=np.arange(n_rows) * 2,
                         cascades_used={}, images_classified={"komondor": n_rows})
    plan = QueryPlan(scenario_name="camera")
    return ResultSet(result, plan)


class TestShape:
    def test_len_and_columns(self):
        results = _result_set(4)
        assert len(results) == 4
        assert results.columns == ["contains_komondor", "image_id", "location"]

    def test_image_ids(self):
        np.testing.assert_array_equal(_result_set(3).image_ids, [0, 2, 4])


class TestRowAccess:
    def test_rows_are_plain_python(self):
        row = _result_set().row(1)
        assert row == {"image_id": 1, "location": "city1",
                       "contains_komondor": 1}
        assert isinstance(row["image_id"], int)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            _result_set(2).row(2)

    def test_iteration_yields_all_rows_lazily(self):
        results = _result_set(3)
        iterator = iter(results)
        assert next(iterator)["image_id"] == 0
        # Iteration does not disturb the fetch cursor.
        assert results.fetchone()["image_id"] == 0
        assert [row["image_id"] for row in results] == [0, 1, 2]


class TestFetchCursor:
    def test_fetchmany_advances_and_truncates(self):
        results = _result_set(5)
        first = results.fetchmany(2)
        second = results.fetchmany(2)
        tail = results.fetchmany(2)
        assert [row["image_id"] for row in first] == [0, 1]
        assert [row["image_id"] for row in second] == [2, 3]
        assert [row["image_id"] for row in tail] == [4]
        assert results.fetchmany(2) == []

    def test_fetchone_exhaustion(self):
        results = _result_set(1)
        assert results.fetchone()["image_id"] == 0
        assert results.fetchone() is None

    def test_fetchall_returns_remaining(self):
        results = _result_set(4)
        results.fetchmany(3)
        assert [row["image_id"] for row in results.fetchall()] == [3]
        assert results.fetchall() == []

    def test_fetchmany_zero_returns_empty_without_moving_cursor(self):
        results = _result_set(3)
        assert results.fetchmany(0) == []
        # DB-API-ish: size 0 is a no-op, the cursor has not advanced.
        assert results.fetchone()["image_id"] == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            _result_set().fetchmany(-1)
        with pytest.raises(ValueError):
            _result_set().fetchmany(-1, columnar=True)

    def test_columnar_pages_share_the_row_cursor(self):
        results = _result_set(5)
        assert results.fetchmany(1)[0]["image_id"] == 0
        columns = results.fetchmany(3, columnar=True)
        assert [len(values) for values in columns] == [3, 3, 3]
        ids = columns[results.columns.index("image_id")]
        assert ids.dtype == np.int64 and ids.tolist() == [1, 2, 3]
        assert results.remaining == 1
        assert [row["image_id"] for row in results.fetchall()] == [4]
        # Past the end (or with size 0): one empty slice per column.
        assert [len(values)
                for values in results.fetchmany(2, columnar=True)] == [0] * 3


class TestColumnarAccess:
    def test_to_relation(self):
        relation = _result_set(3).to_relation()
        assert len(relation) == 3
        assert "contains_komondor" in relation

    def test_provenance_passthrough(self):
        results = _result_set(2)
        assert results.images_classified == {"komondor": 2}
        assert results.cascades_used == {}
        assert results.plan.scenario_name == "camera"


def _shard_result(ids, columns) -> QueryResult:
    """A synthetic per-shard QueryResult for merge tests."""
    return QueryResult(relation=Relation(columns),
                       selected_indices=np.asarray(ids),
                       cascades_used={},
                       images_classified={"komondor": len(ids)})


class TestMergeMixedSchemas:
    def test_union_merge_with_typed_fills(self):
        from repro.db.results import _merge_relations

        north = _shard_result([0, 1], {
            "image_id": np.array([0, 1]),
            "weather": np.array(["sunny", "rain"]),
            "speed": np.array([1.5, 2.5]),
        })
        south = _shard_result([4], {
            "image_id": np.array([4]),
            "lane": np.array([3]),
        })
        merged = _merge_relations({"north": north, "south": south})
        assert len(merged) == 3
        np.testing.assert_array_equal(merged["image_id"], [0, 1, 4])
        np.testing.assert_array_equal(merged["__table__"],
                                      ["north", "north", "south"])
        # Missing columns get typed fills, never misaligned values.
        np.testing.assert_array_equal(merged["weather"],
                                      ["sunny", "rain", ""])
        np.testing.assert_array_equal(merged["lane"], [-1, -1, 3])
        np.testing.assert_array_equal(merged["speed"][:2], [1.5, 2.5])
        assert np.isnan(merged["speed"][2])

    def test_unsigned_fill_does_not_overflow(self):
        from repro.db.results import _merge_relations

        a = _shard_result([0], {"image_id": np.array([0]),
                                "lane": np.array([3], dtype=np.uint8)})
        b = _shard_result([1], {"image_id": np.array([1])})
        merged = _merge_relations({"a": a, "b": b})
        # -1 would overflow an unsigned dtype; the sentinel is the max value.
        np.testing.assert_array_equal(merged["lane"], [3, 255])
        assert merged["lane"].dtype == np.uint8

    def test_bool_fill_is_false(self):
        from repro.db.results import _merge_relations

        a = _shard_result([0], {"image_id": np.array([0]),
                                "flagged": np.array([True])})
        b = _shard_result([1], {"image_id": np.array([1])})
        merged = _merge_relations({"a": a, "b": b})
        np.testing.assert_array_equal(merged["flagged"], [True, False])
        assert merged["flagged"].dtype == np.bool_

    def test_identical_schemas_unchanged(self):
        from repro.db.results import _merge_relations

        a = _shard_result([0], {"image_id": np.array([0]),
                                "location": np.array(["x"])})
        b = _shard_result([1], {"image_id": np.array([1]),
                                "location": np.array(["y"])})
        merged = _merge_relations({"a": a, "b": b})
        np.testing.assert_array_equal(merged["location"], ["x", "y"])


class TestShapedRows:
    """ORDER BY / projection / post-sort LIMIT applied by build_result_set."""

    def _result(self):
        relation = Relation({
            "image_id": np.arange(4),
            "speed": np.array([2.0, 9.0, 4.0, 9.0]),
            "location": np.array(["b", "a", "a", "c"]),
        })
        return QueryResult(relation=relation,
                           selected_indices=np.arange(4),
                           cascades_used={}, images_classified={})

    def test_order_by_desc_then_limit(self):
        from repro.db.results import build_result_set
        from repro.query.ast import OrderItem

        plan = QueryPlan(limit=2,
                         order_by=(OrderItem("speed", ascending=False),))
        results = build_result_set(self._result(), plan)
        assert [row["speed"] for row in results] == [9.0, 9.0]
        # image_ids follow the sort permutation.
        np.testing.assert_array_equal(results.image_ids, [1, 3])

    def test_multi_key_sort(self):
        from repro.db.results import build_result_set
        from repro.query.ast import OrderItem

        plan = QueryPlan(order_by=(OrderItem("location"),
                                   OrderItem("speed", ascending=False)))
        results = build_result_set(self._result(), plan)
        assert [(row["location"], row["speed"]) for row in results] == [
            ("a", 9.0), ("a", 4.0), ("b", 2.0), ("c", 9.0)]

    def test_projection(self):
        from repro.db.results import build_result_set

        plan = QueryPlan(select=("speed", "image_id"))
        results = build_result_set(self._result(), plan)
        assert results.columns == ["image_id", "speed"]

    def test_unknown_projection_column(self):
        from repro.db.results import build_result_set
        from repro.query.ast import QueryError

        plan = QueryPlan(select=("nope",))
        with pytest.raises(QueryError, match="nope"):
            build_result_set(self._result(), plan)

    def test_unknown_order_column(self):
        from repro.db.results import build_result_set
        from repro.query.ast import OrderItem, QueryError

        plan = QueryPlan(order_by=(OrderItem("nope"),))
        with pytest.raises(QueryError, match="ORDER BY"):
            build_result_set(self._result(), plan)


#: Two shards with unique speeds and per-location sums (no sort ties).
_TAIL_SHARDS = {"cam_a": (["x", "y", "x", "z"], [3.0, 8.0, 1.5, 5.0]),
                "cam_b": (["y", "w", "x"], [7.0, 2.0, 9.25])}


class TestOneTail:
    """Every result kind is shaped by one ORDER BY -> LIMIT -> SELECT step:
    its rows equal sort, then first LIMIT, then project, applied to the
    unshaped rows or the merged groups."""

    @pytest.mark.parametrize("grouped", [False, True], ids=["rows", "groups"])
    @pytest.mark.parametrize("fanout", [False, True],
                             ids=["one_table", "fanout"])
    def test_sort_then_limit_then_project(self, fanout, grouped):
        from repro.db.aggregates import compute_partials
        from repro.db.results import TABLE_COLUMN, build_result_set
        from repro.query.ast import Aggregate, OrderItem

        total = Aggregate("sum", "speed")
        if grouped:
            # The projection drops the GROUP BY column.
            plan = QueryPlan(select=(total,), group_by=("location",),
                             order_by=(OrderItem(total, ascending=False),),
                             limit=2)
        else:
            # The projection drops the ORDER BY column.
            plan = QueryPlan(select=("location", "image_id"),
                             order_by=(OrderItem("speed", ascending=False),),
                             limit=3)
        tables = list(_TAIL_SHARDS)[:2 if fanout else 1]
        raw, unshaped, next_id = {}, [], 0
        for table in tables:
            locations, speeds = _TAIL_SHARDS[table]
            ids = np.arange(next_id, next_id + len(speeds))
            next_id += len(speeds)
            result = _shard_result(ids, {"image_id": ids,
                                         "location": np.array(locations),
                                         "speed": np.array(speeds)})
            result.partials = compute_partials(result.relation,
                                               plan.aggregates, plan.group_by)
            raw[table] = result
            unshaped.extend({"image_id": int(i), "location": location,
                             "speed": speed, TABLE_COLUMN: table}
                            for i, location, speed in zip(ids, locations,
                                                          speeds))
        if grouped:
            sums: dict[str, float] = {}
            for row in unshaped:
                sums[row["location"]] = sums.get(row["location"], 0.0) + \
                    row["speed"]
            expected = [{"sum(speed)": value}
                        for value in sorted(sums.values(), reverse=True)]
        else:
            keep = ["location", "image_id"] + ([TABLE_COLUMN] if fanout
                                               else [])
            expected = [{name: row[name] for name in keep}
                        for row in sorted(unshaped,
                                          key=lambda row: -row["speed"])]
        expected = expected[:plan.limit]

        results = (build_result_set(raw, {table: replace(plan, table=table)
                                          for table in raw}) if fanout
                   else build_result_set(raw[tables[0]], plan))
        assert list(results) == expected


class TestAggregateResultSet:
    def _result(self):
        relation = Relation({
            "location": np.array(["a", "b", "a"]),
            "speed": np.array([1.0, 2.0, 3.0]),
        })
        return QueryResult(relation=relation,
                           selected_indices=np.arange(3),
                           cascades_used={}, images_classified={})

    def _build(self, select, group_by=(), order_by=(), limit=None):
        from repro.db.aggregates import compute_partials
        from repro.db.results import build_result_set

        plan = QueryPlan(limit=limit,
                         select=select, group_by=group_by, order_by=order_by)
        result = self._result()
        result.partials = compute_partials(result.relation, plan.aggregates,
                                           group_by)
        return build_result_set(result, plan)

    def test_global_count_row(self):
        from repro.query.ast import Aggregate

        results = self._build((Aggregate("count", None),))
        assert len(results) == 1
        assert results.row(0) == {"count(*)": 3}

    def test_grouped_rows_and_projection(self):
        from repro.query.ast import Aggregate

        results = self._build(("location", Aggregate("avg", "speed")),
                              group_by=("location",))
        assert results.columns == ["avg(speed)", "location"]
        rows = {row["location"]: row["avg(speed)"] for row in results}
        assert rows == {"a": 2.0, "b": 2.0}

    def test_order_by_aggregate_desc_with_limit(self):
        from repro.query.ast import Aggregate, OrderItem

        results = self._build(("location", Aggregate("count", None)),
                              group_by=("location",),
                              order_by=(OrderItem(Aggregate("count", None),
                                                  ascending=False),),
                              limit=1)
        assert len(results) == 1
        assert results.row(0) == {"location": "a", "count(*)": 2}

    def test_image_ids_not_defined(self):
        from repro.query.ast import Aggregate, QueryError

        results = self._build((Aggregate("count", None),))
        with pytest.raises(QueryError):
            results.image_ids

    def test_from_fanout_merges_partials(self):
        from repro.db.aggregates import compute_partials
        from repro.db.results import AggregateResultSet
        from repro.query.ast import Aggregate

        select = ("location", Aggregate("count", None),
                  Aggregate("avg", "speed"))
        plan = QueryPlan(select=select, group_by=("location",))
        shards = {}
        for name, locations, speeds in [
                ("cam_a", ["x", "y"], [1.0, 5.0]),
                ("cam_b", ["x", "x"], [3.0, 5.0])]:
            relation = Relation({"location": np.array(locations),
                                 "speed": np.array(speeds)})
            result = QueryResult(relation=relation,
                                 selected_indices=np.arange(len(locations)),
                                 cascades_used={},
                                 images_classified={"k": len(locations)})
            result.partials = compute_partials(relation, plan.aggregates,
                                               plan.group_by)
            shards[name] = result
        merged = AggregateResultSet.from_fanout(
            shards, {name: plan for name in shards})
        rows = {row["location"]: row for row in merged}
        assert rows["x"]["count(*)"] == 3
        assert rows["x"]["avg(speed)"] == pytest.approx(3.0)
        assert rows["y"]["count(*)"] == 1
        # Per-shard statistics survive the merge.
        assert merged.images_classified == {"cam_a": {"k": 2},
                                            "cam_b": {"k": 2}}


class TestFanoutOrderBy:
    def test_merged_rows_sorted_before_limit(self):
        from repro.db.results import FanoutResultSet
        from repro.query.ast import OrderItem

        results = {
            "cam_a": _shard_result([0, 1], {"image_id": np.array([0, 1]),
                                            "speed": np.array([1.0, 9.0])}),
            "cam_b": _shard_result([5], {"image_id": np.array([5]),
                                         "speed": np.array([4.0])}),
        }
        plans = {table: QueryPlan(limit=2, table=table,
            order_by=(OrderItem("speed", ascending=False),))
            for table in results}
        merged = FanoutResultSet(results, plans)
        assert [row["speed"] for row in merged] == [9.0, 4.0]
        # The top rows come from different shards: a per-shard pre-cap
        # would have returned cam_a's 1.0 instead of cam_b's 4.0.
        assert [row["__table__"] for row in merged] == ["cam_a", "cam_b"]


class TestFanoutLimit:
    def _fanout(self, limit):
        from repro.db.results import FanoutResultSet

        results = {
            "cam_a": _shard_result([0, 1, 2], {"image_id": np.array([0, 1, 2])}),
            "cam_b": _shard_result([5, 6], {"image_id": np.array([5, 6])}),
        }
        plans = {table: QueryPlan(limit=limit, table=table)
                 for table in results}
        return FanoutResultSet(results, plans)

    def test_merged_rows_capped_at_limit(self):
        merged = self._fanout(limit=4)
        assert len(merged) == 4
        np.testing.assert_array_equal(merged.image_ids, [0, 1, 2, 5])
        np.testing.assert_array_equal(merged.to_relation()["__table__"],
                                      ["cam_a", "cam_a", "cam_a", "cam_b"])
        # per_table views reflect the capped rows; stats report real work.
        assert len(merged.per_table("cam_b")) == 1
        assert merged.images_classified["cam_b"]["komondor"] == 2

    def test_no_limit_keeps_everything(self):
        merged = self._fanout(limit=None)
        assert len(merged) == 5

    def test_limit_zero_returns_no_rows(self):
        merged = self._fanout(limit=0)
        assert len(merged) == 0
        assert merged.tables == ("cam_a", "cam_b")


# -- column-built pages equal the per-cell reference ---------------------------

#: Column name -> (value strategy, dtype).  A name always has one dtype, so
#: shards that share a column merge it, and a shard lacking one gets the
#: typed fill (uint64 max, NaN, False, "", -1, None).
_KINDS = {
    "i64": (st.integers(-2 ** 63, 2 ** 63 - 1), np.int64),
    "u64": (st.integers(0, 2 ** 64 - 1), np.uint64),
    "f64": (st.floats(allow_nan=True, allow_infinity=True), np.float64),
    "flag": (st.booleans(), np.bool_),
    "text": (st.text(max_size=4), str),
    "obj": (st.one_of(st.none(), st.integers(-9, 9), st.text(max_size=2),
                      st.integers(-9, 9).map(np.int64),
                      st.floats(allow_nan=True).map(np.float64)), object),
}


@st.composite
def _columns(draw, max_rows: int = 20) -> dict[str, np.ndarray]:
    n = draw(st.integers(0, max_rows))
    names = draw(st.lists(st.sampled_from(sorted(_KINDS)), min_size=1,
                          unique=True))
    columns = {}
    for name in names:
        values, dtype = _KINDS[name]
        columns[name] = np.array(draw(st.lists(values, min_size=n,
                                               max_size=n)), dtype=dtype)
    return columns


def _same_cell(got, want) -> bool:
    if type(got) is not type(want):
        return False
    if isinstance(want, float) and math.isnan(want):
        return math.isnan(got)
    return got == want


def _assert_rows_match(rows: list[dict], relation: Relation,
                       start: int) -> None:
    """``rows`` equal ``relation``'s rows from ``start``, built per cell."""
    names = relation.column_names()
    expected = [{name: to_python(relation.column(name)[index])
                 for name in names}
                for index in range(start, start + len(rows))]
    assert [list(row) for row in rows] == [names] * len(rows)
    for row, reference in zip(rows, expected):
        assert all(_same_cell(row[name], reference[name]) for name in names), \
            (row, reference)


def _assert_pages_match(results: ResultSet, sizes: list[int]) -> None:
    relation = results.to_relation()
    for size in sizes:
        start = len(results) - results.remaining
        page = results.fetchmany(size)
        assert len(page) == min(size, len(relation) - start)
        _assert_rows_match(page, relation, start)
    _assert_rows_match(list(results), relation, 0)
    assert len(list(results)) == len(relation)
    if len(relation):
        _assert_rows_match([results.row(len(relation) - 1)], relation,
                           len(relation) - 1)


_SIZES = st.lists(st.integers(0, 12), max_size=8)


class TestColumnBuiltPages:
    @settings(max_examples=60, deadline=None)
    @given(columns=_columns(), sizes=_SIZES)
    def test_pages_equal_per_cell_rows(self, columns, sizes):
        n = len(next(iter(columns.values())))
        results = ResultSet(_shard_result(np.arange(n), columns), plan=None)
        _assert_pages_match(results, sizes)

    @settings(max_examples=60, deadline=None)
    @given(shards=st.lists(_columns(max_rows=10), min_size=1, max_size=3),
           sizes=_SIZES)
    def test_fanout_pages_over_mixed_schemas(self, shards, sizes):
        from repro.db.results import FanoutResultSet

        results = {f"cam_{index}": _shard_result(
                       np.arange(len(next(iter(columns.values())))), columns)
                   for index, columns in enumerate(shards)}
        merged = FanoutResultSet(results, {table: QueryPlan(table=table)
                                           for table in results})
        _assert_pages_match(merged, sizes)

    @settings(max_examples=40, deadline=None)
    @given(locations=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                              max_size=15),
           data=st.data(), sizes=_SIZES)
    def test_aggregate_pages(self, locations, data, sizes):
        from repro.db.aggregates import compute_partials
        from repro.db.results import build_result_set
        from repro.query.ast import Aggregate

        speeds = data.draw(st.lists(st.floats(-1e6, 1e6),
                                    min_size=len(locations),
                                    max_size=len(locations)))
        relation = Relation({"location": np.array(locations),
                             "speed": np.array(speeds)})
        select = ("location", Aggregate("count", None),
                  Aggregate("avg", "speed"), Aggregate("max", "speed"))
        plan = QueryPlan(select=select, group_by=("location",))
        result = QueryResult(relation=relation,
                             selected_indices=np.arange(len(locations)),
                             cascades_used={}, images_classified={})
        result.partials = compute_partials(relation, plan.aggregates,
                                           plan.group_by)
        _assert_pages_match(build_result_set(result, plan), sizes)
