"""Tests for the SQL-ish query parser."""

import pytest

from repro.core.selector import UserConstraints
from repro.query.predicates import ContainsObject, MetadataPredicate
from repro.query.sql import SqlParseError, parse_query
from tests.where import content_leaves, metadata_leaves


class TestBasicParsing:
    def test_paper_example(self):
        query = parse_query(
            "SELECT * FROM images WHERE location = 'detroit' "
            "AND contains_object(bicycle)")
        assert metadata_leaves(query) == (
            MetadataPredicate("location", "==", "detroit"),)
        assert content_leaves(query) == (ContainsObject("bicycle"),)

    def test_contains_object_only(self):
        query = parse_query("SELECT * FROM images WHERE contains_object(komondor)")
        assert metadata_leaves(query) == ()
        assert content_leaves(query) == (ContainsObject("komondor"),)

    def test_case_insensitive_keywords(self):
        query = parse_query("select * from images where Contains_Object(acorn)")
        assert content_leaves(query) == (ContainsObject("acorn"),)

    def test_trailing_semicolon(self):
        query = parse_query("SELECT * FROM images WHERE camera_id = 3;")
        assert metadata_leaves(query)[0].value == 3

    def test_quoted_category(self):
        query = parse_query("SELECT * FROM images WHERE contains_object('fence')")
        assert content_leaves(query) == (ContainsObject("fence"),)

    def test_hyphenated_category(self):
        query = parse_query(
            "SELECT * FROM images WHERE contains_object(traffic-light)")
        assert content_leaves(query) == (ContainsObject("traffic-light"),)

    def test_category_with_surrounding_spaces(self):
        query = parse_query(
            "SELECT * FROM images WHERE contains_object( fence )")
        assert content_leaves(query) == (ContainsObject("fence"),)

    def test_category_with_internal_whitespace_rejected(self):
        # 'traffic light' is a typo, not a longer category: the old regex
        # rejected it and the tokenizing parser must not silently join it.
        with pytest.raises(SqlParseError):
            parse_query(
                "SELECT * FROM images WHERE contains_object(traffic light)")

    def test_empty_category_rejected(self):
        with pytest.raises(SqlParseError):
            parse_query("SELECT * FROM images WHERE contains_object()")


class TestLiteralsAndOperators:
    @pytest.mark.parametrize("sql_op,expected", [
        ("=", "=="), ("!=", "!="), ("<", "<"), ("<=", "<="), (">", ">"), (">=", ">="),
    ])
    def test_operators(self, sql_op, expected):
        query = parse_query(f"SELECT * FROM images WHERE timestamp {sql_op} 100")
        assert metadata_leaves(query)[0].operator == expected

    def test_numeric_literals(self):
        query = parse_query("SELECT * FROM images WHERE timestamp >= 12.5")
        assert metadata_leaves(query)[0].value == pytest.approx(12.5)

    def test_string_literals_double_quotes(self):
        query = parse_query('SELECT * FROM images WHERE location = "austin"')
        assert metadata_leaves(query)[0].value == "austin"

    def test_unquoted_string_rejected(self):
        with pytest.raises(SqlParseError):
            parse_query("SELECT * FROM images WHERE location = detroit")

    def test_doubled_quote_escape_collapsed(self):
        query = parse_query(
            "SELECT * FROM images WHERE location = 'rock ''n'' roll'")
        assert metadata_leaves(query)[0].value == "rock 'n' roll"

    def test_doubled_quote_escape_in_double_quotes(self):
        query = parse_query(
            'SELECT * FROM images WHERE location = "say ""hi"" twice"')
        assert metadata_leaves(query)[0].value == 'say "hi" twice'

    def test_single_quote_inside_double_quotes_untouched(self):
        query = parse_query('SELECT * FROM images WHERE location = "it\'s"')
        assert metadata_leaves(query)[0].value == "it's"

    def test_literal_that_is_one_escaped_quote(self):
        query = parse_query("SELECT * FROM images WHERE location = ''''")
        assert metadata_leaves(query)[0].value == "'"

    def test_escaped_quote_does_not_terminate_literal(self):
        # The doubled quote must not close the literal: the AND inside the
        # string stays part of it, the trailing predicate still parses.
        query = parse_query("SELECT * FROM images "
                            "WHERE location = 'rock ''n'' roll and blues' "
                            "AND camera_id = 3")
        assert metadata_leaves(query)[0].value == "rock 'n' roll and blues"
        assert metadata_leaves(query)[1].value == 3

    def test_doubled_quote_escape_in_in_list(self):
        query = parse_query(
            "SELECT * FROM images WHERE location IN ('it''s', 'plain')")
        assert metadata_leaves(query)[0].value == ("it's", "plain")


class TestConjunctions:
    def test_multiple_predicates(self):
        query = parse_query(
            "SELECT * FROM images WHERE location = 'detroit' AND timestamp < 500 "
            "AND contains_object(wallet) AND contains_object(fence)")
        assert len(metadata_leaves(query)) == 2
        assert len(content_leaves(query)) == 2

    def test_and_is_case_insensitive(self):
        query = parse_query(
            "SELECT * FROM images WHERE camera_id = 1 and contains_object(coho)")
        assert len(metadata_leaves(query)) == 1
        assert len(content_leaves(query)) == 1

    def test_and_inside_string_literal_is_not_a_conjunction(self):
        query = parse_query(
            "SELECT * FROM images WHERE genre = 'rock and roll' "
            "AND contains_object(coho)")
        assert metadata_leaves(query) == (
            MetadataPredicate("genre", "==", "rock and roll"),)
        assert content_leaves(query) == (ContainsObject("coho"),)

    def test_and_inside_in_list_literal(self):
        query = parse_query(
            "SELECT * FROM images WHERE genre IN ('rock and roll', 'jazz')")
        assert metadata_leaves(query)[0].value == ("rock and roll", "jazz")


class TestLimit:
    def test_limit_parsed(self):
        query = parse_query(
            "SELECT * FROM images WHERE contains_object(komondor) LIMIT 5")
        assert query.limit == 5

    def test_limit_with_trailing_semicolon(self):
        query = parse_query(
            "SELECT * FROM images WHERE contains_object(komondor) LIMIT 5;")
        assert query.limit == 5

    def test_no_limit_defaults_to_none(self):
        query = parse_query("SELECT * FROM images WHERE contains_object(dog)")
        assert query.limit is None

    def test_limit_zero_allowed(self):
        query = parse_query("SELECT * FROM images WHERE camera_id = 1 LIMIT 0")
        assert query.limit == 0

    def test_limit_keyword_is_case_insensitive(self):
        query = parse_query("select * from images where camera_id = 1 limit 12")
        assert query.limit == 12

    @pytest.mark.parametrize("bad", ["-1", "abc", "2.5", "1e3"])
    def test_malformed_limit_rejected(self, bad):
        with pytest.raises(SqlParseError):
            parse_query(f"SELECT * FROM images WHERE camera_id = 1 LIMIT {bad}")

    def test_limit_without_value_rejected(self):
        with pytest.raises(SqlParseError):
            parse_query("SELECT * FROM images WHERE camera_id = 1 LIMIT")

    def test_limit_inside_string_literal_is_not_a_limit(self):
        query = parse_query(
            "SELECT * FROM images WHERE note = 'speed limit 55'")
        assert query.limit is None
        assert metadata_leaves(query)[0].value == "speed limit 55"

    def test_limit_after_string_literal_containing_limit(self):
        query = parse_query(
            "SELECT * FROM images WHERE note = 'speed limit 55' LIMIT 3")
        assert query.limit == 3
        assert metadata_leaves(query)[0].value == "speed limit 55"


class TestInPredicate:
    def test_string_membership(self):
        query = parse_query(
            "SELECT * FROM images WHERE location IN ('detroit', 'austin')")
        assert metadata_leaves(query) == (
            MetadataPredicate("location", "in", ("detroit", "austin")),)

    def test_numeric_membership(self):
        query = parse_query("SELECT * FROM images WHERE camera_id IN (1, 2, 3)")
        assert metadata_leaves(query)[0].value == (1, 2, 3)

    def test_single_value(self):
        query = parse_query("SELECT * FROM images WHERE camera_id IN (7)")
        assert metadata_leaves(query)[0].value == (7,)

    def test_in_is_case_insensitive(self):
        query = parse_query("SELECT * FROM images WHERE location in ('austin')")
        assert metadata_leaves(query)[0].operator == "in"

    def test_quoted_value_may_contain_comma(self):
        query = parse_query(
            "SELECT * FROM images WHERE location IN ('Detroit, MI', 'austin')")
        assert metadata_leaves(query)[0].value == ("Detroit, MI", "austin")

    def test_combines_with_other_predicates(self):
        query = parse_query(
            "SELECT * FROM images WHERE location IN ('detroit') "
            "AND contains_object(fence) LIMIT 4")
        assert len(metadata_leaves(query)) == 1
        assert len(content_leaves(query)) == 1
        assert query.limit == 4

    @pytest.mark.parametrize("bad", [
        "SELECT * FROM images WHERE location IN ()",
        "SELECT * FROM images WHERE location IN (,)",
        "SELECT * FROM images WHERE location IN (1,,2)",
        "SELECT * FROM images WHERE location IN (detroit)",
    ])
    def test_malformed_in_rejected(self, bad):
        with pytest.raises(SqlParseError):
            parse_query(bad)


class TestBareScan:
    def test_no_where_clause_is_a_scan(self):
        query = parse_query("SELECT * FROM images")
        assert metadata_leaves(query) == ()
        assert content_leaves(query) == ()
        assert query.where is None

    def test_scan_with_limit(self):
        query = parse_query("SELECT * FROM images LIMIT 5")
        assert query.where is None
        assert query.limit == 5

    def test_query_model_allows_bare_scan(self):
        from repro.query.model import Query

        assert Query().where is None


class TestErrors:
    def test_empty_query(self):
        with pytest.raises(SqlParseError):
            parse_query("   ")

    def test_missing_select_list(self):
        with pytest.raises(SqlParseError):
            parse_query("SELECT FROM images WHERE camera_id = 1")

    def test_unsupported_predicate_shape(self):
        with pytest.raises(SqlParseError):
            parse_query("SELECT * FROM images WHERE location LIKE 'det%'")

    def test_dangling_or(self):
        with pytest.raises(SqlParseError):
            parse_query("SELECT * FROM images WHERE camera_id = 1 OR")

    def test_error_reports_token_and_offset(self):
        sql = "SELECT * FROM images WHERE location LIKE 'det%'"
        with pytest.raises(SqlParseError) as excinfo:
            parse_query(sql)
        error = excinfo.value
        assert error.token == "LIKE"
        assert error.offset == sql.index("LIKE")
        assert "LIKE" in str(error)
        assert str(error.offset) in str(error)

    def test_error_at_end_of_input(self):
        sql = "SELECT * FROM images WHERE camera_id ="
        with pytest.raises(SqlParseError) as excinfo:
            parse_query(sql)
        assert excinfo.value.offset == len(sql)
        assert excinfo.value.token is None
        assert "end of input" in str(excinfo.value)

    def test_unterminated_string_literal(self):
        with pytest.raises(SqlParseError, match="unterminated"):
            parse_query("SELECT * FROM images WHERE location = 'detroit")

    def test_unexpected_character(self):
        with pytest.raises(SqlParseError, match="unexpected character"):
            parse_query("SELECT * FROM images WHERE camera_id = 1 @ 2")

    def test_trailing_garbage(self):
        with pytest.raises(SqlParseError, match="trailing"):
            parse_query("SELECT * FROM images WHERE camera_id = 1 LIMIT 2 xyz")


class TestBooleanOperators:
    def test_or_parses_to_disjunction(self):
        from repro.query.ast import OrExpr, PredicateExpr

        query = parse_query(
            "SELECT * FROM images WHERE camera_id = 1 OR camera_id = 2")
        assert isinstance(query.where, OrExpr)
        assert all(isinstance(child, PredicateExpr)
                   for child in query.where.children)
        # The flat conjunctive decomposition still lists every leaf.
        assert len(metadata_leaves(query)) == 2

    def test_and_binds_tighter_than_or(self):
        from repro.query.ast import AndExpr, OrExpr

        query = parse_query(
            "SELECT * FROM images WHERE camera_id = 1 "
            "OR camera_id = 2 AND location = 'austin'")
        assert isinstance(query.where, OrExpr)
        assert isinstance(query.where.children[1], AndExpr)

    def test_parentheses_override_precedence(self):
        from repro.query.ast import AndExpr, OrExpr

        query = parse_query(
            "SELECT * FROM images WHERE (camera_id = 1 OR camera_id = 2) "
            "AND location = 'austin'")
        assert isinstance(query.where, AndExpr)
        assert isinstance(query.where.children[0], OrExpr)

    def test_not_predicate(self):
        from repro.query.ast import NotExpr, PredicateExpr

        query = parse_query(
            "SELECT * FROM images WHERE NOT contains_object(bicycle)")
        assert isinstance(query.where, NotExpr)
        assert isinstance(query.where.child, PredicateExpr)
        assert content_leaves(query) == (ContainsObject("bicycle"),)

    def test_not_in_membership(self):
        from repro.query.ast import NotExpr

        query = parse_query(
            "SELECT * FROM images WHERE camera_id NOT IN (1, 2)")
        assert isinstance(query.where, NotExpr)
        assert metadata_leaves(query)[0].operator == "in"

    def test_nested_ands_flattened(self):
        from repro.query.ast import AndExpr

        query = parse_query(
            "SELECT * FROM images WHERE (camera_id = 1 AND timestamp < 5) "
            "AND location = 'austin'")
        assert isinstance(query.where, AndExpr)
        assert len(query.where.children) == 3
        # A flattened all-leaf AND is still the paper's conjunctive shape.
        assert len(metadata_leaves(query)) == 3

    def test_mixed_metadata_and_content_disjunction(self):
        query = parse_query(
            "SELECT * FROM images WHERE location = 'detroit' "
            "OR contains_object(bicycle)")
        assert metadata_leaves(query) == (
            MetadataPredicate("location", "==", "detroit"),)
        assert content_leaves(query) == (ContainsObject("bicycle"),)


class TestProjection:
    def test_column_projection(self):
        query = parse_query("SELECT image_id, location FROM images")
        assert query.select == ("image_id", "location")
        assert query.group_by == ()

    def test_star_is_no_projection(self):
        query = parse_query("SELECT * FROM images")
        assert query.select is None

    def test_projection_with_where(self):
        query = parse_query(
            "SELECT location FROM images WHERE contains_object(dog)")
        assert query.select == ("location",)
        assert content_leaves(query) == (ContainsObject("dog"),)


class TestAggregates:
    def test_count_star(self):
        from repro.query.ast import Aggregate

        query = parse_query("SELECT COUNT(*) FROM images")
        assert query.select == (Aggregate("count", None),)

    def test_count_column(self):
        from repro.query.ast import Aggregate

        query = parse_query("SELECT COUNT(location) FROM images")
        assert query.select == (Aggregate("count", "location"),)

    @pytest.mark.parametrize("func", ["SUM", "AVG", "MIN", "MAX"])
    def test_column_aggregates(self, func):
        query = parse_query(f"SELECT {func}(timestamp) FROM images")
        (aggregate,) = query.select
        assert aggregate.func == func.lower()
        assert aggregate.argument == "timestamp"

    def test_sum_star_rejected(self):
        with pytest.raises(SqlParseError, match="only COUNT"):
            parse_query("SELECT SUM(*) FROM images")

    def test_group_by_with_aggregate(self):
        query = parse_query(
            "SELECT location, COUNT(*) FROM images GROUP BY location")
        assert query.group_by == ("location",)
        assert query.select[0] == "location"

    def test_group_by_without_aggregate_is_distinct(self):
        query = parse_query("SELECT location FROM images GROUP BY location")
        assert query.group_by == ("location",)
        assert query.select == ("location",)

    def test_ungrouped_column_beside_aggregate_rejected(self):
        with pytest.raises(SqlParseError, match="GROUP BY"):
            parse_query("SELECT location, COUNT(*) FROM images")

    def test_select_star_with_group_by_rejected(self):
        with pytest.raises(SqlParseError, match="SELECT \\*"):
            parse_query("SELECT * FROM images GROUP BY location")

    def test_column_named_like_aggregate_function(self):
        # Only a call — IDENT followed by ( — is an aggregate.
        query = parse_query("SELECT count FROM images")
        assert query.select == ("count",)
        assert query.group_by == ()


class TestOrderBy:
    def test_order_by_column_defaults_ascending(self):
        query = parse_query("SELECT * FROM images ORDER BY timestamp")
        assert query.order_by[0].key == "timestamp"
        assert query.order_by[0].ascending

    def test_order_by_desc(self):
        query = parse_query("SELECT * FROM images ORDER BY timestamp DESC")
        assert not query.order_by[0].ascending

    def test_order_by_multiple_keys(self):
        query = parse_query(
            "SELECT * FROM images ORDER BY location ASC, timestamp DESC")
        assert [item.label for item in query.order_by] == [
            "location", "timestamp"]

    def test_order_by_aggregate(self):
        from repro.query.ast import Aggregate

        query = parse_query(
            "SELECT location, COUNT(*) FROM images GROUP BY location "
            "ORDER BY COUNT(*) DESC LIMIT 3")
        assert query.order_by[0].key == Aggregate("count", None)
        assert not query.order_by[0].ascending
        assert query.limit == 3

    def test_order_by_aggregate_requires_aggregate_query(self):
        with pytest.raises(SqlParseError, match="aggregate"):
            parse_query("SELECT * FROM images ORDER BY COUNT(*)")

    def test_order_by_key_must_be_selected_in_aggregate_query(self):
        with pytest.raises(SqlParseError, match="ORDER BY"):
            parse_query("SELECT location, COUNT(*) FROM images "
                        "GROUP BY location ORDER BY SUM(timestamp)")


class TestQuotedLiteralEdgeCases:
    """Keywords, parentheses and escapes inside string literals stay text."""

    @pytest.mark.parametrize("keyword", ["and", "or", "not", "limit",
                                         "group by", "order by", "select"])
    def test_keywords_inside_literals_are_opaque(self, keyword):
        query = parse_query(
            f"SELECT * FROM images WHERE note = 'a {keyword} b'")
        assert metadata_leaves(query)[0].value == f"a {keyword} b"
        assert query.limit is None

    def test_parentheses_inside_literal(self):
        query = parse_query(
            "SELECT * FROM images WHERE note = '(not a group)' "
            "AND camera_id = 1")
        assert metadata_leaves(query)[0].value == "(not a group)"
        assert metadata_leaves(query)[1].value == 1

    def test_group_keyword_in_literal_before_real_group_by(self):
        query = parse_query(
            "SELECT note FROM images WHERE note != 'group by nothing' "
            "GROUP BY note")
        assert query.group_by == ("note",)
        assert metadata_leaves(query)[0].value == "group by nothing"

    def test_order_keyword_in_literal_before_real_order_by(self):
        query = parse_query(
            "SELECT * FROM images WHERE note = 'order by chaos' "
            "ORDER BY timestamp DESC LIMIT 2")
        assert metadata_leaves(query)[0].value == "order by chaos"
        assert query.order_by[0].label == "timestamp"
        assert query.limit == 2

    def test_semicolon_inside_literal(self):
        query = parse_query("SELECT * FROM images WHERE note = 'a;b';")
        assert metadata_leaves(query)[0].value == "a;b"

    def test_doubled_quote_escape_with_keyword(self):
        query = parse_query(
            "SELECT * FROM images "
            "WHERE note = 'it''s rock and roll' AND camera_id = 3")
        assert metadata_leaves(query)[0].value == "it's rock and roll"
        assert metadata_leaves(query)[1].value == 3

    def test_trailing_semicolon_after_limit(self):
        query = parse_query(
            "SELECT * FROM images WHERE camera_id = 1 LIMIT 7;")
        assert query.limit == 7

    def test_quote_inside_in_list_with_parens(self):
        query = parse_query(
            "SELECT * FROM images WHERE note IN ('a (weird) one', 'b''s')")
        assert metadata_leaves(query)[0].value == ("a (weird) one", "b's")


class TestConstraints:
    def test_constraints_attached(self):
        constraints = UserConstraints(max_accuracy_loss=0.05)
        query = parse_query("SELECT * FROM images WHERE contains_object(ferret)",
                            constraints=constraints)
        assert query.constraints is constraints

    def test_default_constraints(self):
        query = parse_query("SELECT * FROM images WHERE contains_object(ferret)")
        assert query.constraints == UserConstraints()
