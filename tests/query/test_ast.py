"""Tests for the tokenizer and AST node types."""

import pytest

from repro.query.ast import (Aggregate, AndExpr, OrderItem, OrExpr,
                             PredicateExpr, SqlParseError, select_label,
                             tokenize)
from repro.query.predicates import MetadataPredicate


class TestTokenizer:
    def test_basic_tokens_and_offsets(self):
        tokens = tokenize("SELECT * FROM images")
        assert [(t.type, t.text) for t in tokens] == [
            ("IDENT", "SELECT"), ("STAR", "*"), ("IDENT", "FROM"),
            ("IDENT", "images")]
        assert [t.offset for t in tokens] == [0, 7, 9, 14]

    def test_operators(self):
        tokens = tokenize("a<=1 b>=2 c!=3 d<4 e>5 f=6")
        ops = [t.text for t in tokens if t.type == "OP"]
        assert ops == ["<=", ">=", "!=", "<", ">", "="]

    def test_number_values(self):
        tokens = tokenize("1 2.5 -3 1e3 .5")
        assert [t.value for t in tokens] == [1, 2.5, -3, 1000.0, 0.5]
        assert isinstance(tokens[0].value, int)
        assert isinstance(tokens[3].value, float)

    def test_string_value_unescapes_doubled_quotes(self):
        token = tokenize("'rock ''n'' roll'")[0]
        assert token.type == "STRING"
        assert token.value == "rock 'n' roll"

    def test_double_quoted_string(self):
        token = tokenize('"say ""hi"" twice"')[0]
        assert token.value == 'say "hi" twice'

    def test_keywords_inside_strings_are_one_token(self):
        tokens = tokenize("note = 'a AND b LIMIT 5'")
        assert [t.type for t in tokens] == ["IDENT", "OP", "STRING"]

    def test_whitespace_including_newlines_dropped(self):
        tokens = tokenize("SELECT *\n\tFROM   images")
        assert len(tokens) == 4

    def test_unterminated_literal_reports_offset(self):
        with pytest.raises(SqlParseError) as excinfo:
            tokenize("note = 'oops")
        assert "unterminated" in str(excinfo.value)
        assert excinfo.value.offset == 7

    def test_unexpected_character_reports_offset(self):
        with pytest.raises(SqlParseError) as excinfo:
            tokenize("a = 1 @")
        assert excinfo.value.offset == 6
        assert excinfo.value.token == "@"

    def test_dash_token_between_identifiers(self):
        tokens = tokenize("traffic-light")
        assert [t.type for t in tokens] == ["IDENT", "DASH", "IDENT"]


class TestBooleanNodes:
    def _leaf(self, name="a", value=1):
        return PredicateExpr(MetadataPredicate(name, "==", value))

    def test_and_or_need_two_children(self):
        with pytest.raises(ValueError):
            AndExpr((self._leaf(),))
        with pytest.raises(ValueError):
            OrExpr((self._leaf(),))


class TestAggregateSpec:
    def test_labels(self):
        assert Aggregate("count", None).label == "count(*)"
        assert Aggregate("avg", "speed").label == "avg(speed)"
        assert select_label(Aggregate("sum", "x")) == "sum(x)"
        assert select_label("plain") == "plain"

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            Aggregate("median", "x")

    def test_star_only_for_count(self):
        with pytest.raises(ValueError):
            Aggregate("sum", None)

    def test_order_item_label(self):
        assert OrderItem("x", False).label == "x"
        assert OrderItem(Aggregate("count", None)).label == "count(*)"
