import pytest
from hypothesis import given, settings, strategies as st

from cubelens.analyze import AnalyzeResult
from cubelens.bench import run_analyze
from cubelens.errors import (
    AmbiguousLevel,
    AnalyzeSyntaxError,
    ConstraintViolation,
    CubeLensError,
    UnknownLevel,
    UnknownMember,
)
from cubelens.parser import _tokenize, parse

from fixtures import REFERENCE_QUERY, WALKTHROUGH_QUERY
from oracles import render_statement


def test_reference_query_ast(foodmart_cube):
    stmt = parse(REFERENCE_QUERY, foodmart_cube.schema)
    assert stmt.agg == "sum"
    assert stmt.measure == "store_sales"
    assert stmt.alias == "SumSales"
    assert stmt.cube_name == "Sales"
    assert stmt.name == "PaperPromoCA1997Q3"
    assert len(stmt.atoms) == 3
    assert [(a.level.dimension_name, a.level.name, a.label) for a in stmt.atoms] == [
        ("Date", "Quarter", "1997-Q3"),
        ("Customer", "State", "CA"),
        ("Promo", "Media", "Daily Paper"),
    ]
    assert [(g.dimension_name, g.name) for g in stmt.groupers] == [
        ("Date", "Month"), ("Customer", "customerRegion")]


def test_walkthrough_query_ast(walkthrough_cube):
    stmt = parse(WALKTHROUGH_QUERY, walkthrough_cube.schema)
    assert stmt.agg == "sum"
    assert stmt.alias is None and stmt.name is None
    assert [(a.level.name, a.label) for a in stmt.atoms] == [
        ("State", "CA"), ("Quarter", "2025-Q4")]
    assert [g.name for g in stmt.groupers] == ["State", "Quarter"]


def test_keywords_case_insensitive(walkthrough_cube):
    text = "analyze SUM(store_sales) from sales for state='CA' and quarter='2025-Q4' group by state, quarter"
    stmt = parse(text, walkthrough_cube.schema)
    assert stmt.agg == "sum"


def test_wedge_accepted_for_and(walkthrough_cube):
    text = "ANALYZE sum(store_sales) FROM sales FOR state = 'CA' ∧ quarter = '2025-Q4' GROUP BY state, quarter"
    stmt = parse(text, walkthrough_cube.schema)
    assert len(stmt.atoms) == 2


def test_three_groupers_rejected(walkthrough_cube):
    text = "ANALYZE sum(store_sales) FROM sales FOR state = 'CA' GROUP BY state, quarter, month"
    with pytest.raises(ConstraintViolation):
        parse(text, walkthrough_cube.schema)


def test_multi_valued_atom_rejected(walkthrough_cube):
    text = "ANALYZE sum(store_sales) FROM sales FOR state in ('CA','NV') GROUP BY state, quarter"
    with pytest.raises(ConstraintViolation):
        parse(text, walkthrough_cube.schema)


def test_filter_below_grouper_rejected(foodmart_cube):
    text = ("ANALYZE sum(store_sales) FROM Sales FOR Date.Day = 1997-01-05 "
            "GROUP BY month, customerRegion")
    with pytest.raises(ConstraintViolation):
        parse(text, foodmart_cube.schema)


def test_filter_at_grouper_level_accepted(walkthrough_cube):
    # equality of filter and grouper level is allowed
    stmt = parse(WALKTHROUGH_QUERY, walkthrough_cube.schema)
    assert stmt.atoms[0].level == stmt.groupers[0]


def test_unknown_level(walkthrough_cube):
    with pytest.raises(UnknownLevel):
        parse("ANALYZE sum(store_sales) FROM sales FOR planet = 'X' GROUP BY state, quarter",
              walkthrough_cube.schema)


def test_ambiguous_level(foodmart_cube):
    # every dimension has an ALL level, so the bare name is ambiguous
    with pytest.raises(AmbiguousLevel):
        parse("ANALYZE sum(store_sales) FROM Sales FOR ALL = 'All' GROUP BY month, State",
              foodmart_cube.schema)


def test_unknown_member_is_case_sensitive(walkthrough_cube):
    with pytest.raises(UnknownMember):
        parse("ANALYZE sum(store_sales) FROM sales FOR state = 'ca' GROUP BY state, quarter",
              walkthrough_cube.schema)


def test_duplicate_atom_dimension_rejected(walkthrough_cube):
    text = ("ANALYZE sum(store_sales) FROM sales FOR state = 'CA' AND country = 'USA' "
            "GROUP BY state, quarter")
    with pytest.raises(ConstraintViolation):
        parse(text, walkthrough_cube.schema)


def test_unknown_cube_rejected(walkthrough_cube):
    with pytest.raises(ConstraintViolation):
        parse("ANALYZE sum(store_sales) FROM warehouse FOR state = 'CA' GROUP BY state, quarter",
              walkthrough_cube.schema)


def test_syntax_error_has_position_and_expectations(walkthrough_cube):
    text = "ANALYZE sum store_sales) FROM sales FOR state = 'CA' GROUP BY state, quarter"
    with pytest.raises(AnalyzeSyntaxError) as err:
        parse(text, walkthrough_cube.schema)
    exc = err.value
    assert exc.offset == text.index("store_sales")
    assert exc.line == 1 and exc.col == exc.offset + 1
    assert exc.expected  # at least one expected-token hint
    assert str(exc).startswith("1:")


def test_syntax_error_trailing_garbage(walkthrough_cube):
    text = WALKTHROUGH_QUERY + " LIMIT 5"
    with pytest.raises(AnalyzeSyntaxError):
        parse(text, walkthrough_cube.schema)


def test_text_ending_in_whitespace_gives_one_eof(walkthrough_cube):
    text = WALKTHROUGH_QUERY + " \n\t"
    tokens = _tokenize(text)
    assert [kind for kind, _, _ in tokens].count("eof") == 1
    assert tokens[-1] == ("eof", "", len(text))
    assert parse(text, walkthrough_cube.schema) == parse(WALKTHROUGH_QUERY, walkthrough_cube.schema)
    with pytest.raises(AnalyzeSyntaxError) as err:
        parse("ANALYZE sum(store_sales) FROM  \n ", walkthrough_cube.schema)
    assert (err.value.offset, err.value.line, err.value.col) == (33, 2, 2)


def test_multiline_error_position(walkthrough_cube):
    text = "ANALYZE sum(store_sales)\nFROM sales\nFOR state == 'CA'\nGROUP BY state, quarter"
    with pytest.raises(AnalyzeSyntaxError) as err:
        parse(text, walkthrough_cube.schema)
    assert err.value.line == 3


def test_round_trip(foodmart_cube, walkthrough_cube):
    for text, schema in ((REFERENCE_QUERY, foodmart_cube.schema),
                         (WALKTHROUGH_QUERY, walkthrough_cube.schema)):
        stmt = parse(text, schema)
        rendered = render_statement(stmt)
        again = parse(rendered, schema)
        assert again == stmt


def test_round_trip_with_escaped_quote(walkthrough_cube):
    # labels render quoted; escaping survives the round trip
    stmt = parse(WALKTHROUGH_QUERY, walkthrough_cube.schema)
    rendered = render_statement(stmt)
    assert "'CA'" in rendered and "'2025-Q4'" in rendered


# Pieces that random edits splice into a valid statement: quotes and
# escapes, keywords, symbols, NUL, CR, newlines, a lone surrogate, a number
# past the float range, and other characters no token starts with.
EDIT_PIECES = ["'", '"', "\\", "''", "'a\\'b'", "\x00", "\r", "\r\n", "\n", "\n\n", "\t",
               "\ud800", "1e9999", "-1", "ANALYZE", "FROM", "FOR", " AND ", "IN", "GROUP BY",
               "AS", "sum", "count", "(", ")", ",", "=", "∧", ".", "$", "é", "\x1c", " "]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0, 1]),
       st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 6),
                          st.sampled_from(EDIT_PIECES) | st.text(max_size=3)), max_size=5))
def test_any_statement_text_gives_a_result_or_a_cubelens_error(foodmart_cube, walkthrough_cube,
                                                               which, edits):
    """run_analyze on an edited statement returns a result or raises a
    CubeLensError, never anything else; a syntax error's line and column
    are those of its offset."""
    cube, text = ((foodmart_cube, REFERENCE_QUERY), (walkthrough_cube, WALKTHROUGH_QUERY))[which]
    for at, cut, piece in edits:
        at %= len(text) + 1
        text = text[:at] + piece + text[at + cut:]
    try:
        result = run_analyze(cube, text)
    except AnalyzeSyntaxError as exc:
        before = text[:exc.offset]
        assert (exc.line, exc.col) == (before.count("\n") + 1,
                                       exc.offset - before.rfind("\n")), text
        return
    except CubeLensError:
        return
    assert isinstance(result, AnalyzeResult)
