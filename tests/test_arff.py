import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlresample import (
    DecoupleConfig,
    MLROSConfig,
    MLSMOTEConfig,
    MulanFormatError,
    MultiLabelDataset,
    fold_datasets,
    parse_mulan,
    remedial,
    resample,
    hybrid_resample,
    stratified_kfold,
    write_mulan,
)
from mlresample import arff
from mlresample.arff import RowFormatter, _split, parse_label_header

from conftest import datasets, make_dataset, spelled_heads
from mlresample import AttributeSpec
from _oracles import (
    CANONICAL_NUMBER,
    oracle_nominal_index,
    oracle_parse_attribute,
    oracle_run_start,
    oracle_split,
    oracle_take_token,
    oracle_write_mulan,
    oracle_writer_lines,
    rows,
)

XML_TWO = """<?xml version="1.0" encoding="utf-8"?>
<labels xmlns="http://mulan.sourceforge.net/labels">
  <label name="p"></label>
  <label name="q"></label>
</labels>
"""
XML_P = '<labels><label name="p"></label></labels>'

DENSE_TWO = """@relation demo
@attribute height numeric
@attribute color {red,blue}
@attribute p {0,1}
@attribute q {0,1}
@data
1.0,red,1,0
2.0,blue,0,1
"""


class TestParseDense:
    def test_two_by_two(self):
        d = parse_mulan(DENSE_TWO, XML_TWO)
        assert d.n == 2 and d.k == 2
        assert d.name == "demo"
        assert [a.name for a in d.attributes] == ["height", "color"]
        assert d.labels == ("p", "q")
        assert rows(d)[0].features == (1.0, 0)
        assert rows(d)[0].labels == (0,)
        assert rows(d)[1].labels == (1,)

    def test_comments_and_blank_lines_skipped(self):
        text = "% header comment\n" + DENSE_TWO.replace("@data", "@data\n% row comment\n")
        d = parse_mulan(text, XML_TWO)
        assert d.n == 2

    def test_missing_value_token(self):
        text = DENSE_TWO.replace("1.0,red,1,0", "?,red,1,0")
        d = parse_mulan(text, XML_TWO)
        assert rows(d)[0].features == (None, 0)

    def test_quoted_values(self):
        text = DENSE_TWO.replace("{red,blue}", "{'red hat',blue}").replace(
            "1.0,red,1,0", "1.0,'red hat',1,0"
        )
        d = parse_mulan(text, XML_TWO)
        assert rows(d)[0].features == (1.0, 0)

    def test_case_insensitive_keywords(self):
        text = DENSE_TWO.replace("@relation", "@RELATION").replace("@data", "@DATA")
        assert parse_mulan(text, XML_TWO).n == 2


class TestParseSparse:
    def test_sparse_row_defaults(self):
        text = DENSE_TWO.replace("1.0,red,1,0\n2.0,blue,0,1", "{0 3.5, 3 1}")
        d = parse_mulan(text, XML_TWO)
        assert rows(d)[0].features == (3.5, 0)
        assert rows(d)[0].labels == (1,)

    def test_empty_sparse_row(self):
        text = DENSE_TWO.replace("1.0,red,1,0\n2.0,blue,0,1", "{}")
        d = parse_mulan(text, XML_TWO)
        assert rows(d)[0].features == (0.0, 0)
        assert not rows(d)[0].labels

    def test_duplicate_sparse_index(self):
        text = DENSE_TWO.replace("1.0,red,1,0\n2.0,blue,0,1", "{0 1.0, 0 2.0}")
        with pytest.raises(MulanFormatError, match="duplicate sparse index"):
            parse_mulan(text, XML_TWO)

    def test_unsorted_sparse_indices(self):
        text = DENSE_TWO.replace("1.0,red,1,0\n2.0,blue,0,1", "{3 1, 0 3.5}\n{1 blue}")
        d = parse_mulan(text, XML_TWO)
        assert [inst.features for inst in rows(d)] == [(3.5, 0), (0.0, 1)]
        assert rows(d)[0].labels == (1,)

    def test_sparse_missing_values(self):
        text = DENSE_TWO.replace("1.0,red,1,0\n2.0,blue,0,1", "{0 ?, 1 ?, 2 1}\n{ }")
        d = parse_mulan(text, XML_TWO)
        assert [inst.features for inst in rows(d)] == [(None, None), (0.0, 0)]

    def test_sparse_entry_of_three_tokens_names_a_value_holding_a_space(self):
        text = DENSE_TWO.replace("{red,blue}", "{blue,'red hat'}").replace(
            "1.0,red,1,0\n2.0,blue,0,1", "{0 1.5, 1 red hat}\n{2 1}"
        )
        assert rows(parse_mulan(text, XML_TWO))[0].features == (1.5, 1)

    def test_sparse_index_out_of_range(self):
        text = DENSE_TWO.replace("1.0,red,1,0\n2.0,blue,0,1", "{9 1}")
        with pytest.raises(MulanFormatError, match="out of range"):
            parse_mulan(text, XML_TWO)


class TestParseErrors:
    def test_xml_label_missing_from_arff(self):
        xml = XML_TWO.replace('name="q"', 'name="zz"')
        with pytest.raises(MulanFormatError, match="'zz'"):
            parse_mulan(DENSE_TWO, xml)

    def test_non_binary_label_value(self):
        text = DENSE_TWO.replace("@attribute q {0,1}", "@attribute q numeric").replace(
            "2.0,blue,0,1", "2.0,blue,0,7"
        )
        with pytest.raises(MulanFormatError, match="non-binary"):
            parse_mulan(text, XML_TWO)

    def test_nominal_value_not_declared(self):
        text = DENSE_TWO.replace("2.0,blue,0,1", "2.0,green,0,1")
        with pytest.raises(MulanFormatError, match="'green'") as err:
            parse_mulan(text, XML_TWO)
        assert err.value.line == 8

    def test_wrong_column_count_reports_line(self):
        text = DENSE_TWO.replace("2.0,blue,0,1", "2.0,blue,0")
        with pytest.raises(MulanFormatError, match="line 8"):
            parse_mulan(text, XML_TWO)

    def test_unsupported_attribute_kind(self):
        text = DENSE_TWO.replace("@attribute height numeric", "@attribute height string")
        with pytest.raises(MulanFormatError, match="unsupported type"):
            parse_mulan(text, XML_TWO)

    def test_missing_data_section(self):
        with pytest.raises(MulanFormatError, match="@data"):
            parse_mulan("@relation x\n@attribute a numeric\n", XML_TWO)

    @pytest.mark.parametrize("kind", ["numeric", "{x,y}"])
    def test_empty_attribute_name_reports_its_line(self, kind):
        text = f"@relation r\n@attribute '' {kind}\n@attribute p {{0,1}}\n@data\n"
        with pytest.raises(MulanFormatError, match="attribute name must be non-empty") as err:
            parse_mulan(text, XML_P)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "line",
        ["@data 9.5,1", "@data\t%", "@datas", "@relationship t", "@relation-x t", "@attributes a numeric"],
    )
    def test_a_keyword_is_a_whole_word_and_data_ends_its_line(self, line):
        text = f"@relation r\n@attribute a numeric\n@attribute p {{0,1}}\n{line}\n@data\n1,0\n2,1\n"
        with pytest.raises(MulanFormatError, match="unexpected content") as err:
            parse_mulan(text, XML_P)
        assert err.value.line == 4

    @pytest.mark.parametrize("line", ["@relation x y z", "@relation 'x y' z", "@relation x\t'y'"])
    def test_text_after_the_relation_name(self, line):
        text = f"{line}\n@attribute a numeric\n@attribute p {{0,1}}\n@data\n1,0\n"
        with pytest.raises(MulanFormatError, match="text after the relation name") as err:
            parse_mulan(text, XML_P)
        assert err.value.line == 1

    def test_a_quoted_relation_name_holds_spaces(self):
        text = "@relation 'x y z' \t\n@attribute a numeric\n@attribute p {0,1}\n@data\n1,0\n"
        assert parse_mulan(text, XML_P).name == "x y z"

    def test_a_keyword_ends_before_whitespace_or_a_quote_in_any_case(self):
        text = "@RELATION\t'r s'\n@Attribute'a b' numeric\n@attribute p {0,1}\n@DATA\n1,0\n2,1\n"
        d = parse_mulan(text, XML_P)
        assert (d.name, d.attributes[0].name, d.n) == ("r s", "a b", 2)


class TestReusedDeclarations:
    """An attribute whose type text an earlier line declared takes its value
    list, and still raises the errors of its own line."""

    def test_empty_name_reports_its_own_line(self):
        text = "@relation r\n@attribute a {x,y}\n@attribute '' {x,y}\n@attribute p {0,1}\n@data\n"
        with pytest.raises(MulanFormatError, match="attribute name must be non-empty") as err:
            parse_mulan(text, XML_P)
        assert err.value.line == 3

    def test_duplicate_values_report_the_first_line(self):
        text = "@relation r\n@attribute a {x,x}\n@attribute b {x,x}\n@attribute p {0,1}\n@data\n"
        with pytest.raises(MulanFormatError, match="'a' declares duplicate values") as err:
            parse_mulan(text, XML_P)
        assert err.value.line == 2

    def test_duplicate_names_with_one_type_text(self):
        text = "@relation r\n@attribute a {x,y}\n@attribute a {x,y}\n@attribute p {0,1}\n@data\nx,y,1\n"
        with pytest.raises(MulanFormatError, match="duplicate attribute names"):
            parse_mulan(text, XML_P)


class TestQuotedTokens:
    def test_quoted_numeric_and_nominal_cells(self):
        text = DENSE_TWO.replace("1.0,red,1,0", "'1.5',\"red\",1,'0'")
        d = parse_mulan(text, XML_TWO)
        assert rows(d)[0].features == (1.5, 0)
        assert rows(d)[0].labels == (0,)

    def test_value_spelled_like_missing(self):
        text = DENSE_TWO.replace("{red,blue}", "{'?',blue}").replace(
            "1.0,red,1,0\n2.0,blue,0,1", "1.0,?,1,0\n2.0,'?',0,1"
        )
        d = parse_mulan(text, XML_TWO)
        assert [inst.features for inst in rows(d)] == [(1.0, None), (2.0, 0)]

    def test_value_that_is_quoted_in_full(self):
        # the declared value is 'red' with its quotes: only a quoted token names it
        text = DENSE_TWO.replace("{red,blue}", "{\"'red'\",blue}")
        named = text.replace("1.0,red,1,0", "1.0,\"'red'\",1,0")
        assert rows(parse_mulan(named, XML_TWO))[0].features == (1.0, 0)
        for token in ("red", "'red'"):
            with pytest.raises(MulanFormatError, match="line 7: value 'red' not in declared list"):
                parse_mulan(text.replace("1.0,red,1,0", f"1.0,{token},1,0"), XML_TWO)

    def test_unterminated_quote_in_row(self):
        text = DENSE_TWO.replace("2.0,blue,0,1", "2.0,'blue,0,1")
        with pytest.raises(MulanFormatError, match="line 8: unterminated quote"):
            parse_mulan(text, XML_TWO)

    def test_unterminated_quote_spelling_a_declared_value(self):
        # a dense block holding a quote goes row by row, even where every token decodes
        text = DENSE_TWO.replace("{red,blue}", "{\"'red\",blue}").replace("1.0,red", "1.0,'red")
        with pytest.raises(MulanFormatError, match="line 7: unterminated quote"):
            parse_mulan(text, XML_TWO)

    def test_line_opening_with_a_brace_is_a_sparse_row(self):
        # even where its tokens would decode as a dense row
        text = (
            "@relation demo\n@attribute color {red,'{}'}\n@attribute height numeric\n"
            "@attribute p {0,1}\n@attribute q {0,1}\n@data\nred,1.0,1,0\n{},2.0,0,1\n"
        )
        with pytest.raises(MulanFormatError, match="line 8: unterminated sparse row"):
            parse_mulan(text, XML_TWO)

    def test_first_bad_cell_of_a_row_is_reported(self):
        text = DENSE_TWO.replace("2.0,blue,0,1", "x,green,0,1")
        with pytest.raises(MulanFormatError, match="non-numeric value 'x' for attribute 'height'"):
            parse_mulan(text, XML_TWO)


class TestNonFinite:
    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-Infinity", "1e400", "-1e400", "'inf'"])
    def test_dense_numeric_rejected(self, token):
        text = DENSE_TWO.replace("2.0,blue,0,1", f"{token},blue,0,1")
        with pytest.raises(MulanFormatError, match="non-finite value .* for attribute 'height'") as err:
            parse_mulan(text, XML_TWO)
        assert err.value.line == 8

    def test_sparse_numeric_rejected(self):
        text = DENSE_TWO.replace("1.0,red,1,0\n2.0,blue,0,1", "{3 1}\n{0 nan, 3 1}")
        with pytest.raises(MulanFormatError, match="line 8: non-finite value 'nan'"):
            parse_mulan(text, XML_TWO)

    def test_numeric_label_column_keeps_label_message(self):
        text = DENSE_TWO.replace("@attribute q {0,1}", "@attribute q numeric").replace(
            "2.0,blue,0,1", "2.0,blue,0,inf"
        )
        with pytest.raises(MulanFormatError, match="line 8: non-binary value inf in label column 'q'"):
            parse_mulan(text, XML_TWO)

    def test_extreme_finite_values_accepted(self):
        # the row sum overflows although every value is finite
        text = DENSE_TWO.replace("@attribute color {red,blue}", "@attribute w numeric").replace(
            "1.0,red,1,0\n2.0,blue,0,1", "1.7e308,1.7e308,1,0\n-1.7e308,?,0,1"
        )
        d = parse_mulan(text, XML_TWO)
        assert [inst.features for inst in rows(d)] == [(1.7e308, 1.7e308), (-1.7e308, None)]


class TestLabelOrdering:
    def test_xml_order_defines_label_indices(self):
        xml_swapped = XML_TWO.replace(
            '<label name="p"></label>\n  <label name="q"></label>',
            '<label name="q"></label>\n  <label name="p"></label>',
        )
        d = parse_mulan(DENSE_TWO, xml_swapped)
        assert d.labels == ("q", "p")
        assert rows(d)[0].labels == (1,)  # p is now index 1

    def test_label_columns_before_features(self):
        text = """@relation demo
@attribute p {0,1}
@attribute q {0,1}
@attribute height numeric
@data
1,0,1.0
0,1,2.0
"""
        d = parse_mulan(text, XML_TWO)
        assert [a.name for a in d.attributes] == ["height"]
        assert rows(d)[0].features == (1.0,)
        assert rows(d)[0].labels == (0,)


class TestLabelHeader:
    def test_nested_labels_flattened(self):
        xml = """<labels xmlns="http://mulan.sourceforge.net/labels">
          <label name="outer"><label name="inner"></label></label>
          <label name="last"/>
        </labels>"""
        assert parse_label_header(xml) == ("outer", "inner", "last")

    def test_no_labels_rejected(self):
        with pytest.raises(MulanFormatError, match="no labels"):
            parse_label_header("<labels></labels>")

    def test_bad_xml_rejected(self):
        with pytest.raises(MulanFormatError, match="bad XML"):
            parse_label_header("<labels>")


class TestWrite:
    def test_round_trip_toy(self, toy6):
        d = parse_mulan(*write_mulan(toy6))
        assert d == toy6

    def test_empty_labelset_row(self):
        d = make_dataset([AttributeSpec("a")], ("A", "B"), [((1.0,), [])])
        arff_text, xml_text = write_mulan(d)
        assert arff_text.splitlines()[-1] == "1.0,0,0"
        back = parse_mulan(arff_text, xml_text)
        assert not rows(back)[0].labels

    def test_missing_value_round_trip(self):
        d = make_dataset([AttributeSpec("a")], ("A",), [((None,), [0])])
        arff_text, _ = write_mulan(d)
        assert "?,1" in arff_text
        assert parse_mulan(*write_mulan(d)) == d

    def test_value_spelled_like_missing_round_trip(self):
        attrs = [AttributeSpec("?", values=("?", "x"))]
        d = make_dataset(attrs, ("A",), [((0,), [0]), ((None,), [0]), ((1,), [])], name="?")
        arff_text, xml_text = write_mulan(d)
        assert arff_text.splitlines()[-3:] == ['"?",1', "?,1", "x,0"]
        assert parse_mulan(arff_text, xml_text) == d

    def test_names_needing_quotes(self):
        d = make_dataset(
            [AttributeSpec("odd name", values=("v 1", "v2"))],
            ("A",),
            [((0,), [0])],
            name="data set",
        )
        assert parse_mulan(*write_mulan(d)) == d

    @pytest.mark.parametrize("name", ["L\xa00", "L\u30000", "L\x1f0", "L\t0", "L 0"])
    def test_names_holding_any_whitespace_round_trip(self, name):
        attrs = [AttributeSpec("a" + name), AttributeSpec("b" + name, values=(name, "x"))]
        d = make_dataset(attrs, ("A",), [((1.5, 0), [0]), ((None, 1), [])], name=name)
        assert parse_mulan(*write_mulan(d)) == d
        if name != "L\x1f0":  # not a character of XML 1.0
            d = make_dataset(attrs, (name,), [((1.5, 0), [0]), ((None, 1), [])], name=name)
            assert parse_mulan(*write_mulan(d)) == d

    @pytest.mark.parametrize("name", ["L\r0", "L\u20280", "L\x0b0"])
    def test_label_name_holding_a_line_break_rejected(self, name):
        d = make_dataset([AttributeSpec("a")], (name,), [((1.0,), [0])])
        with pytest.raises(ValueError, match="line break: " + re.escape(repr(name))):
            write_mulan(d)

    def test_nominal_value_holding_a_line_break_rejected(self):
        d = make_dataset([AttributeSpec("a", values=("x\ny", "z"))], ("A",), [((0,), [0])])
        with pytest.raises(ValueError, match="line break: " + re.escape(repr("x\ny"))):
            write_mulan(d)

    @pytest.mark.parametrize("name", ["L\x010", "L\x1f0", "L\ufffe0"])
    def test_label_name_outside_xml_rejected(self, name):
        d = make_dataset([AttributeSpec("a")], (name,), [((1.0,), [0])])
        with pytest.raises(ValueError, match="outside XML 1.0: " + re.escape(repr(name))):
            write_mulan(d)

    def test_line_breaks_are_those_of_splitlines(self):
        breaks = {c for c in map(chr, range(0x110000)) if len(f"a{c}b".splitlines()) > 1}
        assert arff._LINE_BREAKS == breaks


@settings(max_examples=120, deadline=None)
@given(datasets(quotable_names=True, quotable_values=True))
def test_parse_write_identity(d):
    assert parse_mulan(*write_mulan(d)) == d


@settings(max_examples=120, deadline=None)
@given(datasets(quotable_names=True, quotable_values=True))
def test_writer_matches_cell_by_cell_writer(d):
    assert write_mulan(d) == oracle_write_mulan(d)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="a 1,'\"{}\t?", max_size=24))
def test_tokeniser_matches_character_scanner(line):
    try:
        expected = oracle_split(line, ",", 3)
    except MulanFormatError as exc:
        with pytest.raises(MulanFormatError) as err:
            _split(line, ",", 3)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
    else:
        assert _split(line, ",", 3) == expected


def test_name_token_ends_at_every_whitespace_character():
    """The name of an ``@attribute`` line ends where the per-character scan
    ended it; the type text after it is stripped."""
    for c in map(chr, range(0x110000)):
        token, rest = arff._take_token(f"a{c}b ", 2)
        expected, remainder = oracle_take_token(f"a{c}b ", 2)
        assert (token, rest.strip()) == (expected, remainder.strip()), repr(c)


# type texts that declare the same value lists in other spellings, and ones
# that fail, each with its own message
GOOD_TYPES = ["{0,1}", "{ 0 , 1 }", "{'0',\"1\"}", "{a,bb,c}", "numeric", "REAL", "Integer"]
BAD_TYPES = ["{x,x}", "{a,}", "{a", "{'a,b}", "string", ""]
HEADER_NAMES = ["w0", "w1", "w2", "T0", "T1", "a b", ""]


@st.composite
def headers(draw):
    """An ARFF header whose attributes repeat a few type texts, with bare or
    quoted names separated from their type by a space, a tab or ``\\x1f``,
    and in one header of four a bad type text; with an XML header whose
    labels are the last attributes, in the writer's order, or some of the
    names, each an attribute or not."""
    n = draw(st.integers(1, 10))
    bad = draw(st.integers(0, 4 * n - 1))
    lines, names = ["@relation r"], []
    for i in range(n):
        # the empty name, which only quotes spell, in about one line of ten
        name = draw(st.sampled_from(HEADER_NAMES[:-1] if draw(st.integers(0, 9)) else HEADER_NAMES))
        names.append(name)
        if not name or " " in name or draw(st.booleans()):
            quote = draw(st.sampled_from("'\""))
            name = quote + name + quote
        kind = draw(st.sampled_from(BAD_TYPES if i == bad else GOOD_TYPES))
        lines.append(f"@attribute {name}{draw(st.sampled_from([' ', '  ', chr(9), chr(31)]))}{kind}")
    if draw(st.booleans()):
        labels = list(dict.fromkeys(names[-draw(st.integers(1, min(n, 3))) :]))
    else:
        labels = draw(st.lists(st.sampled_from(HEADER_NAMES[:-1]), min_size=1, max_size=4, unique=True))
    labels = [name for name in labels if name] or ["T0"]
    xml = "<labels>" + "".join(f'<label name="{name}"></label>' for name in labels) + "</labels>"
    return "\n".join([*lines, "@data", ""]), xml, tuple(labels)


def read_parser(arff_text, xml_text):
    """The row parser that ``read_mulan`` built and whether its line matcher
    was made; or the format error its header raised."""
    made = []
    writer_lines = arff._writer_lines

    def recorded(parser):
        made.append((parser, writer_lines(parser)))
        return made[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arff, "_writer_lines", recorded)
        try:
            arff.read_mulan(arff_text, xml_text)
        except MulanFormatError as exc:
            if not made:
                return exc
    return made[0]


@settings(max_examples=400, deadline=None)
@given(headers())
def test_schema_tables_match_the_per_column_functions(header):
    """Each distinct declaration is parsed once and its tables are shared by
    its columns; every table equals the one the per-line functions build
    for each column alone, and a bad declaration raises the same message at
    the same line."""
    arff_text, xml_text, labels = header
    columns = []
    try:
        for line_no, line in enumerate(arff_text.splitlines()[1:-1], start=2):
            columns.append(oracle_parse_attribute(line[len("@attribute") :], line_no))
    except ValueError as exc:
        # the per-line function lets the name error of a numeric attribute
        # escape without its line, which the reader now adds
        if not isinstance(exc, MulanFormatError):
            exc = MulanFormatError(str(exc), line_no)
        error = read_parser(arff_text, xml_text)
        assert isinstance(error, MulanFormatError)
        assert (str(error), error.line) == (str(exc), exc.line)
        return
    parser, match = read_parser(arff_text, xml_text)
    assert list(parser.columns) == columns
    head = oracle_run_start(columns)
    assert parser.head == head
    assert sorted(parser.head_converters) == [j for j in range(head) if columns[j].is_nominal]
    tail_codes = np.full((len(columns) - head, 256), -1, np.int16)
    for codes, attr in zip(tail_codes, columns[head:]):
        codes[[ord(v) for v in attr.values]] = range(len(attr.values))
    assert parser.tail_codes.dtype == np.int16
    assert np.array_equal(parser.tail_codes, tail_codes)
    finite = [not attr.is_nominal and attr.name not in labels for attr in columns]
    assert parser.finite.tolist() == finite
    nominal = [columns[i] for i in parser.label_columns if columns[i].is_nominal]
    width = max((len(attr.values) for attr in nominal), default=0) + 1
    numbers = np.full((len(nominal), width), np.nan)
    for row, attr in zip(numbers, nominal):
        for code, value in enumerate(attr.values):
            try:
                number = float(value)
            except ValueError:
                continue
            if number in (0.0, 1.0):
                row[code] = number
    assert np.array_equal(parser.label_numbers, numbers, equal_nan=True)
    # one decoder per distinct value list, numeric columns sharing float
    assert len(set(map(id, parser.decoders))) == len({attr.values for attr in columns})
    for attr, decode in zip(columns, parser.decoders):
        if not attr.is_nominal:
            assert decode is float
            continue
        index = oracle_nominal_index(attr)
        for token in [spelled for v in attr.values for spelled in (v, f"'{v}'", f'"{v}"', f" {v}")]:
            expected = index.get(token)
            if expected is None:
                with pytest.raises(KeyError):
                    decode(token)
            else:
                assert decode(token) == expected
    assert (match is None) == (oracle_writer_lines(parser) is None)
    features = tuple(columns[i] for i in parser.feature_columns)
    formatter = RowFormatter(features, len(parser.label_columns))
    assert formatter._head == oracle_run_start(features)
    assert formatter.declarations == [
        f"@attribute {arff._quote(attr.name)} "
        + ("{" + ",".join(map(arff._quote, attr.values)) + "}" if attr.is_nominal else "numeric")
        for attr in features
    ]


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_parse_preserves_order(d):
    back = parse_mulan(*write_mulan(d))
    assert [a.name for a in back.attributes] == [a.name for a in d.attributes]
    assert rows(back) == rows(d)


def parse_with_full_check(arff_text, xml_text):
    """``parse_mulan`` with every parsed row turned into Python values and checked again by
    the constructor."""
    d = parse_mulan(arff_text, xml_text)
    return make_dataset(d.attributes, d.labels, rows(d), d.name)


# non-finite, overflowing, undeclared, missing, quoted and non-binary tokens,
# numbers that only Python's float() reads (digit-group underscores and
# Arabic-Indic digits), one holding a ? and one too many; and tokens on which
# a C number reader and float() could disagree: spellings both read, a bad
# exponent, an empty token, hex, a NUL byte, comment characters and two numbers
MUTANT_TOKENS = [
    "nan", "1e400", "-inf", "Infinity", "zz", "?", "'?'", "1?", "1.5", "0", "1", "2", "1_0",
    "\u0661\u0662", "1,0", "00", "a",
    "+.5", "5.", "1E5", "1e", "", "0x1", "1\x00", "-0", "1.5e+3", "#1", "1#", "1 2",
]
# \x1f is whitespace to str.strip and numpy's reader, but float() rejects it
PADDING = ["", " ", "\t", "\xa0", "\x1f"]
# irregular sparse rows: entries out of order, an index twice or out of
# range, an entry of three tokens or of one, rows with no entry or with an
# empty one, and a missing or non-finite value
SPARSE_FAULTS = [
    "unsorted", "duplicate", "range", "three", "one", "{}", "{ }", "{,}", "?", "nan"
]


def sparse_line(draw, cells, fault=None):
    """Some of ``cells`` as a sparse row, its indices ascending unless ``fault`` says otherwise."""
    entries = [[str(i), cells[i]] for i in sorted(draw(st.sets(st.integers(0, len(cells) - 1))))]
    if entries:
        at = draw(st.integers(0, len(entries) - 1))
        if fault in ("?", "nan"):
            entries[at][1] = fault
        elif fault == "three":
            entries[at].append(draw(st.sampled_from(["0", "1", cells[-1]])))
        elif fault == "one":
            del entries[at][draw(st.integers(0, 1))]
        elif fault == "range":
            entries[at][0] = draw(st.sampled_from(["-1", str(len(cells))]))
        elif fault == "duplicate":
            entries.insert(at, [entries[at][0], draw(st.sampled_from(["0", "1", cells[-1]]))])
        elif fault == "unsorted" and len(entries) > 1:
            entries.insert(at, entries.pop(draw(st.integers(0, len(entries) - 1))))
    body = draw(st.sampled_from([",", ", "])).join(" ".join(entry) for entry in entries)
    if fault in ("{}", "{ }", "{,}"):
        body = fault[1:-1]
    return "{" + body + "}"


@st.composite
def mutated_mulan(draw):
    """A written dataset whose data rows got bad tokens or whitespace around
    their tokens, some rewritten as sparse rows, regular or not; in half the
    files every row is sparse, so that whole blocks are."""
    # files without missing values, half of them, hold dense blocks that decode whole
    d = draw(datasets(max_n=8, allow_missing=draw(st.booleans())))
    arff_text, xml_text = write_mulan(d)
    lines = arff_text.splitlines()
    first = lines.index("@data") + 1
    rows = [line.split(",") for line in lines[first:]]
    sparse = [draw(st.booleans())] * len(rows)
    faults = [None] * len(rows)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(rows) - 1))
        cells = rows[at]
        if draw(st.booleans()):
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(MUTANT_TOKENS))
        if draw(st.booleans()):
            pad = st.sampled_from(PADDING)
            cells = rows[at] = [draw(pad) + cell + draw(pad) for cell in cells]
        # a sparse row among dense ones, or the other way round
        sparse[at] = draw(st.booleans())
        faults[at] = draw(st.sampled_from([None, *SPARSE_FAULTS]))
    for at, cells in enumerate(rows):
        line = sparse_line(draw, cells, faults[at]) if sparse[at] else ",".join(cells)
        lines[first + at] = line
    return "\n".join(lines) + "\n", xml_text


@settings(max_examples=300, deadline=None)
@given(mutated_mulan())
def test_parsed_rows_pass_the_full_check(files):
    try:
        expected = parse_with_full_check(*files)
    except MulanFormatError as exc:
        with pytest.raises(MulanFormatError) as err:
            parse_mulan(*files)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
    else:
        d = parse_mulan(*files)
        assert d == expected
        assert d == MultiLabelDataset(d.attributes, d.labels, d.numeric, d.nominal, d.y, d.name)


def rows_only(parser, lines, line_numbers):
    """The cells of data lines each decoded alone by ``_RowParser.row``, and no heads."""
    rows = [parser.row(line, line_no) for line, line_no in zip(lines, line_numbers)]
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(parser.columns)), None


def parse_outcome(arff_text, xml_text):
    """The parsed dataset with its arrays' bits, or the error message and line."""
    try:
        d = parse_mulan(arff_text, xml_text)
    except MulanFormatError as exc:
        return str(exc), exc.line
    arrays = (d.numeric.view(np.uint64), d.nominal, d.y)
    return d.name, d.attributes, d.labels, [(a.shape, a.dtype, a.tolist()) for a in arrays]


NUMERIC_HEAD = "@relation r\n@attribute a numeric\n@attribute A {0,1}\n@data\n"
ONE_NUMERIC = NUMERIC_HEAD + "1.5,0\n"
XML_A = '<labels><label name="A"></label></labels>'
# a declared value holding a space, so that a sparse entry of three tokens can name it
SPACED = "@relation r\n@attribute c {'a b',c}\n@attribute A {0,1}\n@data\n"
# declared values with a space at an edge, which only a quoted token names
PADDED = "@relation r\n@attribute x numeric\n@attribute c {' a',a}\n@attribute A {0,1}\n@data\n"
BLANK = "@relation r\n@attribute x numeric\n@attribute c {' ',a}\n@attribute A {0,1}\n@data\n"
# one-character columns only, and a numeric column before two of them
LETTERS = "@relation r\n@attribute f {0,1}\n@attribute A {0,1}\n@data\n"
NUMBER_LETTERS = "@relation r\n@attribute x numeric\n@attribute f {0,1}\n@attribute A {0,1}\n@data\n"
# a nominal column of multi-character values before a label
NUMBER_WORDS = "@relation r\n@attribute x numeric\n@attribute c {g0,g1}\n@attribute A {0,1}\n@data\n"


@settings(max_examples=300, deadline=None)
@given(mutated_mulan())
@example((ONE_NUMERIC + "nan,1\n", XML_A))  # a non-finite feature
@example((ONE_NUMERIC + "2.5,1,0\n", XML_A))  # a token too many
@example((ONE_NUMERIC + "2.5\n", XML_A))  # a token too few
@example((ONE_NUMERIC + "?,1\n1?,0\n", XML_A))  # a missing value, and a token holding a ?
@example((NUMERIC_HEAD + "{0 nan, 1 1}\n", XML_A))  # a non-finite sparse feature
@example((NUMERIC_HEAD + "{1 1, 0 2.5}\n", XML_A))  # sparse indices out of order
@example((NUMERIC_HEAD + "{0 ?, 1 1}\n{}\n{ }\n", XML_A))  # a missing value, rows without entries
@example((NUMERIC_HEAD + "{0 2.5, 0 3.5}\n", XML_A))  # an index twice
@example((NUMERIC_HEAD + "{,}\n", XML_A))  # an empty entry
@example((NUMERIC_HEAD + "{-1 1}\n", XML_A))  # an index out of range, whose value would fit
@example((NUMERIC_HEAD + "{2 1}\n", XML_A))  # an index one past the last column
@example((NUMERIC_HEAD + "{0 1},{1 1}\n", XML_A))  # two sparse rows on one line
@example((NUMERIC_HEAD + "{0 2.5 1}\n", XML_A))  # three tokens, the first two decoding
@example((NUMERIC_HEAD + "{1}\n", XML_A))  # one token
@example((SPACED + "{1 1}\n{0 a b, 1 1}\n", XML_A))  # three tokens naming one value
@example((PADDED + "1.5, a,1\n", XML_A))  # a padded value in a clean block
@example((PADDED + "1.5, a,1\n?,a,0\n", XML_A))  # and in a block holding a missing value
@example((BLANK + "1.5, ,1\n", XML_A))  # a blank cell where a value is a space
@example((LETTERS + "1,00\n,1\n", XML_A))  # lines whose characters join to 1,00,1
@example((NUMBER_LETTERS + "1.5,10,1\n", XML_A))  # two characters in a one-character column
@example((LETTERS + "0,1\n0, 1\n1,0\n", XML_A))  # lines of one-character cells differing in length
@example((ONE_NUMERIC + "\x1f2.5\x1f,1\n", XML_A))  # a number padded with \x1f
@example((ONE_NUMERIC + "1.5#x,1\n", XML_A))  # a comment character after a number
@example((NUMBER_WORDS + "1.5, g0,1\n", XML_A))  # a padded multi-character nominal cell
@example((ONE_NUMERIC + "2.5,1\n3.5,0\n", XML_A))  # three rows, so the last block is empty
def test_column_blocks_decode_as_every_row_alone(files):
    with pytest.MonkeyPatch.context() as patch:
        # three-row blocks, so that clean and fallback blocks meet inside a file
        patch.setattr(arff, "_PARSE_ROWS", 3)
        outcome = parse_outcome(*files)
        patch.setattr(arff._RowParser, "cells", rows_only)
        assert outcome == parse_outcome(*files)


def dense_lines(n):
    """The lines of a clean dense ARFF file for ``XML_TWO``: columns x, y, c, p, q."""
    rng = np.random.default_rng(5)
    colors = ("red", "blue", "green")
    columns = zip(
        rng.normal(size=n).tolist(),
        (rng.normal(size=n) * 1e3).tolist(),
        rng.integers(0, 3, n).tolist(),
        rng.integers(0, 2, (n, 2)).tolist(),
    )
    rows = [f"{x!r},{y!r},{colors[c]},{p},{q}" for x, y, c, (p, q) in columns]
    return [
        "@relation blocks",
        "@attribute x numeric",
        "@attribute y numeric",
        "@attribute c {red,blue,green}",
        "@attribute p {0,1}",
        "@attribute q {0,1}",
        "@data",
        *rows,
    ]


class TestBlockBoundaries:
    """A dense file of three parse blocks, the last one partial."""

    ROWS = 1100

    def setup_method(self):
        assert 2 * arff._PARSE_ROWS < self.ROWS < 3 * arff._PARSE_ROWS
        self.lines = dense_lines(self.ROWS)
        self.data = self.lines.index("@data") + 1  # list index of data row 0
        self.clean = parse_mulan("\n".join(self.lines) + "\n", XML_TWO)

    def with_cell(self, row, column, token, lines=None):
        """The file's lines with one cell of data row ``row`` replaced by
        ``token``, in which ``{}`` stands for the old cell."""
        lines = list(self.lines if lines is None else lines)
        cells = lines[self.data + row].split(",")
        cells[column] = token.format(cells[column])
        lines[self.data + row] = ",".join(cells)
        return lines

    def parse(self, lines, xml_text=XML_TWO, end="\n"):
        return parse_mulan(end.join(lines) + end, xml_text)

    def test_bad_token_in_the_third_block_reports_its_line(self):
        row = 2 * arff._PARSE_ROWS + 40
        with pytest.raises(MulanFormatError, match="non-numeric value 'zz' for attribute 'x'") as err:
            self.parse(self.with_cell(row, 0, "zz"))
        assert err.value.line == self.data + row + 1

    def test_missing_values_in_the_second_block(self):
        row = arff._PARSE_ROWS + 100
        d = self.parse(self.with_cell(row + 1, 2, "?", self.with_cell(row, 0, "?")))
        numeric, nominal = self.clean.numeric.copy(), self.clean.nominal.copy()
        numeric[row, 0] = np.nan
        nominal[row + 1, 0] = -1
        assert np.array_equal(d.numeric.view(np.uint64), numeric.view(np.uint64))
        assert np.array_equal(d.nominal, nominal)
        assert np.array_equal(d.y, self.clean.y)

    def rows_decoded_alone(self, monkeypatch):
        """The line numbers that :meth:`arff._RowParser.row` decodes from now on."""
        decoded = []
        row_alone = arff._RowParser.row

        def spy(parser, line, line_no):
            decoded.append(line_no)
            return row_alone(parser, line, line_no)

        monkeypatch.setattr(arff._RowParser, "row", spy)
        return decoded

    def sparse(self, lines):
        """The data rows of ``lines`` as sparse rows, without the cells that
        hold their column's default (0 or the first declared value)."""
        defaults = (None, None, "red", "0", "0")
        rows = [
            ",".join(f"{j} {cell}" for j, cell in enumerate(line.split(",")) if cell != defaults[j])
            for line in lines[self.data :]
        ]
        return lines[: self.data] + ["{" + row + "}" for row in rows]

    def test_only_a_block_that_does_not_decode_whole_goes_row_by_row(self, monkeypatch):
        decoded = self.rows_decoded_alone(monkeypatch)
        assert self.parse(self.lines) == self.clean
        assert decoded == []
        second = range(self.data + arff._PARSE_ROWS + 1, self.data + 2 * arff._PARSE_ROWS + 1)
        # a missing value, and a padded nominal value, which only the row path strips
        for column, token in ((0, "?"), (2, " {}")):
            decoded.clear()
            self.parse(self.with_cell(arff._PARSE_ROWS + 100, column, token))
            assert decoded == list(second)

    def test_sparse_rows_decode_by_column(self, monkeypatch):
        decoded = self.rows_decoded_alone(monkeypatch)
        row = arff._PARSE_ROWS + 100
        with_missing = self.with_cell(row + 1, 2, "?", self.with_cell(row, 0, "?"))
        missing = self.parse(with_missing)
        decoded.clear()
        for lines, expected in (
            (self.sparse(self.lines), self.clean),
            (self.sparse(with_missing), missing),
        ):
            d = self.parse(lines)
            assert d == expected
            assert np.array_equal(d.numeric.view(np.uint64), expected.numeric.view(np.uint64))
        # only the sparse block holding a missing value goes row by row
        second = range(self.data + arff._PARSE_ROWS + 1, self.data + 2 * arff._PARSE_ROWS + 1)
        assert decoded == list(second)

    def test_a_nan_token_beside_missing_values_keeps_its_error(self):
        row = arff._PARSE_ROWS + 100
        lines = self.with_cell(row + 2, 1, "nan", self.with_cell(row, 0, "?"))
        for lines in (lines, self.sparse(lines)):
            message = "non-finite value 'nan' for attribute 'y'"
            with pytest.raises(MulanFormatError, match=message) as err:
                self.parse(lines)
            assert err.value.line == self.data + row + 3

    def test_padding_line_endings_comments_and_blank_lines(self):
        lines = self.with_cell(5, 0, " {}\t")
        lines = self.with_cell(600, 2, " {} ", lines)
        lines = self.with_cell(1060, 1, "\t{} ", lines)
        # a comment and a blank line inside the second block shift every later line
        lines[self.data + 530 : self.data + 530] = ["% a comment", ""]
        for end in ("\n", "\r\n"):
            d = self.parse(lines, end=end)
            assert d == self.clean
            assert np.array_equal(d.numeric.view(np.uint64), self.clean.numeric.view(np.uint64))
        with pytest.raises(MulanFormatError, match="non-numeric value 'zz'") as err:
            self.parse(self.with_cell(1052, 0, "zz", lines), end="\r\n")  # data row 1050
        assert err.value.line == self.data + 1052 + 1

    @pytest.mark.parametrize("row", [3, 1090])
    def test_bad_row_is_reported_before_a_label_missing_from_the_attributes(self, row):
        xml_text = XML_TWO.replace("</labels>", '  <label name="zz"></label>\n</labels>')
        with pytest.raises(MulanFormatError, match="XML label 'zz' is not an ARFF attribute"):
            self.parse(self.lines, xml_text)
        with pytest.raises(MulanFormatError, match="value 'purple' not in declared list") as err:
            self.parse(self.with_cell(row, 2, "purple"), xml_text)
        assert err.value.line == self.data + row + 1


def test_parser_schema_errors_keep_their_format_error():
    arff_text = "@relation r\n@attribute a numeric\n@attribute a numeric\n@attribute p {0,1}\n@data\n1,2,1\n"
    xml_text = '<labels><label name="p"></label></labels>'
    with pytest.raises(MulanFormatError, match="duplicate attribute names"):
        parse_mulan(arff_text, xml_text)


LABELS_PQ = "@attribute p {0,1}\n@attribute q {0,1}\n@data\n"
DENSE_HEAD = "@relation r\n@attribute h numeric\n@attribute c {red,blue}\n" + LABELS_PQ
TWO_NUMBERS = "@relation r\n@attribute x numeric\n@attribute y numeric\n" + LABELS_PQ
ONE_NUMBER = "@relation r\n@attribute x numeric\n" + LABELS_PQ
# a numeric label, so that no line has a one-character tail
NO_TAIL = "@relation r\n@attribute x numeric\n@attribute A numeric\n@data\n"


@pytest.mark.parametrize(
    "arff_text, xml_text, message, line",
    [
        # one comma moved from the tail into the head
        (DENSE_HEAD + "1.0,red,1,0\n2.0,,blue0,1\n", XML_TWO, "value '' not in declared list", 8),
        (DENSE_HEAD + "1.0,red,1,0\n2.0,red,blue,0,1\n", XML_TWO, "expected 4 values, got 5", 8),
        # a head one cell short in every line of the block
        (TWO_NUMBERS + "1.5,1,0\n2.5,0,1\n", XML_TWO, "expected 4 values, got 3", 7),
        # an empty head cell
        (TWO_NUMBERS + "1.5,2.5,1,0\n2.5,,0,1\n", XML_TWO, "non-numeric value '' for attribute 'y'", 8),
        # a line exactly as long as its tail, and one shorter
        (ONE_NUMBER + "1.5,1,0\n,1,0\n", XML_TWO, "non-numeric value '' for attribute 'x'", 7),
        (ONE_NUMBER + "1.5,1,0\n1,0\n", XML_TWO, "expected 3 values, got 2", 7),
        # ragged rows in a file without a tail, and every row a cell too many
        (NO_TAIL + "1.5,1\n2.5,3.5,0\n3.5,1\n", XML_A, "expected 2 values, got 3", 6),
        (NO_TAIL + "1.5,1\n2.5\n", XML_A, "expected 2 values, got 1", 6),
        (NO_TAIL + "1.5,2.5,1\n2.5,3.5,0\n", XML_A, "expected 2 values, got 3", 5),
    ],
    ids=[
        "comma-moved-to-head", "cell-too-many-in-head", "head-short-in-every-line",
        "empty-head-cell", "line-as-long-as-tail", "line-shorter-than-tail",
        "ragged-without-tail", "short-without-tail", "every-line-long-without-tail",
    ],
)
def test_lines_of_other_than_one_token_per_column(arff_text, xml_text, message, line):
    """numpy's reader and the shape of what it reads check the heads' cells,
    the tail check the tails' commas; either sends a misfit to the row path."""
    with pytest.raises(MulanFormatError, match=re.escape(message)) as err:
        parse_mulan(arff_text, xml_text)
    assert err.value.line == line


@st.composite
def shared_feature_datasets(draw):
    """Rows that reuse other rows' feature tuples, with the same or other labelsets."""
    d = draw(datasets(quotable_names=True, quotable_values=True))
    sources, picked = rows(d), []
    for i in draw(st.lists(st.integers(0, d.n - 1), min_size=1, max_size=30)):
        features, labels = sources[i]
        if draw(st.booleans()):
            mask = draw(st.integers(0, 2**d.k - 1))
            labels = [l for l in range(d.k) if mask >> l & 1]
        picked.append((features, labels))
    return make_dataset(d.attributes, d.labels, picked, d.name)


@settings(max_examples=150, deadline=None)
@given(shared_feature_datasets(), st.data())
def test_writer_reuses_shared_rows_byte_for_byte(d, data):
    """Rows taken from one input, written through the formatter that
    ``read_mulan`` returned, as the folds of one dataset are.  A source only
    offers its line: a wrong one, -1 or an index past the input costs a
    spelling, never a byte."""
    assert write_mulan(d) == oracle_write_mulan(d)
    _, rows = arff.read_mulan(*write_mulan(d))
    index = st.integers(0, d.n - 1)
    for _ in range(3):  # later writes also meet the rows that earlier ones spelled and kept
        picked = data.draw(st.lists(index, max_size=30))
        sources = [
            data.draw(st.one_of(st.just(i), st.just(-1), st.just(d.n), index)) for i in picked
        ]
        part = d.subset(picked)
        assert write_mulan(part, rows, sources) == oracle_write_mulan(part)


@settings(max_examples=60, deadline=None)
@given(
    datasets(ensure_all_labels=True, quotable_values=True),
    st.integers(0, 2**32),
    st.sampled_from(["mean", "p25", "p50", "p75"]),
)
def test_cloned_and_decoupled_outputs_match_the_cell_by_cell_writer(d, seed, spec):
    cloned, _ = resample(d, MLROSConfig(p=60), seed)
    split, _ = remedial(d, DecoupleConfig.from_spec(spec))
    both, _ = resample(split, MLROSConfig(p=60), seed)
    for out in (cloned, split, both):
        assert write_mulan(out) == oracle_write_mulan(out)


def test_row_formatter_of_another_schema_rejected(toy6):
    other = make_dataset([AttributeSpec("a")], ("A",), [((1.0,), [0])])
    with pytest.raises(ValueError, match="another schema"):
        write_mulan(toy6, RowFormatter(other.attributes, other.k))


class TestNumbersOnlyFloatReads:
    """``float`` reads digit-group underscores and non-ASCII digits, which
    ARFF numbers do not have; every path rejects them with the same message."""

    @pytest.mark.parametrize("token", ["1_0.5", "\u0661\u0662", "'1_0.5'"])
    @pytest.mark.parametrize(
        "data",
        [
            "{},1\n",  # a dense row
            "{{0 {}, 1 1}}\n",  # a sparse row
            "{},'1'\n",  # a dense row that the quote sends down the row path
        ],
    )
    def test_rejected_with_line(self, token, data):
        arff_text = ONE_NUMERIC + data.format(token)
        message = f"non-numeric value {token.strip(chr(39))!r} for attribute 'a'"
        with pytest.raises(MulanFormatError, match=re.escape(message)) as err:
            parse_mulan(arff_text, XML_A)
        assert err.value.line == 6

    def test_sparse_index_with_an_underscore(self):
        with pytest.raises(MulanFormatError, match="bad sparse index '0_0'") as err:
            parse_mulan(NUMERIC_HEAD + "{0_0 1.5, 1 1}\n", XML_A)
        assert err.value.line == 5

    def test_nominal_values_may_hold_them(self):
        arff_text = (
            "@relation r\n@attribute c {a_b,\u00e9t\u00e9,\u0661}\n@attribute A {0,1}\n@data\n"
            "a_b,1\n\u00e9t\u00e9,0\n{0 \u0661, 1 1}\n"
        )
        d, rows = arff.read_mulan(arff_text, XML_A)
        assert d == parse_mulan(arff_text, XML_A)
        assert d.nominal[:, 0].tolist() == [0, 1, 2]
        assert write_mulan(d, rows) == oracle_write_mulan(d)


def matched_blocks(arff_text, xml_text):
    """Per data block whose heads ``read_mulan`` matches, the mask of the
    lines the writer can copy, each checked against the original per-line
    matcher on the block's lines; raises what ``read_mulan`` raises.

    The matcher gets each head that the column path cut, and the block's
    nominal codes; no block holding a ``?``, a quote or a non-ASCII
    character reaches it.
    """
    masks, blocks, received = [], [], []
    writer_lines, cells = arff._writer_lines, arff._RowParser.cells

    def recorded(parser, lines, line_numbers):
        blocks.append(lines)
        return cells(parser, lines, line_numbers)

    def checked(parser):
        match, oracle = writer_lines(parser), oracle_writer_lines(parser)
        assert (match is None) == (oracle is None)
        if match is None:
            return None

        def both(heads, codes):
            lines = blocks[-1]
            assert not any(mark in line for line in lines for mark in "?'\"")
            assert all(map(str.isascii, lines))
            assert len(heads) == len(lines)
            assert all(map(str.startswith, lines, heads))
            received.append((sum(map(len, blocks[:-1])), codes))
            mask = match(heads, codes)
            assert mask.dtype == bool
            assert mask.tolist() == [oracle(line) for line in lines]
            masks.append(mask.tolist())
            return mask

        return both

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arff, "_writer_lines", checked)
        patch.setattr(arff._RowParser, "cells", recorded)
        d, _ = arff.read_mulan(arff_text, xml_text)
    for at, codes in received:
        assert np.array_equal(codes, d.nominal[at : at + len(codes)])
    return masks


# tokens that repr writes back unchanged, and tokens that must be spelled again
CANONICAL_NUMBERS = ["0.0001", "-0.0", "0.0", "10.0", "100.5", "0.12345678901234"]
OTHER_NUMBERS = [
    "0.00009", "1.50", "01.5", "+1.5", ".5", "5.", "1e-05", "1_0.5", "9999999999999999.0",
    "0.100000000000001",
]


@settings(max_examples=1000, deadline=None)
@given(st.from_regex(CANONICAL_NUMBER, fullmatch=True))
def test_every_canonical_number_is_what_repr_writes(token):
    assert repr(float(token)) == token


@pytest.mark.parametrize("token", CANONICAL_NUMBERS)
def test_canonical_numbers_are_accepted(token):
    assert re.fullmatch(CANONICAL_NUMBER, token)
    assert repr(float(token)) == token
    assert matched_blocks(ONE_NUMERIC + f"{token},1\n", XML_A) == [[True, True]]


@pytest.mark.parametrize("token", OTHER_NUMBERS)
def test_other_numbers_fall_back(token):
    assert re.fullmatch(CANONICAL_NUMBER, token) is None
    if "_" not in token:  # the reader rejects 1_0.5
        assert matched_blocks(ONE_NUMERIC + f"{token},1\n", XML_A) == [[True, False]]


@settings(max_examples=300, deadline=None)
@given(mutated_mulan())
def test_block_matcher_agrees_with_the_line_regex_on_mutated_files(files):
    with pytest.MonkeyPatch.context() as patch:
        # three-row blocks, so that clean and fallback blocks meet inside a file
        patch.setattr(arff, "_PARSE_ROWS", 3)
        try:
            matched_blocks(*files)
        except MulanFormatError:
            pass


@settings(max_examples=200, deadline=None)
@given(datasets(quotable_values=True))
def test_block_matcher_agrees_with_the_line_regex_on_written_files(d):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arff, "_PARSE_ROWS", 3)
        matched_blocks(*write_mulan(d))


def test_block_matcher_pins(monkeypatch):
    arff_text = (
        "@relation r\n@attribute x numeric\n@attribute c {red,\u00e9,'x,y'}\n"
        "@attribute f {0,1}\n@attribute A {0,1}\n@attribute B {0,1}\n@data\n"
    )
    lines = {
        "0.0001,red,0,0,1": True,
        "0.00001,red,0,0,1": False,  # repr writes 1e-05
        "12345678901234.5,red,0,0,1": True,
        "123456789012345.6,red,0,0,1": False,  # 17 digits
        "-0.0,red,1,1,1": True,
    }
    # a block that no column path reads: a missing number, a missing nominal
    # value, a quoted cell holding a comma, a padded cell, a bare non-ASCII value
    refused = ["?,red,0,1,0", "1.5,?,0,1,0", "1.5,'x,y',1,1,0", "1.5, red,0,1,0", "1.5,\u00e9,1,0,1"]
    data = "\n".join([*lines, *refused]) + "\n"
    xml_text = '<labels><label name="A"></label><label name="B"></label></labels>'
    monkeypatch.setattr(arff, "_PARSE_ROWS", len(lines))
    # the clean block, then the refused one, then the empty last block
    assert matched_blocks(arff_text + data, xml_text) == [list(lines.values()), []]
    d, rows = arff.read_mulan(arff_text + data, xml_text)
    spelled = spelled_heads(monkeypatch)
    assert write_mulan(d, rows, range(d.n)) == oracle_write_mulan(d)
    # each line of the clean block that is not in the writer's form, then
    # every line of the refused one
    assert spelled == [
        "1e-05,red", "123456789012345.6,red", "?,red", "1.5,?", '1.5,"x,y"', "1.5,red", "1.5,\u00e9",
    ]


def test_a_block_with_a_missing_value_spells_every_row(monkeypatch):
    """Lines in the writer's form are copied only from a block the column
    path read: a block with one ``?`` is spelled whole, the next one copied."""
    attributes = [AttributeSpec("x"), AttributeSpec("c", ("g0", "g1")), AttributeSpec("f", ("0", "1"))]
    features = [(i % 97 + 0.25, i % 2, i // 2 % 2) for i in range(1024)]
    features[7] = (None, 1, 0)
    picked = [(f, [0] if i % 3 else [1]) for i, f in enumerate(features)]
    d = make_dataset(attributes, ("A", "B"), picked, "blocks")
    files = write_mulan(d)
    assert matched_blocks(*files) == [[True] * 512, []]
    d, rows = arff.read_mulan(*files)
    spelled = spelled_heads(monkeypatch)
    assert write_mulan(d, rows, range(d.n)) == files == oracle_write_mulan(d)
    # every head of the first block, its last six characters being the tail
    assert spelled == [line[:-6] for line in files[0].splitlines()[-1024:-512]]


@pytest.mark.parametrize("n", [0, 512, 1024])
def test_a_last_block_without_rows(n):
    """A row count that is a multiple of the block size leaves the last block
    empty, as a file without data rows does."""
    rng = np.random.default_rng(n)
    attributes = [AttributeSpec("x"), AttributeSpec("c", ("g0", "g1")), AttributeSpec("f", ("0", "1"))]
    # numbers of three decimals, most of which the writer copies
    features = [(round(rng.normal(), 3), int(rng.integers(2)), int(rng.integers(2))) for _ in range(n)]
    picked = [(f, [int(rng.integers(2))]) for f in features]
    d = make_dataset(attributes, ("A", "B"), picked, "blocks")
    files = write_mulan(d)
    assert [len(mask) for mask in matched_blocks(*files)] == [512] * (n // 512) + [0]
    assert_seeded_writes_match(*files, n)


def written_from(d, seed):
    """What ``resample`` and ``partition`` write from ``d``, each with the
    rows of ``d`` it was taken from: ``d`` itself, its subsets, ML-ROS
    clones, REMEDIAL copies, MLSMOTE output and two folds, each where the
    method accepts ``d``."""
    picks = [range(d.n), range(0, d.n, 2), reversed(range(d.n))]
    out = [(d.subset(picked), np.array(picked, np.intp)) for picked in map(list, picks)]
    if d.y.any(axis=0).all():  # every label occurs, so every IRLbl is defined
        stages = [remedial(d, DecoupleConfig.from_spec("p25")), resample(d, MLROSConfig(60), seed)]
        stages.append(hybrid_resample(d, DecoupleConfig.from_spec("p25"), MLROSConfig(60), seed))
        if d.n > 1:
            try:
                stages.append(resample(d, MLSMOTEConfig(1), seed))
            except ValueError:  # a synthetic value beyond the float range
                pass
        out += [(written, report.sources()) for written, report in stages]
    if d.n > 1:
        fold_of = stratified_kfold(d, 2, seed)
        for f in range(2):
            picks = np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)
            out += zip(fold_datasets(d, fold_of, f), picks)
    return out


def assert_seeded_writes_match(arff_text, xml_text, seed):
    """Every dataset written from the file through the formatter that
    ``read_mulan`` seeded, with the rows it was taken from, reads as the
    cell-by-cell writer writes it."""
    d, rows = arff.read_mulan(arff_text, xml_text)
    assert d == parse_mulan(arff_text, xml_text)
    for out, sources in written_from(d, seed):
        assert write_mulan(out, rows, sources) == oracle_write_mulan(out)


@settings(max_examples=100, deadline=None)
@given(datasets(ensure_all_labels=True, quotable_values=True), st.integers(0, 2**32))
def test_seeded_writes_of_written_files(d, seed):
    assert_seeded_writes_match(*write_mulan(d), seed)


@settings(max_examples=200, deadline=None)
@given(mutated_mulan(), st.integers(0, 2**32))
def test_seeded_writes_of_mutated_files(files, seed):
    try:
        parse_mulan(*files)
    except MulanFormatError as exc:
        with pytest.raises(MulanFormatError) as err:
            arff.read_mulan(*files)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
    else:
        assert_seeded_writes_match(*files, seed)


def test_only_lines_in_the_writers_form_are_reused(monkeypatch):
    spelled = spelled_heads(monkeypatch)
    # a block holding a ? is spelled whole
    lines = ["0.0001,red,1,1", "1.50,blue,0,0", "-0.0,?,0,1", "?,red,1,0", "1e-05,red,1,1"]
    arff_text = DENSE_TWO + "\n".join(lines) + "\n"
    d, rows = arff.read_mulan(arff_text, XML_TWO)
    assert write_mulan(d, rows, range(d.n)) == oracle_write_mulan(d)
    assert spelled == ["1.0,red", "2.0,blue", "0.0001,red", "1.5,blue", "-0.0,?", "?,red", "1e-05,red"]
    # the same block without its missing values
    spelled.clear()
    arff_text = DENSE_TWO + "\n".join(lines[:2] + lines[4:]) + "\n"
    d, rows = arff.read_mulan(arff_text, XML_TWO)
    assert write_mulan(d, rows, range(d.n)) == oracle_write_mulan(d)
    assert spelled == ["1.5,blue", "1e-05,red"]
    # values that the writer quotes, here read unquoted
    spelled.clear()
    arff_text = "@relation r\n@attribute c {'a b','c%d',e}\n@attribute A {0,1}\n@data\n"
    d, rows = arff.read_mulan(arff_text + "a b,1\nc%d,0\ne,1\n", XML_A)
    assert write_mulan(d, rows, range(d.n)) == oracle_write_mulan(d)
    assert spelled == ['"a b"', '"c%d"']
    # binary features with the labels declared among them: the writer's lines
    # have no head, so none is spelled and each line is its byte tail
    spelled.clear()
    arff_text = "@relation r\n" + "".join(f"@attribute {a} {{0,1}}\n" for a in "AfBg") + "@data\n"
    xml_text = '<labels><label name="A"></label><label name="B"></label></labels>'
    d, rows = arff.read_mulan(arff_text + "1,0,0,1\n0,1,1,1\n", xml_text)
    assert write_mulan(d, rows, range(d.n)) == oracle_write_mulan(d)
    assert write_mulan(d, rows, range(d.n))[0].splitlines()[-2:] == ["0,1,1,0", "1,1,0,1"]
    assert spelled == []
    # the labels declared around a numeric feature: each line holds cells the
    # writer writes, but not in its column order
    arff_text = "@relation r\n@attribute A {0,1}\n@attribute x numeric\n@attribute B {0,1}\n@data\n"
    d, rows = arff.read_mulan(arff_text + "1,0.5,0\n0,1.5,1\n", xml_text)
    assert write_mulan(d, rows, range(d.n)) == oracle_write_mulan(d)
    assert spelled == ["0.5", "1.5"]
    # a one-character value that the writer quotes, just before the labels
    spelled.clear()
    arff_text = "@relation r\n@attribute x numeric\n@attribute c {%,a}\n@attribute A {0,1}\n@data\n"
    d, rows = arff.read_mulan(arff_text + "0.5,%,1\n1.5,a,0\n", XML_A)
    assert write_mulan(d, rows, range(d.n)) == oracle_write_mulan(d)
    assert spelled == ['0.5,"%"']
    # labels declared numeric: the parser's heads hold the label cells, so
    # none is the writer's head, even where each cell is a number it copies
    spelled.clear()
    arff_text = "@relation r\n@attribute x numeric\n@attribute A numeric\n@data\n"
    d, rows = arff.read_mulan(arff_text + "0.5,1.0\n1.5,0.0\n", XML_A)
    assert write_mulan(d, rows, range(d.n)) == oracle_write_mulan(d)
    assert spelled == ["0.5", "1.5"]
