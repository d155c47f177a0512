from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlresample import (
    DecoupleConfig,
    Instance,
    Labelset,
    MulanFormatError,
    MultiLabelDataset,
    ml_ros,
    parse_mulan,
    remedial,
    write_mulan,
)
from mlresample.arff import RowFormatter, _split, parse_label_header

from conftest import datasets, make_dataset
from mlresample import AttributeSpec
from _oracles import oracle_split, oracle_write_mulan

XML_TWO = """<?xml version="1.0" encoding="utf-8"?>
<labels xmlns="http://mulan.sourceforge.net/labels">
  <label name="p"></label>
  <label name="q"></label>
</labels>
"""

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
        assert d.instances[0].features == (1.0, 0)
        assert d.instances[0].labels.indices == (0,)
        assert d.instances[1].labels.indices == (1,)

    def test_comments_and_blank_lines_skipped(self):
        text = "% header comment\n" + DENSE_TWO.replace("@data", "@data\n% row comment\n")
        d = parse_mulan(text, XML_TWO)
        assert d.n == 2

    def test_missing_value_token(self):
        text = DENSE_TWO.replace("1.0,red,1,0", "?,red,1,0")
        d = parse_mulan(text, XML_TWO)
        assert d.instances[0].features == (None, 0)

    def test_quoted_values(self):
        text = DENSE_TWO.replace("{red,blue}", "{'red hat',blue}").replace(
            "1.0,red,1,0", "1.0,'red hat',1,0"
        )
        d = parse_mulan(text, XML_TWO)
        assert d.instances[0].features == (1.0, 0)

    def test_case_insensitive_keywords(self):
        text = DENSE_TWO.replace("@relation", "@RELATION").replace("@data", "@DATA")
        assert parse_mulan(text, XML_TWO).n == 2


class TestParseSparse:
    def test_sparse_row_defaults(self):
        text = DENSE_TWO.replace("1.0,red,1,0\n2.0,blue,0,1", "{0 3.5, 3 1}")
        d = parse_mulan(text, XML_TWO)
        assert d.instances[0].features == (3.5, 0)
        assert d.instances[0].labels.indices == (1,)

    def test_empty_sparse_row(self):
        text = DENSE_TWO.replace("1.0,red,1,0\n2.0,blue,0,1", "{}")
        d = parse_mulan(text, XML_TWO)
        assert d.instances[0].features == (0.0, 0)
        assert not d.instances[0].labels

    def test_duplicate_sparse_index(self):
        text = DENSE_TWO.replace("1.0,red,1,0\n2.0,blue,0,1", "{0 1.0, 0 2.0}")
        with pytest.raises(MulanFormatError, match="duplicate sparse index"):
            parse_mulan(text, XML_TWO)

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


class TestQuotedTokens:
    def test_quoted_numeric_and_nominal_cells(self):
        text = DENSE_TWO.replace("1.0,red,1,0", "'1.5',\"red\",1,'0'")
        d = parse_mulan(text, XML_TWO)
        assert d.instances[0].features == (1.5, 0)
        assert d.instances[0].labels.indices == (0,)

    def test_value_spelled_like_missing(self):
        text = DENSE_TWO.replace("{red,blue}", "{'?',blue}").replace(
            "1.0,red,1,0\n2.0,blue,0,1", "1.0,?,1,0\n2.0,'?',0,1"
        )
        d = parse_mulan(text, XML_TWO)
        assert [inst.features for inst in d.instances] == [(1.0, None), (2.0, 0)]

    def test_value_that_is_quoted_in_full(self):
        # the declared value is 'red' with its quotes: only a quoted token names it
        text = DENSE_TWO.replace("{red,blue}", "{\"'red'\",blue}")
        named = text.replace("1.0,red,1,0", "1.0,\"'red'\",1,0")
        assert parse_mulan(named, XML_TWO).instances[0].features == (1.0, 0)
        for token in ("red", "'red'"):
            with pytest.raises(MulanFormatError, match="line 7: value 'red' not in declared list"):
                parse_mulan(text.replace("1.0,red,1,0", f"1.0,{token},1,0"), XML_TWO)

    def test_unterminated_quote_in_row(self):
        text = DENSE_TWO.replace("2.0,blue,0,1", "2.0,'blue,0,1")
        with pytest.raises(MulanFormatError, match="line 8: unterminated quote"):
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
        assert [inst.features for inst in d.instances] == [(1.7e308, 1.7e308), (-1.7e308, None)]


class TestLabelOrdering:
    def test_xml_order_defines_label_indices(self):
        xml_swapped = XML_TWO.replace(
            '<label name="p"></label>\n  <label name="q"></label>',
            '<label name="q"></label>\n  <label name="p"></label>',
        )
        d = parse_mulan(DENSE_TWO, xml_swapped)
        assert d.labels == ("q", "p")
        assert d.instances[0].labels.indices == (1,)  # p is now index 1

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
        assert d.instances[0].features == (1.0,)
        assert d.instances[0].labels.indices == (0,)


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
        assert not back.instances[0].labels

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


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_parse_preserves_order(d):
    back = parse_mulan(*write_mulan(d))
    assert [a.name for a in back.attributes] == [a.name for a in d.attributes]
    assert back.instances == d.instances


def parse_with_full_check(arff_text, xml_text):
    """``parse_mulan`` with every parsed row checked again by the public constructor."""
    checked = classmethod(lambda cls, attributes, labels, instances, name: cls(
        attributes, labels, instances, name
    ))
    with mock.patch.object(MultiLabelDataset, "_trusted", checked):
        return parse_mulan(arff_text, xml_text)


# non-finite, overflowing, undeclared, missing, quoted and non-binary tokens
MUTANT_TOKENS = ["nan", "1e400", "-inf", "Infinity", "zz", "?", "'?'", "1.5", "0", "1", "2", "1_0"]


@st.composite
def mutated_mulan(draw):
    """A written dataset whose data rows got bad tokens, some rewritten as sparse rows."""
    d = draw(datasets(max_n=8))
    arff_text, xml_text = write_mulan(d)
    lines = arff_text.splitlines()
    first = lines.index("@data") + 1
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(first, len(lines) - 1))
        cells = lines[at].split(",")
        if draw(st.booleans()):
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(MUTANT_TOKENS))
        if draw(st.booleans()):
            kept = sorted(draw(st.sets(st.integers(0, len(cells) - 1))))
            lines[at] = "{" + ", ".join(f"{i} {cells[i]}" for i in kept) + "}"
        else:
            lines[at] = ",".join(cells)
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
        assert d == MultiLabelDataset(d.attributes, d.labels, d.instances, d.name)


def test_parser_schema_errors_keep_their_format_error():
    arff_text = "@relation r\n@attribute a numeric\n@attribute a numeric\n@attribute p {0,1}\n@data\n1,2,1\n"
    xml_text = '<labels><label name="p"></label></labels>'
    with pytest.raises(MulanFormatError, match="duplicate attribute names"):
        parse_mulan(arff_text, xml_text)


@st.composite
def shared_feature_datasets(draw):
    """Rows that reuse other rows' feature tuples, with the same or other labelsets."""
    d = draw(datasets(quotable_names=True, quotable_values=True))
    rows = []
    for i in draw(st.lists(st.integers(0, d.n - 1), min_size=1, max_size=30)):
        source = d.instances[i]
        if draw(st.booleans()):
            source = Instance(source.features, Labelset(draw(st.integers(0, 2**d.k - 1))))
        rows.append(source)
    return d.replace_instances(rows)


@settings(max_examples=120, deadline=None)
@given(shared_feature_datasets())
def test_writer_reuses_shared_rows_byte_for_byte(d):
    assert write_mulan(d) == oracle_write_mulan(d)
    # one formatter across datasets sharing rows, as for the folds of one dataset
    rows = RowFormatter(d.attributes, d.k)
    for part in (d.subset(range(0, d.n, 2)), d, d.subset(reversed(range(d.n)))):
        assert write_mulan(part, rows) == oracle_write_mulan(part)


@settings(max_examples=60, deadline=None)
@given(
    datasets(ensure_all_labels=True, quotable_values=True),
    st.integers(0, 2**32),
    st.sampled_from(["mean", "p25", "p50", "p75"]),
)
def test_cloned_and_decoupled_outputs_match_the_cell_by_cell_writer(d, seed, spec):
    cloned, _ = ml_ros(d, 60, np.random.default_rng(seed))
    split, _ = remedial(d, DecoupleConfig.from_spec(spec))
    both, _ = ml_ros(split, 60, np.random.default_rng(seed))
    for out in (cloned, split, both):
        assert write_mulan(out) == oracle_write_mulan(out)


def test_row_formatter_of_another_schema_rejected(toy6):
    other = make_dataset([AttributeSpec("a")], ("A",), [((1.0,), [0])])
    with pytest.raises(ValueError, match="another schema"):
        write_mulan(toy6, RowFormatter(other.attributes, other.k))
