"""Reading and writing the MULAN dataset format (ARFF data + XML label header).

Supported ARFF subset: ``@relation``, ``@attribute <name> numeric`` (also the
``real``/``integer`` aliases) and ``@attribute <name> {v1,...}`` nominal
declarations, dense comma-separated rows, sparse ``{index value, ...}`` rows,
``?`` for missing values and full-line ``%`` comments.  String and date
attributes are out of scope.

Numeric feature values must be finite: ``nan``, ``inf``, ``-Infinity`` and
literals that overflow a float (``1e400``) are rejected with their line
number, as are numbers that only Python's ``float`` reads, with digit-group
underscores (``1_0.5``) or non-ASCII digits.

The XML header lists the label attributes; nested label hierarchies are
flattened to their name list in document order.  Label columns must hold
0/1, and at least one ARFF attribute must be a feature, not a label.

The parser reads the data section in blocks of stripped lines, which take
one of three shapes; a clean block is ASCII without a quote, a missing
value ``?`` or an underscore.  In a clean dense block (no brace, one token
per column on every line), a column is one-character when it is nominal
and every value it declares is one ASCII character that needs no quotes, as
labels declared ``{0,1}`` and binary word features are.  The trailing run of ``t`` such
columns is not split into tokens: the last ``2t`` characters of each line
are read as bytes, a comma before each cell and one byte per cell, which
the column's code table, built from its decoder's own dict, reads.  The
columns before them, the block's head, are read by numpy's C text reader
in one call, straight into a float block: it parses each number with the
routine that ``float`` uses, so every value is bit-identical, and hands
each nominal cell to its column's decoder.  A clean sparse block (every
line one ``{...}`` with no other brace) has all its ``index value`` entries
split at once; the indices are decoded in one pass, and the values land in
a block holding every column's default, so no row is expanded to all
columns.  Any other block, and any block with a token that does not
decode, a one-character cell that is not one byte between commas, an
entry that is not one index and one value, indices that are not
ascending, or a non-finite feature, is decoded line by line instead, and
the first bad line raises its error with its line number; so every
accepted file gives the same arrays, and every rejected file the same
message and line, whichever path its blocks take.
The label columns are checked as a whole at the end; only a file with a
bad label cell decodes its first bad row again, for the error and its line.

The writer treats each data line as a head and a tail.  The tail is the
trailing run of one-character features and then the labels, each cell one
byte after a comma; it is spelled for a block of rows at once, from a
code-to-byte table.  The head, the features before the run, is spelled once
per distinct head: clones and decoupled copies repeat their source's
features, and a :class:`RowFormatter` shared across calls does the same for
the folds cut from one dataset, and formats their feature declarations
once.  :func:`read_mulan` parses like :func:`parse_mulan` and also returns a
formatter that already holds every data line whose head the writer would
write unchanged for the row it decodes to, so that the features of rows
taken from the input are never spelled again, and a copied line whose tail
is not the row's own gets the row's tail.  Such a line lists the features
in declaration order, then the labels in XML order, has one byte between
commas in each tail cell, and spells each head cell as the writer does:
``?``, a declared value that needs no quotes for a nominal feature, or a
number in :data:`_CANONICAL_NUMBER` for a numeric one.  One predicate,
:func:`_one_character`, says where the run starts for the reader, the
matcher and the writer.  The writer quotes every name and value holding
whitespace or ARFF syntax, and rejects one holding a line break, or a label
name holding a character XML 1.0 lacks, because neither would read back.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ElementTree
from collections.abc import Callable, Iterator
from functools import cached_property
from itertools import compress, groupby, repeat
from operator import getitem, itemgetter

import numpy as np

from .dataset import AttributeSpec, MultiLabelDataset

_NUMERIC_KINDS = {"numeric", "real", "integer"}

# Data lines decoded together into one float block, and rows spelled together.
_PARSE_ROWS = 512

# A number that repr spells back unchanged: positional notation with at most
# 15 significant digits, and zero or 1e-4 <= |x| < 1e16.  15 digits are the
# unique shortest decimal that reads back as their double, and repr writes
# such a double positionally.
_CANONICAL_NUMBER = (
    r"-?(?=[0-9.]{3,16}(?![0-9.]))"
    r"(?:0\.0|[1-9][0-9]*\.(?:0|[0-9]*[1-9])|0\.0{0,3}[1-9](?:[0-9]*[1-9])?)"
)


class MulanFormatError(ValueError):
    """Malformed ARFF text or XML label header; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _arff_number(token: str) -> str:
    """``token``, or ValueError when it holds an underscore or a non-ASCII
    character: ``float`` and ``int`` read digit-group underscores and
    non-ASCII digits, which ARFF numbers do not have."""
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return token


def _unquote(token: str) -> str:
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    return token


def _quote_after(piece: str, quote: str | None) -> str | None:
    """The quote left open at the end of ``piece`` when ``quote`` was open at its start."""
    pos = 0
    while True:
        if quote is None:
            openings = [i for i in (piece.find("'", pos), piece.find('"', pos)) if i >= 0]
            if not openings:
                return None
            pos = min(openings) + 1
            quote = piece[pos - 1]
        else:
            end = piece.find(quote, pos)
            if end < 0:
                return quote
            quote, pos = None, end + 1


def _split(text: str, sep: str, line_no: int) -> list[str]:
    """Split on ``sep`` outside quoted regions; tokens come back stripped.

    A quote opens at any ``'`` or ``"`` outside a quoted region and closes at
    the next occurrence of the same character.  The pieces of
    ``text.split(sep)`` are joined back together while a quote is open, so
    only the quote characters are looked at one by one.
    """
    pieces = text.split(sep)
    if "'" not in text and '"' not in text:
        return [piece.strip() for piece in pieces]
    tokens: list[str] = []
    quote: str | None = None
    for piece in pieces:
        token = piece if quote is None else token + sep + piece
        quote = _quote_after(piece, quote)
        if quote is None:
            tokens.append(token.strip())
    if quote is not None:
        raise MulanFormatError("unterminated quote", line_no)
    return tokens


def _take_token(text: str, line_no: int) -> tuple[str, str]:
    """Split off one (possibly quoted) leading token, returning (token, rest)."""
    text = text.lstrip()
    if not text:
        raise MulanFormatError("missing token", line_no)
    if text[0] in "'\"":
        quote = text[0]
        end = text.find(quote, 1)
        if end < 0:
            raise MulanFormatError("unterminated quote", line_no)
        return text[1:end], text[end + 1 :]
    for i, ch in enumerate(text):
        if ch.isspace():
            return text[:i], text[i:]
    return text, ""


def _parse_attribute(rest: str, line_no: int) -> AttributeSpec:
    name, remainder = _take_token(rest, line_no)
    kind = remainder.strip()
    if not kind:
        raise MulanFormatError(f"attribute {name!r} has no type", line_no)
    if kind.startswith("{"):
        if not kind.endswith("}"):
            raise MulanFormatError(f"attribute {name!r}: unterminated value list", line_no)
        raw = _split(kind[1:-1], ",", line_no)
        values = tuple(_unquote(v) for v in raw)
        if any(v == "" for v in values):
            raise MulanFormatError(f"attribute {name!r}: empty nominal value", line_no)
        try:
            return AttributeSpec(name=name, values=values)
        except ValueError as exc:
            raise MulanFormatError(str(exc), line_no) from exc
    if kind.lower() in _NUMERIC_KINDS:
        return AttributeSpec(name=name)
    raise MulanFormatError(f"attribute {name!r}: unsupported type {kind!r}", line_no)


def _nominal_index(attr: AttributeSpec) -> dict[str, int]:
    """Value index of every raw token that names a declared value, quoted or not.

    ``?`` is left out: it is the missing value even where a value is spelled ``?``.
    """
    index = {}
    for i, value in enumerate(attr.values):
        index[f"'{value}'"] = i
        index[f'"{value}"'] = i
        # the row path strips its tokens, so only a value without whitespace
        # at its edges can be named unquoted
        if _unquote(value) == value and value == value.strip():
            index[value] = i
    index.pop("?", None)
    return index


def _one_character(attr: AttributeSpec) -> bool:
    """Whether ``attr`` is nominal and every value it declares is one ASCII
    character that the writer writes bare, so that each of its cells is one
    byte for the reader, the matcher and the writer alike."""
    return attr.is_nominal and all(len(v) == 1 and v.isascii() and _bare(v) for v in attr.values)


def _run_start(attributes: tuple[AttributeSpec, ...]) -> int:
    """Where the trailing run of one-character attributes starts."""
    start = len(attributes)
    while start and _one_character(attributes[start - 1]):
        start -= 1
    return start


class _RowParser:
    """Decodes the data lines of one attribute schema into the dataset's arrays.

    Each column gets its decoder once: a ``token -> index`` dict lookup for a
    nominal column, ``float`` for a numeric one.  :meth:`cells` decodes a
    block of lines into floats: a clean dense block with numpy's text
    reader, its trailing one-character columns as bytes (see
    :meth:`_dense`), a clean sparse block in one pass over all its entries,
    and any other block, or one that does not decode whole, through
    :meth:`row`.  :meth:`row` decodes one line: a row whose tokens all
    decode and whose sum is finite is done in one pass; any other row is
    decoded again cell by cell, which raises the error naming the first bad
    token.  Numeric columns named in ``label_names`` are exempt from the
    finiteness check, because the label check rejects anything but 0 and 1.
    :meth:`block` turns a float block into the dataset's arrays.
    """

    def __init__(self, columns: tuple[AttributeSpec, ...], label_names: tuple[str, ...]):
        self.columns = columns
        indexes = [_nominal_index(attr) if attr.is_nominal else None for attr in columns]
        self.decoders = [float if index is None else index.__getitem__ for index in indexes]
        # the trailing run of one-character columns, from self.head on, and per
        # such column the code of each byte its decoder reads, -1 for the rest
        self.head = _run_start(columns)
        # numpy reads the numeric columns before them as float() does, and the
        # nominal ones through their decoders
        self.head_converters = {
            j: decode for j, decode in enumerate(self.decoders[: self.head]) if decode is not float
        }
        self.tail_codes = np.full((len(columns) - self.head, 256), -1, np.int16)
        for codes, attr in zip(self.tail_codes, columns[self.head :]):
            codes[list(map(ord, attr.values))] = range(len(attr.values))
        self.defaults = [0 if attr.is_nominal else 0.0 for attr in columns]
        self.finite = np.array(
            [not attr.is_nominal and attr.name not in label_names for attr in columns], bool
        )
        # the label columns in XML order (a label missing from the ARFF
        # attributes is reported after the data), and the feature columns
        by_name = {attr.name: i for i, attr in enumerate(columns)}
        self.label_columns = [by_name[name] for name in label_names if name in by_name]
        labels = set(self.label_columns)
        self.feature_columns = [i for i in range(len(columns)) if i not in labels]
        self.numeric_columns = [i for i in self.feature_columns if not columns[i].is_nominal]
        self.nominal_columns = [i for i in self.feature_columns if columns[i].is_nominal]
        # the nominal label columns, by position among the label columns, and
        # per such column the number each of its codes reads as
        self.nominal_labels = [
            j for j, i in enumerate(self.label_columns) if columns[i].is_nominal
        ]
        nominal = [columns[self.label_columns[j]] for j in self.nominal_labels]
        width = max((len(attr.values) for attr in nominal), default=0) + 1
        self.label_numbers = np.array(
            [_label_numbers(attr, width) for attr in nominal]
        ).reshape(len(nominal), width)

    def cell(self, i: int, token: str, line_no: int) -> float | int | None:
        if token == "?":
            return None
        attr = self.columns[i]
        if attr.is_nominal:
            try:
                return self.decoders[i](token)
            except KeyError:
                raise MulanFormatError(
                    f"value {_unquote(token)!r} not in declared list of attribute {attr.name!r}",
                    line_no,
                ) from None
        token = _unquote(token)
        try:
            value = float(_arff_number(token))
        except ValueError:
            raise MulanFormatError(
                f"non-numeric value {token!r} for attribute {attr.name!r}", line_no
            ) from None
        if not math.isfinite(value) and self.finite[i]:
            raise MulanFormatError(
                f"non-finite value {token!r} for attribute {attr.name!r}", line_no
            )
        return value

    def row(self, line: str, line_no: int) -> list[float | int | None]:
        columns = self.columns
        if line.startswith("{"):
            if not line.endswith("}"):
                raise MulanFormatError("unterminated sparse row", line_no)
            cells = list(self.defaults)
            body = line[1:-1].strip()
            if not body:
                return cells
            seen: set[int] = set()
            for entry in _split(body, ",", line_no):
                pieces = entry.split(None, 1)
                if len(pieces) != 2:
                    raise MulanFormatError(f"bad sparse entry {entry!r}", line_no)
                try:
                    idx = int(_arff_number(pieces[0]))
                except ValueError:
                    raise MulanFormatError(f"bad sparse index {pieces[0]!r}", line_no) from None
                if not 0 <= idx < len(columns):
                    raise MulanFormatError(f"sparse index {idx} out of range", line_no)
                if idx in seen:
                    raise MulanFormatError(f"duplicate sparse index {idx}", line_no)
                seen.add(idx)
                cells[idx] = self.cell(idx, pieces[1].strip(), line_no)
            return cells
        tokens = _split(line, ",", line_no)
        if len(tokens) != len(columns):
            raise MulanFormatError(
                f"expected {len(columns)} values, got {len(tokens)}", line_no
            )
        # only cell() rejects the underscores and non-ASCII digits that float() reads
        if line.isascii() and "_" not in line:
            try:
                cells = [decode(token) for decode, token in zip(self.decoders, tokens)]
                if math.isfinite(sum(cells)):
                    return cells
            except (KeyError, ValueError):
                pass
        return [self.cell(i, token, line_no) for i, token in enumerate(tokens)]

    def cells(self, lines: list[str], line_numbers: list[int]) -> np.ndarray:
        """The cells of stripped data lines as one float block, NaN for a missing value.

        An ASCII block without a quote, a ``?`` or an underscore (which
        ``float`` and ``int`` read in a number) takes a column path when its
        lines are all dense, without a brace and each with one token per
        column, or all sparse, each a ``{...}`` with no other brace.  Every
        other block, and every block whose column path does not decode whole
        (a token its decoder rejects, such as a padded nominal value, a
        one-character cell of other than one byte, an unsorted index, an
        entry of other than two tokens, or a non-finite feature), goes
        through :meth:`row` line by line, which raises the first error.
        """
        text = ",".join(lines)
        cells = None
        # a quote, a missing value, an underscore or a non-ASCII character
        # sends the block to the row path before it is split
        if text.isascii() and not any(mark in text for mark in "'\"?_"):
            n = len(lines)
            if "{" not in text:
                if all(line.count(",") == len(self.columns) - 1 for line in lines):
                    cells = self._dense(lines, text)
            elif (
                text.count("{") == text.count("}") == n
                and "".join(map(itemgetter(0), lines)) == "{" * n
                and "".join(map(itemgetter(-1), lines)) == "}" * n
            ):
                cells = self._sparse(text[1:-1].split("},{"))
        if cells is not None:
            return cells
        rows = [self.row(line, line_no) for line, line_no in zip(lines, line_numbers)]
        # numpy converts the missing value None to NaN; every code is a small int, held exactly
        return np.array(rows, dtype=np.float64).reshape(len(rows), len(self.columns))

    def _dense(self, lines: list[str], text: str) -> np.ndarray | None:
        """The cells of dense lines, ``text`` being their comma-joined text, or
        None when a token does not decode or a feature is not finite.

        The one-character columns at the end take the last ``2t``
        characters of each line, ``t`` being their number: a comma before
        each cell, which is one byte that the column's code table reads.  So
        every line of a file whose columns are all one-character must be
        ``2t - 1`` characters long.  The columns before them are read by
        ``np.loadtxt`` in one call: its C reader parses each number with the
        routine ``float`` uses, so every value is bit-identical, and hands
        each nominal cell to the column's decoder.
        """
        n, width, head = len(lines), len(self.columns), self.head
        cells = np.empty((n, width))
        if not n:  # numpy warns that an empty input holds no data
            return cells
        if head < width:
            span = 2 * (width - head)
            if head:
                tails = "".join([line[-span:] for line in lines])
            elif all(len(line) == span - 1 for line in lines):
                tails = "," + text
            else:
                return None
            if len(tails) != n * span:
                return None
            chars = np.frombuffer(tails.encode(), np.uint8).reshape(n, span)
            codes = self.tail_codes[np.arange(width - head), chars[:, 1::2]]
            if not ((chars[:, ::2] == ord(",")).all() and (codes >= 0).all()):
                return None
            cells[:, head:] = codes
            if not head:
                return cells
        # no comment character, as float() reads none; str converters on every
        # numpy (before 2.0 the default hands them bytes); and usecols drops
        # the fields after head unchecked, which the caller's comma count covers
        try:
            cells[:, :head] = np.loadtxt(
                lines,
                comments=None,
                delimiter=",",
                converters=self.head_converters,
                usecols=range(head),
                ndmin=2,
                encoding=None,
            )
        except (KeyError, ValueError):  # numpy 2 wraps a converter's KeyError in a ValueError
            return None
        if not np.isfinite(cells[:, self.finite]).all():
            return None
        return cells

    def _sparse(self, bodies: list[str]) -> np.ndarray | None:
        """The cells of sparse lines, given the text inside each line's braces,
        or None when an entry is not two tokens, the indices of a line are
        out of range or not ascending, a value does not decode or a feature
        is not finite."""
        n, width = len(bodies), len(self.columns)
        entries = ",".join(bodies).split(",")
        sizes = np.fromiter(map(len, map(str.split, entries)), np.intp, len(entries))
        per_line = np.fromiter(map(str.count, bodies, repeat(",")), np.intp, n) + 1
        rows = np.repeat(np.arange(n), per_line)
        # a line without an entry, {} or { }, holds one blank entry alone
        blank = (sizes == 0) & (per_line[rows] == 1)
        if not ((sizes == 2) | blank).all():
            return None
        rows = rows[~blank]
        # every entry is one index and one value, so the tokens alternate
        tokens = " ".join(entries).split()
        try:
            columns = np.fromiter(map(int, tokens[::2]), np.int64, len(rows))
        except (ValueError, OverflowError):
            return None
        if len(rows) and not (
            0 <= columns.min()
            and columns.max() < width
            and (np.diff(rows * width + columns) > 0).all()
        ):
            return None
        decoders = self.decoders
        try:
            values = np.fromiter(
                [decoders[j](token) for j, token in zip(columns.tolist(), tokens[1::2])],
                np.float64,
                len(rows),
            )
        except (KeyError, ValueError):
            return None
        if not np.isfinite(values[self.finite[columns]]).all():
            return None
        cells = np.empty((n, width))
        cells[:] = self.defaults
        cells[rows, columns] = values
        return cells

    def block(self, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The numeric features, nominal codes (-1 = missing) and label numbers of a float block."""
        labels = cells[:, self.label_columns]
        columns = self.nominal_labels
        codes = np.nan_to_num(labels[:, columns], nan=-1.0).astype(np.intp)
        labels[:, columns] = self.label_numbers[np.arange(len(columns)), codes]
        codes = np.nan_to_num(cells[:, self.nominal_columns], nan=-1.0).astype(np.int64)
        return cells[:, self.numeric_columns], codes, labels


def parse_label_header(xml_text: str) -> tuple[str, ...]:
    """Label names declared in a MULAN XML header, flattened in document order."""
    try:
        root = ElementTree.fromstring(xml_text)
    except ElementTree.ParseError as exc:
        raise MulanFormatError(f"bad XML label header: {exc}") from exc
    names: list[str] = []
    for element in root.iter():
        tag = element.tag.rsplit("}", 1)[-1]
        if tag == "label":
            name = element.get("name")
            if name is None:
                raise MulanFormatError("label element without a name attribute")
            names.append(name)
    if not names:
        raise MulanFormatError("XML header declares no labels")
    if len(set(names)) != len(names):
        raise MulanFormatError("XML header declares duplicate labels")
    return tuple(names)


def _check_label(value: float | int | None, attr: AttributeSpec, line_no: int) -> None:
    """Raise the error of a decoded label cell that does not read as 0 or 1."""
    if attr.is_nominal and value is not None:
        value = attr.values[value]
        try:
            value = float(value)
        except ValueError:
            pass  # the error names the symbol
    if value != 0.0 and value != 1.0:
        raise MulanFormatError(f"non-binary value {value!r} in label column {attr.name!r}", line_no)


def _label_numbers(attr: AttributeSpec, width: int) -> np.ndarray:
    """The number each code of a nominal label column reads as, NaN unless it is 0 or 1.

    ``width`` exceeds the number of codes, so the NaN entry at the end is what
    the missing code -1 picks.
    """
    numbers = np.full(width, np.nan)
    for code, symbol in enumerate(attr.values):
        try:
            number = float(symbol)
        except ValueError:
            continue
        if number == 0.0 or number == 1.0:
            numbers[code] = number
    return numbers


def _writer_lines(parser: _RowParser) -> Callable[[str], bool] | None:
    """Whether a data line holds the head that the writer writes for the row
    it decodes to, or None when no line can be copied: the columns are not in
    the writer's order (the features in declaration order, then the labels
    in XML order), or the writer's lines have no head.

    The tail, the run of one-character features and the labels, is the last
    ``2t`` characters of the line, a comma before each one-byte cell; only
    its commas are checked, since the writer replaces a tail that is not the
    row's own.  A regex matches the head before it.
    """
    if parser.feature_columns + parser.label_columns != list(range(len(parser.columns))):
        return None
    features = parser.columns[: len(parser.feature_columns)]
    head = _run_start(features)
    if not head:
        return None
    cells = []
    for attr in features[:head]:
        spellings = (
            [re.escape(v) for v in attr.values if _bare(v)] if attr.is_nominal else [_CANONICAL_NUMBER]
        )
        cells.append("(?:" + "|".join([*spellings, r"\?"]) + ")")
    # a run of equal cells is one repeat, so that a wide schema compiles fast
    pattern = re.compile(
        ",".join(f"{cell}(?:,{cell}){{{len(list(run)) - 1}}}" for cell, run in groupby(cells))
    )
    span = 2 * (len(parser.columns) - head)
    commas = "," * (span // 2)

    def in_form(line: str) -> bool:
        end = len(line) - span
        return end > 0 and line[end::2] == commas and pattern.fullmatch(line, 0, end) is not None

    return in_form


def _parse(
    arff_text: str, xml_label_header: str, match_lines: bool
) -> tuple[MultiLabelDataset, list[int], list[int]]:
    """The dataset of a MULAN ARFF/XML pair, the indices of the rows whose
    data lines :func:`_writer_lines` matches when ``match_lines``, and the
    line number of each row."""
    label_names = parse_label_header(xml_label_header)

    relation = "unnamed"
    columns: list[AttributeSpec] = []
    # every _PARSE_ROWS data lines are decoded into arrays, so that their
    # tokens never exist as Python objects all at once
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    lines: list[str] = []
    line_numbers: list[int] = []
    matched_rows: list[int] = []

    def decode(lines: list[str]) -> None:
        first = len(line_numbers) - len(lines)
        blocks.append(parser.block(parser.cells(lines, line_numbers[first:])))
        if writer_lines is not None:
            matched_rows.extend(compress(range(first, len(line_numbers)), map(writer_lines, lines)))

    in_data = False
    for line_no, raw in enumerate(arff_text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if in_data:
            lines.append(line)
            line_numbers.append(line_no)
            if len(lines) == _PARSE_ROWS:
                decode(lines)
                lines = []
        elif line.lower().startswith("@relation"):
            relation, _ = _take_token(line[len("@relation") :], line_no)
        elif line.lower().startswith("@attribute"):
            columns.append(_parse_attribute(line[len("@attribute") :], line_no))
        elif line.lower().startswith("@data"):
            in_data = True
            parser = _RowParser(tuple(columns), label_names)
            writer_lines = _writer_lines(parser) if match_lines else None
        else:
            raise MulanFormatError(f"unexpected content {line!r}", line_no)

    if not in_data:
        raise MulanFormatError("no @data section found")
    # a bad data row is reported before a label missing from the attributes
    decode(lines)
    del lines

    names = {attr.name for attr in columns}
    for name in label_names:
        if name not in names:
            raise MulanFormatError(f"XML label {name!r} is not an ARFF attribute")
    if not parser.feature_columns:
        raise MulanFormatError("the ARFF file declares no feature attribute, only labels")
    numeric, nominal, values = (np.concatenate(arrays) for arrays in zip(*blocks))
    del blocks
    wrong = np.flatnonzero(~((values == 0.0) | (values == 1.0)).all(axis=1))
    if wrong.size:
        # decode the first bad row again and its labels one by one: its first
        # bad cell raises its error
        line_no = line_numbers[int(wrong[0])]
        row = parser.row(arff_text.splitlines()[line_no - 1].strip(), line_no)
        for pos in parser.label_columns:
            _check_label(row[pos], columns[pos], line_no)
    attributes = tuple(columns[i] for i in parser.feature_columns)
    try:
        d = MultiLabelDataset(attributes, label_names, numeric, nominal, values == 1.0, relation)
    except ValueError as exc:
        raise MulanFormatError(str(exc)) from exc
    return d, matched_rows, line_numbers


def parse_mulan(arff_text: str, xml_label_header: str) -> MultiLabelDataset:
    """Parse a MULAN ARFF/XML pair into a dataset.

    The XML-declared attributes become the labels in XML order; the remaining
    ARFF attributes become features in declaration order.  Row and
    attribute order is never changed.
    """
    return _parse(arff_text, xml_label_header, False)[0]


def read_mulan(arff_text: str, xml_label_header: str) -> tuple[MultiLabelDataset, RowFormatter]:
    """:func:`parse_mulan`, plus a :class:`RowFormatter` for the dataset that
    already holds each data line the writer would write unchanged.

    Rows taken from the input, such as clones, decoupled copies and folds,
    are then written with the input's own lines.
    """
    d, rows, line_numbers = _parse(arff_text, xml_label_header, True)
    formatter = RowFormatter(d.attributes, d.k)
    # the lines are cut from the text when the first rows are written: many
    # small objects made now and kept would pin the memory freed around them
    formatter._pending = (d.numeric, d.nominal, rows, [line_numbers[i] for i in rows], arff_text)
    return d, formatter


_NEEDS_QUOTING = frozenset(",{}%'\"")
# the characters at which str.splitlines, and so the parser, ends a line
_LINE_BREAKS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _bare(text: str) -> bool:
    """Whether the writer writes ``text`` unquoted."""
    # a bare ? is the missing value, so a value spelled ? is written quoted;
    # whitespace, every line break among it, ends an unquoted name
    return (
        text != ""
        and text != "?"
        and _NEEDS_QUOTING.isdisjoint(text)
        and not any(map(str.isspace, text))
    )


def _quote(text: str) -> str:
    if _bare(text):
        return text
    if not _LINE_BREAKS.isdisjoint(text):
        raise ValueError(f"cannot serialize token holding a line break: {text!r}")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    raise ValueError(f"cannot serialize token mixing both quote kinds: {text!r}")


def _xml_attribute(text: str) -> str:
    """``text`` escaped for a double-quoted XML attribute value."""
    if any(c < " " and c != "\t" or "\ud800" <= c <= "\udfff" or c in "\ufffe\uffff" for c in text):
        raise ValueError(f"cannot serialize a character outside XML 1.0: {text!r}")
    # an XML parser reads a literal tab in an attribute value as a space
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
    return text.replace("\t", "&#9;")


class RowFormatter:
    """Formats the data lines of one schema, the head of each distinct row once.

    A line is a head and a tail.  The tail is the trailing run of
    one-character features and then the labels, one byte per cell after a
    comma, and :meth:`lines` spells it for a block of rows at once.  The
    head, the features before the run, is looked up by its bytes (those of
    the row's ``numeric`` values and head codes): a row whose head this
    formatter has met before reuses that line, whole when it ends with the
    row's tail, else with the tail replaced, and :meth:`_spell` spells the
    heads that a call meets for the first time, many rows at once.  So
    clones, decoupled copies and the folds cut from one dataset are
    formatted once when they share a formatter.  A schema that the writer
    cannot write raises ``ValueError`` when a row is spelled or the
    declarations are formatted, not when the formatter is made.
    """

    def __init__(self, attributes: tuple[AttributeSpec, ...], k: int):
        self.attributes = attributes
        self.k = k
        self._head = _run_start(attributes)
        # the nominal attributes in the head come before those in the run
        self._head_codes = sum(attr.is_nominal for attr in attributes[: self._head])
        n_numeric = sum(not attr.is_nominal for attr in attributes)
        numeric, nominal = iter(range(n_numeric)), iter(range(n_numeric, len(attributes)))
        # where each attribute's cell sits in a row's numeric values followed by its codes
        self._order = [next(nominal) if attr.is_nominal else next(numeric) for attr in attributes]
        self._lines: dict[bytes, str] = {}  # head bytes -> the first line formatted for them
        # the smallest integer type that holds every code and -1, for shorter keys
        sizes = [len(attr.values) for attr in attributes if attr.is_nominal]
        self._codes = np.min_scalar_type(-max(sizes, default=0) - 1)
        # from read_mulan: the input's numeric and nominal rows, the rows whose
        # lines hold the writer's head, those lines' numbers, and the text
        self._pending: tuple[np.ndarray, np.ndarray, list[int], list[int], str] | None = None

    @cached_property
    def declarations(self) -> list[str]:
        """The ``@attribute`` line of each feature."""
        return [
            f"@attribute {_quote(attr.name)} "
            + ("{" + ",".join(map(_quote, attr.values)) + "}" if attr.is_nominal else "numeric")
            for attr in self.attributes
        ]

    @cached_property
    def _symbols(self) -> list[tuple[str, ...]]:
        """Per nominal attribute of the head its quoted symbols, then the "?"
        that the missing code -1 picks."""
        head = self.attributes[: self._head]
        return [(*(_quote(v) for v in attr.values), "?") for attr in head if attr.is_nominal]

    @cached_property
    def _letters(self) -> np.ndarray:
        """Per tail cell, the run's attributes and then the labels, "?" and
        then the byte of each code, so that code ``c`` is at ``c + 1``."""
        cells = [attr.values for attr in self.attributes[self._head :]] + [("0", "1")] * self.k
        letters = np.zeros((len(cells), 1 + max(map(len, cells), default=0)), np.uint8)
        for row, values in zip(letters, cells):
            row[: 1 + len(values)] = list(("?" + "".join(values)).encode())
        return letters

    def _tails(self, codes: np.ndarray, y: np.ndarray) -> str:
        """The tails of the rows, spelled as bytes one after the other, each a
        comma and a byte per cell: the run's codes, then the labels."""
        letters = self._letters
        cells = np.full((len(y), 2 * len(letters)), ord(","), np.uint8)
        # code c of the j-th cell is byte c + 1 of the j-th row of letters
        starts = np.arange(1, letters.size, letters.shape[1])
        cells[:, 1::2] = letters.ravel().take(np.hstack([codes[:, self._head_codes :], y]) + starts)
        return cells.tobytes().decode("ascii")

    def _keys(self, numeric: np.ndarray, codes: np.ndarray) -> Iterator[bytes]:
        """The bytes of each row's head, its numeric values and then its head
        codes, made as they are read."""
        return (n.tobytes() + c.tobytes() for n, c in zip(numeric, codes[:, : self._head_codes]))

    def _spell(self, numeric: np.ndarray, nominal: np.ndarray) -> list[str]:
        """The head cells of each row, in attribute order."""
        symbols, order = self._symbols, self._order[: self._head]
        rows = []
        # zip with the head's symbols stops before the codes of the run
        for values, codes in zip(numeric.tolist(), nominal.tolist()):
            cells = [*map(repr, values)]
            if "nan" in cells:
                cells = ["?" if cell == "nan" else cell for cell in cells]  # NaN is missing
            cells += map(getitem, symbols, codes)
            rows.append(",".join(map(cells.__getitem__, order)))
        return rows

    def _plant(self) -> None:
        """File the lines that :func:`read_mulan` found under their heads' bytes."""
        numeric, nominal, rows, line_numbers, text = self._pending
        self._pending = None
        split = text.splitlines()
        del text  # the last reference once the caller has let go of it
        matched = np.zeros(len(numeric), bool)
        matched[rows] = True
        keys = compress(self._keys(numeric, nominal.astype(self._codes)), matched)
        self._lines.update(zip(keys, (split[line_no - 1].strip() for line_no in line_numbers)))

    def lines(self, d: MultiLabelDataset) -> list[str]:
        if self._pending is not None:
            self._plant()
        codes = d.nominal.astype(self._codes)
        out: list[str] = []
        # in blocks, so that the byte arrays of a large write stay small
        for at in range(0, d.n, _PARSE_ROWS):
            block = slice(at, at + _PARSE_ROWS)
            out += self._block(d.numeric[block], codes[block], d.y[block])
        return out

    def _block(self, numeric: np.ndarray, codes: np.ndarray, y: np.ndarray) -> list[str]:
        """The lines of a block of rows.

        Each row's key and tail is made as it is used: a block's keys and
        tails made at once raised the peak RSS of a resample by up to 1 MB.
        """
        text, span = self._tails(codes, y), 2 * len(self._letters)
        # a line without a head starts at its first cell, not at a comma
        first = 0 if self._head else 1

        def tail(i: int) -> str:
            return text[i * span + first : (i + 1) * span]

        if not self._head:
            return list(map(tail, range(len(y))))
        known = self._lines
        found = list(map(known.get, self._keys(numeric, codes)))
        if None in found:
            missing = [i for i, line in enumerate(found) if line is None]
            keys = list(self._keys(numeric[missing], codes[missing]))
            # each head met for the first time, with the first row holding it
            new: dict[bytes, int] = {}
            for key, i in zip(keys, missing):
                new.setdefault(key, i)
            rows = list(new.values())
            heads = self._spell(numeric[rows], codes[rows])
            known.update(zip(new, map(str.__add__, heads, map(tail, rows))))
            for key, i in zip(keys, missing):
                found[i] = known[key]
        return [
            line if line.endswith(end) else line[: len(line) - span] + end
            for line, end in zip(found, map(tail, range(len(y))))
        ]


def write_mulan(d: MultiLabelDataset, rows: RowFormatter | None = None) -> tuple[str, str]:
    """Serialize a dataset to (arff_text, xml_label_header).

    Numeric values use the shortest round-tripping representation, so
    ``parse_mulan(*write_mulan(d))`` reproduces ``d`` structurally.  ``rows``
    formats the data lines, a fresh :class:`RowFormatter` by default; give
    several calls one formatter when their datasets share rows, such as the
    folds of one dataset, and each shared row is formatted once for all.
    """
    if rows is None:
        rows = RowFormatter(d.attributes, d.k)
    elif (rows.attributes, rows.k) != (d.attributes, d.k):
        raise ValueError("the row formatter was built for another schema")
    lines = [f"@relation {_quote(d.name)}", "", *rows.declarations]
    for name in d.labels:
        lines.append(f"@attribute {_quote(name)} {{0,1}}")
    lines.append("")
    lines.append("@data")
    lines.extend(rows.lines(d))
    lines.append("")  # the final newline, without a second copy of the text
    arff_text = "\n".join(lines)

    xml_lines = ['<?xml version="1.0" encoding="utf-8"?>']
    xml_lines.append('<labels xmlns="http://mulan.sourceforge.net/labels">')
    for name in d.labels:
        xml_lines.append(f'  <label name="{_xml_attribute(name)}"></label>')
    xml_lines.append("</labels>")
    return arff_text, "\n".join(xml_lines) + "\n"
