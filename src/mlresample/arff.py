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

Text sets declare hundreds to thousands of identical ``{0,1}`` attributes,
so the schema is derived once per distinct declaration: the header pass
splits and unquotes each distinct type text once per file, and the reader,
the line matcher and the writer each build the tables of a value list once
and share them among its columns.  Nothing is kept from one parse or
formatter to the next, and every error still names its own line.

The parser reads the data section in blocks of stripped lines, which take
one of three shapes; a clean block is ASCII without a quote, a missing
value ``?`` or an underscore.  In a clean dense block (no brace), a column
is one-character when it is nominal and every value it declares is one
ASCII character that needs no quotes, as labels declared ``{0,1}`` and
binary word features are.  Each line is cut once into a head and a tail,
its last ``2t`` characters for the trailing run of ``t`` such columns: a
comma before each cell and one byte per cell, which the column's code
table, built from its decoder's own dict, reads.  The heads are read by
numpy's C text reader in one call, straight into a float block: it parses
each number with the routine that ``float`` uses, so every value is
bit-identical, hands each nominal cell to its column's decoder, and with
the shape of its result checks that every head holds one cell per head
column.  A clean sparse block (every line one ``{...}`` with no other
brace) has all its ``index value`` entries split at once; the indices are
decoded in one pass, and the values land in a block holding every column's
default, so no row is expanded to all columns.  Any other block, and any
block with a line of other than one token per column, a token that does
not decode, a one-character cell that is not one byte between commas, an
entry that is not one index and one value, indices that are not ascending,
or a non-finite feature, is decoded line by line instead, and the first bad
line raises its error with its line number; so every accepted file gives
the same arrays, and every rejected file the same message and line,
whichever path its blocks take.  The label columns are checked as a whole
at the end; only a file with a bad label cell decodes its first bad row
again, for the error and its line.

The writer writes each data line as a head and a tail.  The tail is the
trailing run of one-character features and then the labels, each cell one
byte after a comma; it is spelled for a block of rows at once, from a
code-to-byte table.  The head, the features before the run, is spelled per
row unless the row was taken from the input.  :func:`read_mulan` parses
like :func:`parse_mulan` and also returns a :class:`RowFormatter` that
holds, by row index, every data line whose head the writer would write
unchanged for the row it decodes to; :func:`_writer_lines` finds them a
block at a time among the heads the parser cut, so only a clean dense
block offers lines.  :func:`write_mulan` takes per output row the input
row it came from, copies that line when the row's features are the
source's, with the row's own tail, and spells a source whose line it
cannot copy once.  One predicate, :func:`_one_character`, says where the
run starts for the reader and the writer, and the matcher takes the
reader's run.  The writer quotes
every name and value holding whitespace or ARFF syntax, and rejects one
holding a line break, or a label name holding a character XML 1.0 lacks,
because neither would read back.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ElementTree
from collections.abc import Callable, Sequence
from functools import cached_property
from itertools import repeat
from operator import getitem, itemgetter

import numpy as np

from .dataset import AttributeSpec, MultiLabelDataset

_NUMERIC_KINDS = {"numeric", "real", "integer"}

# Data lines decoded together into one float block, and rows spelled together.
_PARSE_ROWS = 512


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
    # split, like str.isspace, ends a token at any whitespace character
    token, *rest = text.split(None, 1)
    return token, "".join(rest)


def _opens_with(line: str, keyword: str) -> bool:
    """Whether ``line`` opens with ``keyword`` (lower case, matched in any case)
    as a whole word: followed by the end of the line, whitespace or a quote."""
    after = line[len(keyword) : len(keyword) + 1]
    return line[: len(keyword)].lower() == keyword and (after.isspace() or after in "'\"")


def _parse_attribute(
    rest: str, line_no: int, declared: dict[str, tuple[str, ...] | None]
) -> AttributeSpec:
    """The attribute of an ``@attribute`` line, ``rest`` being the text after
    the keyword.  ``declared`` maps each type text met before in the file to
    its value list, None for numeric, so that each distinct declaration is
    split and unquoted once; a type text that fails is not kept."""
    name, kind = _take_token(rest, line_no)
    kind = kind.strip()
    if kind not in declared:
        if not kind:
            raise MulanFormatError(f"attribute {name!r} has no type", line_no)
        if kind.startswith("{"):
            if not kind.endswith("}"):
                raise MulanFormatError(f"attribute {name!r}: unterminated value list", line_no)
            values = tuple(_unquote(v) for v in _split(kind[1:-1], ",", line_no))
            if any(v == "" for v in values):
                raise MulanFormatError(f"attribute {name!r}: empty nominal value", line_no)
            declared[kind] = values
        elif kind.lower() in _NUMERIC_KINDS:
            declared[kind] = None
        else:
            raise MulanFormatError(f"attribute {name!r}: unsupported type {kind!r}", line_no)
    try:
        return AttributeSpec(name=name, values=declared[kind])
    except ValueError as exc:
        raise MulanFormatError(str(exc), line_no) from exc


def _distinct_values(
    attributes: Sequence[AttributeSpec],
) -> tuple[list[tuple[str, ...] | None], list[int]]:
    """The distinct value lists of ``attributes`` in order of first use, None
    for numeric, and per attribute the position of its own among them, so
    that a table of a value list is built once and shared by its columns."""
    distinct: dict[tuple[str, ...] | None, int] = {}
    at = [distinct.setdefault(attr.values, len(distinct)) for attr in attributes]
    return list(distinct), at


def _nominal_index(values: tuple[str, ...]) -> dict[str, int]:
    """Value index of every raw token that names a declared value, quoted or not.

    ``?`` is left out: it is the missing value even where a value is spelled ``?``.
    """
    index = {}
    for i, value in enumerate(values):
        index[f"'{value}'"] = i
        index[f'"{value}"'] = i
        # the row path strips its tokens, so only a value without whitespace
        # at its edges can be named unquoted
        if _unquote(value) == value and value == value.strip():
            index[value] = i
    index.pop("?", None)
    return index


def _one_character(values: tuple[str, ...] | None) -> bool:
    """Whether ``values`` is a nominal value list of which every value is one
    ASCII character that the writer writes bare, so that each cell of its
    columns is one byte for the reader, the matcher and the writer alike."""
    return values is not None and all(len(v) == 1 and v.isascii() and _bare(v) for v in values)


def _run_start(distinct: list[tuple[str, ...] | None], at: list[int]) -> int:
    """Where the trailing run of one-character columns starts, given the
    distinct value lists and each column's position among them."""
    one = [_one_character(values) for values in distinct]
    start = len(at)
    while start and one[at[start - 1]]:
        start -= 1
    return start


class _RowParser:
    """Decodes the data lines of one attribute schema into the dataset's arrays.

    Each distinct value list gets its tables once, and its columns share
    them: a ``token -> index`` dict lookup as the decoder of a nominal
    column, ``float`` for a numeric one, and the byte codes and label
    numbers of a one-character list.  :meth:`cells` decodes a
    block of lines into floats, by column where it can (:meth:`_dense`,
    :meth:`_sparse`), else through :meth:`row`, which decodes one line cell
    by cell and raises the error naming the first bad token.  Only
    :meth:`_dense` cuts the lines into heads and tails, so only its blocks
    offer lines to the writer.  Numeric columns named in ``label_names``
    are exempt from the finiteness check, because the label check rejects
    anything but 0 and 1.  :meth:`block` turns a float block into the
    dataset's arrays.
    """

    def __init__(self, columns: tuple[AttributeSpec, ...], label_names: tuple[str, ...]):
        self.columns = columns
        self.distinct, self.at = distinct, at = _distinct_values(columns)
        decoders = [float if v is None else _nominal_index(v).__getitem__ for v in distinct]
        self.decoders = [decoders[g] for g in at]
        # the trailing run of one-character columns, from self.head on, and per
        # such column the code of each byte its decoder reads, -1 for the rest
        self.head = _run_start(distinct, at)
        # numpy reads the numeric columns before them as float() does, and the
        # nominal ones through their decoders
        self.head_converters = {
            j: decode for j, decode in enumerate(self.decoders[: self.head]) if decode is not float
        }
        tail = at[self.head :]
        codes = np.full((len(distinct), 256), -1, np.int16)
        for g in set(tail):
            codes[g, list(map(ord, distinct[g]))] = range(len(distinct[g]))
        self.tail_codes = codes[tail]
        self.defaults = [0 if attr.is_nominal else 0.0 for attr in columns]
        names = set(label_names)
        self.finite = np.array(
            [not attr.is_nominal and attr.name not in names for attr in columns], bool
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
        nominal = [at[self.label_columns[j]] for j in self.nominal_labels]
        width = max((len(distinct[g]) for g in set(nominal)), default=0) + 1
        numbers = np.empty((len(distinct), width))
        for g in set(nominal):
            numbers[g] = _label_numbers(distinct[g], width)
        self.label_numbers = numbers[nominal]

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
        return [self.cell(i, token, line_no) for i, token in enumerate(tokens)]

    def cells(self, lines: list[str], line_numbers: list[int]) -> tuple[np.ndarray, list[str] | None]:
        """The cells of stripped data lines as one float block, NaN for a
        missing value, and the heads that :meth:`_dense` cut from the lines,
        or None when it did not decode them.

        A clean block takes :meth:`_dense` when no line holds a brace, and
        :meth:`_sparse` when each is a ``{...}`` with no other brace.  Every
        other block, and every block whose column path does not decode whole,
        goes through :meth:`row` line by line, which raises the first error.
        """
        text = ",".join(lines)
        # a quote, a missing value, an underscore or a non-ASCII character
        # sends the block to the row path before it is split
        if text.isascii() and not any(mark in text for mark in "'\"?_"):
            n = len(lines)
            if "{" not in text:
                dense = self._dense(lines, text)
                if dense is not None:
                    return dense
            elif (
                text.count("{") == text.count("}") == n
                and "".join(map(itemgetter(0), lines)) == "{" * n
                and "".join(map(itemgetter(-1), lines)) == "}" * n
            ):
                cells = self._sparse(text[1:-1].split("},{"))
                if cells is not None:
                    return cells, None
        rows = [self.row(line, line_no) for line, line_no in zip(lines, line_numbers)]
        # numpy converts the missing value None to NaN; every code is a small int, held exactly
        return np.array(rows, dtype=np.float64).reshape(len(rows), len(self.columns)), None

    def _dense(self, lines: list[str], text: str) -> tuple[np.ndarray, list[str]] | None:
        """The cells of dense lines, ``text`` being their comma-joined text,
        and their heads; or None when a line is not one token per column, a
        token does not decode or a feature is not finite.

        Each line is cut once into a head and a tail, its last ``2t``
        characters for the ``t`` one-character columns at the end.  A file of
        such columns only has lines of ``2t - 1`` characters and no head; any
        other line must be longer than its tail, as numpy skips an empty
        line.  ``np.loadtxt`` reads the heads and raises when the number of
        cells changes from line to line; the shape of its result says whether
        they hold one cell per head column.
        """
        n, width, head = len(lines), len(self.columns), self.head
        cells, heads = np.empty((n, width)), lines
        if not n:  # numpy warns that an empty input holds no data
            return cells, heads
        if head < width:
            span = 2 * (width - head)
            if head and min(map(len, lines)) > span:
                heads = [line[:-span] for line in lines]
                tails = "".join([line[-span:] for line in lines])
            elif not head and all(len(line) == span - 1 for line in lines):
                tails = "," + text
            else:
                return None
            chars = np.frombuffer(tails.encode(), np.uint8).reshape(n, span)
            codes = self.tail_codes[np.arange(width - head), chars[:, 1::2]]
            if not ((chars[:, ::2] == ord(",")).all() and (codes >= 0).all()):
                return None
            cells[:, head:] = codes
            if not head:
                return cells, None
        # no comment character, as float() reads none; and str converters on
        # every numpy (before 2.0 the default hands them bytes)
        try:
            values = np.loadtxt(
                heads, comments=None, delimiter=",", converters=self.head_converters, ndmin=2, encoding=None
            )
        except (KeyError, ValueError):  # numpy 2 wraps a converter's KeyError in a ValueError
            return None
        if values.shape != (n, head):
            return None
        cells[:, :head] = values
        if not np.isfinite(cells[:, self.finite]).all():
            return None
        return cells, heads

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


def _label_numbers(values: tuple[str, ...], width: int) -> np.ndarray:
    """The number each code of a nominal label's ``values`` reads as, NaN unless it is 0 or 1.

    ``width`` exceeds the number of codes, so the NaN entry at the end is what
    the missing code -1 picks.
    """
    numbers = np.full(width, np.nan)
    for code, symbol in enumerate(values):
        try:
            number = float(symbol)
        except ValueError:
            continue
        if number == 0.0 or number == 1.0:
            numbers[code] = number
    return numbers


def _writer_lines(parser: _RowParser) -> Callable[[list[str], np.ndarray], np.ndarray] | None:
    """A matcher that takes the heads that :meth:`_RowParser._dense` cut from
    a block of data lines and the block's nominal feature codes, and says
    per head whether it is the head that the writer writes for the row it
    decodes to; or None when no line can be copied: the columns are not in
    the writer's order (the features in declaration order, then the labels
    in XML order), the writer's lines have no head, or a label is not
    one-character, so that the parser's heads are not the writer's.

    The parser checked the comma before each one-byte cell of every tail,
    which the writer replaces when it is not the row's own, and read one
    cell per head column from every head of a clean block (ASCII, without
    a quote, a ``?`` or an underscore).  Each cell must be spelled as the
    writer spells it: for a nominal column, the declared value the cell
    decoded to, when the writer writes it bare, which the cell is exactly
    when it is as long (a token decodes to a value only as the value
    itself, or padded); for a numeric column, a number that ``repr`` writes
    back unchanged.  That is positional notation with at most 15
    significant digits, and zero or 1e-4 <= |x| < 1e16, which is the unique
    shortest decimal that reads back as its double: an optional ``-``, then
    digits and one ``.`` that are 3 to 16 characters long, an integer part
    that is ``0`` or has no leading zero, a fraction that is ``0`` or does
    not end in ``0``, and at most three zeros after ``0.``.
    """
    if parser.feature_columns + parser.label_columns != list(range(len(parser.columns))):
        return None
    # the writer's run starts where the parser's does when it starts among the
    # features, that is when every label is one-character
    head, distinct, at = parser.head, parser.distinct, parser.at
    if not head or head > len(parser.feature_columns):
        return None
    nominal = [j for j in range(head) if distinct[at[j]] is not None]
    # per nominal head column, the size of each value the writer writes bare,
    # -1 for the others
    lists = {at[j] for j in nominal}
    width = max((len(distinct[g]) for g in lists), default=0)
    sizes = np.full((len(distinct), width), -1, np.intp)
    for g in lists:
        for code, value in enumerate(distinct[g]):
            if _bare(value):
                sizes[g, code] = len(value)
    sizes = sizes[[at[j] for j in nominal]]

    def match(heads: list[str], codes: np.ndarray) -> np.ndarray:
        if not heads:  # the empty last block
            return np.zeros(0, bool)
        # every head ends in a line break, so a comma or a line break ends each cell
        text = np.frombuffer(("\n".join(heads) + "\n").encode(), np.uint8)
        # the non-digits in order: the commas, line breaks, dots, signs and
        # stray bytes (uint8 takes the bytes below "0" round to above 9)
        marks = np.flatnonzero(text - ord("0") > 9)
        kinds = text[marks]
        ends = np.flatnonzero((kinds == ord(",")) | (kinds == ord("\n")))
        # cell c runs from start[c] to end[c], its comma or line break, and
        # holds inner[c] marks before it, the last at dot[c]
        end = marks[ends]
        start = np.concatenate(([0], end[:-1] + 1))
        inner = np.diff(ends, prepend=-1) - 1
        dot = marks[ends - 1]
        sign = text[start] == ord("-")
        lo = start + sign
        integer, fraction = dot - lo, end - dot - 1
        # a number's only marks are its sign and its dot
        number = (
            (inner == 1 + sign)
            & (text[dot] == ord("."))
            & (3 <= end - lo)
            & (end - lo <= 16)
            & (integer >= 1)
            & ((text[lo] != ord("0")) | (integer == 1))
            & (fraction >= 1)
            & ((text[end - 1] != ord("0")) | (fraction == 1))
        )
        # 0. followed by four zeros is below 1e-4
        tiny = np.flatnonzero(number & (text[lo] == ord("0")) & (fraction > 4))
        number[tiny] = np.any([text[dot[tiny] + k] != ord("0") for k in range(1, 5)], axis=0)
        # the parser read one cell per head column from every head
        ok = number.reshape(len(heads), head)
        if nominal:
            size = (end - start).reshape(len(heads), head)[:, nominal]
            ok[:, nominal] = size == sizes[np.arange(len(nominal)), codes[:, : len(nominal)]]
        return ok.all(axis=1)

    return match


def _parse(
    arff_text: str, xml_label_header: str, match_lines: bool
) -> tuple[MultiLabelDataset, list[str | None]]:
    """The dataset of a MULAN ARFF/XML pair and, when ``match_lines`` and
    :func:`_writer_lines` makes a matcher, per row its stripped data line if
    the writer can copy it, else None; otherwise no lines.

    Each block of data lines is decoded into one float block.  The matcher
    of :func:`_writer_lines` reads the heads that :meth:`_RowParser._dense`
    cut from a block, with the block's nominal codes; a block decoded any
    other way copies no line.  The last block is empty when the row count
    is a multiple of :data:`_PARSE_ROWS`.
    """
    label_names = parse_label_header(xml_label_header)

    relation = "unnamed"
    columns: list[AttributeSpec] = []
    declared: dict[str, tuple[str, ...] | None] = {}
    # every _PARSE_ROWS data lines are decoded into arrays, so that their
    # tokens never exist as Python objects all at once
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    lines: list[str] = []
    line_numbers: list[int] = []
    copies: list[str | None] = []

    def decode(lines: list[str]) -> None:
        cells, heads = parser.cells(lines, line_numbers[len(line_numbers) - len(lines) :])
        blocks.append(parser.block(cells))
        if match is not None:
            copyable = repeat(False) if heads is None else match(heads, blocks[-1][1]).tolist()
            copies.extend([line if ok else None for line, ok in zip(lines, copyable)])

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
        elif _opens_with(line, "@relation"):
            relation, rest = _take_token(line[len("@relation") :], line_no)
            if rest.strip():
                raise MulanFormatError(f"text after the relation name: {rest.strip()!r}", line_no)
        elif _opens_with(line, "@attribute"):
            columns.append(_parse_attribute(line[len("@attribute") :], line_no, declared))
        elif line.lower() == "@data":
            in_data = True
            parser = _RowParser(tuple(columns), label_names)
            match = _writer_lines(parser) if match_lines else None
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
    return d, copies


def parse_mulan(arff_text: str, xml_label_header: str) -> MultiLabelDataset:
    """Parse a MULAN ARFF/XML pair into a dataset.

    The XML-declared attributes become the labels in XML order; the remaining
    ARFF attributes become features in declaration order.  Row and
    attribute order is never changed.
    """
    return _parse(arff_text, xml_label_header, False)[0]


def read_mulan(arff_text: str, xml_label_header: str) -> tuple[MultiLabelDataset, RowFormatter]:
    """:func:`parse_mulan`, plus a :class:`RowFormatter` for the dataset that
    holds, by row index, each data line whose head the writer would write
    unchanged (see :func:`_writer_lines`), so that a write that names the
    sources of its rows (see :meth:`RowFormatter.lines`) copies the lines of
    the rows taken from the input, such as clones, decoupled copies and folds.
    Only a block that the parser read column by column, dense and clean,
    offers its lines; the rows of any other block are spelled when written.
    """
    d, copies = _parse(arff_text, xml_label_header, True)
    formatter = RowFormatter(d.attributes, d.k)
    formatter._input, formatter._known = d, copies or [None] * d.n
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
    """Formats the data lines of one schema.

    A line is a head and a tail.  The tail is the trailing run of
    one-character features and then the labels, one byte per cell after a
    comma, and :meth:`lines` spells it for a block of rows at once.  The
    head, the features before the run, is spelled by :meth:`_spell`, many
    rows at once, unless the row was taken from the input of a formatter
    from :func:`read_mulan`, which holds by row index each line of a block
    read column by column that the writer can copy.  A schema that the
    writer cannot write raises ``ValueError`` when a row is spelled or the
    declarations are formatted, not when the formatter is made.
    """

    def __init__(self, attributes: tuple[AttributeSpec, ...], k: int):
        self.attributes = attributes
        self.k = k
        self._distinct, self._at = _distinct_values(attributes)
        self._head = _run_start(self._distinct, self._at)
        # the nominal attributes in the head come before those in the run
        self._head_codes = sum(attr.is_nominal for attr in attributes[: self._head])
        n_numeric = sum(not attr.is_nominal for attr in attributes)
        numeric, nominal = iter(range(n_numeric)), iter(range(n_numeric, len(attributes)))
        # where each attribute's cell sits in a row's numeric values followed by its codes
        self._order = [next(nominal) if attr.is_nominal else next(numeric) for attr in attributes]
        # from read_mulan: the input, and per input row its line once known
        self._input: MultiLabelDataset | None = None
        self._known: list[str | None] = []

    @cached_property
    def declarations(self) -> list[str]:
        """The ``@attribute`` line of each feature."""
        # each value list is quoted once, after the name of its first
        # attribute, so that the first token the writer cannot write raises
        spelled: dict[int, str] = {}
        lines = []
        for attr, g in zip(self.attributes, self._at):
            name = _quote(attr.name)
            if g not in spelled:
                values = self._distinct[g]
                spelled[g] = "numeric" if values is None else "{" + ",".join(map(_quote, values)) + "}"
            lines.append(f"@attribute {name} {spelled[g]}")
        return lines

    @cached_property
    def _symbols(self) -> list[tuple[str, ...]]:
        """Per nominal attribute of the head its quoted symbols, then the "?"
        that the missing code -1 picks."""
        at = [g for g in self._at[: self._head] if self._distinct[g] is not None]
        symbols = {g: (*map(_quote, self._distinct[g]), "?") for g in dict.fromkeys(at)}
        return [symbols[g] for g in at]

    @cached_property
    def _letters(self) -> np.ndarray:
        """Per tail cell, the run's attributes and then the labels, "?" and
        then the byte of each code, so that code ``c`` is at ``c + 1``."""
        values = [*self._distinct, ("0", "1")]
        cells = self._at[self._head :] + [len(self._distinct)] * self.k
        used = set(cells)
        letters = np.zeros((len(values), 1 + max((len(values[g]) for g in used), default=0)), np.uint8)
        for g in used:
            letters[g, : 1 + len(values[g])] = list(("?" + "".join(values[g])).encode())
        return letters[cells]

    def _tails(self, codes: np.ndarray, y: np.ndarray) -> str:
        """The tails of the rows, spelled as bytes one after the other, each a
        comma and a byte per cell: the run's codes, then the labels."""
        letters = self._letters
        cells = np.full((len(y), 2 * len(letters)), ord(","), np.uint8)
        # code c of the j-th cell is byte c + 1 of the j-th row of letters
        starts = np.arange(1, letters.size, letters.shape[1])
        cells[:, 1::2] = letters.ravel().take(np.hstack([codes[:, self._head_codes :], y]) + starts)
        return cells.tobytes().decode("ascii")

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

    def lines(self, d: MultiLabelDataset, sources: Sequence[int] | None = None) -> list[str]:
        """The data lines of ``d``.

        ``sources`` gives per row the input row it was taken from, or -1.  A
        row whose numeric bits and head codes equal its source's gets the
        source's line, with the row's tail; a source whose line the writer
        cannot copy is spelled once and kept, so clones, decoupled copies and
        folds are formatted once.  Every other row is spelled, and so is
        every row without ``sources`` or without an input.
        """
        sources = np.full(d.n, -1) if sources is None else np.asarray(sources, np.intp)
        if sources.shape != (d.n,):
            raise ValueError(f"need one source per row, got shape {sources.shape}")
        out: list[str] = []
        # in blocks, so that the byte arrays of a large write stay small
        for at in range(0, d.n, _PARSE_ROWS):
            block = slice(at, at + _PARSE_ROWS)
            out += self._block(d.numeric[block], d.nominal[block], d.y[block], sources[block])
        return out

    def _block(
        self, numeric: np.ndarray, codes: np.ndarray, y: np.ndarray, sources: np.ndarray
    ) -> list[str]:
        """The lines of a block of rows, each tail cut from the block's as it is used."""
        text, span, n = self._tails(codes, y), 2 * len(self._letters), len(y)
        # a line without a head starts at its first cell, not at a comma
        first = 0 if self._head else 1

        def tail(i: int) -> str:
            return text[i * span + first : (i + 1) * span]

        if not self._head:
            return list(map(tail, range(n)))
        # per row the input row whose line it takes, else a key of its own below 0
        keys = -1 - np.arange(n)
        taken = np.flatnonzero((sources >= 0) & (sources < len(self._known)))
        if taken.size:
            rows, h = sources[taken], self._head_codes
            same = (numeric[taken].view(np.uint64) == self._input.numeric[rows].view(np.uint64)).all(1)
            same &= (codes[taken, :h] == self._input.nominal[rows, :h]).all(1)
            keys[taken[same]] = rows[same]
        known, keys = self._known, keys.tolist()
        found = [known[key] if key >= 0 else None for key in keys]
        # each key without a line, with the first row holding it
        new: dict[int, int] = {}
        for i, (key, line) in enumerate(zip(keys, found)):
            if line is None:
                new.setdefault(key, i)
        if new:
            rows = list(new.values())
            heads = self._spell(numeric[rows], codes[rows])
            spelled = dict(zip(new, map(str.__add__, heads, map(tail, rows))))
            for key, line in spelled.items():
                if key >= 0:
                    known[key] = line
            found = [spelled[key] if line is None else line for key, line in zip(keys, found)]
        return [
            line if line.endswith(end) else line[: len(line) - span] + end
            for line, end in zip(found, map(tail, range(n)))
        ]


def write_mulan(
    d: MultiLabelDataset, rows: RowFormatter | None = None, sources: Sequence[int] | None = None
) -> tuple[str, str]:
    """Serialize a dataset to (arff_text, xml_label_header).

    Numeric values use the shortest round-tripping representation, so
    ``parse_mulan(*write_mulan(d))`` reproduces ``d`` structurally.  ``rows``
    formats the data lines, a fresh :class:`RowFormatter` by default; with the
    one :func:`read_mulan` returned, ``sources`` names per row of ``d`` the
    input row it was taken from, or -1 (see :meth:`RowFormatter.lines`).
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
    lines.extend(rows.lines(d, sources))
    lines.append("")  # the final newline, without a second copy of the text
    arff_text = "\n".join(lines)

    xml_lines = ['<?xml version="1.0" encoding="utf-8"?>']
    xml_lines.append('<labels xmlns="http://mulan.sourceforge.net/labels">')
    for name in d.labels:
        xml_lines.append(f'  <label name="{_xml_attribute(name)}"></label>')
    xml_lines.append("</labels>")
    return arff_text, "\n".join(xml_lines) + "\n"
