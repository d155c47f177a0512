"""Reading and writing the MULAN dataset format (ARFF data + XML label header).

Supported ARFF subset: ``@relation``, ``@attribute <name> numeric`` (also the
``real``/``integer`` aliases) and ``@attribute <name> {v1,...}`` nominal
declarations, dense comma-separated rows, sparse ``{index value, ...}`` rows,
``?`` for missing values and full-line ``%`` comments.  String and date
attributes are out of scope.

Numeric feature values must be finite: ``nan``, ``inf``, ``-Infinity`` and
literals that overflow a float (``1e400``) are rejected with their line
number.

The XML header lists the label attributes; nested label hierarchies are
flattened to their name list in document order.  Label columns must hold 0/1.

The parser's decoders produce only valid cells (exact ``float`` values, codes
in the declared list, finite numerics), so the parsed rows are not checked a
second time.  The writer formats each distinct feature tuple once: clones and
decoupled copies share their source's tuple, and a :class:`RowFormatter`
shared across calls does the same for the folds cut from one dataset.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ElementTree
from operator import getitem

from .dataset import AttributeSpec, FeatureValue, Instance, Labelset, MultiLabelDataset

_NUMERIC_KINDS = {"numeric", "real", "integer"}


class MulanFormatError(ValueError):
    """Malformed ARFF text or XML label header; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


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
        if _unquote(value) == value:
            index[value] = i
    index.pop("?", None)
    return index


class _RowParser:
    """Decodes the data rows of one attribute schema into lists of cells.

    Each column gets its decoder once: a ``token -> index`` dict lookup for a
    nominal column, ``float`` for a numeric one.  A row whose tokens all
    decode and whose sum is finite is done in one pass; any other row is
    decoded again cell by cell, which raises the error naming the first bad
    token.  Numeric columns named in ``label_names`` are exempt from the
    finiteness check, because the label check rejects anything but 0 and 1.
    """

    def __init__(self, columns: tuple[AttributeSpec, ...], label_names: tuple[str, ...]):
        self.columns = columns
        self.decoders = [
            _nominal_index(attr).__getitem__ if attr.is_nominal else float for attr in columns
        ]
        self.defaults = [0 if attr.is_nominal else 0.0 for attr in columns]
        self.finite = frozenset(
            i
            for i, attr in enumerate(columns)
            if not attr.is_nominal and attr.name not in label_names
        )

    def cell(self, i: int, token: str, line_no: int) -> FeatureValue:
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
            value = float(token)
        except ValueError:
            raise MulanFormatError(
                f"non-numeric value {token!r} for attribute {attr.name!r}", line_no
            ) from None
        if i in self.finite and not math.isfinite(value):
            raise MulanFormatError(
                f"non-finite value {token!r} for attribute {attr.name!r}", line_no
            )
        return value

    def row(self, line: str, line_no: int) -> list[FeatureValue]:
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
                    idx = int(pieces[0])
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
        try:
            cells = [decode(token) for decode, token in zip(self.decoders, tokens)]
            if math.isfinite(sum(cells)):
                return cells
        except (KeyError, ValueError):
            pass
        return [self.cell(i, token, line_no) for i, token in enumerate(tokens)]


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


def _label_value(value: FeatureValue, attr: AttributeSpec, line_no: int) -> bool:
    if attr.is_nominal and value is not None:
        value = _label_symbol_to_number(attr.values[value], attr, line_no)
    if value == 0.0:
        return False
    if value == 1.0:
        return True
    raise MulanFormatError(
        f"non-binary value {value!r} in label column {attr.name!r}", line_no
    )


def _label_symbol_to_number(symbol: str, attr: AttributeSpec, line_no: int) -> float:
    try:
        return float(symbol)
    except ValueError:
        raise MulanFormatError(
            f"non-binary value {symbol!r} in label column {attr.name!r}", line_no
        ) from None


def _label_bits(attr: AttributeSpec, bit: int) -> dict[FeatureValue, int]:
    """``cell -> bit or 0`` for the cells of a label column that read as 1 or 0."""
    if not attr.is_nominal:
        return {0.0: 0, 1.0: bit}
    bits = {}
    for code, symbol in enumerate(attr.values):
        try:
            number = float(symbol)
        except ValueError:
            continue
        if number == 0.0 or number == 1.0:
            bits[code] = bit if number == 1.0 else 0
    return bits


def parse_mulan(arff_text: str, xml_label_header: str) -> MultiLabelDataset:
    """Parse a MULAN ARFF/XML pair into a dataset.

    The XML-declared attributes become the labels in XML order; the remaining
    ARFF attributes become features in declaration order.  Instance and
    attribute order is never changed.
    """
    label_names = parse_label_header(xml_label_header)

    relation = "unnamed"
    columns: list[AttributeSpec] = []
    rows: list[tuple[list[FeatureValue], int]] = []
    in_data = False
    for line_no, raw in enumerate(arff_text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        if in_data:
            rows.append((parser.row(line, line_no), line_no))
        elif line.lower().startswith("@relation"):
            relation, _ = _take_token(line[len("@relation") :], line_no)
        elif line.lower().startswith("@attribute"):
            columns.append(_parse_attribute(line[len("@attribute") :], line_no))
        elif line.lower().startswith("@data"):
            in_data = True
            parser = _RowParser(tuple(columns), label_names)
        else:
            raise MulanFormatError(f"unexpected content {line!r}", line_no)

    if not in_data:
        raise MulanFormatError("no @data section found")

    by_name = {attr.name: i for i, attr in enumerate(columns)}
    for name in label_names:
        if name not in by_name:
            raise MulanFormatError(f"XML label {name!r} is not an ARFF attribute")
    label_positions = [by_name[name] for name in label_names]
    label_set = set(label_positions)
    feature_positions = [i for i in range(len(columns)) if i not in label_set]
    attributes = tuple(columns[i] for i in feature_positions)
    label_bits = [_label_bits(columns[pos], 1 << j) for j, pos in enumerate(label_positions)]

    instances = []
    for cells, line_no in rows:
        try:
            mask = sum(map(getitem, label_bits, [cells[pos] for pos in label_positions]))
        except KeyError:
            # decode the labels one by one: the first bad cell raises its error
            mask = Labelset.from_indices(
                j
                for j, pos in enumerate(label_positions)
                if _label_value(cells[pos], columns[pos], line_no)
            ).mask
        features = tuple([cells[i] for i in feature_positions])
        instances.append(Instance(features=features, labels=Labelset(mask)))

    try:
        return MultiLabelDataset._trusted(attributes, label_names, tuple(instances), relation)
    except ValueError as exc:
        raise MulanFormatError(str(exc)) from exc


_NEEDS_QUOTING = set(" ,{}%'\"\t")


def _quote(text: str) -> str:
    # a bare ? is the missing value, so a value spelled ? is written quoted
    if text and text != "?" and not (_NEEDS_QUOTING & set(text)):
        return text
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    raise ValueError(f"cannot serialize token mixing both quote kinds: {text!r}")


class RowFormatter:
    """Formats the data lines of one schema, each distinct feature tuple once.

    A row whose feature tuple (the same object) this formatter has met
    before reuses that line: whole when its label cells are the same too,
    else with the label cells swapped.  The formatter keeps each tuple it
    formats alive, so that no id it holds is reused; share one formatter
    only across datasets that share rows.
    """

    def __init__(self, attributes: tuple[AttributeSpec, ...], k: int):
        self.attributes = attributes
        self.k = k
        self._formats = [
            tuple(_quote(v) for v in attr.values).__getitem__ if attr.is_nominal else repr
            for attr in attributes
        ]
        # the separator before the label cells, where both kinds of cell exist
        self._sep = "," if attributes and k else ""
        # labelset mask -> separator and label cells; every tail has the same length
        self._tails: dict[int, str] = {}
        self._lines: dict[int, str] = {}  # id(features) -> the first line formatted for them
        self._kept: list[tuple] = []

    def lines(self, instances: tuple[Instance, ...]) -> list[str]:
        formats, tails, known, kept = self._formats, self._tails, self._lines, self._kept
        out = []
        for inst in instances:
            features, mask = inst.features, inst.labels.mask
            tail = tails.get(mask)
            if tail is None:
                tail = tails[mask] = self._sep + ",".join(
                    ["1" if mask >> l & 1 else "0" for l in range(self.k)]
                )
            line = known.get(id(features))
            if line is None:
                cells = ["?" if v is None else fmt(v) for fmt, v in zip(formats, features)]
                line = known[id(features)] = ",".join(cells) + tail
                kept.append(features)
            elif not line.endswith(tail):
                line = line[: len(line) - len(tail)] + tail
            out.append(line)
        return out


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
    lines = [f"@relation {_quote(d.name)}", ""]
    for attr in d.attributes:
        if attr.is_nominal:
            decl = "{" + ",".join(_quote(v) for v in attr.values) + "}"
        else:
            decl = "numeric"
        lines.append(f"@attribute {_quote(attr.name)} {decl}")
    for name in d.labels:
        lines.append(f"@attribute {_quote(name)} {{0,1}}")
    lines.append("")
    lines.append("@data")
    lines.extend(rows.lines(d.instances))
    lines.append("")  # the final newline, without a second copy of the text
    arff_text = "\n".join(lines)

    xml_lines = ['<?xml version="1.0" encoding="utf-8"?>']
    xml_lines.append('<labels xmlns="http://mulan.sourceforge.net/labels">')
    for name in d.labels:
        escaped = (
            name.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
        )
        xml_lines.append(f'  <label name="{escaped}"></label>')
    xml_lines.append("</labels>")
    return arff_text, "\n".join(xml_lines) + "\n"
