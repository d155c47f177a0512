"""The text of ``json.dumps(obj, indent=2)``, built by the C encoder.

``json.dumps`` with an indent always runs the pure-Python encoder.  Here a
dict, list or tuple whose members are all scalars is encoded in one call of
the C encoder, whose item separator carries the line break and the indent of
its members.  So is a list whose members are all non-empty dicts of
scalars, such as a report's list of added rows; only other containers are
walked in Python.  The text is that of ``json.dumps(obj, indent=2)``: the
same float spellings (``NaN``, ``Infinity``, ``-0.0``), ASCII escapes and
key order, and tuples written as lists.
"""

from __future__ import annotations

import json
from itertools import chain

_CONTAINERS = (dict, list, tuple)


def _scalars(values) -> bool:
    """Whether none of ``values`` is a container."""
    return not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, values)))


def _lines(obj, inner: str, newline: str) -> str:
    """A non-empty container of scalars, one member per line."""
    text = json.JSONEncoder(separators=("," + inner, ": ")).encode(obj)
    return text[0] + inner + text[1:-1] + newline + text[-1]


def dumps_indented(obj, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``; ``newline`` is the line break and the
    indent of the line that ``obj`` ends on."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        return json.dumps(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if _scalars(obj.values()):
            return _lines(obj, inner, newline)
        # a one-entry dict, so that a key that is not a str is converted as json.dumps does
        encoder = json.JSONEncoder()
        cells = [
            encoder.encode({key: None})[1 : -len(": null}")] + ": " + dumps_indented(value, inner)
            for key, value in obj.items()
        ]
        return "{" + inner + ("," + inner).join(cells) + newline + "}"
    if _scalars(obj):
        return _lines(obj, inner, newline)
    dicts = set(map(type, obj)) == {dict} and all(obj)
    if dicts and _scalars(chain.from_iterable(map(dict.values, obj))):
        # one call with the members' separator: it holds a line break, which
        # no encoded string does, and it follows a brace only between members
        member = inner + "  "
        text = json.JSONEncoder(separators=("," + member, ": ")).encode(obj)
        between = text[2:-2].replace("}," + member + "{", inner + "}," + inner + "{" + member)
        return "[" + inner + "{" + member + between + inner + "}" + newline + "]"
    return "[" + inner + ("," + inner).join(dumps_indented(m, inner) for m in obj) + newline + "]"
