"""The byte format of every output, and the one typed read of every input.

Identical inputs must give identical bytes, so this is the one place the
format lives.  JSON has no spaces after separators.  A CSV line holds the
``str`` of each cell: a name as it is, or a Python int or float
(``tolist()`` of a numpy row gives these), whose ``str`` is its ``repr``,
so floats round-trip exactly; lines end in ``\\n``.  An integer array in a
JSON document is written as the list ``tolist()`` gives, a chunk at a
time.  Every plan or config file is parsed by ``read_json``, and every
value read from one or from a flag goes through ``read_value``.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

# Array entries rendered per piece by ``json_chunks``: fixed, so a
# writer's memory does not grow with the array.
_JSON_CHUNK = 8192


def json_text(doc) -> str:
    """``doc`` as compact JSON, without a trailing newline."""
    return json.dumps(doc, separators=(",", ":"))


def json_chunks(doc) -> Iterator[str]:
    """The text of ``json_text(doc)``, in pieces, where ``doc`` may hold
    1-D integer arrays as values of its objects (or be one): each is
    written as its list a fixed chunk of entries at a time, so neither the
    list nor its text is ever held whole."""
    if isinstance(doc, np.ndarray):
        yield "["
        for lo in range(0, len(doc), _JSON_CHUNK):
            yield ("," if lo else "") + ",".join(map(str, doc[lo : lo + _JSON_CHUNK].tolist()))
        yield "]"
    elif isinstance(doc, dict):
        for i, (key, value) in enumerate(doc.items()):
            yield ("," if i else "{") + json_text(key) + ":"
            yield from json_chunks(value)
        yield "}" if doc else "{}"
    else:
        yield json_text(doc)


def csv_lines(header: Sequence[str] | None, rows: Iterable[Iterable]) -> Iterator[str]:
    """An optional header line of names, then one line per row, each with
    its newline, so a writer can stream a large matrix without its text."""
    if header is not None:
        yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def csv_text(header: Sequence[str] | None, rows: Iterable[Iterable]) -> str:
    return "".join(csv_lines(header, rows))


def read_json(text: str, where: str):
    """The JSON document ``text``.  Malformed text, or nesting too deep to
    parse, raises ValueError naming ``where``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"{where}: {exc}") from None


REQUIRED = object()  # the default of a field a document must hold
_KIND_NAMES = {
    int: "an integer", float: "a number", bool: "true or false", str: "a string", list: "a list",
}  # fmt: skip


class Field(NamedTuple):
    """A named value of a document.  ``kind`` is int, float, bool, str,
    list or a tuple of allowed strings; a None default allows null."""

    name: str
    kind: object
    default: object = REQUIRED


def read_value(field, value, where: str = ""):
    """``value`` as ``field.kind`` (``field`` has the attributes of a
    ``Field``), never coerced: an integer through ``operator.index``, a
    number as an int or float in the float range, a bool only as
    true/false, a choice only as a listed string.  A bool is never a number.  A bad value raises
    ValueError naming ``where`` (file and segment, if any) and the field."""
    kind = field.kind
    if value is None and field.default is None:
        return None
    if isinstance(kind, tuple):
        ok = isinstance(value, str) and value in kind
    elif isinstance(value, bool) or kind is bool:
        ok = isinstance(value, bool) and kind is bool
    elif kind is int:
        try:
            return operator.index(value)
        except TypeError:
            ok = False
    elif kind is float:
        try:
            ok = isinstance(value, (int, float))
            value = float(value) if ok else value
        except OverflowError:  # an integer past the float range
            ok = False
    else:
        ok = isinstance(value, kind)
    if ok:
        return value
    want = f"one of {', '.join(kind)}" if isinstance(kind, tuple) else _KIND_NAMES[kind]
    prefix = f"{where}: " if where else ""
    raise ValueError(f"{prefix}{field.name} must be {want}, got {value!r}")


def read_object(doc, fields: Sequence[Field], where: str) -> tuple:
    """The values of ``fields`` in the JSON object ``doc``, each read by
    ``read_value`` or, when absent, its default.  A non-object, a missing
    required field or an unknown key raises ValueError naming it."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    values = []
    for field in fields:
        if field.name in doc:
            values.append(read_value(field, doc[field.name], where))
        elif field.default is REQUIRED:
            raise ValueError(f"{where}: {field.name} is missing")
        else:
            values.append(field.default)
    unknown = sorted(set(doc) - {field.name for field in fields})
    if unknown:
        raise ValueError(f"{where}: unknown keys: {', '.join(unknown)}")
    return tuple(values)
