"""The byte format of every output, and the one typed read of every input.

Identical inputs must give identical bytes, so this is the one place the
format lives.  JSON has no spaces after separators.  A CSV line holds the
``str`` of each cell: a name as it is, or a Python int or float
(``tolist()`` of a numpy row gives these), whose ``str`` is its ``repr``,
so floats round-trip exactly; lines end in ``\\n``.  Integer arrays (the ID
lists of ``ids.json``, the ``map.csv`` grid, ``--dense`` distances) are
written by one numpy kernel, ``int_lines``, which gives the same bytes as
``str`` of each entry without a Python object per entry, a fixed chunk of
entries at a time.  Every plan or config file is parsed by ``read_json``,
and every value read from one or from a flag goes through ``read_value``.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

# Array entries rendered per piece by ``int_chunks`` (a piece of an
# ``ids.json`` list, rows of ``map.csv``): fixed, so a writer's memory does
# not grow with the array.
_JSON_CHUNK = 8192

# Row k: the four ASCII digits of k, zero-padded.  Built in uint8, with no
# wider temporary.  ``_DIGITS[k]`` is that row read as one uint32, and
# ``_SHOWN[k]`` marks, in the same four bytes, the digits of k after its
# leading zeros (none for 0).
_DIGIT_ROWS = np.ascontiguousarray((np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + 48).T)
_DIGITS = _DIGIT_ROWS.view(np.uint32).ravel()
_SHOWN = np.maximum.accumulate(_DIGIT_ROWS != ord("0"), axis=1).view(np.uint32).ravel()


def int_lines(values: np.ndarray) -> str:
    """``csv_text(None, values.tolist())`` of a 2-D integer array, of any
    integer dtype, computed in numpy: each magnitude is cut into base-10**4
    limbs whose digits come from a table, and one mask drops the leading
    zeros.  Anything but a 2-D integer array is a TypeError."""
    if not isinstance(values, np.ndarray) or values.ndim != 2 or values.dtype.kind not in "iu":
        kind = getattr(values, "dtype", type(values).__name__)
        raise TypeError(f"int_lines needs a 2-D integer array, got {kind} {np.shape(values)}")
    rows, cols = values.shape
    if not values.size:
        return "\n" * rows
    flat = values.ravel()
    neg = flat < 0
    mag = flat.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # modulo 2**64, so exact for the int64 minimum too
    limbs = -(-len(str(mag.max())) // 4)
    # Each entry is four bytes (the separator before it, two unused, its
    # sign) then four per limb, most significant first.
    text = np.empty((flat.size, limbs + 1), np.uint32)
    keep = np.zeros_like(text)
    rest = mag
    for j in range(limbs, 0, -1):  # least significant limb first; the top one has nothing above it
        rest, limb = np.divmod(rest, 10**4) if j > 1 else (0, rest)
        limb = limb.view(np.int64)  # below 10**4, and int64 indexes faster
        text[:, j] = _DIGITS[limb]
        keep[:, j] = np.where(rest > 0, np.uint32(0xFFFFFFFF), _SHOWN[limb])
    text, keep = text.view(np.uint8), keep.view(bool)
    text[:, 0] = ord(",")
    text.reshape(rows, cols, -1)[:, 0, 0] = ord("\n")  # a row's first entry follows a line end
    text[:, 3] = ord("-")
    keep[1:, 0] = True
    keep[:, 3] = neg
    keep[:, -1] = True  # the units digit, shown even for 0
    return text[keep].tobytes().decode("ascii") + "\n"


def int_chunks(values: np.ndarray) -> Iterator[str]:
    """The text of ``int_lines(values)`` in pieces of at most ``_JSON_CHUNK``
    entries: whole rows, or pieces of one row when it is longer."""
    rows, cols = values.shape
    if cols <= _JSON_CHUNK:
        step = _JSON_CHUNK // max(cols, 1)
        for lo in range(0, rows, step):
            yield int_lines(values[lo : lo + step])
        return
    for row in values:
        for lo in range(0, cols, _JSON_CHUNK):
            text = int_lines(row[None, lo : lo + _JSON_CHUNK])
            yield text if lo + _JSON_CHUNK >= cols else text[:-1] + ","


def json_text(doc) -> str:
    """``doc`` as compact JSON, without a trailing newline."""
    return json.dumps(doc, separators=(",", ":"))


def json_chunks(doc) -> Iterator[str]:
    """The text of ``json_text(doc)``, in pieces, where ``doc`` may hold
    1-D integer arrays as values of its objects (or be one): each is
    written by ``int_chunks`` as one row, so neither its list nor its text
    is ever held whole."""
    if isinstance(doc, np.ndarray):
        yield "["
        for piece in int_chunks(doc[None]):
            yield piece.removesuffix("\n")
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
    number as a finite int or float (JSON's 1e400 is inf, past the float
    range), a bool only as true/false, a choice only as a listed string.
    A bool is never a number.  A bad value raises ValueError naming
    ``where`` (file and segment, if any) and the field."""
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
            ok = isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an integer past the float range
            ok = False
        value = float(value) if ok else value
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
