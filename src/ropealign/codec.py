"""The byte format of every output, and the one typed read of every input.

Identical inputs must give identical bytes, so this is the one place the
format lives.  JSON has no spaces after separators.  A CSV line holds the
``str`` of each cell: a name as it is, or a Python int or float
(``tolist()`` of a numpy row gives these), whose ``str`` is its ``repr``,
so floats round-trip exactly; lines end in ``\\n``.  Integer arrays (the ID
lists of ``ids.json``, the ``map.csv`` grid, ``--dense`` distances) are
written by one numpy kernel, ``int_lines``, which gives the same bytes as
``str`` of each entry without a Python object per entry, a fixed chunk of
entries at a time.  Every plan or config file is parsed by ``read_json``
from its bytes, as strict UTF-8, and a key given twice is refused; every
value read from one, from a flag or by a library call goes through
``read_value``: a dataclass's fields through ``read_fields``, an array
through ``read_array`` (float64, or int64 under the rule for one
integer), an integer with its range (``IntRange``).  ``read_value`` is the one check of an array entry (a
bool or a string is never a number): ``read_array`` reads a numeric
array at its two extremes, anything else entry by entry, and only checks
and converts, so a reader uses the caller's array as given.
``hold_array`` is the one rule of who may change an array a value holds:
no one.  It holds it read-only, copied unless built in the read or given
read-only and owning its memory.  ``allocating`` is the one rule of an
array too large for its inputs: a ValueError naming every size it is
built from.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import sys
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Array entries rendered per piece by ``int_chunks`` (a piece of an
# ``ids.json`` list, rows of ``map.csv``): fixed, so a writer's memory does
# not grow with the array.
_JSON_CHUNK = 8192
_JSON = json.JSONEncoder(separators=(",", ":"))  # shared by every ``json_text``: it keeps no state

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
    entries: blocks of whole rows, each cut into column pieces, so a row
    longer than a piece is a block alone, and each of its pieces but the
    last ends in the ``,`` before the next entry."""
    rows, cols = values.shape
    step = max(_JSON_CHUNK // max(cols, 1), 1)
    for lo in range(0, rows, step):
        for left in range(0, max(cols, 1), _JSON_CHUNK):
            text = int_lines(values[lo : lo + step, left : left + _JSON_CHUNK])
            yield text if left + _JSON_CHUNK >= cols else text[:-1] + ","


@contextmanager
def allocating(what: str, entries: int = 0):
    """A block that builds arrays of ``entries`` 8-byte entries, sized by
    the inputs ``what`` names: inputs too large for them are
    ``ValueError(f"{what} cannot be allocated")``, raised before the block
    runs when the entries exceed what the address space holds, or for a
    MemoryError in the block, one re-raised there from a worker thread
    included.  An inner block's ValueError passes through unchanged."""
    error = ValueError(f"{what} cannot be allocated")
    if entries > sys.maxsize // 8:
        raise error
    try:
        yield
    except MemoryError:
        raise error from None


def json_text(doc) -> str:
    """``doc`` as compact JSON, without a trailing newline: ``json.dumps``
    compact, from one shared encoder where ``dumps`` builds one a call."""
    return _JSON.encode(doc)


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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object from its pairs; a key given twice is refused by name,
    never resolved to its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate key: {key}")
        doc[key] = value
    return doc


def read_json(text: str | bytes, where: str):
    """The JSON document ``text``, read as strict UTF-8 when bytes (a file's
    contents), whatever the locale.  Bytes that are not UTF-8, malformed
    text, nesting too deep to parse, or an object with a key given twice
    raise ValueError naming ``where``."""
    try:
        text = text.decode("utf-8") if isinstance(text, bytes) else text
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"{where}: {exc}") from None


REQUIRED = object()  # the default of a field a document must hold
_KIND_NAMES = {
    int: "an integer", float: "a number", bool: "true or false", str: "a string", list: "a list",
    Iterable: "a sequence",
}  # fmt: skip


@dataclass(frozen=True)
class IntRange:
    """The kind of an integer from ``least`` to ``most`` (no upper bound
    when None).  Not a tuple: a tuple kind is a list of choices."""

    least: int
    most: int | None = None


class Field(NamedTuple):
    """A named value of a document.  ``kind`` is int, an ``IntRange``,
    float, bool, str, list, a class whose instances are accepted as they
    are, or a tuple of allowed strings; a None default allows null."""

    name: str
    kind: object
    default: object = REQUIRED


def read_value(field, value, where: str = ""):
    """``value`` as ``field.kind`` (``field`` has the attributes of a
    ``Field``), never coerced: an integer through ``operator.index``, then
    checked against its ``IntRange`` if it has one, a number as any finite
    real, a numpy scalar or 0-d array included, stored as a float (JSON's
    1e400 is inf, past the float range), a bool only as true/false (never
    a number), a choice only as a listed string.  A bad value raises
    ValueError naming ``where`` (file and segment, if any) and the field,
    and showing the value (an integer too long for ``repr`` by its bits)."""
    kind = field.kind
    if value is None and field.default is None:
        return None
    if isinstance(kind, tuple):
        ok = isinstance(value, str) and value in kind
    elif isinstance(value, bool) or kind is bool:
        ok = isinstance(value, bool) and kind is bool
    elif kind is int or isinstance(kind, IntRange):
        try:
            value = operator.index(value)
        except TypeError:
            ok = False
        else:
            ok = kind is int or kind.least <= value and (kind.most is None or value <= kind.most)
    elif kind is float:
        try:
            ok = isinstance(value, numbers.Real) and math.isfinite(value)
        except OverflowError:  # an integer past the float range
            ok = False
        if not ok and isinstance(value, np.ndarray) and value.shape == () and value.dtype.kind in "iuf":
            ok = math.isfinite(value)  # a 0-d real array is its one entry, as the integer rule reads one
        value = float(value) if ok else value
    else:
        ok = isinstance(value, kind)
    if ok:
        return value
    try:
        shown = repr(value)
    except ValueError:  # an integer past Python's limit on the digits it converts
        shown = f"an integer of {value.bit_length()} bits"
    prefix = f"{where}: " if where else ""
    raise ValueError(f"{prefix}{field.name} must be {_want(kind)}, got {shown}")


def _want(kind) -> str:
    if isinstance(kind, tuple):
        return f"one of {', '.join(kind)}"
    if isinstance(kind, IntRange):
        bounds = f"of at least {kind.least}" if kind.most is None else f"from {kind.least} to {kind.most}"
        return f"an integer {bounds}"
    return _KIND_NAMES.get(kind) or f"a {kind.__name__}"


def read_fields(obj, **kinds) -> None:
    """Store each named field of the frozen dataclass ``obj`` as read by
    ``read_value`` with its kind: an int through ``operator.index`` (a
    numpy integer becomes a Python int; a bool, 2.5 or an integer outside
    its ``IntRange`` is a ValueError naming the field), a bool only as a
    bool."""
    for name, kind in kinds.items():
        object.__setattr__(obj, name, read_value(Field(name, kind), getattr(obj, name)))


def read_array(value, name: str, shape: tuple | None, kind=float) -> np.ndarray:
    """``value`` as an array of ``shape`` (None: any length on that axis,
    or any shape): float64 or, with ``kind`` an ``IntRange`` within int64,
    int64.  ``read_value`` is the one check of an entry: an integer array
    (a float one too, for float64) is read at its two extremes, its min
    and max, where a NaN carries through both, and anything else entry by
    entry, naming the first refused one, the array built from the values
    read.  Nothing is copied, no flag set.  Anything else is a ValueError
    naming ``name``."""
    ints = isinstance(kind, IntRange)
    field = Field(name, kind)
    dtype = np.int64 if ints else np.float64
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf"[: 3 - ints]:
        for extreme in (value.min(), value.max()) if value.size else ():
            read_value(field, extreme.item())
        arr = value.astype(dtype, copy=False)
    else:
        if isinstance(value, np.ndarray) and value.dtype != object and value.size:  # a bool, string or date array
            raise ValueError(f"{name} must be {_want(kind)}, got {value.flat[0].item()!r}")
        try:
            entries = np.asarray(value, object)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name} must be an array of numbers: {exc}") from None
        values = (read_value(field, entry) for entry in entries.flat)
        arr = np.fromiter(values, dtype, entries.size).reshape(entries.shape)
    fits = shape is None or arr.ndim == len(shape) and all(want in (n, None) for n, want in zip(arr.shape, shape))
    if not fits:
        want = ", ".join("any" if n is None else str(n) for n in shape) + ("," if len(shape) == 1 else "")
        raise ValueError(f"{name} must have shape ({want}), got {arr.shape}")
    return arr


def hold_array(value, name: str, shape: tuple | None, kind=float) -> np.ndarray:
    """``read_array``'s array as a value holds it, read-only: a copy unless
    the read built it or ``value`` is a read-only array owning its memory."""
    arr = read_array(value, name, shape, kind)
    if arr is value and arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


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
