"""The byte format of every output: compact JSON and plain-text CSV.

Identical inputs must give identical bytes, so this is the one place the
format lives.  JSON has no spaces after separators.  A CSV line holds the
``str`` of each cell: a name as it is, or a Python int or float
(``tolist()`` of a numpy row gives these), whose ``str`` is its ``repr``,
so floats round-trip exactly; lines end in ``\\n``.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence


def json_text(doc) -> str:
    """``doc`` as compact JSON, without a trailing newline."""
    return json.dumps(doc, separators=(",", ":"))


def csv_text(header: Sequence[str] | None, rows: Iterable[Iterable]) -> str:
    """An optional header line of names, then one line per row.

    Built in one join: the text of a large matrix is several MB, and a
    second concatenation would hold two copies of it at once.
    """
    lines = [] if header is None else [",".join(header)]
    lines.extend(",".join(map(str, row)) for row in rows)
    lines.append("")
    return "\n".join(lines)
