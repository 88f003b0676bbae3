"""The text layout of every CSV file, without numpy.

A sobolev-lab CSV file is a single JSON header line followed by plain CSV
rows, so files stay greppable and diff-friendly while carrying their own
metadata.  Floats are written with repr, which round-trips exactly and
keeps reruns byte-identical.  `formats` re-exports these names and adds
the array-side writers and readers.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence

__all__ = ["FORMAT_VERSION", "canonical_json", "csv_text", "write_csv"]

FORMAT_VERSION = 2


def canonical_json(obj: object) -> str:
    """Deterministic single-line JSON: sorted keys, minimal separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def _field(text: str) -> str:
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(kind: str, fields: Mapping[str, object], config: Mapping[str, object] | None,
             columns: Sequence[str] | None, rows: Iterable[Iterable[object]]) -> str:
    """A sobolev-lab/<kind> file: the JSON header line (fields, plus config
    when given), the column row (omitted when columns is None), then one
    line per row: numbers as repr(float(v)), strings as they are unless
    they hold a comma, a double quote or a line break, which are quoted
    as RFC 4180 asks (inner quotes doubled)."""
    head = {"format": f"sobolev-lab/{kind}", "version": FORMAT_VERSION, **fields}
    if config is not None:
        head["config"] = dict(config)
    lines = [canonical_json(head)]
    if columns is not None:
        lines.append(",".join(columns))
    lines += [",".join(_field(v) if isinstance(v, str) else repr(float(v)) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def write_csv(path: str, *args) -> None:
    """Write csv_text(*args), the same arguments in the same order, to path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(csv_text(*args))
