"""The one CSV table writer and the one JSON writer and reader of the
package's reports and artifacts.

CSV cells: strings as they are, ints (numpy ints and bools included) with
str, every other number with repr(float(v)), so numpy scalars print as
plain floats that any CSV reader parses.
"""
from __future__ import annotations

from dataclasses import fields
import json
import math
from pathlib import Path

import numpy as np

from .errors import UNDECODABLE

_STRICT = dict(sort_keys=True, indent=1, allow_nan=False)


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows) -> None:
    """Write a header line and one line per row of cells."""
    with Path(path).open("w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def write_json(path, doc) -> None:
    """Write `doc` with sorted keys and a one-space indent; NaN or infinity raises ValueError."""
    Path(path).write_text(json.dumps(doc, **_STRICT))


def read_json(path, error, what: str) -> dict:
    """The JSON object in the file at `path`, read as UTF-8, else `error` naming the file."""
    try:
        held = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, *UNDECODABLE) as exc:  # OSError: a directory, say
        raise error(f"{path}: unreadable {what} ({type(exc).__name__}: {exc})") from None
    if not isinstance(held, dict):
        raise error(f"{path}: the {what} must be a JSON object, got {shown(held)}")
    return held


def shown(value) -> str:
    """`value` as JSON for a message: its first 80 characters, then "..."."""
    text = json.dumps(value)
    return text if len(text) <= 80 else text[:80] + "..."


def _plain(value):
    if isinstance(value, Record):
        return value.as_dict()
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


class Record:
    """Base of the dataclass reports: fields to a dict and to strict JSON
    (arrays and tuples as lists, a nested Record as its dict, a non-finite
    number as None, so null). FORMAT names the JSON document's format."""

    FORMAT = None

    def as_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps({"format": self.FORMAT, **self.as_dict()}, **_STRICT)
