"""Reading and writing space and star files.

Space files come in two forms:

JSON::

    { "points": ["s1", "s2"], "dist": [["0", "3"], ["3", "0"]] }

CSV, a header row of labels followed by the matrix::

    s1,s2
    0,3
    3,0

Files are read as UTF-8 whatever the locale, past the byte-order mark that
spreadsheet programs write at the start of a "CSV UTF-8" file.  Entries are
integer strings ("3"), fraction strings ("1/2"), or exact decimal strings
("0.5").  Symmetry and the zero diagonal are validated on load; an
asymmetric entry is reported with the offending label pair.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .errors import StarmetricError
from .spaces import FiniteMetricSpace
from .stars import LabeledStarGraph


class ParseError(StarmetricError, ValueError):
    """Malformed input file, with position information where available."""


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply to decode") from exc


def _csv_rows(text: str) -> list:
    """The rows of a CSV text that hold a non-blank cell, each cell stripped.

    Without a double quote, carriage return or NUL (which 3.10's csv module
    refuses), and with no line longer than the csv module's field limit,
    ``csv.reader`` splits each line at its commas and at nothing else, so
    ``str.split`` gives its rows; every other text takes the csv module, its
    errors named by line.
    """
    lines = text.split("\n")
    if '"' in text or "\r" in text or "\0" in text or max(map(len, lines)) > csv.field_size_limit():
        reader = csv.reader(io.StringIO(text))
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise ParseError(f"invalid CSV at line {reader.line_num}: {exc}") from exc
    else:
        rows = [line.split(",") for line in lines]
        # str.strip removes only whitespace, and no whitespace but the space
        # is printable: a text with neither holds no cell to strip
        if " " not in text and text.replace("\n", "").isprintable():
            return [cells for cells in rows if any(cells)]
    return [cells for cells in (list(map(str.strip, row)) for row in rows) if any(cells)]


def space_from_csv_text(text: str) -> FiniteMetricSpace:
    rows = _csv_rows(text)
    if len(rows) < 2:
        raise ParseError("CSV needs a header row of labels plus the matrix rows")
    labels, *matrix = rows
    return FiniteMetricSpace(labels, matrix)


def parse_space_text(text: str, kind: str | None = None) -> FiniteMetricSpace:
    """Parse space data, sniffing JSON versus CSV when ``kind`` is None."""
    if kind is None:
        kind = "json" if text.lstrip().startswith("{") else "csv"
    if kind == "json":
        return FiniteMetricSpace.from_dict(_load_json(text))
    if kind == "csv":
        return space_from_csv_text(text)
    raise ParseError(f"unknown space format {kind!r}")


def _read_text(path: Path) -> str:
    # the mark is dropped after decoding, so a bad byte's offset counts it
    try:
        return path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from exc


def parse_space_file(path: str | Path) -> FiniteMetricSpace:
    """Load a space from a JSON or CSV file (chosen by extension, else sniffed)."""
    path = Path(path)
    kind = {".json": "json", ".csv": "csv"}.get(path.suffix.lower())
    return parse_space_text(_read_text(path), kind)


def _indented_json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for a value nested
    ``len(indent) // 2`` deep.  Before 3.13 the ``json`` module writes
    indented text with its pure-Python encoder, a few small chunks per value.

    Values are dicts with str keys, lists, tuples, str, int, bool and None,
    the types of every document the package writes.  Strings take the
    ``json`` module's C quoter and each container's items are joined in one
    call, so a distance row costs one comprehension.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    comma = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_quote(k)}: {_quote(v) if type(v) is str else _indented_json(v, inner)}"
                 for k, v in value.items()]
        return f"{{\n{inner}{comma.join(items)}\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_quote(v) if type(v) is str else _indented_json(v, inner) for v in value]
        return f"[\n{inner}{comma.join(items)}\n{indent}]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# from 3.13 on the json module writes indented text in C, faster still
_json_text = _indented_json if sys.version_info < (3, 13) else functools.partial(json.dumps, indent=2)


def space_to_json_text(space: FiniteMetricSpace) -> str:
    return _json_text(space.to_dict()) + "\n"


def parse_star_file(path: str | Path) -> LabeledStarGraph:
    return LabeledStarGraph.from_dict(_load_json(_read_text(Path(path))))


def star_to_json_text(star: LabeledStarGraph) -> str:
    return _json_text(star.to_dict()) + "\n"
