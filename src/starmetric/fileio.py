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
import io
import json
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


def space_from_json_text(text: str) -> FiniteMetricSpace:
    return FiniteMetricSpace.from_dict(_load_json(text))


def space_from_csv_text(text: str) -> FiniteMetricSpace:
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    except csv.Error as exc:
        raise ParseError(f"invalid CSV at line {reader.line_num}: {exc}") from exc
    if len(rows) < 2:
        raise ParseError("CSV needs a header row of labels plus the matrix rows")
    labels, *matrix = [list(map(str.strip, row)) for row in rows]
    return FiniteMetricSpace(labels, matrix)


def parse_space_text(text: str, kind: str | None = None) -> FiniteMetricSpace:
    """Parse space data, sniffing JSON versus CSV when ``kind`` is None."""
    if kind is None:
        kind = "json" if text.lstrip().startswith("{") else "csv"
    if kind == "json":
        return space_from_json_text(text)
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


def space_to_json_text(space: FiniteMetricSpace) -> str:
    return json.dumps(space.to_dict(), indent=2) + "\n"


def parse_star_file(path: str | Path) -> LabeledStarGraph:
    return LabeledStarGraph.from_dict(_load_json(_read_text(Path(path))))


def star_to_json_text(star: LabeledStarGraph) -> str:
    return json.dumps(star.to_dict(), indent=2) + "\n"
