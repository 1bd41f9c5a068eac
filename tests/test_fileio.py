"""Space and star file parsing, serialization round trips.

The property test of the JSON writer needs ``hypothesis`` (the ``test``
extra); without it that one test is left out.
"""

import csv
import io
import json
import random
import re
import sys
from fractions import Fraction

import pytest

from starmetric import (
    GeneratorSpec,
    InvalidSpaceError,
    LabeledStarGraph,
    S4,
    X4,
    diagnose,
    lab,
    run_campaign,
    star_from_center,
    validate,
    weakly_similar,
)
from starmetric import fileio
from starmetric.fileio import (
    ParseError,
    _csv_rows,
    _indented_json,
    parse_space_file,
    parse_space_text,
    parse_star_file,
    space_to_json_text,
    star_to_json_text,
)
from helpers import scale

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    st = None


class TestSpaceFiles:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "s4.json"
        path.write_text(space_to_json_text(S4))
        assert parse_space_file(path) == S4

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "x4.csv"
        lines = [",".join(X4.points)]
        for row in X4.dist:
            lines.append(",".join(str(x) for x in row))
        path.write_text("\n".join(lines) + "\n")
        assert parse_space_file(path) == X4

    def test_decimal_entries_parse_exactly(self):
        space = parse_space_text("a,b\n0,0.5\n0.5,0\n", kind="csv")
        assert space.d("a", "b") == Fraction(1, 2)

    def test_number_grammar_keeps_every_exact_form(self):
        from starmetric.rationals import MAX_EXPONENT, parse_rational

        for text, value in (
            ("3", 3), ("+4", 4), ("-1/2", Fraction(-1, 2)), (".5", Fraction(1, 2)),
            ("5.", 5), ("2.5E-3", Fraction(1, 400)), (" 7 ", 7),
            (f"1e{MAX_EXPONENT}", 10**MAX_EXPONENT),
        ):
            assert parse_rational(text) == value
        for text in (f"1e{MAX_EXPONENT + 1}", "1" * 1001, "1/0", "1/2e3", "0x10", ""):
            with pytest.raises(ValueError):
                parse_rational(text)

    def test_asymmetric_csv_names_the_cell_pair(self):
        with pytest.raises(InvalidSpaceError) as err:
            parse_space_text("a,b\n0,1\n2,0\n", kind="csv")
        assert err.value.kind == "asymmetry"
        assert "a" in str(err.value) and "b" in str(err.value)

    @pytest.mark.parametrize(
        "dist, message",
        [
            ("[[0, 1], [true, 0]]", "not an exact rational: True"),
            ("[[0, 1], [1.0, 0]]", "refusing float 1.0: "),
            ('[["0", "1"], [true, "0"]]', "not an exact rational: True"),
            ('[[0, ["1"]], [["1"], 0]]', "not an exact rational: ['1']"),
        ],
        ids=["bool-beside-int", "float-beside-int", "bool-beside-text", "list-cell"],
    )
    def test_cells_are_parsed_on_their_own_unless_text(self, dist, message):
        with pytest.raises(ValueError) as err:
            parse_space_text(f'{{"points": ["a", "b"], "dist": {dist}}}', kind="json")
        assert str(err.value).startswith(message)

    def test_json_parse_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_space_text('{"points": [,]}', kind="json")
        assert "line 1" in str(err.value)

    def test_sniffing_without_extension(self, tmp_path):
        path = tmp_path / "space"
        path.write_text(space_to_json_text(S4))
        assert parse_space_file(path) == S4
        path.write_text("a,b\n0,3\n3,0\n")
        assert parse_space_file(path).d("a", "b") == 3

    def test_missing_file(self):
        with pytest.raises(ParseError):
            parse_space_file("/nonexistent/space.json")

    def test_missing_keys(self):
        with pytest.raises(InvalidSpaceError):
            parse_space_text('{"points": ["a"]}', kind="json")


class TestStarFiles:
    def test_round_trip(self, tmp_path):
        star = star_from_center(S4, "s1")
        path = tmp_path / "star.json"
        path.write_text(star_to_json_text(star))
        loaded = parse_star_file(path)
        assert loaded.center == star.center
        assert loaded.center_label == star.center_label
        assert loaded.leaves == star.leaves
        assert loaded.leaf_labels == star.leaf_labels

    def test_default_center_label_is_zero(self, tmp_path):
        path = tmp_path / "star.json"
        path.write_text('{"center": "c", "leaves": {"a": "1"}}')
        assert parse_star_file(path).center_label == 0

    def test_rejects_degenerate_star_files(self, tmp_path):
        path = tmp_path / "star.json"
        path.write_text('{"center": "c", "center_label": "0", "leaves": {"a": "0"}}')
        with pytest.raises(ValueError):
            parse_star_file(path)

    @pytest.mark.parametrize(
        "text",
        [
            '{"center": "c", "leaves": ["a", "b"]}',
            '{"center": "c", "leaves": "ab"}',
            '{"center": 5, "leaves": {"a": "1"}}',
            '{"center": "", "leaves": {"a": "1"}}',
        ],
        ids=["leaves-array", "leaves-string", "center-int", "center-empty"],
    )
    def test_schema_slips_are_value_errors(self, tmp_path, text):
        path = tmp_path / "star.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="star JSON"):
            parse_star_file(path)

    def test_leaf_order_is_preserved(self):
        star = LabeledStarGraph.from_dict(
            {"center": "c", "center_label": "1/2", "leaves": {"b": "1", "a": "2"}}
        )
        assert star.leaves == ("b", "a")
        assert star_to_json_text(star).index('"b"') < star_to_json_text(star).index('"a"')


@pytest.mark.parametrize("parse", [parse_space_file, parse_star_file])
def test_json_nested_past_the_recursion_limit_is_a_parse_error(tmp_path, parse):
    path = tmp_path / "deep.json"
    path.write_text('{"a": ' * 100_000)
    with pytest.raises(ParseError, match="^invalid JSON: nested too deeply to decode$"):
        parse(path)


def test_csv_errors_are_parse_errors_naming_the_line():
    text = "a,b\n0,1\n1," + "2" * 140_000 + "\n"
    with pytest.raises(ParseError, match=r"^invalid CSV at line 3: field larger than field limit"):
        parse_space_text(text, kind="csv")


@pytest.mark.parametrize("parse", [parse_space_file, parse_star_file])
def test_files_are_utf8_and_other_bytes_are_a_parse_error(tmp_path, parse):
    good, bad = tmp_path / "good.json", tmp_path / "latin1.json"
    text = '{"center": "é", "leaves": {"b": "1"}, "points": ["é"], "dist": [["0"]]}'
    good.write_bytes(text.encode("utf-8"))
    bad.write_bytes(text.encode("latin-1"))
    loaded = parse(good)
    assert (loaded.center if parse is parse_star_file else loaded.points[0]) == "é"
    with pytest.raises(ParseError, match=re.escape(f"cannot read {bad}: not UTF-8 text")):
        parse(bad)
    # the offset counts from the start of the file, byte-order mark included
    marked = tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("latin-1"))
    offset = 3 + text.encode("latin-1").index(b"\xe9")
    with pytest.raises(ParseError, match=re.escape(f"not UTF-8 text (byte {offset})")):
        parse(marked)


@pytest.mark.parametrize(
    "name, text",
    [
        ("space.csv", "s1,s2\n0,3\n3,0\n"),
        ("space.json", space_to_json_text(S4)),
        ("space", space_to_json_text(S4)),
        ("star.json", star_to_json_text(star_from_center(S4, "s1"))),
    ],
    ids=["csv", "json", "sniffed-json", "star"],
)
def test_a_byte_order_mark_is_skipped(tmp_path, name, text):
    # spreadsheet programs start "CSV UTF-8" files with one
    parse = parse_star_file if name.startswith("star") else parse_space_file
    plain, marked = tmp_path / name, tmp_path / "bom" / name
    marked.parent.mkdir()
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    expected, loaded = parse(plain), parse(marked)
    if parse is parse_star_file:
        expected, loaded = expected.to_dict(), loaded.to_dict()
    assert loaded == expected


def csv_module_rows(text, reader=csv.reader):
    """The stripped non-blank rows that ``csv.reader`` gives, or the
    message of the ParseError that the csv route raises."""
    rows = reader(io.StringIO(text))
    try:
        kept = [row for row in rows if row and any(cell.strip() for cell in row)]
    except csv.Error as exc:
        return f"invalid CSV at line {rows.line_num}: {exc}"
    return [list(map(str.strip, row)) for row in kept]


def random_csv_text(rng: random.Random) -> str:
    # half the texts avoid the characters that send a text to the csv
    # module, so both routes are taken often
    alphabet = ',\t a1' if rng.random() < 0.5 else ',"\r\t a1\0'
    lines = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.random()
        if kind < 0.15:
            line = ""
        elif kind < 0.3:
            line = "".join(rng.choice(" \t,") for _ in range(rng.randint(1, 4)))
        else:
            line = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            line += "," * (rng.random() < 0.2)
        lines.append(line)
    return "\n".join(lines) + "\n" * (rng.random() < 0.7)


# blank and whitespace-only lines, trailing commas, no final newline, and
# lines at and over the lowered field limit
FIXED_CSV_TEXTS = ("a,b\n\n \t \n,,\n0,1,\n1,0,\n", " a , b \n0,1\n1,0", "a\n12345678\n", "a\n123456789\n")


def test_the_split_route_reads_what_the_csv_module_reads(monkeypatch):
    # the route is chosen from the text alone: texts with a quote, a
    # carriage return, a NUL or an overlong line go to the csv module, whose
    # rows, or whose error and line number, every text must match
    reader, routed = csv.reader, []
    monkeypatch.setattr(fileio.csv, "reader", lambda *args: routed.append(1) or reader(*args))
    rng = random.Random(2100)
    limit = csv.field_size_limit()
    cases = [(text, 8) for text in FIXED_CSV_TEXTS]
    cases += [(random_csv_text(rng), 8 if i % 4 == 0 else limit) for i in range(3000)]
    try:
        for text, field_limit in cases:
            csv.field_size_limit(field_limit)
            try:
                got = _csv_rows(text)
            except ParseError as exc:
                got = str(exc)
            assert got == csv_module_rows(text, reader), text
    finally:
        csv.field_size_limit(limit)
    assert 900 < len(routed) < 2100, len(routed)


def strip_route_rows(text: str) -> list:
    """The split route's rows with every cell stripped."""
    rows = (list(map(str.strip, line.split(","))) for line in text.split("\n"))
    return [cells for cells in rows if any(cells)]


def test_the_split_route_strips_cells_only_when_one_needs_it():
    # every character str.strip removes but the line breaks, which send a
    # text to the csv module or end its lines: alone in a cell, inside or
    # around one, and as a whole row; and texts with none of them, blank
    # rows included, which skip the strip
    stripped = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in "\r\n"]
    assert set(" \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000") <= set(stripped)
    for c in stripped + [""]:
        texts = (f"a,b\n0,1{c}\n{c}1,0\n", f"a,{c}b\n{c},{c}\n,,\n0,1\n1,0", f"{c}\n\na{c}b,c\n", f"{c}")
        for text in texts:
            assert _csv_rows(text) == strip_route_rows(text), repr(text)


def cli_documents(monkeypatch) -> dict:
    """One of each document the command line writes."""
    tri = parse_space_text("a,b,c\n0,1,2\n1,0,1\n2,1,0\n", kind="csv")
    star = star_from_center(S4, "s1")
    forbidden = diagnose(X4)
    monkeypatch.setattr(lab, "evaluate_conjecture", lambda which, space: "flagged \"by\" a\ttest")
    campaign = run_campaign(GeneratorSpec(n=4, alphabet=("1", "3/2"), mode="sample", seed=5, count=8), "k13")
    return {
        "us-star": {"verdict": "US", "center": "s1", "star": star.to_dict()},
        "forbidden": {"verdict": forbidden.verdict.value, **forbidden.forbidden.to_dict()},
        "validate": validate(tri).to_dict(),
        "weaksim": weakly_similar(S4, scale(S4, 2)).to_dict(),
        "campaign": campaign.to_dict(),
        "space": S4.to_dict(),
    }


def test_the_writer_equals_json_dumps_on_every_cli_document(monkeypatch):
    documents = cli_documents(monkeypatch)
    assert documents["campaign"]["counterexample"] is not None
    for name, document in documents.items():
        assert _indented_json(document) == json.dumps(document, indent=2), name
    assert star_to_json_text(star_from_center(S4, "s1")) == json.dumps(documents["us-star"]["star"], indent=2) + "\n"
    assert space_to_json_text(S4) == json.dumps(documents["space"], indent=2) + "\n"


def test_the_writer_refuses_types_no_document_holds():
    for value in (1.5, {1, 2}, Fraction(1, 2), [b"x"]):
        with pytest.raises(TypeError):
            _indented_json(value)


if st is not None:
    # text with the characters JSON escapes, non-ASCII and astral ones
    JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\r\t\b\f\0\x1f\x7fé€\ud800\U0001f600'), st.characters()))
    JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.integers() | st.sampled_from((2**64, -(10**40))) | JSON_TEXT,
        lambda children: (
            st.lists(children, max_size=5)
            | st.lists(children, max_size=5).map(tuple)
            | st.dictionaries(JSON_TEXT, children, max_size=5)
        ),
        max_leaves=40,
    )

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(JSON_VALUES)
    def test_the_writer_equals_json_dumps(value):
        assert _indented_json(value) == json.dumps(value, indent=2)
