"""Space and star file parsing, serialization round trips."""

import re
from fractions import Fraction

import pytest

from starmetric import InvalidSpaceError, LabeledStarGraph, S4, X4, star_from_center
from starmetric.fileio import (
    ParseError,
    parse_space_file,
    parse_space_text,
    parse_star_file,
    space_to_json_text,
    star_to_json_text,
)


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
