"""End-to-end CLI behavior: reports, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys

import pytest

from starmetric import S4, X4, Y4, LabeledStarGraph, LabeledTree, cli, restrict, star_metric, stars
from starmetric.fileio import space_to_json_text
from helpers import random_star, scale


def run_cli(*argv, check=False):
    return subprocess.run(
        [sys.executable, "-m", "starmetric", *argv],
        capture_output=True,
        text=True,
        check=check,
    )


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, space in (("S4", S4), ("X4", X4), ("Y4", Y4), ("S4x2", scale(S4, 2))):
        path = tmp_path / f"{name}.json"
        path.write_text(space_to_json_text(space))
        paths[name] = str(path)
    bad = tmp_path / "asym.csv"
    bad.write_text("a,b\n0,1\n2,0\n")
    paths["asym"] = str(bad)
    return paths


class TestValidate:
    def test_ultrametric_space(self, files):
        result = run_cli("validate", files["S4"])
        assert result.returncode == 0
        assert json.loads(result.stdout)["is_ultrametric"] is True

    def test_structural_error_is_usage_error(self, files):
        result = run_cli("validate", files["asym"])
        assert result.returncode == 2
        assert "error:" in result.stderr

    def test_non_ultrametric_is_exit_one(self, tmp_path):
        path = tmp_path / "tri.csv"
        path.write_text("a,b,c\n0,1,2\n1,0,1\n2,1,0\n")
        result = run_cli("validate", str(path))
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["is_metric"] is True and report["is_ultrametric"] is False

    def test_points_must_be_a_json_array(self, tmp_path):
        path = tmp_path / "string_points.json"
        path.write_text('{"points": "ab", "dist": [["0", "1"], ["1", "0"]]}')
        result = run_cli("validate", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error:")


class TestHostileNumbers:
    # the number grammar is ASCII only, without underscores, and bounds
    # exponents, so none of these reaches Fraction
    @pytest.mark.parametrize(
        "entry, message",
        [
            ("1_0", "not an exact rational: '1_0'"),
            ("\u0661", "not an exact rational: '\u0661'"),
            ("1e500000", "exponent 500000 exceeds the limit"),
        ],
        ids=["underscore", "arabic-indic-digit", "huge-exponent"],
    )
    def test_rejected_with_usage_error(self, tmp_path, entry, message):
        path = tmp_path / "hostile.csv"
        path.write_text(f"a,b\n0,{entry}\n{entry},0\n", encoding="utf-8")
        result = run_cli("validate", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert message in result.stderr


    # JSON cells that compare equal to a numeral (True == 1 == 1.0) or
    # cannot be hashed must each be parsed on their own and refused
    @pytest.mark.parametrize(
        "dist, message",
        [
            ("[[0, 1], [true, 0]]", "not an exact rational: True"),
            ("[[0, 1], [1.0, 0]]", "refusing float 1.0: "),
            ('[[0, ["1"]], [["1"], 0]]', "not an exact rational: ['1']"),
            ('[[0, {"1": 1}], [{"1": 1}, 0]]', "not an exact rational: {'1': 1}"),
        ],
        ids=["bool-beside-int", "float-beside-int", "list-cell", "dict-cell"],
    )
    def test_json_cells_equal_to_a_number_are_refused(self, tmp_path, dist, message):
        path = tmp_path / "hostile.json"
        path.write_text(f'{{"points": ["a", "b"], "dist": {dist}}}')
        result = run_cli("diagnose", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: {message}")
        assert "Traceback" not in result.stderr


class TestDiagnose:
    def test_star_space(self, files):
        result = run_cli("diagnose", files["S4"])
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["verdict"] == "US" and report["center"] == "s1"
        assert report["star"]["leaves"] == {"s2": "3", "s3": "1", "s4": "2"}

    def test_forbidden_space(self, files):
        result = run_cli("diagnose", files["X4"])
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["verdict"] == "FORBIDDEN"
        assert report["quad"] == ["x1", "x2", "x3", "x4"]
        assert report["model"] == "X4" and report["signature"] == [2, 2]

    def test_dot_flag_appends_graphviz(self, files):
        result = run_cli("diagnose", files["S4"], "--dot")
        assert result.returncode == 0
        assert "graph {" in result.stdout and '"s1" -- "s2";' in result.stdout


class TestStar:
    def test_auto_center(self, files):
        result = run_cli("star", files["S4"])
        assert result.returncode == 0
        assert json.loads(result.stdout)["center"] == "s1"

    def test_no_center_exists(self, files):
        result = run_cli("star", files["X4"])
        assert result.returncode == 1 and result.stdout == ""

    def test_named_center_that_fails_the_condition(self, files):
        result = run_cli("star", files["S4"], "--center", "s2")
        assert result.returncode == 1
        assert "not a star center" in result.stderr

    def test_unknown_center_is_usage_error(self, files):
        result = run_cli("star", files["S4"], "--center", "nope")
        assert result.returncode == 2
        assert result.stderr == "error: unknown point label 'nope'\n"


class TestScan:
    def test_clean_space_produces_empty_output(self, files):
        result = run_cli("scan", files["S4"])
        assert result.returncode == 0 and result.stdout == ""

    def test_forbidden_space(self, files):
        result = run_cli("scan", files["X4"])
        assert result.returncode == 1
        assert json.loads(result.stdout)["model"] == "X4"


class TestShift:
    def test_round_trip_through_files(self, files, tmp_path):
        shifted = run_cli("shift", files["S4"], "--delta", "1/2")
        assert shifted.returncode == 0
        mid = tmp_path / "mid.json"
        mid.write_text(shifted.stdout)
        back = run_cli("shift", str(mid), "--delta", "1/2", "--unshift")
        assert back.returncode == 0
        assert back.stdout == space_to_json_text(S4)

    def test_out_of_range_delta(self, files):
        result = run_cli("shift", files["S4"], "--delta", "1")
        assert result.returncode == 2


class TestWeaksim:
    def test_witness(self, files):
        result = run_cli("weaksim", files["S4"], files["S4x2"])
        assert result.returncode == 0
        witness = json.loads(result.stdout)
        assert witness["phi"] == {p: p for p in S4.points}
        assert witness["f"] == [["2", "1"], ["4", "2"], ["6", "3"]]

    def test_absence(self, files):
        result = run_cli("weaksim", files["X4"], files["Y4"])
        assert result.returncode == 1 and result.stdout == ""


class TestDplusAndGen:
    def test_dplus(self):
        result = run_cli("dplus", "1/2,1,2,3")
        assert result.returncode == 0
        space = json.loads(result.stdout)
        assert space["points"] == ["1/2", "1", "2", "3"]
        assert space["dist"][0][3] == "3"

    def test_dplus_rejects_duplicates(self):
        assert run_cli("dplus", "1,1").returncode == 2

    def test_gen_exhaustive_streams_every_space(self):
        result = run_cli("gen", "--n", "3", "--alphabet", "1,2")
        lines = result.stdout.splitlines()
        assert result.returncode == 0 and len(lines) == 5
        assert all(json.loads(line)["points"] == ["p1", "p2", "p3"] for line in lines)

    def test_gen_sample_respects_count_and_seed(self):
        result = run_cli(
            "gen", "--n", "4", "--alphabet", "1,2,3", "--mode", "sample",
            "--seed", "1", "--count", "3",
        )
        assert result.returncode == 0 and len(result.stdout.splitlines()) == 3

    def test_gen_cap_is_usage_error(self):
        assert run_cli("gen", "--n", "6", "--alphabet", "1").returncode == 2


class TestConjecture:
    def test_exhaustive_equidistant(self):
        result = run_cli(
            "conjecture", "--which", "equidistant", "--n", "4", "--alphabet", "1,2,3",
        )
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["status"] == "EXHAUSTED_HOLDS" and report["instances"] == 60
        assert "wall time" in result.stderr

    def test_sampled_k13(self):
        result = run_cli(
            "conjecture", "--which", "k13", "--n", "5", "--alphabet", "1,2,3",
            "--mode", "sample", "--seed", "3", "--count", "25",
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["status"] == "HOLDS_ON_SAMPLE"

    def test_jobs_below_one_is_usage_error(self):
        for jobs in ("0", "-1"):
            result = run_cli(
                "conjecture", "--which", "k13", "--n", "4", "--alphabet", "1,2",
                "--mode", "sample", "--count", "3", "--jobs", jobs,
            )
            assert result.returncode == 2, jobs
            assert result.stdout == ""
            assert result.stderr.startswith("error:")

    def test_exhaustive_guards_are_usage_errors(self):
        for alphabet, extra, message in (
            ("1,2", (), "exhaustive enumeration capped at n <= 5 and |alphabet| <= 4; "
                        "set override_caps to force"),
            (",", ("--override-caps",), "alphabet must be non-empty for n >= 2"),
        ):
            result = run_cli("conjecture", "--which", "k13", "--n", "6", "--alphabet", alphabet, *extra)
            assert result.returncode == 2, alphabet
            assert result.stdout == ""
            assert result.stderr == f"error: {message}\n"

    def test_negative_count_is_usage_error(self):
        for command in (("conjecture", "--which", "k13"), ("gen",)):
            result = run_cli(
                *command, "--n", "5", "--alphabet", "1,2", "--mode", "sample", "--count", "-3",
            )
            assert result.returncode == 2, command
            assert result.stdout == ""
            assert "count must be non-negative" in result.stderr


class TestContract:
    def test_unknown_command_is_usage_error(self):
        assert run_cli("frobnicate").returncode == 2

    def test_missing_file_is_usage_error(self):
        assert run_cli("diagnose", "/nonexistent.json").returncode == 2

    def test_files_are_read_as_utf8_whatever_the_locale(self, tmp_path):
        path = tmp_path / "accents.json"
        space = {"points": ["é", "b", "c"], "dist": [["0", "1", "2"], ["1", "0", "2"], ["2", "2", "0"]]}
        path.write_text(json.dumps(space, ensure_ascii=False), encoding="utf-8")
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
        env.pop("PYTHONIOENCODING", None)
        c_locale = subprocess.run(
            [sys.executable, "-m", "starmetric", "diagnose", str(path)],
            capture_output=True, text=True, env=env,
        )
        default = run_cli("diagnose", str(path))
        assert default.returncode == 0 and '"center": "\\u00e9"' in default.stdout
        assert (c_locale.stdout, c_locale.stderr, c_locale.returncode) == (
            default.stdout, default.stderr, default.returncode
        )

    def test_non_ascii_output_is_utf8_whatever_the_locale(self, tmp_path):
        # the JSON block escapes these names, the DOT block writes them as
        # they are; an ASCII stdout used to cut the output after the JSON
        path = tmp_path / "odd_names.json"
        star = LabeledStarGraph.build("é", 0, {"ß": 1, "c d": 2, "{": 3})
        path.write_text(space_to_json_text(star_metric(star)), encoding="utf-8")
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0")
        env.pop("PYTHONIOENCODING", None)
        for command in ("diagnose", "star"):
            argv = [sys.executable, "-m", "starmetric", command, "--dot", str(path)]
            c_locale = subprocess.run(argv, capture_output=True, env=env)
            default = subprocess.run(argv, capture_output=True)
            assert c_locale.returncode == default.returncode == 0, c_locale.stderr
            assert c_locale.stdout == default.stdout, command
            assert '"ß" [label="ß:1"];'.encode() in default.stdout

    def test_undecodable_file_is_usage_error_naming_the_file(self, tmp_path):
        path = tmp_path / "bom16.json"
        path.write_bytes(b"\xff\xfe")
        result = run_cli("diagnose", str(path))
        assert result.returncode == 2 and result.stdout == ""
        assert result.stderr.startswith(f"error: cannot read {path}: not UTF-8 text")
        assert "Traceback" not in result.stderr

    def test_deeply_nested_json_is_usage_error(self, tmp_path):
        # json.loads recurses once per level, so 200,000 levels overflow the stack
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        result = run_cli("diagnose", str(path))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: invalid JSON: nested too deeply to decode\n"

    def test_csv_cell_over_the_field_limit_is_usage_error(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("a,b\n0," + "1" * 140_000 + "\n1,0\n")
        result = run_cli("diagnose", str(path))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == (
            "error: invalid CSV at line 2: field larger than field limit (131072)\n"
        )

    def test_documented_commands_are_byte_deterministic(self, files):
        battery = [
            ("validate", files["S4"]),
            ("diagnose", files["S4"], "--dot"),
            ("diagnose", files["X4"]),
            ("star", files["S4"], "--dot"),
            ("scan", files["X4"]),
            ("shift", files["S4"], "--delta", "1/2"),
            ("weaksim", files["S4"], files["S4x2"]),
            ("dplus", "1/2,1,2,3"),
            ("gen", "--n", "3", "--alphabet", "1,2"),
            ("conjecture", "--which", "k112", "--n", "4", "--alphabet", "1,2"),
        ]
        for argv in battery:
            first = run_cli(*argv)
            second = run_cli(*argv)
            assert first.stdout == second.stdout, argv
            assert first.returncode == second.returncode, argv


class TestParserReuse:
    """``cli.main`` builds its parser once per process, so the options of one
    in-process call must not reach the next."""

    SAMPLE = ("conjecture", "--which", "k13", "--n", "5", "--alphabet", "1,2,3",
              "--mode", "sample", "--seed", "3", "--count", "25")

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_options_do_not_leak_into_the_next_parse(self):
        parser = cli.build_parser()
        assert parser.parse_args(["diagnose", "f", "--dot"]).dot is True
        assert parser.parse_args(["diagnose", "f"]).dot is False
        assert parser.parse_args([*self.SAMPLE, "--jobs", "2"]).jobs == 2
        assert parser.parse_args(list(self.SAMPLE)).jobs == 1

    def test_consecutive_calls_print_what_fresh_processes_print(self, files, capsys):
        for argv in (
            ("diagnose", files["S4"], "--dot"),
            ("diagnose", files["S4"]),
            (*self.SAMPLE, "--jobs", "2"),
            self.SAMPLE,
        ):
            code = cli.main(list(argv))
            out, _ = capsys.readouterr()
            fresh = run_cli(*argv)
            assert (out, code) == (fresh.stdout, fresh.returncode), argv

    def test_usage_errors_print_what_fresh_processes_print(self, files, capsys):
        for argv in (("diagnose",), ("conjecture", "--which", "k13"), ("frobnicate",)):
            with pytest.raises(SystemExit) as exit_:
                cli.main(list(argv))
            out, err = capsys.readouterr()
            fresh = run_cli(*argv)
            assert (out, err, exit_.value.code) == (fresh.stdout, fresh.stderr, fresh.returncode)


class TestStarRoute:
    """A US verdict's star is read off the center's row and drawn from its
    own edges: no label is parsed again and no tree is built."""

    def test_star_output_needs_no_rebuild(self, files, tmp_path, monkeypatch, capsys):
        # hubs placed last, and point names that DOT must escape
        star = LabeledStarGraph.build('h"1', 1, {"x\\": 2, "y\nz": 3, "w": "1/2"})
        paths = [files["S4"]]
        rng = random.Random(41)
        for k, space in enumerate((star_metric(star), star_metric(random_star(rng)))):
            path = tmp_path / f"star{k}.json"
            path.write_text(space_to_json_text(restrict(space, sorted(space.points, reverse=True))))
            paths.append(str(path))
        argvs = [(cmd, path, "--dot") for path in paths for cmd in ("diagnose", "star")]
        unpatched = []
        for argv in argvs:
            code = cli.main(list(argv))
            unpatched.append((code, *capsys.readouterr()))

        def refuse(*args, **kwargs):
            raise AssertionError("the star route rebuilt or re-parsed the star")

        monkeypatch.setattr(LabeledTree, "build", refuse)
        monkeypatch.setattr(LabeledStarGraph, "build", refuse)
        monkeypatch.setattr(stars, "parse_rational", refuse)
        for argv, expected in zip(argvs, unpatched):
            code = cli.main(list(argv))
            assert (code, *capsys.readouterr()) == expected, argv
            assert code == 0, argv
