"""A golden corpus of CLI calls: the byte-identity contract as a test.

Each call runs in process through ``starmetric.cli.main`` on input files
that this script writes to a temporary directory from fixed seeds, without
importing the package.  ``golden_cli.txt`` beside it holds one line per
call: the call's id, the sha256 of its stdout bytes, the sha256 of its
stderr with the campaign wall time and the temporary directory masked, and
its exit code.  From the repository root::

    PYTHONPATH=src python tests/golden_cli.py --check    # compare with golden_cli.txt
    PYTHONPATH=src python tests/golden_cli.py --update   # rewrite golden_cli.txt

A change that alters output on purpose runs ``--update``, so its diff shows
the lines of the calls whose output changed.  The file must hold on every
supported CPython and under any ``PYTHONHASHSEED``, so ``--help``, the usage
lines of argparse's errors and its invalid-choice message are left out: their
layout is not fixed across CPython releases.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import random
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_cli.txt")
WALL_TIME = re.compile(rb"wall time: [0-9.]+s")

Matrix = list[list[Fraction]]


def star(rng: random.Random, n: int, hub_last: bool) -> Matrix:
    """The metric of a labelled star on ``n`` points (verdict US): the hub
    first or last, leaf labels from a small pool so that they tie."""
    pool = [Fraction(rng.randint(1, 30), rng.choice((1, 1, 2, 4))) for _ in range(max(3, n // 3))]
    hub = rng.choice((Fraction(0), rng.choice(pool)))
    labels = [hub] + [rng.choice(pool) for _ in range(n - 1)]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = max(labels[i], labels[j], hub if i else labels[j])
    order = list(range(1, n))
    rng.shuffle(order)
    return permute(rows, order + [0] if hub_last else [0] + order)


def ball_tree(rng: random.Random, block: list[int], levels: list[Fraction], rows: Matrix, halves: bool) -> None:
    """A random ultrametric on ``block``: split it at the top level into two
    halves, with ``halves``, or else into 2 to 4 random groups, then each
    group below it; a group with no level left is equidistant at half the
    lowest one."""
    if len(block) < 2:
        return
    rng.shuffle(block)
    if halves:
        cuts = [len(block) // 2]
    else:
        cuts = sorted(rng.sample(range(1, len(block)), rng.randint(2, min(4, len(block))) - 1))
    groups = [block[a:b] for a, b in zip([0, *cuts], [*cuts, len(block)])]
    for g, group in enumerate(groups):
        for other in groups[g + 1 :]:
            for i in group:
                for j in other:
                    rows[i][j] = rows[j][i] = levels[-1]
        if len(levels) > 1:
            ball_tree(rng, group, levels[:-1], rows, False)
        else:
            for i in group:
                for j in group:
                    if i != j:
                        rows[i][j] = levels[0] / 2


def ultrametric(rng: random.Random, n: int, forbidden: bool) -> Matrix:
    """A random ultrametric; with ``forbidden``, its top ball has two
    children of at least two points, so it holds a 4-cycle (verdict FORBIDDEN)."""
    levels = sorted({Fraction(rng.randint(1, 40), rng.choice((1, 2, 3))) for _ in range(5)})
    rows = [[Fraction(0)] * n for _ in range(n)]
    ball_tree(rng, list(range(n)), levels, rows, forbidden)
    return rows


def raised(rng: random.Random, rows: Matrix) -> Matrix:
    """``rows`` with one off-diagonal pair raised above every other distance,
    which breaks the strong triangle inequality (and, raised far, the plain one)."""
    rows = [list(row) for row in rows]
    i, j = rng.sample(range(len(rows)), 2)
    top = max(map(max, rows))
    rows[i][j] = rows[j][i] = top + rng.choice((Fraction(1, 3), top * 3))
    return rows


def random_matrix(rng: random.Random, n: int) -> Matrix:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(1, 9))
    return rows


def permute(rows: Matrix, order: list[int]) -> Matrix:
    return [[rows[i][j] for j in order] for i in order]


def spell(rng: random.Random, value: Fraction) -> str:
    """One exact spelling of ``value``: canonical, unreduced, decimal or exponent."""
    text = str(value)
    if value == 0:
        return rng.choice(("0", "0", "0.0", "0/3"))
    form = rng.randrange(6)
    if form == 1:
        return f"{2 * value.numerator}/{2 * value.denominator}"
    if form == 2 and 10**6 % value.denominator == 0:
        return f"{value.numerator * 10**6 // value.denominator / 10**6:.6f}".rstrip("0")
    if form == 3 and value.denominator == 1:
        return f"{value.numerator * 10}e-1"
    return text


def write_space(path: Path, points: list[str], rows: Matrix, rng: random.Random) -> None:
    cells = [[spell(rng, x) for x in row] for row in rows]
    if path.suffix == ".csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(points)
        writer.writerows(cells)
        path.write_text(out.getvalue(), encoding="utf-8")
    else:
        path.write_text(json.dumps({"points": points, "dist": cells}, ensure_ascii=False), encoding="utf-8")


# labels that DOT must escape, that are not ASCII, or that CSV must quote
ODD_LABELS = ['h"1', "x\\", "é", "ß", "c d", "{", "a,b", "y\nz"]


def write_inputs(root: Path) -> tuple[dict[str, Path], dict[str, tuple[list[str], Fraction]]]:
    """Every input file, by name, and each seeded space file's labels and
    smallest distance."""
    rng = random.Random(20261019)
    spaces: dict[str, tuple[list[str], Matrix]] = {}
    for k, (n, hub_last) in enumerate(((4, False), (7, True), (12, False), (30, True))):
        spaces[f"us{k}"] = [f"s{i + 1}" for i in range(n)], star(rng, n, hub_last)
    spaces["us_odd"] = ODD_LABELS, star(rng, len(ODD_LABELS), True)
    for k, n in enumerate((4, 6, 11, 24)):
        spaces[f"forbidden{k}"] = [f"p{i}" for i in rng.sample(range(100), n)], ultrametric(rng, n, True)
    for k, n in enumerate((5, 8, 9)):
        spaces[f"ultra{k}"] = [f"u{i}" for i in range(n)], ultrametric(rng, n, False)
    for k, name in enumerate(("us2", "forbidden2", "ultra1")):
        points, rows = spaces[name]
        spaces[f"raised{k}"] = points, raised(rng, rows)
    for k, n in enumerate((3, 6)):
        spaces[f"random{k}"] = [f"r{i}" for i in range(n)], random_matrix(rng, n)
    # weakly similar to us1 and forbidden1: other labels, order and values
    for name in ("us1", "forbidden1"):
        points, rows = spaces[name]
        order = rng.sample(range(len(points)), len(points))
        scaled = [[x * 2 + (x > 0) for x in row] for row in permute(rows, order)]
        spaces[f"{name}_similar"] = [f"w{i}" for i in order], scaled
    files, meta = {}, {}
    for name, (points, rows) in spaces.items():
        for suffix in (".json", ".csv"):
            path = root / f"{name}{suffix}"
            write_space(path, points, rows, rng)
            files[path.name] = path
            meta[path.name] = points, min(x for row in rows for x in row if x)
    text = {
        # the plain spellings of a four-point star, then with a byte-order
        # mark, as spreadsheet programs write "CSV UTF-8"
        "plain.csv": "s1,s2,s3,s4\n0,1,2,2\n1,0,2,2\n2,2,0,2\n2,2,2,0\n",
        "plain.json": '{"points": ["s1", "s2", "s3", "s4"], "dist": '
        '[["0", "1", "2", "2"], ["1", "0", "2", "2"], ["2", "2", "0", "2"], ["2", "2", "2", "0"]]}',
        "asym.csv": "a,b\n0,1\n2,0\n",
        "diag.csv": "a,b\n1,1\n1,0\n",
        "negative.csv": "a,b\n0,-1\n-1,0\n",
        "coincident.csv": "a,b,c\n0,0,1\n0,0,1\n1,1,0\n",
        "shape.csv": "a,b,c\n0,1\n1,0\n",
        "dup_labels.csv": "a,a\n0,1\n1,0\n",
        "empty_label.json": '{"points": ["a", ""], "dist": [["0", "1"], ["1", "0"]]}',
        "one_row.csv": "a,b\n",
        "empty.csv": "",
        "single.csv": "a\n0\n",
        "string_points.json": '{"points": "ab", "dist": [["0", "1"], ["1", "0"]]}',
        "no_dist.json": '{"points": ["a"]}',
        "bad_json.json": '{"points": ["a", "b"], "dist": [["0", "1"], ["1", "0"]',
        "list.json": '[["0", "1"], ["1", "0"]]',
        "deep.json": "[" * 200_000,
        "wide.csv": "a,b\n0," + "1" * 140_000 + "\n1,0\n",
        "long_numeral.csv": "a,b\n0," + "1" * 1001 + "\n" + "1" * 1001 + ",0\n",
        "zero_den.csv": "a,b\n0,1/0\n1/0,0\n",
        "underscore.csv": "a,b\n0,1_0\n1_0,0\n",
        "arabic_digit.csv": "a,b\n0,١\n١,0\n",
        "huge_exponent.csv": "a,b\n0,1e500000\n1e500000,0\n",
        "bool_cell.json": '{"points": ["a", "b"], "dist": [[0, 1], [true, 0]]}',
        "float_cell.json": '{"points": ["a", "b"], "dist": [[0, 1], [1.0, 0]]}',
        "list_cell.json": '{"points": ["a", "b"], "dist": [[0, ["1"]], [["1"], 0]]}',
        "dict_cell.json": '{"points": ["a", "b"], "dist": [[0, {"1": 1}], [{"1": 1}, 0]]}',
        "int_cells.json": '{"points": ["a", "b", "c"], "dist": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]}',
        "sniffed_json": '  {"points": ["a", "b"], "dist": [["0", "1/2"], ["1/2", "0"]]}',
        "sniffed_csv": "a,b\n0,1/2\n1/2,0\n",
    }
    for name, body in text.items():
        path = root / name
        path.write_text(body, encoding="utf-8")
        files[name] = path
    for name, plain in (("bom_plain.csv", "plain.csv"), ("bom_plain.json", "plain.json"), ("bom_sniffed", "plain.json")):
        path = root / name
        path.write_bytes(b"\xef\xbb\xbf" + files[plain].read_bytes())
        files[name] = path
    for name, data in (("utf16.json", b"\xff\xfe"), ("latin1.csv", b"a,\xe9\n0,1\n1,0\n"),
                       ("bom_latin1.csv", b"\xef\xbb\xbfa,\xe9\n0,1\n1,0\n")):
        path = root / name
        path.write_bytes(data)
        files[name] = path
    files["missing.json"] = root / "missing.json"
    files["directory"] = root
    return files, meta


def calls(files: dict[str, Path], meta: dict[str, tuple[list[str], Fraction]]) -> list[tuple[str, list[str]]]:
    """Every call of the corpus, as (id, argv)."""
    out = []

    def add(ident: str, *argv) -> None:
        out.append((ident, [str(files.get(a, a)) for a in argv]))

    for name, (points, floor) in meta.items():
        add(f"validate {name}", "validate", name)
        add(f"diagnose {name}", "diagnose", name)
        add(f"diagnose --dot {name}", "diagnose", "--dot", name)
        add(f"star {name}", "star", name)
        add(f"star --dot {name}", "star", "--dot", name)
        add(f"star --center {name}", "star", name, "--center", points[-1])
        add(f"scan {name}", "scan", name)
        add(f"shift {name}", "shift", name, "--delta", str(floor / 2))
        add(f"shift --unshift {name}", "shift", name, "--unshift", "--delta", "1/3")
    for name in ("plain.csv", "plain.json", "bom_plain.csv", "bom_plain.json", "bom_sniffed",
                 "sniffed_json", "sniffed_csv", "int_cells.json", "single.csv"):
        add(f"diagnose {name}", "diagnose", name)
        add(f"star --center s1 {name}", "star", name, "--center", "s1")
        add(f"validate {name}", "validate", name)
    for name in ("asym.csv", "diag.csv", "negative.csv", "coincident.csv", "shape.csv",
                 "dup_labels.csv", "empty_label.json", "one_row.csv", "empty.csv",
                 "string_points.json", "no_dist.json", "bad_json.json", "list.json", "deep.json",
                 "wide.csv", "long_numeral.csv", "zero_den.csv", "underscore.csv",
                 "arabic_digit.csv", "huge_exponent.csv", "bool_cell.json", "float_cell.json",
                 "list_cell.json", "dict_cell.json", "utf16.json", "latin1.csv", "bom_latin1.csv",
                 "missing.json", "directory"):
        add(f"diagnose {name}", "diagnose", name)
    add("star --center unknown", "star", "us0.json", "--center", "nowhere")
    add("star --center leaf", "star", "us1.json", "--center", "s3")
    for delta in ("0", "-1", "1/0", "x", "100", "0.25"):
        add(f"shift --delta {delta}", "shift", "us0.json", "--delta", delta)
        add(f"shift --unshift --delta {delta}", "shift", "us0.json", "--unshift", "--delta", delta)
    pairs = (
        ("us0.json", "us0.csv"), ("us0.json", "forbidden0.json"), ("forbidden0.json", "forbidden0.csv"),
        ("forbidden1.json", "ultra0.json"), ("us1.json", "us1.csv"), ("ultra0.json", "ultra0.csv"),
        ("plain.json", "us0.json"), ("raised0.json", "us0.json"), ("us3.json", "us3.csv"),
        ("us1.json", "us1_similar.csv"), ("forbidden1.csv", "forbidden1_similar.json"),
        ("us1.json", "forbidden1_similar.json"), ("us1_similar.json", "raised0.json"),
    )
    for a, b in pairs:
        add(f"weaksim {a} {b}", "weaksim", a, b)
    add("weaksim --max-points 4", "weaksim", "us1.json", "us1.csv", "--max-points", "4")
    add("weaksim --max-points 40", "weaksim", "forbidden1.json", "forbidden1.csv", "--max-points", "40")
    for values in ("1/2,1,2,3", "3,1,2", "0.5,1e1", "1,1", "0,1", "-1,2", "a,1", ",", "1"):
        add(f"dplus {values}", "dplus", values)
    for argv in (
        ("--n", "3", "--alphabet", "1,2"),
        ("--n", "4", "--alphabet", "1/2,1,3/2"),
        ("--n", "6", "--alphabet", "1,2,3", "--mode", "sample", "--seed", "4", "--count", "12"),
        ("--n", "1", "--alphabet", "1"),
        ("--n", "6", "--alphabet", "1"),
        ("--n", "4", "--alphabet", "2,1"),
        ("--n", "4", "--alphabet", "1,2", "--mode", "sample", "--count", "-3"),
    ):
        add("gen " + " ".join(argv), "gen", *argv)
    for which in ("equidistant", "k112", "k13"):
        for jobs in ("1", "2"):
            for argv in (
                ("--n", "5", "--alphabet", "1,2,3"),
                ("--n", "4", "--alphabet", "1,2,3,4"),
                ("--n", "8", "--alphabet", "1,2,3,4", "--mode", "sample", "--seed", "7", "--count", "300"),
                ("--n", "16", "--alphabet", "1,2,3,4,5", "--mode", "sample", "--seed", "3", "--count", "100"),
                ("--n", "12", "--alphabet", "1/2,1,2", "--mode", "sample", "--seed", "2", "--count", "9"),
            ):
                add(f"conjecture {which} --jobs {jobs} " + " ".join(argv),
                    "conjecture", "--which", which, "--jobs", jobs, *argv)
    for argv in (
        ("--which", "k13", "--n", "4", "--alphabet", "1,2", "--mode", "sample", "--count", "3", "--jobs", "0"),
        ("--which", "k13", "--n", "4", "--alphabet", "1,2", "--mode", "sample", "--count", "-3"),
        ("--which", "k13", "--n", "3", "--alphabet", "1,2"),
        ("--which", "k13", "--n", "6", "--alphabet", "1,2"),
        ("--which", "k13", "--n", "6", "--alphabet", ",", "--override-caps"),
        ("--which", "k112", "--n", "5", "--alphabet", "0,1"),
    ):
        add("conjecture " + " ".join(argv), "conjecture", *argv)
    # argparse's errors, but not its invalid-choice message, whose quoting
    # of the choices is not fixed across CPython releases
    for argv in (
        (), ("diagnose",), ("shift", "us0.json"), ("conjecture", "--which", "k13"),
        ("weaksim", "--max-points", "x", "us0.json", "us0.csv"), ("gen", "--n", "4"),
        ("conjecture", "--which", "k13", "--n", "5", "--alphabet", "1", "--jobs", "two"),
    ):
        add("usage " + " ".join(argv), *argv)
    return out


def run(argv: list[str]) -> tuple[bytes, bytes, int]:
    """One call's stdout bytes, stderr bytes and exit code, run in process
    on streams with a byte layer, as a terminal's are."""
    from starmetric import cli

    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n") for _ in range(2))
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    usage = False
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code, usage = exc.code, True
    finally:
        sys.stdout, sys.stderr = saved
    out.flush()
    err.flush()
    stderr = err.buffer.getvalue()
    if usage:
        # argparse's own error: its last line; the usage lines above it are
        # wrapped by a layout that differs by Python version
        stderr = stderr.splitlines(keepends=True)[-1]
    return out.buffer.getvalue(), stderr, code


def corpus() -> list[str]:
    """One line per call: id, sha256 of stdout, sha256 of masked stderr, exit code."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        files, meta = write_inputs(Path(tmp))
        for ident, argv in calls(files, meta):
            stdout, stderr, code = run(argv)
            stderr = WALL_TIME.sub(b"wall time: ...s", stderr.replace(tmp.encode(), b"<tmp>"))
            digests = (hashlib.sha256(stdout).hexdigest(), hashlib.sha256(stderr).hexdigest())
            lines.append(f"{json.dumps(ident, ensure_ascii=True)} {digests[0]} {digests[1]} {code}\n")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with golden_cli.txt")
    mode.add_argument("--update", action="store_true", help="rewrite golden_cli.txt")
    args = parser.parse_args(argv)
    lines = corpus()
    if len({line.rsplit(" ", 3)[0] for line in lines}) != len(lines):
        print("two calls share an id", file=sys.stderr)
        return 1
    if args.update:
        GOLDEN.write_text("".join(lines), encoding="utf-8")
        print(f"wrote {len(lines)} calls to {GOLDEN.name}")
        return 0
    golden = GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    changed = [line for line in lines if line not in golden]
    gone = [line for line in golden if line not in lines]
    for line in changed:
        print(f"changed or new: {line}", end="")
    for line in gone:
        print(f"expected: {line}", end="")
    print(f"{len(lines)} calls, {len(changed)} differ from {GOLDEN.name}")
    return 1 if changed or gone else 0


if __name__ == "__main__":
    sys.exit(main())
