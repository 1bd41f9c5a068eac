"""Independent checks of the program's output, one per kind of op.

Each check takes the exit code and captured stdout/stderr of one CLI call
and returns None when the output is right, or a one-line reason.  The
checks recompute every answer from the generated matrix with their own
code: the first point satisfying the center condition, the max-label
re-expansion of the emitted star, the lexicographically first 4-cycle
quad, the strong-triangle violation, and the campaign report.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations

from gen import Matrix

INTERPRETATION = (
    "'weakly isometric' is read as weak similarity (a point bijection composed "
    "with a strictly increasing bijection between distance sets); whole-space "
    "comparison against a four-point model is only evaluable at four points "
    "and is reported NOT_EVALUABLE otherwise"
)

_VIOLATION = re.compile(
    r"error: space is not ultrametric: Violation\(x='([^']*)', via='([^']*)', y='([^']*)', "
    r"lhs=Fraction\((\d+), (\d+)\), bound=Fraction\((\d+), (\d+)\)\)\n"
)
_WALL_TIME = re.compile(r"wall time: \d+\.\d{3}s\n")


def first_center(rows: Matrix) -> int | None:
    """First index c with d(c, x) = min over y != x of d(y, x) for all x != c."""
    n = len(rows)
    nearest = [min(rows[y][x] for y in range(n) if y != x) for x in range(n)]
    for c in range(n):
        if all(rows[c][x] == nearest[x] for x in range(n) if x != c):
            return c
    return None


def star_dot(center: str, labels: dict[str, Fraction]) -> str:
    lines = ["graph {"]
    lines += [f'  "{v}" [label="{v}:{labels[v]}"];' for v in sorted(labels)]
    edges = sorted(tuple(sorted((center, leaf))) for leaf in labels if leaf != center)
    lines += [f'  "{a}" -- "{b}";' for a, b in edges]
    return "\n".join(lines + ["}"]) + "\n"


def us_verdict(points: list[str], rows: Matrix, dot: bool, rc, out: str, err: str) -> str | None:
    if rc != 0 or err:
        return f"exit {rc}, stderr {err[:120]!r}"
    report, end = json.JSONDecoder().raw_decode(out)
    if report.get("verdict") != "US":
        return f"verdict {report.get('verdict')!r}, expected US"
    expected = first_center(rows)
    center = report["center"]
    if expected is None or center != points[expected]:
        return f"center {center!r}, expected {None if expected is None else points[expected]!r}"
    star = report["star"]
    if star["center"] != center or set(star["leaves"]) != set(points) - {center}:
        return "star does not have the center as hub and every other point as leaf"
    c_label = Fraction(star["center_label"])
    labels = {leaf: Fraction(value) for leaf, value in star["leaves"].items()}
    labels[center] = c_label
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            u, v = points[i], points[j]
            hub_edge = center in (u, v)
            value = max(labels[u], labels[v]) if hub_edge else max(labels[u], labels[v], c_label)
            if value != rows[i][j]:
                return f"star re-expands d({u},{v}) to {value}, input has {rows[i][j]}"
    rest = out[end:]
    expected_rest = "\n" + (star_dot(center, labels) if dot else "")
    if rest != expected_rest:
        return "DOT output (or the text after the JSON report) differs from the emitted star"
    return None


def _c4_chords(rows: Matrix, quad) -> tuple[Fraction, Fraction] | None:
    """The two sub-diameter chord values if the quad's diametrical graph is a
    4-cycle, else None."""
    pairs = list(combinations(quad, 2))
    values = [rows[i][j] for i, j in pairs]
    top = max(values)
    low = [(pairs[k], values[k]) for k in range(6) if values[k] < top]
    if len(low) != 2 or set(low[0][0]) & set(low[1][0]):
        return None
    return low[0][1], low[1][1]


def forbidden_verdict(points: list[str], rows: Matrix, rc, out: str, err: str) -> str | None:
    if rc != 1 or err:
        return f"exit {rc}, stderr {err[:120]!r}"
    report = json.loads(out)
    if report.get("verdict") != "FORBIDDEN" or report.get("signature") != [2, 2]:
        return f"verdict {report.get('verdict')!r} signature {report.get('signature')!r}"
    index = {p: i for i, p in enumerate(points)}
    quad = tuple(index.get(p, -1) for p in report["quad"])
    if len(quad) != 4 or min(quad) < 0 or list(quad) != sorted(set(quad)):
        return f"quad {report['quad']!r} is not four increasing points"
    for earlier in combinations(range(len(points)), 4):
        if earlier == quad:
            break
        if _c4_chords(rows, earlier) is not None:
            return f"quad {report['quad']} is not the first 4-cycle; {earlier} comes before it"
    chords = _c4_chords(rows, quad)
    if chords is None:
        return f"quad {report['quad']} is not a 4-cycle"
    model = "Y4" if chords[0] == chords[1] else "X4"
    if report.get("model") != model:
        return f"model {report.get('model')!r}, chords {chords} give {model}"
    return None


def not_ultrametric(points: list[str], rows: Matrix, rc, out: str, err: str) -> str | None:
    if rc != 2 or out:
        return f"exit {rc}, stdout {out[:120]!r}"
    match = _VIOLATION.fullmatch(err)
    if match is None:
        return f"stderr {err[:160]!r} names no violating triple"
    x, via, y = match.group(1, 2, 3)
    lhs = Fraction(int(match.group(4)), int(match.group(5)))
    bound = Fraction(int(match.group(6)), int(match.group(7)))
    index = {p: i for i, p in enumerate(points)}
    if not {x, via, y} <= set(index) or len({x, via, y}) != 3:
        return f"triple ({x},{via},{y}) is not three points of the space"
    i, v, j = index[x], index[via], index[y]
    if (lhs, bound) != (rows[i][j], max(rows[i][v], rows[v][j])) or not lhs > bound:
        return f"triple ({x},{via},{y}) does not violate the strong triangle inequality"
    return None


def campaign_report(
    which: str, mode: str, n: int, alphabet: list[str], seed: int, count: int | None, instances: int
) -> str:
    """The exact stdout of a campaign that finds no counterexample."""
    report = {
        "conjecture": which,
        "mode": mode,
        "n": n,
        "alphabet": [str(Fraction(v)) for v in alphabet],
        "seed": seed,
        "requested": count,
        "instances": instances,
        "status": "EXHAUSTED_HOLDS" if mode == "exhaustive" else "HOLDS_ON_SAMPLE",
        "counterexample": None,
        "interpretation": INTERPRETATION,
    }
    return json.dumps(report, indent=2) + "\n"


def same_report(expected: str, rc, out: str, err: str) -> str | None:
    if rc != 0:
        return f"exit {rc}, stderr {err[:120]!r}"
    if out != expected:
        return "campaign report differs from the expected report"
    if not _WALL_TIME.fullmatch(err):
        return f"stderr {err[:120]!r} is not one wall-time line"
    return None


def count_ultrametrics(n: int, levels: int) -> int:
    """Number of ultrametrics on n labeled points with values in a chain of
    ``levels`` values: the top level, a partition into at least two balls,
    and a smaller ultrametric inside each ball."""
    memo: dict[tuple[int, int], int] = {}

    def partitions(items: list[int]):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in partitions(rest):
            for k in range(len(sub)):
                yield sub[:k] + [[first] + sub[k]] + sub[k + 1 :]
            yield [[first]] + sub

    def count(m: int, k: int) -> int:
        if m == 1:
            return 1
        if (m, k) not in memo:
            total = 0
            for top in range(1, k + 1):
                for blocks in partitions(list(range(m))):
                    if len(blocks) >= 2:
                        prod = 1
                        for block in blocks:
                            prod *= count(len(block), top - 1)
                        total += prod
            memo[(m, k)] = total
        return memo[(m, k)]

    return count(n, levels)
