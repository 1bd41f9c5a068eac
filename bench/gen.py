"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns the distance matrix as
``Fraction`` rows plus the point labels, so the benchmark knows the exact
input it wrote and can check the program's answer against it.  The verdict
of every input is fixed by construction, never by asking ``starmetric``:

* ``star_space``: the metric of a labeled star (verdict US).
* ``forbidden_space``: a ball tree whose top ball has two children of size
  at least 2 (verdict FORBIDDEN).
* ``raise_diameter_entry``: one diameter entry raised by half the smallest
  distance, which breaks the strong triangle inequality but keeps the
  triangle inequality (exit 2).

None of this imports the package under test.
"""

from __future__ import annotations

import json
import random
from decimal import Decimal
from fractions import Fraction

Matrix = list[list[Fraction]]

_DENOMINATORS = (1, 1, 2, 3, 4, 5, 6)


def distinct_rationals(rng: random.Random, k: int) -> list[Fraction]:
    """``k`` distinct positive rationals, ascending; integers and proper
    fractions mixed."""
    values: set[Fraction] = set()
    while len(values) < k:
        values.add(Fraction(rng.randint(1, 12 * k), rng.choice(_DENOMINATORS)))
    return sorted(values)


def point_labels(rng: random.Random, n: int) -> list[str]:
    prefix = rng.choice(("p", "q", "x", "pt", "node"))
    return [f"{prefix}{k}" for k in rng.sample(range(10 * n), n)]


def star_space(rng: random.Random, n: int, hub_first: bool) -> tuple[list[str], Matrix]:
    """Metric of a labeled star on ``n`` points.

    Leaf labels come from a pool of about n/4 values, so labels tie; the hub
    label is 0 or one of the pool values.  The hub is the first or the last
    point, the leaves follow in random order.
    """
    pool = distinct_rationals(rng, max(3, n // 4))
    hub_label = rng.choice((Fraction(0), rng.choice(pool)))
    leaf_labels = [rng.choice(pool) for _ in range(n - 1)]
    labels = [hub_label] + leaf_labels
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            # i == 0 is the hub: the path hub-leaf has no third vertex
            value = max(labels[i], labels[j]) if i == 0 else max(labels[i], labels[j], hub_label)
            rows[i][j] = rows[j][i] = value
    order = list(range(1, n))
    rng.shuffle(order)
    order = [0] + order if hub_first else order + [0]
    return point_labels(rng, n), permute(rows, order)


def permute(rows: Matrix, order: list[int]) -> Matrix:
    return [[rows[i][j] for j in order] for i in order]


def _random_tree(rng: random.Random, block: list[int], levels: list[Fraction], rows: Matrix) -> None:
    """Random ball tree on ``block`` with levels drawn from ``levels``
    (strictly smaller levels deeper down)."""
    if len(block) < 2:
        return
    k = rng.randrange(len(levels))
    level, lower = levels[k], levels[:k]
    if lower:
        parts = rng.randint(2, min(4, len(block)))
        groups: list[list[int]] = [[] for _ in range(parts)]
        shuffled = block[:]
        rng.shuffle(shuffled)
        for g, x in enumerate(shuffled):
            groups[g if g < parts else rng.randrange(parts)].append(x)
    else:
        groups = [[x] for x in block]
    _join(groups, level, rows)
    for group in groups:
        _random_tree(rng, group, lower, rows)


def _caterpillar(rng: random.Random, block: list[int], levels: list[Fraction], rows: Matrix) -> None:
    """Ball tree on ``block`` in which every ball has at most one child of
    size 2 or more, so no four of its points form a 4-cycle."""
    while len(block) >= 2:
        level, levels = levels[-1], levels[:-1]
        if not levels:
            _join([[x] for x in block], level, rows)
            return
        peel = rng.randint(1, max(1, len(block) // 3))
        singles, block = block[:peel], block[peel:]
        _join([[x] for x in singles] + [block], level, rows)


def _join(groups: list[list[int]], level: Fraction, rows: Matrix) -> None:
    for gi in range(len(groups)):
        for gj in range(gi + 1, len(groups)):
            for x in groups[gi]:
                for y in groups[gj]:
                    rows[x][y] = rows[y][x] = level


def forbidden_space(rng: random.Random, n: int, late: bool) -> tuple[list[str], Matrix]:
    """Ultrametric on ``n`` points whose top ball has two children C1, C2
    of size at least 2, so a 4-cycle quad exists.

    ``late=False``: points 0, 1 lie in C1 and points 2, 3 in C2, so the
    lexicographically first 4-cycle quad is the first quad of all.

    ``late=True``: C1 holds the first n-2 points and is a caterpillar (no
    4-cycle inside it), C2 is the last two points, so the first 4-cycle
    quad is (0, 1, n-2, n-1), reached after C(n-2, 2) quads.
    """
    levels = distinct_rationals(rng, 8)
    top, below = levels[-1], levels[:-1]
    rows = [[Fraction(0)] * n for _ in range(n)]
    if late:
        c1, c2 = list(range(n - 2)), [n - 2, n - 1]
        _caterpillar(rng, c1, below, rows)
        rows[n - 2][n - 1] = rows[n - 1][n - 2] = rng.choice(below)
        _join([c1, c2], top, rows)
        order = c1[:]
        rng.shuffle(order)
        order += c2
    else:
        rest = list(range(4, n))
        rng.shuffle(rest)
        cut1, cut2 = sorted(rng.sample(range(len(rest) + 1), 2))
        c1 = [0, 1] + rest[:cut1]
        c2 = [2, 3] + rest[cut1:cut2]
        others = [[x] for x in rest[cut2:]]
        _join([c1, c2] + others, top, rows)
        _random_tree(rng, c1, below, rows)
        _random_tree(rng, c2, below, rows)
        order = list(range(n))
    return point_labels(rng, n), permute(rows, order)


def raise_diameter_entry(rng: random.Random, rows: Matrix) -> Matrix:
    """Copy of an ultrametric with one diameter pair moved up by half the
    smallest positive distance.

    Every triangle on that pair now has it as its strict maximum (not
    ultrametric), and since its other sides are the diameter and a positive
    distance, the triangle inequality still holds (still metric).
    """
    n = len(rows)
    diameter = max(max(row) for row in rows)
    floor = min(x for row in rows for x in row if x > 0)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j] == diameter]
    i, j = rng.choice(pairs)
    out = [row[:] for row in rows]
    out[i][j] = out[j][i] = diameter + floor / 2
    return out


def rational_text(x: Fraction, decimal: bool) -> str:
    den = x.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if decimal and den == 1 and x.denominator != 1:
        return format(Decimal(x.numerator) / Decimal(x.denominator), "f")
    return str(x)


def space_text(labels: list[str], rows: Matrix, fmt: str, decimal: bool) -> str:
    """File contents in the program's JSON or CSV space format."""
    cells = [[rational_text(x, decimal) for x in row] for row in rows]
    if fmt == "json":
        return json.dumps({"points": labels, "dist": cells})
    lines = [",".join(labels)] + [",".join(row) for row in cells]
    return "\n".join(lines) + "\n"
