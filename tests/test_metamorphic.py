"""Metamorphic relations checked at sizes the quartic oracles cannot reach.

The join X v Y of two star-generated spaces, at a level above both
diameters, is FORBIDDEN, and its first 4-cycle and that quad's model are
known from X and Y alone.  Permuting a space's points keeps its verdict
and every conjecture record, and the permuted space's own witness still
satisfies its definition.  Shifting every positive distance, up by any
constant or down by one below the smallest, keeps their order and so the
diagnosis, and the two shifts undo each other.
"""

import random
from fractions import Fraction
from operator import itemgetter

import pytest

from starmetric import (
    FiniteMetricSpace,
    GeneratorSpec,
    NotUltrametricError,
    Verdict,
    check_equidistant,
    check_k112_conjecture,
    check_k13_conjecture,
    classify_forbidden,
    diagnose,
    forbidden_scan,
    min_positive_distance,
    model_match,
    rank_matrix,
    restrict,
    sample_dendrogram,
    shift,
    unshift,
)
from starmetric.stars import center_condition_violation


def us_weights(rng: random.Random, n: int) -> list[int]:
    """Point weights whose max-metric, d(i, j) = max(w_i, w_j), is a seeded
    star-generated space: a star's metric with the hub anywhere (each leaf's
    weight is its label raised to the hub's), or a slice of the max-metric
    on distinct values in ascending order."""
    if rng.random() < 0.5:
        hub, label = rng.randrange(n), rng.randint(1, 4)
        return [label if i == hub else max(label, rng.randint(1, 9)) for i in range(n)]
    return sorted(rng.sample(range(1, 4 * n + 1), n))


def join(wx: list[int], wy: list[int], cross: int) -> FiniteMetricSpace:
    """X v Y as int rows: X's points first, every cross distance ``cross``."""
    def block(w):
        return [[0 if i == j else max(a, b) for j, b in enumerate(w)] for i, a in enumerate(w)]

    rows = [row + [cross] * len(wy) for row in block(wx)]
    rows += [[cross] * len(wx) + row for row in block(wy)]
    return FiniteMetricSpace([f"x{i}" for i in range(len(wx))] + [f"y{i}" for i in range(len(wy))], rows)


class TestJoins:
    def test_the_first_4_cycle_of_a_join_and_its_model(self):
        # X and Y are star-generated, so neither holds a 4-cycle, and three
        # points of one with one of the other span a K13: the first 4-cycle
        # is X's first two points with Y's, and their two chords are equal
        # exactly for the Y4 model
        rng = random.Random(25)
        sizes = [(2, 2), (256, 256), (2, 256), (256, 3)] + [
            (rng.randint(2, 64), rng.randint(2, 64)) for _ in range(16)
        ]
        models = set()
        for nx, ny in sizes:
            wx, wy = us_weights(rng, nx), us_weights(rng, ny)
            cross = max(wx + wy) + rng.randint(1, 3)
            space = join(wx, wy, cross)
            quad = ("x0", "x1", "y0", "y1")
            model = "Y4" if max(wx[:2]) == max(wy[:2]) else "X4"
            report = diagnose(space)
            assert report.verdict is Verdict.FORBIDDEN
            for witness in (forbidden_scan(space), report.forbidden):
                assert (witness.quad, witness.signature, witness.model) == (quad, (2, 2), model)
            assert classify_forbidden(restrict(space, quad)).model == model
            models.add(model)
        assert models == {"X4", "Y4"}


def forbidden_tree(rng: random.Random, n: int, top: int) -> list[list[str]]:
    """Text rows of a seeded random ball tree: the points split into two to
    four runs at level ``top``, each run split again below it, down to level
    1.  Two runs of two or more points under one ball make a 4-cycle, so at
    the sizes drawn here the space is all but surely FORBIDDEN."""
    rows = [["0"] * n for _ in range(n)]
    stack = [(0, n, top)]
    while stack:
        first, size, level = stack.pop()
        for x in range(first, first + size):
            rows[x][first : first + size] = [str(level)] * size
            rows[x][x] = "0"
        if level > 1 and size > 1:
            cuts = sorted(rng.sample(range(1, size), min(size - 1, rng.randint(1, 3))))
            bounds = [0, *cuts, size]
            stack += [(first + a, b - a, level - 1) for a, b in zip(bounds, bounds[1:])]
    return rows


def relabelled(labels: list[str], rows: list[list], order: list[int]) -> FiniteMetricSpace:
    """The space with its points listed in ``order``, each keeping its label
    and its distances."""
    pick = itemgetter(*order)
    return FiniteMetricSpace(pick(labels), [pick(rows[i]) for i in order])


def max_rows(w: list[int]) -> list[list[str]]:
    """Text rows of the max-metric on the weights ``w``: text cells, as a
    file gives them, are parsed once per distinct text."""
    text = list(map(str, range(max(w) + 1)))
    rows = [[text[b if b > a else a] for b in w] for a in w]
    for i, row in enumerate(rows):
        row[i] = "0"
    return rows


def large_cases(rng: random.Random) -> list[tuple[Verdict, list[list[str]]]]:
    """Seeded text rows of 256 to 2,048 points with their verdicts: two star
    spaces, two joins of star spaces and two random ball trees."""
    cases = [(Verdict.US, max_rows(us_weights(rng, n))) for n in (256, 2048)]
    for nx, ny in ((128, 128), (300, 700)):
        wx, wy = us_weights(rng, nx), us_weights(rng, ny)
        cross = str(max(wx + wy) + 1)
        rows = [row + [cross] * ny for row in max_rows(wx)] + [[cross] * nx + row for row in max_rows(wy)]
        cases.append((Verdict.FORBIDDEN, rows))
    cases += [(Verdict.FORBIDDEN, forbidden_tree(rng, n, 6)) for n in (256, 1024)]
    return cases


class TestRelabelling:
    def test_permuting_the_points_keeps_the_verdict_and_valid_witnesses(self):
        # the verdict is a property of the space, not of its point order, and
        # the permuted space's own witness satisfies its definition: a center
        # of the star, or a quad whose four points are an X4 or a Y4
        rng = random.Random(26)
        for verdict, rows in large_cases(rng):
            n = len(rows)
            labels = [f"q{i}" for i in range(n)]
            order = list(range(n))
            rng.shuffle(order)
            assert diagnose(FiniteMetricSpace(labels, rows)).verdict is verdict, n
            space = relabelled(labels, rows, order)
            report = diagnose(space)
            assert report.verdict is verdict, n
            if verdict is Verdict.US:
                assert center_condition_violation(space, report.center.center) is None, n
            else:
                quad = report.forbidden.quad
                assert report.forbidden.model in ("X4", "Y4")
                assert model_match(restrict(space, quad)) == report.forbidden.model, (n, quad)

    def test_permuting_the_points_keeps_every_conjecture_record(self):
        checks = (check_equidistant, check_k112_conjecture, check_k13_conjecture)
        rng = random.Random(26)
        for index in range(150):
            spec = GeneratorSpec(n=4 + index % 13, alphabet=("1", "2", "3", "4", "5"), mode="sample", seed=26)
            space = sample_dendrogram(spec, index)
            order = list(range(space.n))
            rng.shuffle(order)
            permuted = relabelled(list(space.points), space.dist, order)
            for check in checks:
                assert check(permuted) == check(space), (index, check.__name__)


class TestShift:
    def test_shift_and_unshift_keep_the_order_and_the_diagnosis(self):
        # adding a constant to every positive distance, or subtracting one
        # below min D0, keeps their order: the rank matrix, so the verdict
        # and both witnesses, and the two transforms undo each other
        rng = random.Random(28)
        for _, rows in large_cases(rng):
            space = FiniteMetricSpace([f"q{i}" for i in range(len(rows))], rows)
            report = diagnose(space)
            floor = min_positive_distance(space)
            down = floor * Fraction(rng.randint(1, 9), 10)
            up = Fraction(rng.randint(1, 50), rng.randint(1, 7))
            assert shift(space, 0) is space and unshift(space, 0) is space
            lowered, raised = shift(space, down), unshift(space, up)
            assert min_positive_distance(lowered) == floor - down
            assert min_positive_distance(raised) == floor + up
            for moved in (lowered, raised):
                assert rank_matrix(moved) == rank_matrix(space), space.n
                assert diagnose(moved) == report, space.n
            assert unshift(lowered, down) == space
            assert shift(raised, up) == space

    def test_shift_and_unshift_reject_a_non_ultrametric_space_alike(self):
        # one pair raised above every other distance breaks the strong
        # triangle inequality through any third point
        rng = random.Random(28)
        for _, rows in large_cases(rng)[::2]:
            n = len(rows)
            i, j = rng.sample(range(n), 2)
            rows[i][j] = rows[j][i] = str(max(int(cell) for row in rows for cell in row) + 7)
            space = FiniteMetricSpace([f"q{k}" for k in range(n)], rows)
            raised = []
            for transform in (shift, unshift):
                with pytest.raises(NotUltrametricError) as info:
                    transform(space, "1/2")
                raised.append(info.value.violation)
            assert raised[0] == raised[1], n
            assert {raised[0].x, raised[0].y} == {f"q{i}", f"q{j}"}, n
