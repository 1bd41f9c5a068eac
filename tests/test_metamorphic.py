"""Metamorphic relations checked at sizes the quartic oracles cannot reach.

The join X v Y of two star-generated spaces, at a level above both
diameters, is FORBIDDEN, and its first 4-cycle and that quad's model are
known from X and Y alone.
"""

import random

from starmetric import (
    FiniteMetricSpace,
    Verdict,
    classify_forbidden,
    diagnose,
    forbidden_scan,
    restrict,
)


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
