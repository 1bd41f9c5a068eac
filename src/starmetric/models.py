"""Canonical four-point reference spaces.

Six pairwise non-weakly-similar four-point ultrametric spaces cover the
behaviors this toolkit cares about: X4 and Y4 carry the forbidden 4-cycle
diametrical graph (with distinct and with equal sub-diameter chords), W4 is
the K_{1,1,2} representative, S4 and Z4 the two K_{1,3} shapes (isosceles
and equilateral low triangle), and E4 is equidistant.
"""

from __future__ import annotations

from .rationals import RationalLike
from .spaces import FiniteMetricSpace

# the conjectures a campaign can check; here rather than in the lab so that
# the command line lists them without importing the lab
CONJECTURE_IDS = ("equidistant", "k112", "k13")


def _quad(labels: tuple[str, str, str, str], *values: RationalLike) -> FiniteMetricSpace:
    # values in pair order (12, 13, 14, 23, 24, 34)
    a, b, c, d = labels
    v12, v13, v14, v23, v24, v34 = values
    return FiniteMetricSpace.from_pairs(
        labels,
        {(a, b): v12, (a, c): v13, (a, d): v14, (b, c): v23, (b, d): v24, (c, d): v34},
    )


X4 = _quad(("x1", "x2", "x3", "x4"), 3, 1, 3, 3, 2, 3)
Y4 = _quad(("y1", "y2", "y3", "y4"), 3, 2, 3, 3, 2, 3)
W4 = _quad(("w1", "w2", "w3", "w4"), 3, 1, 3, 3, 3, 3)
S4 = _quad(("s1", "s2", "s3", "s4"), 3, 1, 2, 3, 3, 2)
Z4 = _quad(("z1", "z2", "z3", "z4"), 3, 1, 1, 3, 3, 1)


def equidistant(n: int, value: RationalLike = 1, prefix: str = "p") -> FiniteMetricSpace:
    """The n-point space with every positive distance equal to ``value``."""
    if n < 1:
        raise ValueError("need at least one point")
    points = tuple(f"{prefix}{i + 1}" for i in range(n))
    rows = [[0 if i == j else value for j in range(n)] for i in range(n)]
    return FiniteMetricSpace(points, rows)


E4 = equidistant(4)

MODELS: dict[str, FiniteMetricSpace] = {
    "X4": X4,
    "Y4": Y4,
    "W4": W4,
    "S4": S4,
    "Z4": Z4,
    "E4": E4,
}
