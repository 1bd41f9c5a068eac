"""Membership and embeddability decisions for star-generated ultrametrics.

Two independent criteria decide whether a finite ultrametric space is
generated by a labeled star: existence of a center (a point at least as
close to every other point as anything else is) and absence of a four-point
subspace whose diametrical graph is a 4-cycle.  For finite spaces these are
provably equivalent, so :func:`diagnose` runs both legs and treats any
disagreement as a fatal internal bug rather than picking a side.  The legs
read two independent structures, both built once per space: the center leg
each point's nearest-neighbour rank, for a point at exactly that rank from
every other point; the 4-cycle leg the ball tree that the ultrametric check
kept, where a 4-cycle is two points in each of two child balls of one ball.
Both take O(n^2) at most, without visiting the C(n, 4) quads, and the
4-cycle leg names the lexicographically first such quad, and its X4 or Y4
model from the order of the quad's six distances on the rank matrix.

The module also hosts the shift transforms (subtracting or adding a constant
to every positive distance, which preserves ultrametricity and every
diametrical classification) and the max-metric model on positive rationals,
d(p, q) = max(p, q), together with an embedding decision procedure for it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from operator import le
from typing import Optional, Sequence

from .errors import InternalCheckError, _Record
from .rationals import RationalLike, format_rational, parse_rational
from .similarity import _quad_model
from .spaces import (
    FiniteMetricSpace,
    _first_four_cycle,
    _nearest,
    _require_ball_tree,
    min_positive_distance,
    rank_matrix,
    require_ultrametric,
    spectrum,
)


class Verdict(Enum):
    US = "US"
    FORBIDDEN = "FORBIDDEN"


class CenterWitness(_Record):
    _fields = ("center",)
    center: str


class ForbiddenWitness(_Record):
    _fields = ("quad", "signature", "model")
    quad: tuple[str, str, str, str]
    signature: tuple[int, int]
    model: str  # "X4" or "Y4"

    def to_dict(self) -> dict:
        return {
            "quad": list(self.quad),
            "signature": list(self.signature),
            "model": self.model,
        }


class DiagnosisReport(_Record):
    _fields = ("verdict", "center", "forbidden")
    verdict: Verdict
    center: Optional[CenterWitness]
    forbidden: Optional[ForbiddenWitness]


def find_center(space: FiniteMetricSpace) -> Optional[CenterWitness]:
    """First point, in stored order, satisfying the center condition, or None.

    A center x0 satisfies d(x0, x) <= d(y, x) for every x != x0 and y != x,
    that is, d(x0, x) is the nearest-neighbour distance of every other x.
    On the ranks memoised on the space the search is O(n^2): only the
    diagonal 0 is below a nearest rank, so a center's row nowhere exceeds them.
    """
    require_ultrametric(space)
    nearest = _nearest(space)
    for c, row in enumerate(rank_matrix(space)):
        if all(map(le, row, nearest)):
            return CenterWitness(space.points[c])
    return None


def forbidden_scan(space: FiniteMetricSpace) -> Optional[ForbiddenWitness]:
    """First four-point subset whose diametrical graph is a 4-cycle.

    The first subset in lexicographic point order, read off the space's ball
    tree as two points in each of two child balls of one ball, in at most
    O(n^2) without visiting the C(n, 4) subsets.  The witness carries the
    quad's model, Y4 (equal chords) or X4, looked up from the quad's dense
    rank pattern without building a subspace; a quad of any other model is
    no 4-cycle.  Spaces with fewer than four points trivially pass.
    """
    quad = _first_four_cycle(_require_ball_tree(space))
    if quad is None:
        return None
    labels = tuple(space.points[i] for i in quad)
    model, _ = _quad_model(rank_matrix(space), quad) or (None, None)
    if model in ("X4", "Y4"):
        return ForbiddenWitness(labels, (2, 2), model)
    raise InternalCheckError(
        f"the ball-tree walk named {labels}, which is not a 4-cycle quad; this is a bug"
    )


def diagnose(space: FiniteMetricSpace) -> DiagnosisReport:
    """Run both membership criteria and assert they agree.

    The center leg (:func:`find_center`, on the nearest-neighbour ranks) and
    the 4-cycle leg (:func:`forbidden_scan`, on the ball tree) read two
    independent structures.  For finite ultrametric spaces a center exists
    iff no 4-cycle quad does, so exactly one leg finds its witness;
    anything else can only mean an implementation bug and is raised loudly
    instead of being resolved silently.
    """
    require_ultrametric(space)
    center = find_center(space)
    forbidden = forbidden_scan(space)
    if (center is None) == (forbidden is None):
        raise InternalCheckError(
            "membership criteria disagree: "
            f"center={center}, 4-cycle={forbidden}; this is a bug"
        )
    if center is not None:
        return DiagnosisReport(Verdict.US, center, None)
    return DiagnosisReport(Verdict.FORBIDDEN, None, forbidden)


def shift(space: FiniteMetricSpace, delta: RationalLike) -> FiniteMetricSpace:
    """Subtract ``delta`` from every positive distance.

    Requires 0 <= delta < min D0 so distances stay positive.  The result is
    again ultrametric and the diametrical graph of every subset is unchanged,
    because subtracting a constant preserves the order of distances.
    """
    return _offset(space, delta, -1)


def unshift(space: FiniteMetricSpace, delta: RationalLike) -> FiniteMetricSpace:
    """Add ``delta`` to every positive distance; exact inverse of :func:`shift`."""
    return _offset(space, delta, 1)


def _offset(space: FiniteMetricSpace, delta: RationalLike, sign: int) -> FiniteMetricSpace:
    """The space with ``sign * delta`` added to every positive distance.

    Parses ``delta``, rejects a negative one, runs the guard and returns the
    space itself for 0; a shift down must stay below min D0.  The order, so
    the rank matrix, is unchanged."""
    delta = parse_rational(delta)
    if delta < 0:
        raise ValueError(f"delta = {delta} must be non-negative")
    require_ultrametric(space)
    if delta == 0:
        return space
    if sign < 0:
        floor = min_positive_distance(space)
        if floor is not None and delta >= floor:
            raise ValueError(f"delta = {delta} must be strictly below min D0 = {floor}")
    zero, *positive = spectrum(space).values
    values = [zero] + [value + sign * delta for value in positive]
    return FiniteMetricSpace._trusted(space.points, rank_matrix(space), values)


def dplus_space(values: Sequence[RationalLike]) -> FiniteMetricSpace:
    """Finite slice of the max-metric on positive rationals.

    Points are labeled by their values (sorted ascending) and the distance
    between distinct points is the larger value.  Every such space is
    star-generated, with the smallest point as a center.
    """
    parsed = [parse_rational(v) for v in values]
    if not parsed:
        raise ValueError("need at least one value")
    for v in parsed:
        if v <= 0:
            raise ValueError(f"values must be positive, got {v}")
    if len(set(parsed)) != len(parsed):
        raise ValueError("values must be distinct")
    parsed.sort()
    labels = [format_rational(v) for v in parsed]
    n = len(parsed)
    # d(i, j) = parsed[max(i, j)], so max(i, j) is already a dense rank over
    # the values 0, parsed[1], ..., parsed[n - 1]; rows share one int object
    # per level, as the general constructor's rows do
    level = tuple(range(n))
    levels = [(i,) * i + (0,) + level[i + 1:] for i in level]
    return FiniteMetricSpace._trusted(labels, levels, [Fraction(0), *parsed[1:]])


def embeds_in_dplus(space: FiniteMetricSpace) -> Optional[dict[str, Fraction]]:
    """Injective weights w with d(x, y) = max(w(x), w(y)), or None.

    Decision procedure, on ranks: each point's candidate weight is its
    nearest-neighbour rank.  In an embeddable space that recovers the true
    weight of every point except the bottom one, whose candidate collides
    with the second weight.  The minimum positive distance must then be
    attained by exactly one pair; the first point at that distance from its
    nearest neighbour, the pair's smaller member, is reassigned half that
    minimum, below every other weight (rank 0 stands for it).  A second
    such pair leaves two equal weights, which the injectivity check
    rejects.  Injective weights leave a chain of balls, each with at most
    one point of its own, above a two-point ball, and such a space embeds;
    so the max equation, verified before the weights are mapped back to
    values, fails only on a bug, and raises :class:`InternalCheckError`.
    """
    require_ultrametric(space)
    n = space.n
    if n == 1:
        return {space.points[0]: Fraction(1)}
    ranks = rank_matrix(space)
    weights = list(_nearest(space))
    floor = min(weights)
    bottom = weights.index(floor)
    weights[bottom] = 0
    if len(set(weights)) != n:
        return None
    for i in range(n):
        for j in range(i + 1, n):
            if ranks[i][j] != max(weights[i], weights[j]):
                raise InternalCheckError("injective weights break the max equation; this is a bug")
    values = spectrum(space).values
    result = {p: values[w] for p, w in zip(space.points, weights)}
    result[space.points[bottom]] = values[floor] / 2
    return result
