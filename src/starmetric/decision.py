"""Membership and embeddability decisions for star-generated ultrametrics.

Two independent criteria decide whether a finite ultrametric space is
generated by a labeled star: existence of a center (a point at least as
close to every other point as anything else is) and absence of a four-point
subspace whose diametrical graph is a 4-cycle.  For finite spaces these are
provably equivalent, so :func:`diagnose` runs both legs and treats any
disagreement as a fatal internal bug rather than picking a side.  Both legs
read each point's nearest-neighbour rank, memoised on the space: the center
leg looks for a point at exactly that rank from every other point, and the
far-pair leg for a pair farther apart than both its points' nearest
neighbours, which is exactly when a 4-cycle quad exists.  Naming the
lexicographically first such quad takes O(n^2) rank comparisons too,
without visiting the C(n, 4) quads.

The module also hosts the shift transforms (subtracting or adding a constant
to every positive distance, which preserves ultrametricity and every
diametrical classification) and the max-metric model on positive rationals,
d(p, q) = max(p, q), together with an embedding decision procedure for it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import compress
from operator import gt, le
from typing import Optional, Sequence

from . import similarity
from .errors import InternalCheckError, _Record
from .rationals import RationalLike, format_rational, parse_rational
from .spaces import (
    FiniteMetricSpace,
    _nearest,
    min_positive_distance,
    rank_matrix,
    require_ultrametric,
    restrict,
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


def _has_far_pair(space: FiniteMetricSpace) -> bool:
    """Whether some pair is farther apart than each point is from its nearest
    neighbour, which in an ultrametric space holds iff a 4-cycle quad exists.

    Such a pair (a, b) with nearest neighbours a' and b' is a 4-cycle
    {a, a'} + {b, b'}; conversely each part of a 4-cycle holds a point whose
    nearest neighbour is closer than the diameter.  One pass per row: the
    largest d(a, b) over the b with d(a, b) > nn(b) is compared with nn(a).
    """
    nearest = _nearest(space)
    return any(
        max(compress(row, map(gt, row, nearest)), default=0) > nearest[a]
        for a, row in enumerate(rank_matrix(space))
    )


def _first_four_cycle(ranks) -> Optional[tuple[int, int, int, int]]:
    """The first quad a < b < c < d, in lexicographic order, of an ultrametric
    rank matrix whose diametrical graph is a 4-cycle, or None.

    With D = d(a, b) that holds exactly when d(a, c) > D and d(c, d) < d(a, c)
    (parts {a,b} and {c,d}), or when one of c, d lies in the open ball B(a, D)
    and the other in B(b, D).  Suffix minima and maxima of row a tell in O(1)
    whether (a, b) has such a (c, d), so the first such pair costs O(n^2) and
    its first (c, d) O(n) more.
    """
    n = len(ranks)
    inf = float("inf")
    # the smallest rank from each point to a later one
    nearest_later = [min(row[x + 1:], default=inf) for x, row in enumerate(ranks)]
    for a in range(n - 3):
        row = ranks[a]
        # over y and the points after it: low, the smallest rank from a; high,
        # the largest rank from a to a point with a later point closer to it
        low, high = [inf] * (n + 1), [-1] * (n + 1)
        for y in range(n - 1, a, -1):
            r = row[y]
            low[y] = r if r < low[y + 1] else low[y + 1]
            high[y] = r if r > nearest_later[y] and r > high[y + 1] else high[y + 1]
        for b in range(a + 1, n - 2):
            dab, later, found = row[b], range(b + 1, n), []
            if dab < high[b + 1]:
                c = next(c for c in later if dab < row[c] > nearest_later[c])
                found.append((c, next(d for d in range(c + 1, n) if ranks[c][d] < row[c])))
            if dab > low[b + 1] and dab > nearest_later[b]:
                near_a = next(y for y in later if row[y] < dab)
                near_b = next(y for y in later if ranks[b][y] < dab)
                found.append((min(near_a, near_b), max(near_a, near_b)))
            if found:
                return (a, b) + min(found)
    return None


def forbidden_scan(space: FiniteMetricSpace) -> Optional[ForbiddenWitness]:
    """First four-point subset whose diametrical graph is a 4-cycle.

    The first subset in lexicographic point order, found on the rank matrix
    in O(n^2) without visiting the C(n, 4) subsets.  The witness carries the
    model classification of the offending quad.  Spaces with fewer than four
    points trivially pass.
    """
    require_ultrametric(space)
    quad = _first_four_cycle(rank_matrix(space))
    if quad is None:
        return None
    labels = tuple(space.points[i] for i in quad)
    return ForbiddenWitness(labels, (2, 2), similarity.classify_forbidden(restrict(space, labels)).model)


def diagnose(space: FiniteMetricSpace) -> DiagnosisReport:
    """Run both membership criteria and assert they agree.

    The center leg (:func:`find_center`) and the far-pair leg (a pair farther
    apart than both points' nearest neighbours, :func:`_has_far_pair`) are
    both O(n^2) on the nearest-neighbour ranks the space memoises.  For
    finite ultrametric spaces a center exists iff no such pair does;
    disagreement can only mean an implementation bug and is raised loudly
    instead of being resolved silently.  Only a FORBIDDEN verdict runs the
    O(n^2) :func:`forbidden_scan`, for the lexicographically first witness
    quad, and a scan that finds none is a bug as well.
    """
    require_ultrametric(space)
    center = find_center(space)
    forbidden = _has_far_pair(space)
    if (center is None) != forbidden:
        raise InternalCheckError(
            "membership criteria disagree: "
            f"center={center}, far pair={forbidden}; this is a bug"
        )
    if center is not None:
        return DiagnosisReport(Verdict.US, center, None)
    witness = forbidden_scan(space)
    if witness is None:
        raise InternalCheckError(
            "a pair is farther apart than both points' nearest neighbours but "
            "forbidden_scan found no 4-cycle quad; this is a bug"
        )
    return DiagnosisReport(Verdict.FORBIDDEN, None, witness)


def shift(space: FiniteMetricSpace, delta: RationalLike) -> FiniteMetricSpace:
    """Subtract ``delta`` from every positive distance.

    Requires 0 <= delta < min D0 so distances stay positive.  The result is
    again ultrametric and the diametrical graph of every subset is unchanged,
    because subtracting a constant preserves the order of distances.
    """
    delta = parse_rational(delta)
    if delta < 0:
        raise ValueError(f"delta = {delta} must be non-negative")
    require_ultrametric(space)
    if delta == 0:
        return space
    floor = min_positive_distance(space)
    if floor is not None and delta >= floor:
        raise ValueError(f"delta = {delta} must be strictly below min D0 = {floor}")
    return _offset(space, -delta)


def unshift(space: FiniteMetricSpace, delta: RationalLike) -> FiniteMetricSpace:
    """Add ``delta`` to every positive distance; exact inverse of :func:`shift`."""
    delta = parse_rational(delta)
    if delta < 0:
        raise ValueError(f"delta = {delta} must be non-negative")
    require_ultrametric(space)
    if delta == 0:
        return space
    return _offset(space, delta)


def _offset(space: FiniteMetricSpace, delta: Fraction) -> FiniteMetricSpace:
    """The space with ``delta`` added to every off-diagonal distance, which
    the caller keeps positive: the order, so the rank matrix, is unchanged."""
    zero, *positive = spectrum(space).values
    values = [zero] + [value + delta for value in positive]
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
    rows = [
        [Fraction(0) if i == j else max(parsed[i], parsed[j]) for j in range(n)]
        for i in range(n)
    ]
    return FiniteMetricSpace(labels, rows)


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
    rejects, and the max equation is verified before the weights are
    mapped back to values.
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
                return None
    values = spectrum(space).values
    result = {p: values[w] for p, w in zip(space.points, weights)}
    result[space.points[bottom]] = values[floor] / 2
    return result
