"""Finite metric spaces over exact rational distances.

A :class:`FiniteMetricSpace` is an ordered tuple of point labels plus a
symmetric positive matrix of exact distances.  Construction enforces the
structural axioms (square shape, zero diagonal, symmetry, positive
off-diagonal entries); the triangle inequalities are checked by
:func:`validate`, which distinguishes metric from ultrametric input and
reports the first violating triple.

Construction parses each distinct numeral text once and ranks the distinct
values once, exactly, and a space holds just that: its spectrum and its int
rank matrix.  The structural checks and every order-only kernel (the
ultrametric check, the nearest neighbours, the center, the four-point
classes) read the ranks; a single distance is its rank's spectrum value.
The ``Fraction`` matrix ``dist`` is built on first read, for the routes that
sum or copy whole rows of values: ``validate``'s metric flag and
:func:`adjoin_near`; :meth:`FiniteMetricSpace.to_dict` formats each spectrum
value once instead.  Spaces are immutable and operations return new values.
The matrix of values, the first strong-triangle violation and each point's
nearest-neighbour rank are found once per space, on first use; they are pure
functions of the immutable ranks and spectrum, so concurrent use still needs
no locks.  Tie-breaking is always lexicographic in the stored point order,
making every operation deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, NoReturn, Optional, Sequence

from .errors import InternalCheckError, InvalidSpaceError, NotUltrametricError, _Record
from .rationals import RationalLike, format_rational, parse_rational


class FiniteMetricSpace:
    """Ordered point labels plus an exact symmetric distance matrix, held as
    the matrix's spectrum and int rank matrix."""

    __slots__ = ("points", "_dist", "_pos", "_violation", "_nearest_ranks", "_spectrum", "_rank_matrix")

    def __init__(self, points: Sequence[str], dist: Sequence[Sequence[RationalLike]]):
        pts = tuple(points)
        if not pts:
            raise InvalidSpaceError("labels", "a space needs at least one point")
        if any(not isinstance(p, str) or not p for p in pts):
            raise InvalidSpaceError("labels", "point labels must be non-empty strings")
        if len(set(pts)) != len(pts):
            raise InvalidSpaceError("labels", "point labels must be unique")
        n = len(pts)
        rows, value_of = _parse_cells(list(dist))
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InvalidSpaceError(
                "shape", f"distance matrix must be {n}x{n} to match {n} points"
            )
        rank, distinct = _rank_values([Fraction(0), *value_of.values()])
        rank_of = dict(zip(value_of, rank[1:]))
        ranks = tuple(tuple(map(rank_of.__getitem__, row)) for row in rows)
        # rank 0 is the value 0 exactly when no value is negative
        zero = rank[0]
        if not (
            zero == 0
            and all(row[i] == 0 and row.count(0) == 1 for i, row in enumerate(ranks))
            and ranks == tuple(zip(*ranks))
        ):
            _raise_axiom_error(pts, ranks, distinct, zero)
        self._set(pts, ranks, Spectrum(distinct))

    @classmethod
    def _trusted(
        cls, points: tuple[str, ...], levels: Sequence[Sequence[int]], values: Sequence[Fraction]
    ) -> "FiniteMetricSpace":
        """A space from data whose axioms the caller has already checked.

        ``levels`` is a symmetric int matrix, 0 exactly on the diagonal, in
        the order of the distances, and ``values[level]`` is the distance, so
        ``values[0]`` is 0.  The levels are re-ranked densely and the used
        values become the spectrum; nothing is parsed or checked, no
        ``Fraction`` matrix is built, and the labels must be valid and unique.
        """
        used = sorted(set().union(*levels))
        dense = [0] * (used[-1] + 1)
        for rank, level in enumerate(used):
            dense[level] = rank
        space = cls.__new__(cls)
        space._set(
            tuple(points),
            tuple(tuple(map(dense.__getitem__, row)) for row in levels),
            Spectrum(tuple(values[level] for level in used)),
        )
        return space

    def _set(self, points, ranks, spec) -> None:
        self.points = points
        self._pos = {p: i for i, p in enumerate(points)}
        self._rank_matrix = ranks
        self._spectrum = spec
        # the Fraction matrix, the first strong-triangle violation and the
        # nearest-neighbour ranks, built on first use; equality and hashing
        # read none of them
        self._dist = None
        self._violation = False  # not yet checked, then None or a Violation
        self._nearest_ranks = None

    @property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The matrix of exact distances, each the spectrum value of its rank."""
        if self._dist is None:
            values = self._spectrum.values
            self._dist = tuple(tuple(map(values.__getitem__, row)) for row in self._rank_matrix)
        return self._dist

    @property
    def n(self) -> int:
        return len(self.points)

    def index(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise KeyError(f"unknown point label {label!r}") from None

    def d(self, a: str, b: str) -> Fraction:
        return self._spectrum.values[self._rank_matrix[self.index(a)][self.index(b)]]

    @classmethod
    def from_pairs(
        cls, points: Sequence[str], pairs: Mapping[tuple[str, str], RationalLike]
    ) -> "FiniteMetricSpace":
        """Build a space from point labels and one distance per unordered pair."""
        pts = tuple(points)
        pos = {p: i for i, p in enumerate(pts)}
        n = len(pts)
        rows = [[Fraction(0)] * n for _ in range(n)]
        seen = set()
        for (a, b), value in pairs.items():
            for label in (a, b):
                if label not in pos:
                    raise InvalidSpaceError(
                        "labels", f"pair ({a},{b}) names unknown point label {label!r}"
                    )
            if a == b:
                raise InvalidSpaceError("labels", f"pair ({a},{b}) joins a point to itself")
            i, j = pos[a], pos[b]
            key = (min(i, j), max(i, j))
            if key in seen:
                raise InvalidSpaceError("labels", f"duplicate distance for pair ({a},{b})")
            seen.add(key)
            rows[i][j] = rows[j][i] = parse_rational(value)
        if len(seen) != n * (n - 1) // 2:
            raise InvalidSpaceError("shape", "missing distances for some point pairs")
        return cls(pts, rows)

    def to_dict(self) -> dict:
        """JSON-ready form: labels plus distance strings like '3' or '1/2'."""
        texts = [format_rational(x) for x in self._spectrum.values]
        return {
            "points": list(self.points),
            "dist": [list(map(texts.__getitem__, row)) for row in self._rank_matrix],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FiniteMetricSpace":
        if not isinstance(data, dict) or "points" not in data or "dist" not in data:
            raise InvalidSpaceError("shape", "space JSON must have 'points' and 'dist'")
        points, dist = data["points"], data["dist"]
        if not isinstance(points, list):
            raise InvalidSpaceError("labels", "space JSON 'points' must be an array of labels")
        if not isinstance(dist, list) or not all(isinstance(row, list) for row in dist):
            raise InvalidSpaceError("shape", "space JSON 'dist' must be an array of arrays")
        return cls(points, dist)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMetricSpace):
            return NotImplemented
        # ranks and spectrum are both dense, so they fix the matrix of values
        return (
            self.points == other.points
            and self._spectrum.values == other._spectrum.values
            and self._rank_matrix == other._rank_matrix
        )

    def __hash__(self) -> int:
        return hash((self.points, self._spectrum.values, self._rank_matrix))

    def __repr__(self) -> str:
        return f"FiniteMetricSpace({len(self.points)} points: {', '.join(self.points)})"


class Violation(_Record):
    """A triple (x, via, y) with d(x, y) > max(d(x, via), d(via, y))."""

    _fields = ("x", "via", "y", "lhs", "bound")
    x: str
    via: str
    y: str
    lhs: Fraction
    bound: Fraction

    def to_dict(self) -> dict:
        return {
            "triple": [self.x, self.via, self.y],
            "d_xy": format_rational(self.lhs),
            "bound": format_rational(self.bound),
        }


class UltraDiagnosis(_Record):
    """Outcome of the triangle-inequality checks over all ordered triples."""

    _fields = ("is_metric", "is_ultrametric", "violation")
    is_metric: bool
    is_ultrametric: bool
    violation: Optional[Violation]

    def to_dict(self) -> dict:
        return {
            "is_metric": self.is_metric,
            "is_ultrametric": self.is_ultrametric,
            "violation": self.violation.to_dict() if self.violation else None,
        }


class Spectrum(_Record):
    """The sorted distinct distances of a space, always starting at 0."""

    _fields = ("values",)
    values: tuple[Fraction, ...]

    @property
    def diameter(self) -> Fraction:
        return self.values[-1]

    @property
    def d0(self) -> tuple[Fraction, ...]:
        """The positive distances (the spectrum without its leading 0)."""
        return self.values[1:]


def _parse_cells(rows: list) -> tuple[list, dict]:
    """The matrix as rows of cell keys, and each key's value, every distinct
    key parsed once and in row order, so the first bad numeral is the first
    one a per-cell parse would meet.

    When every cell is a str, as in every file, the cells are their own
    keys, and the distinct texts are listed and parsed at C speed.  Any other
    cell is parsed on its own and keyed on the Fraction it parses to, never
    on the raw cell: 1, True and 1.0 share a hash, and a list has none.
    """
    # rows of another type may be one-shot iterators, which a second pass finds empty
    if set(map(type, rows)) <= {list, tuple}:
        try:
            texts = dict.fromkeys(chain.from_iterable(rows))
        except TypeError:  # an unhashable cell
            texts = {}
        if set(map(type, texts)) == {str}:
            return rows, dict(zip(texts, map(parse_rational, texts)))
    value_of: dict = {}
    key_rows = []
    for row in rows:
        keys = []
        for x in row:
            key = x if type(x) is str else parse_rational(x)
            if key not in value_of:
                value_of[key] = parse_rational(key)
            keys.append(key)
        key_rows.append(keys)
    return key_rows, value_of


_INF = float("inf")


def _order_key(value: Fraction) -> float:
    """A float key monotone in ``value``: int / int true division is
    correctly rounded, and a quotient too large for a float is infinite."""
    try:
        return value.numerator / value.denominator
    except OverflowError:
        return _INF if value > 0 else -_INF


def _rank_values(values: Sequence[Fraction]) -> tuple[list[int], tuple[Fraction, ...]]:
    """Each value's rank among the distinct values, and those values ascending.

    Sorted on the float key, with exact comparison only among values whose
    keys tie (equal values, or values too close for a float to separate).
    """
    keyed = sorted([(_order_key(v), v, k) for k, v in enumerate(values)])
    rank = [0] * len(values)
    distinct: list[Fraction] = []
    last_key = None
    for key, value, k in keyed:
        if key != last_key or value != distinct[-1]:
            distinct.append(value)
            last_key = key
        rank[k] = len(distinct) - 1
    return rank, tuple(distinct)


def _raise_axiom_error(points, ranks, values, zero: int) -> NoReturn:
    """Raise the first structural axiom the matrix breaks, in row order:
    a row's diagonal, then each pair to its right for symmetry, sign and
    coincidence.  ``values[rank]`` is a rank's value and ``zero`` is the
    rank of the value 0."""
    n = len(points)
    rows = [[values[r] for r in row] for row in ranks]
    for i in range(n):
        if ranks[i][i] != zero:
            raise InvalidSpaceError(
                "diagonal", f"d({points[i]},{points[i]}) = {rows[i][i]} must be 0"
            )
        for j in range(i + 1, n):
            if ranks[i][j] != ranks[j][i]:
                raise InvalidSpaceError(
                    "asymmetry",
                    f"d({points[i]},{points[j]}) = {rows[i][j]} but "
                    f"d({points[j]},{points[i]}) = {rows[j][i]}",
                )
            if ranks[i][j] < zero:
                raise InvalidSpaceError(
                    "negative", f"d({points[i]},{points[j]}) = {rows[i][j]} is negative"
                )
            if ranks[i][j] == zero:
                raise InvalidSpaceError(
                    "coincident",
                    f"d({points[i]},{points[j]}) = 0 but {points[i]} != {points[j]}",
                )
    raise InternalCheckError("the axiom check rejected a valid matrix; this is a bug")


def _mst_edges(dist: Sequence[Sequence[int]]):
    """Prim's minimum spanning tree of a complete distance matrix.

    Yields ``(vertex, parent, weight)`` as each vertex joins the tree that
    grows from vertex 0: the outside vertex nearest the tree, the first in
    stored order on ties, joins through the tree vertex that first reached
    that distance.  O(n^2) comparisons; a generator, so callers can stop at
    the first vertex they reject.  Only the order of the entries is read, so
    callers pass the rank matrix.
    """
    n = len(dist)
    key = list(dist[0])
    parent = [0] * n
    outside = list(range(1, n))
    while outside:
        v = min(outside, key=key.__getitem__)
        outside.remove(v)
        yield v, parent[v], key[v]
        row = dist[v]
        for u in outside:
            if row[u] < key[u]:
                key[u] = row[u]
                parent[u] = v


def _equals_subdominant(dist: Sequence[Sequence[int]]) -> bool:
    """Whether ``dist`` equals its subdominant ultrametric, the path maximum
    over a minimum spanning tree, which holds exactly for ultrametrics.

    Checked as vertices join the tree: every pair already inside holds the
    path maximum, so v joining through parent p at weight w needs
    d(v, u) == max(w, d(p, u)) for each u inside.  O(n^2).
    """
    tree = [0]
    for v, p, w in _mst_edges(dist):
        row_v, row_p = dist[v], dist[p]
        for u in tree:
            if row_v[u] != (w if w >= row_p[u] else row_p[u]):
                return False
        tree.append(v)
    return True


def _subdominant(dist: Sequence[Sequence[int]]) -> list[list[int]]:
    """The subdominant ultrametric of ``dist``, by the recurrence of
    :func:`_equals_subdominant`, every pair filled as its later vertex joins."""
    sub = [[0] * len(dist) for _ in dist]
    tree = [0]
    for v, p, w in _mst_edges(dist):
        row_v, row_p = sub[v], sub[p]
        for u in tree:
            row_v[u] = sub[u][v] = w if w >= row_p[u] else row_p[u]
        tree.append(v)
    return sub


def _first_violation(space: FiniteMetricSpace) -> Optional[Violation]:
    """The first strong-triangle violation, or None, computed once per space:
    the O(n^2) subdominant check accepts, :func:`_scan_violation` names the triple."""
    if space._violation is False:
        space._violation = (
            None if _equals_subdominant(space._rank_matrix) else _scan_violation(space)
        )
    return space._violation


def _scan_violation(space: FiniteMetricSpace) -> Violation:
    """The first ordered triple (a, b, c) in point order with d(a, c) > max(d(a, b), d(b, c)),
    found on the ranks in O(n^2); its two distances are mapped back to values.

    Its a is the first row that differs from the subdominant ultrametric u,
    so only that row's pairs (b, c) are scanned: a violating (a, b, c) has
    u(a, c) < d(a, c), and if u(a, c) < d(a, c), the first point p on a
    minimax path from a to c with d(a, p) > u(a, c) makes (a, q, p) one,
    where q is the point before p."""
    dist, points, values = space._rank_matrix, space.points, space._spectrum.values
    n = len(points)
    sub = _subdominant(dist)
    for a in range(n):
        row_a = dist[a]
        if list(row_a) == sub[a]:
            continue
        for b in range(n):
            if b == a:
                continue
            dab = row_a[b]
            row_b = dist[b]
            for c in range(n):
                if c == a or c == b:
                    continue
                bound = dab if dab >= row_b[c] else row_b[c]
                if row_a[c] > bound:
                    return Violation(
                        points[a], points[b], points[c], values[row_a[c]], values[bound]
                    )
        break
    raise InternalCheckError(
        "the spanning-tree check rejected a space with no violating triple; this is a bug"
    )


def _nearest(space: FiniteMetricSpace) -> tuple[int, ...]:
    """Each point's nearest-neighbour rank, the smallest off-diagonal rank of
    its row (0 for a singleton), computed once per space.  Rank 0 is the
    diagonal and nothing else, so dropping the zeros drops the diagonal."""
    if space._nearest_ranks is None:
        ranks = space._rank_matrix
        space._nearest_ranks = tuple(min(filter(None, row), default=0) for row in ranks)
    return space._nearest_ranks


def validate(space: FiniteMetricSpace) -> UltraDiagnosis:
    """Check the strong triangle inequality over every ordered triple.

    An ultrametric space is accepted in O(n^2) by comparing it with its
    subdominant ultrametric.  Any other space is also rejected in O(n^2),
    with the first violating triple in lexicographic point order, but pays
    for the cubic check of the ordinary triangle inequality for
    ``is_metric``; an ultrametric space is always metric, so both flags are
    true in that case.
    """
    violation = _first_violation(space)
    if violation is None:
        return UltraDiagnosis(is_metric=True, is_ultrametric=True, violation=None)
    dist, n = space.dist, space.n
    # d is symmetric, so the triple (c, b, a) repeats the inequality of (a, b, c)
    is_metric = all(
        dist[a][c] <= dist[a][b] + dist[b][c]
        for a in range(n)
        for c in range(a + 1, n)
        for b in range(n)
        if b != a and b != c
    )
    return UltraDiagnosis(is_metric=is_metric, is_ultrametric=False, violation=violation)


def require_ultrametric(space: FiniteMetricSpace) -> None:
    """Raise :class:`NotUltrametricError` unless the space is ultrametric."""
    violation = _first_violation(space)
    if violation is not None:
        raise NotUltrametricError(violation)


def spectrum(space: FiniteMetricSpace) -> Spectrum:
    """Sorted distinct distances including 0 (the diameter last), built with the space."""
    return space._spectrum


RankMatrix = tuple[tuple[int, ...], ...]


def rank_matrix(space: FiniteMetricSpace) -> RankMatrix:
    """Each distance's index in the sorted spectrum (0 = diagonal), built with the space."""
    return space._rank_matrix


def min_positive_distance(space: FiniteMetricSpace) -> Optional[Fraction]:
    """The smallest positive distance, or None for a singleton."""
    pair = min_pair(space)
    return pair[2] if pair else None


def restrict(space: FiniteMetricSpace, subset: Iterable[str]) -> FiniteMetricSpace:
    """Induced subspace on ``subset``, in the order given.

    Unordered set input falls back to the space's stored point order so the
    result stays deterministic.
    """
    labels = list(subset)
    if isinstance(subset, (set, frozenset)):
        labels.sort(key=space.index)
    if not labels:
        raise ValueError("cannot restrict to an empty point set")
    idx = [space.index(p) for p in labels]
    if len(set(idx)) != len(idx):
        raise ValueError("restriction subset contains repeated labels")
    ranks = space._rank_matrix
    levels = [[ranks[i][j] for j in idx] for i in idx]
    return FiniteMetricSpace._trusted(labels, levels, space._spectrum.values)


def min_pair(space: FiniteMetricSpace) -> Optional[tuple[str, str, Fraction]]:
    """First pair (in lexicographic point order) attaining the minimum
    positive distance; None for a singleton.

    Its first point is the first whose nearest-neighbour rank is the floor,
    and its second is that point's first neighbour at the floor: a point
    before either would be a member of an earlier such pair."""
    if space.n < 2:
        return None
    nearest = _nearest(space)
    floor = min(nearest)
    i = nearest.index(floor)
    j = space._rank_matrix[i].index(floor)
    return (space.points[i], space.points[j], space._spectrum.values[floor])


def swap_isometry(space: FiniteMetricSpace, x1: str, x2: str) -> dict[str, str]:
    """The transposition of a minimum-distance pair, as a point permutation.

    Exchanging the two members of a pair realizing min D0 fixes every other
    point and preserves all distances; that preservation is re-verified here
    before returning, and a failure raises :class:`InternalCheckError`.
    """
    require_ultrametric(space)
    i, j = space.index(x1), space.index(x2)
    if i == j:
        raise ValueError("swap requires two distinct points")
    mp = min_pair(space)
    assert mp is not None
    if space.d(x1, x2) != mp[2]:
        raise ValueError(
            f"pair ({x1},{x2}) at distance {space.d(x1, x2)} does not attain "
            f"the minimum positive distance {mp[2]}"
        )
    perm = {p: p for p in space.points}
    perm[x1], perm[x2] = x2, x1
    for a in space.points:
        for b in space.points:
            if space.d(perm[a], perm[b]) != space.d(a, b):
                raise InternalCheckError(
                    f"swap of ({x1},{x2}) failed to preserve d({a},{b})"
                )
    return perm


def adjoin_near(
    space: FiniteMetricSpace,
    anchor: str,
    eps: RationalLike,
    label: Optional[str] = None,
) -> FiniteMetricSpace:
    """Adjoin one point at distance ``eps`` from ``anchor``.

    Requires 0 < eps < min D0, so the new pair becomes the unique minimum.
    Distances from the new point to everything else are copied from the
    anchor, which keeps the result ultrametric.  Restricting back to the
    original labels returns the input bit-exactly.
    """
    require_ultrametric(space)
    eps = parse_rational(eps)
    a = space.index(anchor)
    if eps <= 0:
        raise ValueError(f"eps = {eps} must be positive")
    floor = min_positive_distance(space)
    if floor is not None and eps >= floor:
        raise ValueError(f"eps = {eps} must be strictly below min D0 = {floor}")
    if label is None:
        label = "c"
        k = 2
        while label in space.points:
            label = f"c{k}"
            k += 1
    elif label in space.points:
        raise ValueError(f"label {label!r} is already a point of the space")
    n = space.n
    rows = [list(row) + [space.dist[a][i]] for i, row in enumerate(space.dist)]
    new_row = [space.dist[a][i] for i in range(n)] + [Fraction(0)]
    rows[a][n] = eps
    new_row[a] = eps
    rows.append(new_row)
    return FiniteMetricSpace(space.points + (label,), rows)
