"""Finite metric spaces over exact rational distances.

A :class:`FiniteMetricSpace` is an ordered tuple of point labels plus a
symmetric positive matrix of exact distances.  Construction enforces the
structural axioms (square shape, zero diagonal, symmetry, positive
off-diagonal entries); the triangle inequalities are checked by
:func:`validate`, which distinguishes metric from ultrametric input and
reports the first violating triple.

Construction maps each cell to an id in order of first appearance, parses
each distinct cell (a numeral text, an int or a ``Fraction``) once, ranks
the distinct values once, exactly, and replaces each row of ids by its row
of ranks; a space holds just the spectrum and that int rank matrix.  The
structural checks and every order-only kernel (the ultrametric check, the
nearest neighbours, the center, the four-point classes) read the ranks; a
single distance is its rank's spectrum value.
The ``Fraction`` matrix ``dist`` is built on first read, for the one route
that sums values, ``validate``'s metric flag; :func:`adjoin_near` shifts
ranks and :meth:`FiniteMetricSpace.to_dict` formats each spectrum value once
instead.  Spaces are immutable and operations return new values.
The matrix of values, the first strong-triangle violation, each point's
nearest-neighbour rank and the ball tree (read off the ultrametric check's
own pass, which accepts a space on one total over its pairs) are found once
per space, on first use, purely from the immutable ranks and spectrum, so
concurrent use needs no locks.  Ties break lexicographically in the stored
point order: every operation is deterministic.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import chain, count, repeat
from operator import itemgetter
from typing import Iterable, Mapping, NoReturn, Optional, Sequence

from .errors import InternalCheckError, InvalidSpaceError, NotUltrametricError, _Record
from .rationals import RationalLike, format_rational, parse_rational


class FiniteMetricSpace:
    """Ordered point labels plus an exact symmetric distance matrix, held as
    the matrix's spectrum and int rank matrix."""

    __slots__ = (
        "points", "_dist", "_pos", "_violation", "_nearest_ranks", "_spectrum", "_rank_matrix",
        "_ball_tree",
    )

    def __init__(self, points: Sequence[str], dist: Sequence[Sequence[RationalLike]]):
        pts = tuple(points)
        if not pts:
            raise InvalidSpaceError("labels", "a space needs at least one point")
        if any(not isinstance(p, str) or not p for p in pts):
            raise InvalidSpaceError("labels", "point labels must be non-empty strings")
        if len(set(pts)) != len(pts):
            raise InvalidSpaceError("labels", "point labels must be unique")
        n = len(pts)
        rows, values = _parse_cells(list(dist))
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InvalidSpaceError(
                "shape", f"distance matrix must be {n}x{n} to match {n} points"
            )
        rank, distinct = _rank_values(values)
        # each row of ids gives way to its row of ranks, so the two matrices
        # never both exist
        for i, row in enumerate(rows):
            rows[i] = _gather(rank, row)
        ranks = tuple(rows)
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
        cls,
        points: tuple[str, ...],
        levels: Sequence[Sequence[int]],
        values: Sequence[Fraction],
    ) -> "FiniteMetricSpace":
        """A space from data whose axioms the caller has already checked.

        ``levels`` is a symmetric int matrix, 0 exactly on the diagonal, in
        the order of the distances, and ``values[level]`` is the distance, so
        ``values[0]`` is 0.  The levels are re-ranked densely and the used
        values become the spectrum; nothing is parsed or checked, no
        ``Fraction`` matrix is built, and the labels must be valid and unique.
        """
        used = sorted(set().union(*levels))
        if used[-1] == len(used) - 1:
            # already dense, as most generated spaces' levels are
            ranks = tuple(map(tuple, levels))
        else:
            dense = [0] * (used[-1] + 1)
            for rank, level in enumerate(used):
                dense[level] = rank
            ranks = tuple(tuple(map(dense.__getitem__, row)) for row in levels)
        space = cls.__new__(cls)
        space._set(tuple(points), ranks, Spectrum(tuple(values[level] for level in used)))
        return space

    def _set(self, points, ranks, spec) -> None:
        self.points = points
        self._pos = {p: i for i, p in enumerate(points)}
        self._rank_matrix = ranks
        self._spectrum = spec
        # the Fraction matrix, the first strong-triangle violation, the
        # nearest-neighbour ranks and the ball tree, built on first use;
        # equality and hashing read none of them
        self._dist = None
        self._violation = False  # not yet checked, then None or a Violation
        self._nearest_ranks = None
        self._ball_tree = None  # set by the check that accepts the space

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


_EXACT = frozenset({str, int, Fraction})


def _parse_cells(rows: list) -> tuple[list, list[Fraction]]:
    """The matrix as rows of cell ids, and the value of each id, 0 at id 0.
    The distinct cells take ids from 1 in order of first appearance and are
    parsed once each in that order, so the first bad numeral is the first
    one a per-cell parse would meet.

    Rows map to ids at C speed when every cell is a str, an int or a
    Fraction, types whose equal cells have equal values.  Only a str equals
    a str key, but True or 1.0 may hide behind an equal int or Fraction key,
    so those keys need one pass over the cells' types.  Every other matrix
    is parsed cell by cell, and keyed on the Fractions.
    """
    # rows of another type may be one-shot iterators, which a second pass finds empty
    if set(map(type, rows)) <= {list, tuple}:
        ids = defaultdict(count(1).__next__)
        try:
            id_rows = [_gather(ids, row) for row in rows]
        except TypeError:  # an unhashable cell
            pass
        else:
            kinds = set(map(type, ids))
            if kinds == {str} or (
                kinds <= _EXACT and set(map(type, chain.from_iterable(rows))) <= _EXACT
            ):
                return id_rows, [Fraction(0), *map(parse_rational, ids)]
    return _parse_cells([[parse_rational(x) for x in row] for row in rows])


def _gather(table, row) -> tuple:
    """``tuple(table[x] for x in row)``, in one ``itemgetter`` call when the
    row has two cells or more (it returns one item bare, and takes none)."""
    if len(row) > 1:
        return itemgetter(*row)(table)
    return tuple(table[x] for x in row)


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

    Yields ``(vertex, weight)`` as each vertex joins the tree that grows from
    vertex 0: the outside vertex nearest the tree, the first in stored order
    on ties, at its distance to the tree.  O(n^2) comparisons, the argmin
    of each step by ``min`` and ``list.index`` in C.  Only the order of the
    entries is read, so callers pass the rank matrix.
    """
    outside = list(range(1, len(dist)))
    keys = list(dist[0][1:])  # aligned with outside, which stays ascending
    while outside:
        i = keys.index(min(keys))
        v = outside.pop(i)
        yield v, keys.pop(i)
        row = dist[v]
        for j, u in enumerate(outside):
            if row[u] < keys[j]:
                keys[j] = row[u]


# a ball-tree leaf; a node is (level, leaves below it, children)
_LEAF = (0, 1, ())


def _balls(root: tuple):
    """Walk a ball tree in pre-order: yield ``(node, starts, balls)`` for
    each ball, a node with children, whose leaves are the run of the leaf
    order from ``starts[0]``.  ``starts`` is each child's first leaf offset,
    and ``balls`` lists the child balls as ``(child, offset)``.

    A parent comes before its child balls, which come off a stack, the last
    first.  The walk keeps no recursion, as a tree can be n - 1 balls deep.
    """
    stack = [(root, 0)] if root[2] else []
    while stack:
        node, at = stack.pop()
        starts = []
        balls = []
        for child in node[2]:
            starts.append(at)
            if child[2]:
                balls.append((child, at))
            at += child[1]
        yield node, starts, balls
        stack += balls


def _subdominant_tree(dist: Sequence[Sequence[int]]) -> tuple:
    """The ball tree of the subdominant ultrametric u of ``dist``, the path
    maximum over a minimum spanning tree, as ``(root, leaf order)``, and the
    total of u over ordered pairs.  O(n^2) for the spanning tree, then O(n).

    The tree is read off Prim's join order, a single-linkage order (Gower
    and Ross 1969): a ball is a run of it at the largest join weight inside,
    and equal maxima make one ball.  A ball of size s is u's value on the
    ordered pairs in two of its children, so when it closes it adds its
    level times s^2 less the sum of its children's squared sizes.
    """
    order = [0]
    # the open balls, [level, leaves, children, sum of the children's
    # squared sizes], on one never closed
    top = [_INF, 0, [], 0]
    stack = [top]
    node = _LEAF
    total = 0
    for v, w in _mst_edges(dist):
        order.append(v)
        while top[0] < w:
            stack.pop()
            top[2].append(node)
            size = top[1] + node[1]
            total += top[0] * (size * size - top[3] - node[1] * node[1])
            node = (top[0], size, tuple(top[2]))
            top = stack[-1]
        if top[0] == w:
            top[1] += node[1]
            top[2].append(node)
            top[3] += node[1] * node[1]
        else:
            top = [w, node[1], [node], node[1] * node[1]]
            stack.append(top)
        node = _LEAF
    for level, size, children, squares in reversed(stack[1:]):  # the balls the last point ends
        size += node[1]
        total += level * (size * size - squares - node[1] * node[1])
        node = (level, size, (*children, node))
    return (node, order), total


def _subdominant_row_sums(tree: tuple) -> list[int]:
    """Each point's row sum in the ultrametric whose ball tree is ``tree``,
    ``(root, leaf order)``, in O(n).  A point's sum adds, for each ball above
    it, the ball's level once per point of the ball outside the child that
    holds the point.  Only a rejected space needs them, to name its first
    row that differs."""
    root, order = tree
    # each child's total, at its first leaf, where a child ball reads its
    # own when walked, before its children overwrite it
    totals = [0] * len(order)
    for (level, size, children), starts, _ in _balls(root):
        total = totals[starts[0]]
        for child, at in zip(children, starts):
            totals[at] = total + level * (size - child[1])
    sums = [0] * len(order)
    for v, total in zip(order, totals):
        sums[v] = total
    return sums


def _first_four_cycle(tree: tuple) -> Optional[tuple[int, int, int, int]]:
    """The first quad a < b < c < d, in lexicographic order, whose
    diametrical graph is a 4-cycle, read off the ball tree ``(root, leaf
    order)`` that the ultrametric check kept; None if there is none.

    A quad is a 4-cycle iff it splits 2+2 between two child balls of its
    least common ball: its diameter is that ball's level, reached exactly
    between points in different children.  Lowering any point of a quad
    lowers its sorted tuple, so each child ball offers its two smallest
    points, and the child offering the least point is in the ball's best
    pair of children: put in place of the child that holds another pair's
    least point, it lowers that least point.  Each ball with two or more
    child balls sorts their leaves, O(n^2) in all at worst.
    """
    root, order = tree
    best = None
    for _, _, balls in _balls(root):
        if len(balls) > 1:
            pairs = [sorted(order[at:at + child[1]])[:2] for child, at in balls]
            least = min(pairs)
            pairs.remove(least)
            quad = min(tuple(sorted(least + pair)) for pair in pairs)
            if best is None or quad < best:
                best = quad
    return best


def _first_violation(space: FiniteMetricSpace) -> Optional[Violation]:
    """The first strong-triangle violation, or None, computed once per space
    in O(n^2).

    The subdominant ultrametric u is never above the distances, so the space
    is its own u exactly when the two totals over ordered pairs are equal;
    it then keeps u's ball tree.  Else :func:`_scan_violation` names the
    triple from the first row whose sum differs from its sum in u.  That
    u <= d rests on Prim's tree being a true minimum spanning tree, whose
    path maximum between two points is at most their distance.
    """
    if space._violation is False:
        ranks = space._rank_matrix
        tree, total = _subdominant_tree(ranks)
        if sum(map(sum, ranks)) == total:
            space._ball_tree = tree
            space._violation = None
        else:
            rows = map(sum, ranks)
            sums = _subdominant_row_sums(tree)
            a = next(a for a, (row, sub) in enumerate(zip(rows, sums)) if row != sub)
            space._violation = _scan_violation(space, a)
    return space._violation


def _scan_violation(space: FiniteMetricSpace, a: int) -> Violation:
    """The first ordered triple (a, b, c) in point order with d(a, c) > max(d(a, b), d(b, c)),
    found on the ranks in O(n^2); its two distances are mapped back to values.

    Its a is the first row that differs from the subdominant ultrametric u,
    so only that row's pairs (b, c) are scanned: a violating (a, b, c) has
    u(a, c) < d(a, c), and if u(a, c) < d(a, c), the first point p on a
    minimax path from a to c with d(a, p) > u(a, c) makes (a, q, p) one,
    where q is the point before p.  A row with no such pair raises
    :class:`InternalCheckError`: u would then be above d somewhere, so
    Prim's tree was no minimum spanning tree."""
    dist, points, values = space._rank_matrix, space.points, space._spectrum.values
    n = len(points)
    row_a = dist[a]
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
    raise InternalCheckError(
        "the spanning-tree check rejected a space with no violating triple; this is a bug"
    )


def _nearest(space: FiniteMetricSpace) -> tuple[int, ...]:
    """Each point's nearest-neighbour rank, the smallest off-diagonal rank of
    its row (0 for a singleton), computed once per space in one linear
    ``min`` a row.  Rank 0 is the diagonal and nothing else, so dropping the
    zeros drops the diagonal."""
    if space._nearest_ranks is None:
        ranks = space._rank_matrix
        rows = map(filter, repeat(None), ranks)
        space._nearest_ranks = tuple(map(min, rows)) if len(ranks) > 1 else (0,)
    return space._nearest_ranks


def validate(space: FiniteMetricSpace) -> UltraDiagnosis:
    """Check the strong triangle inequality over every ordered triple.

    An ultrametric space is accepted in O(n^2) by comparing the total of
    its distances with that of its subdominant ultrametric.  Any other
    space is also rejected in O(n^2), with the first violating triple in
    lexicographic point order, but pays for the cubic check of the ordinary
    triangle inequality for ``is_metric``; an ultrametric space is always
    metric, so both flags are true in that case.
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


def _require_ball_tree(space: FiniteMetricSpace) -> tuple:
    """The ball tree, ``(root, leaf order)``, kept by the check that accepted
    the space; raises as :func:`require_ultrametric` does on any other."""
    require_ultrametric(space)
    return space._ball_tree


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
    # eps is the new least positive value: each old positive rank moves up
    # one, and the new pair takes rank 1
    rows = [[r + 1 for r in row] for row in space._rank_matrix]
    new_row = rows[a][:]
    new_row[a] = 1
    for i, row in enumerate(rows):
        row[i] = 0
        row.append(new_row[i])
    new_row.append(0)
    rows.append(new_row)
    values = space._spectrum.values
    return FiniteMetricSpace._trusted(space.points + (label,), rows, (values[0], eps, *values[1:]))
