"""Labeled trees, labeled star graphs, and the metrics they generate.

A labeled tree assigns a non-negative rational to every vertex; the induced
distance between two vertices is the largest label on the unique path
joining them (endpoints included).  That distance is an ultrametric exactly
when the labeling is non-degenerate, i.e. no edge has both endpoints labeled
zero.  A star graph is the special case of one hub adjacent to every other
vertex; spaces generated by labeled stars are the target class of the whole
toolkit.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from operator import le
from typing import Mapping, Optional, Sequence

from .diametrical import _dot
from .errors import CenterViolationError, DegenerateLabelingError, InternalCheckError, _Record
from .rationals import RationalLike, format_rational, parse_rational
from .spaces import FiniteMetricSpace, _nearest, rank_matrix, require_ultrametric, spectrum


class LabeledTree(_Record):
    """A tree with an ordered vertex tuple and a label per vertex.

    Edges are stored index-ordered and sorted, so "first edge" is well
    defined everywhere deterministic choices are needed.
    """

    _fields = ("vertices", "edges", "labels")
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    labels: tuple[Fraction, ...]

    @classmethod
    def build(
        cls,
        vertices: Sequence[str],
        edges: Sequence[tuple[str, str]],
        labels: Mapping[str, RationalLike],
    ) -> "LabeledTree":
        verts = tuple(vertices)
        if not verts:
            raise ValueError("a tree needs at least one vertex")
        if len(set(verts)) != len(verts):
            raise ValueError("vertex labels must be unique")
        pos = {v: i for i, v in enumerate(verts)}
        canon = []
        seen = set()
        for u, v in edges:
            if u not in pos or v not in pos:
                raise ValueError(f"edge ({u},{v}) uses an unknown vertex")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            key = (pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u])
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)
            canon.append(key)
        if len(canon) != len(verts) - 1:
            raise ValueError("a tree on n vertices has exactly n-1 edges")
        canon.sort()
        # connectivity; acyclicity then follows from the edge count
        adj: dict[int, list[int]] = {i: [] for i in range(len(verts))}
        for i, j in canon:
            adj[i].append(j)
            adj[j].append(i)
        reached = {0}
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in reached:
                    reached.add(y)
                    queue.append(y)
        if len(reached) != len(verts):
            raise ValueError("tree is not connected")
        lab = []
        for v in verts:
            if v not in labels:
                raise ValueError(f"missing label for vertex {v}")
            value = parse_rational(labels[v])
            if value < 0:
                raise ValueError(f"label of {v} must be non-negative, got {value}")
            lab.append(value)
        return cls(verts, tuple((verts[i], verts[j]) for i, j in canon), tuple(lab))

    def adjacency(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


class LabeledStarGraph(_Record):
    """One center adjacent to every leaf, with a label on every vertex.

    ``order`` is the vertex sequence of :func:`star_metric`: center first from
    :meth:`build`, the space's point order from :func:`star_from_center`, so
    round trips reproduce matrices bit-exactly.
    """

    _fields = ("center", "center_label", "leaves", "leaf_labels", "order")
    center: str
    center_label: Fraction
    leaves: tuple[str, ...]
    leaf_labels: tuple[Fraction, ...]
    order: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not self.order:
            object.__setattr__(self, "order", (self.center,) + self.leaves)

    @classmethod
    def build(
        cls,
        center: str,
        center_label: RationalLike,
        leaf_labels: Mapping[str, RationalLike],
    ) -> "LabeledStarGraph":
        c_label = parse_rational(center_label)
        if c_label < 0:
            raise ValueError("center label must be non-negative")
        leaves = tuple(leaf_labels)
        if center in leaves:
            raise ValueError("center cannot also be a leaf")
        values = []
        for leaf in leaves:
            value = parse_rational(leaf_labels[leaf])
            if value < 0:
                raise ValueError(f"label of leaf {leaf} must be non-negative")
            if value == 0 and c_label == 0:
                raise DegenerateLabelingError((center, leaf))
            values.append(value)
        return cls(center, c_label, leaves, tuple(values))

    def leaf_label(self, leaf: str) -> Fraction:
        return self.leaf_labels[self.leaves.index(leaf)]

    def to_tree(self) -> LabeledTree:
        labels = {self.center: self.center_label}
        labels.update(dict(zip(self.leaves, self.leaf_labels)))
        return LabeledTree.build(
            self.order, [(self.center, leaf) for leaf in self.leaves], labels
        )

    def to_dict(self) -> dict:
        return {
            "center": self.center,
            "center_label": format_rational(self.center_label),
            "leaves": {
                leaf: format_rational(value)
                for leaf, value in zip(self.leaves, self.leaf_labels)
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LabeledStarGraph":
        if not isinstance(data, dict) or "center" not in data or "leaves" not in data:
            raise ValueError("star JSON must have 'center' and 'leaves'")
        center, leaves = data["center"], data["leaves"]
        if not isinstance(center, str) or not center:
            raise ValueError("star JSON 'center' must be a non-empty string")
        if not isinstance(leaves, dict) or not all(isinstance(leaf, str) for leaf in leaves):
            raise ValueError("star JSON 'leaves' must be an object mapping leaf names to labels")
        return cls.build(center, data.get("center_label", 0), leaves)


def degenerate_edge(tree: LabeledTree) -> Optional[tuple[str, str]]:
    """First edge whose endpoint labels are both zero, or None if none is."""
    pos = {v: i for i, v in enumerate(tree.vertices)}
    for u, v in tree.edges:
        if max(tree.labels[pos[u]], tree.labels[pos[v]]) == 0:
            return (u, v)
    return None


def tree_metric(tree: LabeledTree) -> FiniteMetricSpace:
    """The path-maximum distance of a non-degenerate labeled tree.

    d(u, v) is the largest label on the unique u-v path, endpoints included;
    the result always satisfies the strong triangle inequality.  Paths are
    found by breadth-first search, which is plenty at desk scale.
    """
    bad = degenerate_edge(tree)
    if bad is not None:
        raise DegenerateLabelingError(bad)
    verts = tree.vertices
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    adj = tree.adjacency()
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, source in enumerate(verts):
        # path maximum from source to every vertex in one traversal
        best = {source: tree.labels[i]}
        queue = deque([source])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in best:
                    mx = best[x]
                    ly = tree.labels[pos[y]]
                    best[y] = mx if mx >= ly else ly
                    queue.append(y)
        for y, value in best.items():
            if y != source:
                rows[i][pos[y]] = value
    return FiniteMetricSpace(verts, rows)


def star_metric(star: LabeledStarGraph) -> FiniteMetricSpace:
    """The metric generated by a labeled star.

    Leaf-to-leaf distance is max(leaf label, leaf label, center label);
    center-to-leaf distance drops the second leaf term.
    """
    label = {star.center: star.center_label}
    label.update(dict(zip(star.leaves, star.leaf_labels)))
    order = star.order
    n = len(order)
    c = star.center_label
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            u, v = order[i], order[j]
            if u == star.center or v == star.center:
                value = max(label[u], label[v])
            else:
                value = max(label[u], label[v], c)
            rows[i][j] = rows[j][i] = value
    return FiniteMetricSpace(order, rows)


def center_condition_violation(
    space: FiniteMetricSpace, candidate: str
) -> Optional[tuple[str, str]]:
    """First pair (x, y) with d(candidate, x) > d(y, x), or None.

    A point with no such pair is a valid star center: it is at least as
    close to every other point as anything else is.  Compared on ranks: one
    pass accepts when d(candidate, x) is the memoised nearest-neighbour
    distance of every other x, and only a rejected candidate pays for the
    ordered pairs.
    """
    c = space.index(candidate)
    n = space.n
    dist = rank_matrix(space)
    if all(map(le, dist[c], _nearest(space))):
        return None
    for a in range(n):
        if a == c:
            continue
        for b in range(n):
            if b == c or b == a:
                continue
            if dist[c][b] > dist[a][b]:
                return (space.points[b], space.points[a])
    raise InternalCheckError(
        f"{candidate} failed the nearest-neighbour test but no pair violates "
        "the center condition; this is a bug"
    )


def star_from_center(space: FiniteMetricSpace, x0: str) -> LabeledStarGraph:
    """Reconstruct the generating star of an ultrametric space from a center.

    The center keeps label 0 and every other point x becomes a leaf labeled
    d(x, x0).  Feeding the result back through :func:`star_metric` returns
    the input space bit-exactly.  The leaf labels are the center's row, read
    off its ranks in the checked spectrum, positive and already exact, so
    nothing is parsed again and no other row is built.
    """
    require_ultrametric(space)
    c = space.index(x0)
    witness = center_condition_violation(space, x0)
    if witness is not None:
        x, y = witness
        raise CenterViolationError(
            x0,
            witness,
            f"{x0} is not a star center: d({x0},{x}) = {space.d(x0, x)} > "
            f"d({y},{x}) = {space.d(y, x)}",
        )
    points, values = space.points, spectrum(space).values
    row = tuple(map(values.__getitem__, rank_matrix(space)[c]))
    return LabeledStarGraph(
        x0, Fraction(0), points[:c] + points[c + 1:], row[:c] + row[c + 1:], points
    )


def star_center(tree: LabeledTree) -> Optional[str]:
    """The hub of a star-shaped tree.

    With three or more vertices the hub is unique; with one or two every
    vertex qualifies and the first is returned by convention.
    """
    n = len(tree.vertices)
    if n <= 2:
        return tree.vertices[0]
    degree = {v: 0 for v in tree.vertices}
    for u, v in tree.edges:
        degree[u] += 1
        degree[v] += 1
    for v in tree.vertices:
        if degree[v] == n - 1:
            return v
    return None


def tree_to_dot(tree: LabeledTree) -> str:
    """Graphviz text for a labeled tree, with labels as vertex annotations.

    Vertices and edges are emitted in lexicographic order so output is
    diff-stable.
    """
    labels = {v: f"{v}:{format_rational(x)}" for v, x in zip(tree.vertices, tree.labels)}
    return _dot(tree.vertices, tree.edges, labels)


def star_to_dot(star: LabeledStarGraph) -> str:
    """Graphviz text for a labeled star, as :func:`tree_to_dot` writes its tree."""
    vertices = (star.center,) + star.leaves
    values = (star.center_label,) + star.leaf_labels
    labels = {v: f"{v}:{format_rational(x)}" for v, x in zip(vertices, values)}
    return _dot(vertices, [(star.center, leaf) for leaf in star.leaves], labels)
