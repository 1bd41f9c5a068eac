"""Diametrical graphs and complete multipartite recognition.

The diametrical graph of a space joins exactly the point pairs realizing the
diameter.  For a finite ultrametric space with at least two points this graph
is always complete multipartite, so its sorted part sizes form a complete
isomorphism invariant; four-point spaces therefore classify into one of
K_{1,1,1,1}, K_{1,1,2}, K_{1,3}, K_{2,2} without any generic isomorphism
machinery.  The K_{2,2} case (a plain 4-cycle) is the forbidden pattern for
star-generated spaces.

On four points the class is read straight off the sub-diameter pairs, the
graph's non-edges, by one private classifier that the four-point class and
the model table of the conjecture checks share on int ranks; no graph is
built, and no ``Fraction`` is compared.
In a general complete multipartite graph, each vertex's part is its closed
non-neighbourhood."""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from .errors import NotCompleteMultipartiteError, _Record
from .spaces import FiniteMetricSpace, rank_matrix, spectrum


class SimpleGraph(_Record):
    """Undirected graph on ordered string vertices, no loops."""

    _fields = ("vertices", "edges")
    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    @classmethod
    def build(
        cls, vertices: Sequence[str], edges: Sequence[tuple[str, str]]
    ) -> "SimpleGraph":
        verts = tuple(vertices)
        if len(set(verts)) != len(verts):
            raise ValueError("vertex labels must be unique")
        pos = {v: i for i, v in enumerate(verts)}
        canon = set()
        for u, v in edges:
            if u not in pos or v not in pos:
                raise ValueError(f"edge ({u},{v}) uses an unknown vertex")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            canon.add((u, v) if pos[u] < pos[v] else (v, u))
        return cls(verts, frozenset(canon))

    def has_edge(self, u: str, v: str) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    def degree(self, v: str) -> int:
        return sum(1 for e in self.edges if v in e)


class MultipartiteSignature(_Record):
    """Sorted part sizes plus the witnessing vertex partition."""

    _fields = ("sizes", "parts")
    sizes: tuple[int, ...]
    parts: tuple[tuple[str, ...], ...]

    def to_dict(self) -> dict:
        return {"signature": list(self.sizes), "parts": [list(p) for p in self.parts]}


class FourPointClass(Enum):
    K1111 = "K1111"
    K112 = "K112"
    K13 = "K13"
    K22 = "K22"


def diametrical_graph(space: FiniteMetricSpace) -> SimpleGraph:
    """Graph joining exactly the pairs at distance equal to the diameter."""
    n = space.n
    if n < 2:
        raise ValueError("the diametrical graph needs at least two points")
    dist = rank_matrix(space)
    diam = len(spectrum(space).values) - 1
    edges = [
        (space.points[i], space.points[j])
        for i in range(n)
        for j in range(i + 1, n)
        if dist[i][j] == diam
    ]
    return SimpleGraph.build(space.points, edges)


def multipartite_signature(graph: SimpleGraph) -> Optional[MultipartiteSignature]:
    """Recover the unique partition of a complete multipartite graph.

    A vertex's closed non-neighbourhood (itself plus every vertex it is not
    joined to) is its part: the graph is complete multipartite iff every
    member of that set has the same closed non-neighbourhood, that is, iff
    non-adjacency is an equivalence relation.  Returns None otherwise.  Part
    sizes are sorted ascending, ties ordered by first vertex.
    """
    verts = graph.vertices
    if len(verts) < 2:
        raise ValueError("multipartite recognition needs at least two vertices")
    closed = {v: tuple(u for u in verts if u == v or not graph.has_edge(u, v)) for v in verts}
    if any(closed[u] != part for part in closed.values() for u in part):
        return None
    # distinct parts in order of first vertex; the sort is stable
    parts = sorted(dict.fromkeys(closed.values()), key=len)
    return MultipartiteSignature(tuple(len(p) for p in parts), tuple(parts))


def _quad_class(dist: Sequence[Sequence], quad: Sequence[int]) -> Optional[FourPointClass]:
    """Class of the diametrical graph on four indices of ``dist``, read off
    its non-edges, the sub-diameter pairs, listed in pair order of ``quad``.

    ``dist`` holds distances or their ranks; only their order is read.
    None means the graph is not complete multipartite.
    """
    a, b, c, e = quad
    ra, rb = dist[a], dist[b]
    values = (ra[b], ra[c], ra[e], rb[c], rb[e], dist[c][e])
    diam = max(values)
    pairs = ((a, b), (a, c), (a, e), (b, c), (b, e), (c, e))
    low = [pair for pair, value in zip(pairs, values) if value < diam]
    if len(low) == 2:
        (p, q), (r, s) = low
        # p != s already: pairs list in quad order, so p precedes r, which precedes s
        return FourPointClass.K22 if p != r and q != r and q != s else None
    if len(low) == 3:
        # a triangle on x, y, z, in quad order, lists as (x, y), (x, z), (y, z)
        (p, q), (r, s), (t, u) = low
        return FourPointClass.K13 if p == r and t == q and u == s else None
    if len(low) < 2:
        return FourPointClass.K112 if low else FourPointClass.K1111
    return None


def classify_four_point(space: FiniteMetricSpace) -> FourPointClass:
    """Signature class of a four-point space's diametrical graph.

    Ultrametric input always classifies.  When the signature is absent the
    input cannot be ultrametric, and that contrapositive is reported as a
    distinct error instead of a class.
    """
    if space.n != 4:
        raise ValueError(f"four-point classification got {space.n} points")
    cls = _quad_class(rank_matrix(space), (0, 1, 2, 3))
    if cls is None:
        raise NotCompleteMultipartiteError(
            "diametrical graph is not complete multipartite, "
            "which certifies the space is not ultrametric"
        )
    return cls


def graph_to_dot(graph: SimpleGraph) -> str:
    """Graphviz text with vertices and edges in lexicographic order."""
    return _dot(graph.vertices, graph.edges, None)


def _dot(
    vertices: Iterable[str],
    edges: Iterable[tuple[str, str]],
    labels: Optional[Mapping[str, str]],
) -> str:
    """Undirected Graphviz text, vertices and edges sorted lexicographically.

    Names and labels are written as quoted DOT strings with backslash, double
    quote and newline escaped, so any label yields valid Graphviz.
    """
    names = {v: _dot_quote(v) for v in sorted(vertices)}
    lines = ["graph {"]
    if labels is None:
        lines += [f"  {name};" for name in names.values()]
    else:
        lines += [f"  {name} [label={_dot_quote(labels[v])}];" for v, name in names.items()]
    pairs = sorted((u, v) if u <= v else (v, u) for u, v in edges)
    lines += [f"  {names[u]} -- {names[v]};" for u, v in pairs]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_quote(text: str) -> str:
    if '"' in text or "\\" in text or "\n" in text:
        text = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{text}"'
