"""Diametrical graphs and complete multipartite recognition.

The diametrical graph of a space joins exactly the point pairs realizing the
diameter.  For a finite ultrametric space with at least two points this graph
is always complete multipartite, so its sorted part sizes form a complete
isomorphism invariant; four-point spaces therefore classify into one of
K_{1,1,1,1}, K_{1,1,2}, K_{1,3}, K_{2,2} without any generic isomorphism
machinery.  The K_{2,2} case (a plain 4-cycle) is the forbidden pattern for
star-generated spaces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from .errors import NotCompleteMultipartiteError
from .spaces import FiniteMetricSpace


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected graph on ordered string vertices, no loops."""

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


@dataclass(frozen=True)
class MultipartiteSignature:
    """Sorted part sizes plus the witnessing vertex partition."""

    sizes: tuple[int, ...]
    parts: tuple[tuple[str, ...], ...]

    def to_dict(self) -> dict:
        return {"signature": list(self.sizes), "parts": [list(p) for p in self.parts]}


class FourPointClass(Enum):
    K1111 = "K1111"
    K112 = "K112"
    K13 = "K13"
    K22 = "K22"


_CLASS_BY_SIZES = {
    (1, 1, 1, 1): FourPointClass.K1111,
    (1, 1, 2): FourPointClass.K112,
    (1, 3): FourPointClass.K13,
    (2, 2): FourPointClass.K22,
}


def diametrical_graph(space: FiniteMetricSpace) -> SimpleGraph:
    """Graph joining exactly the pairs at distance equal to the diameter."""
    n = space.n
    if n < 2:
        raise ValueError("the diametrical graph needs at least two points")
    dist = space.dist
    diam = max(dist[i][j] for i in range(n) for j in range(i + 1, n))
    edges = [
        (space.points[i], space.points[j])
        for i in range(n)
        for j in range(i + 1, n)
        if dist[i][j] == diam
    ]
    return SimpleGraph.build(space.points, edges)


def complement(graph: SimpleGraph) -> SimpleGraph:
    verts = graph.vertices
    edges = [
        (verts[i], verts[j])
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if not graph.has_edge(verts[i], verts[j])
    ]
    return SimpleGraph.build(verts, edges)


def connected_components(graph: SimpleGraph) -> list[list[str]]:
    """Components as vertex lists, each in vertex order, ordered by first vertex."""
    pos = {v: i for i, v in enumerate(graph.vertices)}
    adj: dict[str, list[str]] = {v: [] for v in graph.vertices}
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[str] = set()
    components = []
    for start in graph.vertices:
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        components.append(sorted(comp, key=pos.__getitem__))
    return components


def multipartite_signature(graph: SimpleGraph) -> Optional[MultipartiteSignature]:
    """Recover the unique partition of a complete multipartite graph.

    Candidate parts are the connected components of the complement; the graph
    is complete multipartite iff every such component is a clique of the
    complement (equivalently, an independent set of the graph).  Cross-part
    adjacency then holds automatically, because any non-adjacent pair of the
    graph is an edge of the complement and lands in one component.  Returns
    None when some component fails the clique test.  Part sizes are sorted
    ascending, ties ordered by first vertex.
    """
    if len(graph.vertices) < 2:
        raise ValueError("multipartite recognition needs at least two vertices")
    comp_graph = complement(graph)
    parts = connected_components(comp_graph)
    for part in parts:
        for i in range(len(part)):
            for j in range(i + 1, len(part)):
                if not comp_graph.has_edge(part[i], part[j]):
                    return None
    pos = {v: i for i, v in enumerate(graph.vertices)}
    parts.sort(key=lambda p: (len(p), pos[p[0]]))
    return MultipartiteSignature(
        tuple(len(p) for p in parts), tuple(tuple(p) for p in parts)
    )


def classify_four_point(space: FiniteMetricSpace) -> FourPointClass:
    """Signature class of a four-point space's diametrical graph.

    Ultrametric input always classifies.  When the signature is absent the
    input cannot be ultrametric, and that contrapositive is reported as a
    distinct error instead of a class.
    """
    if space.n != 4:
        raise ValueError(f"four-point classification got {space.n} points")
    sig = multipartite_signature(diametrical_graph(space))
    if sig is None:
        raise NotCompleteMultipartiteError(
            "diametrical graph is not complete multipartite, "
            "which certifies the space is not ultrametric"
        )
    cls = _CLASS_BY_SIZES.get(sig.sizes)
    if cls is None:
        raise NotCompleteMultipartiteError(
            f"unexpected four-vertex signature {sig.sizes}"
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
    lines = ["graph {"]
    for v in sorted(vertices):
        attr = f" [label={_dot_quote(labels[v])}]" if labels is not None else ""
        lines.append(f"  {_dot_quote(v)}{attr};")
    for u, v in sorted(tuple(sorted(e)) for e in edges):
        lines.append(f"  {_dot_quote(u)} -- {_dot_quote(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_quote(text: str) -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'
