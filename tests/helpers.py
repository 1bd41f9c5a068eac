"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the code paths they check: the ultrametric
enumeration oracle filters a raw product through its own cubic triple scan,
the max-metric embedding oracle tries every point ordering outright, the
matching oracle tries every point permutation in itertools order, and the
multipartite oracle takes the complement graph's components by breadth-first
search and tests each for a clique.  The order-only kernels, which the
package runs on each space's int rank matrix, keep their ``Fraction``
versions here: the constructor's checks with a per-cell parse, the
spanning-tree ultrametric check, the center search, the center condition, the star formula,
the violating-triple scan, the quartic 4-cycle scan, the max-metric
weights, the nearest-neighbour ranks and the adjunction of a near point, all
comparing or copying the exact distances.  The full cubic triple scan and
the quartic 4-cycle scan, which the package replaced by O(n^2) searches, also
run here on int rank matrices.  The dendrogram sampler keeps its
``randrange`` form here, the reference for the draws the package takes
straight from ``getrandbits``, and the ball-tree walk its recursive form,
with leaf offsets counted instead of summed from size fields.
"""

from __future__ import annotations

import importlib.util
import random
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path

from starmetric import (
    ForbiddenWitness,
    InvalidSpaceError,
    LabeledTree,
    S4,
    W4,
    Z4,
    FiniteMetricSpace,
    FourPointClass,
    GeneratorSpec,
    LabeledStarGraph,
    MultipartiteSignature,
    SimpleGraph,
    UltraDiagnosis,
    Violation,
    classify_forbidden,
    classify_four_point,
    embeds_in_dplus,
    rank_matrix,
    model_match,
    restrict,
    sample_dendrogram,
    spectrum,
    weakly_similar,
)
from starmetric.diametrical import _quad_class
from starmetric.lab import EquidistantCheck, K112Check, K13Check
from starmetric.rationals import parse_rational
from starmetric.spaces import _balls, require_ultrametric

DEFAULT_ALPHABET = ("1", "2", "3", "4")

# the benchmark's seeded space generators, which import nothing of the package
_GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"
_spec = importlib.util.spec_from_file_location("bench_gen", _GEN)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def sample_space(n: int, seed: int, index: int = 0, alphabet=DEFAULT_ALPHABET) -> FiniteMetricSpace:
    spec = GeneratorSpec(n=n, alphabet=alphabet, mode="sample", seed=seed, count=1)
    return sample_dendrogram(spec, index)


def random_star(rng: random.Random, max_leaves: int = 12) -> LabeledStarGraph:
    """A seeded non-degenerate labeled star with rational labels."""
    n_leaves = rng.randint(1, max_leaves)
    center_label = Fraction(rng.randint(0, 6), rng.choice((1, 2, 3, 4)))
    leaf_labels = {}
    for i in range(n_leaves):
        value = Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 4)))
        if center_label == 0 and value == 0:
            value = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))
        leaf_labels[f"v{i + 1}"] = value
    return LabeledStarGraph.build("hub", center_label, leaf_labels)


def star_metric_oracle(star: LabeledStarGraph) -> FiniteMetricSpace:
    """The star formula over ``star.order``, without building a tree:
    leaf-to-leaf distance is max(leaf label, leaf label, center label), and
    center-to-leaf distance drops the second leaf term."""
    label = {star.center: star.center_label}
    label.update(zip(star.leaves, star.leaf_labels))
    order = star.order
    n = len(order)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            u, v = order[i], order[j]
            if star.center in (u, v):
                value = max(label[u], label[v])
            else:
                value = max(label[u], label[v], star.center_label)
            rows[i][j] = rows[j][i] = value
    return FiniteMetricSpace(order, rows)


def brute_force_ultrametrics(n: int, alphabet) -> list[FiniteMetricSpace]:
    """Oracle enumeration: every raw symmetric matrix, filtered by the cubic
    triple scan of :func:`validate_oracle`."""
    values = [Fraction(v) for v in alphabet]
    labels = tuple(f"p{i + 1}" for i in range(n))
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = []
    for assignment in product(values, repeat=len(cells)):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for (i, j), v in zip(cells, assignment):
            rows[i][j] = rows[j][i] = v
        space = FiniteMetricSpace(labels, rows)
        if validate_oracle(space).is_ultrametric:
            found.append(space)
    return found


def validate_oracle(space: FiniteMetricSpace) -> UltraDiagnosis:
    """Cubic reference for validate(): the first ordered triple (a, b, c), in
    itertools.permutations order, with d(a, c) > max(d(a, b), d(b, c)), and
    the ordinary triangle inequality over every ordered triple."""
    dist, points = space.dist, space.points
    triples = list(permutations(range(space.n), 3))
    for a, b, c in triples:
        bound = max(dist[a][b], dist[b][c])
        if dist[a][c] > bound:
            is_metric = all(dist[x][z] <= dist[x][y] + dist[y][z] for x, y, z in triples)
            violation = Violation(points[a], points[b], points[c], dist[a][c], bound)
            return UltraDiagnosis(is_metric=is_metric, is_ultrametric=False, violation=violation)
    return UltraDiagnosis(is_metric=True, is_ultrametric=True, violation=None)


def embeds_oracle(space: FiniteMetricSpace) -> bool:
    """Brute force over point orderings: the j-th point of a valid ordering
    is equidistant from all earlier points, at strictly increasing values."""
    n = space.n
    if n == 1:
        return True
    if n > 5:
        raise ValueError("ordering oracle is for n <= 5")
    dist = space.dist
    for order in permutations(range(n)):
        previous = None
        ok = True
        for jpos in range(1, n):
            j = order[jpos]
            values = {dist[order[i]][j] for i in range(jpos)}
            if len(values) != 1:
                ok = False
                break
            value = values.pop()
            if previous is not None and value <= previous:
                ok = False
                break
            previous = value
        if ok:
            return True
    return False


def scale(space: FiniteMetricSpace, factor) -> FiniteMetricSpace:
    f = Fraction(factor)
    return FiniteMetricSpace(
        space.points, [[x * f for x in row] for row in space.dist]
    )


def relabel(space: FiniteMetricSpace, new_points) -> FiniteMetricSpace:
    return FiniteMetricSpace(tuple(new_points), space.dist)


def first_matching_permutation(ma, mb):
    """Oracle for isometry and weak similarity witnesses: the first
    permutation p in itertools.permutations order with
    ma[i][k] == mb[p[i]][p[k]] for all i, k, or None."""
    n = len(ma)
    for perm in permutations(range(n)):
        if all(ma[i][k] == mb[perm[i]][perm[k]] for i in range(n) for k in range(n)):
            return perm
    return None


def ranks(matrix):
    """Each entry replaced by its index among the matrix's sorted distinct values."""
    index = {v: k for k, v in enumerate(sorted({x for row in matrix for x in row}))}
    return [[index[x] for x in row] for row in matrix]


def multipartite_oracle(graph: SimpleGraph):
    """Reference for multipartite_signature(): the complement's connected
    components (breadth-first, each in vertex order) are the candidate parts,
    and the graph is complete multipartite iff each is a clique of the
    complement.  Parts sorted by size, ties by first vertex; None otherwise."""
    verts = graph.vertices
    pos = {v: i for i, v in enumerate(verts)}
    comp = SimpleGraph.build(verts, [
        (u, v) for u, v in combinations(verts, 2) if not graph.has_edge(u, v)
    ])
    adj = {v: [] for v in verts}
    for u, v in comp.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, parts = set(), []
    for start in verts:
        if start in seen:
            continue
        part, queue = {start}, deque([start])
        while queue:
            for y in adj[queue.popleft()]:
                if y not in part:
                    part.add(y)
                    queue.append(y)
        seen |= part
        parts.append(sorted(part, key=pos.__getitem__))
    for part in parts:
        if any(not comp.has_edge(u, v) for u, v in combinations(part, 2)):
            return None
    parts.sort(key=lambda p: (len(p), pos[p[0]]))
    return MultipartiteSignature(tuple(len(p) for p in parts), tuple(tuple(p) for p in parts))


def quad_key(ranks, quad):
    """The quad's six pair ranks, in pair order."""
    a, b, c, e = quad
    return (ranks[a][b], ranks[a][c], ranks[a][e], ranks[b][c], ranks[b][e], ranks[c][e])


def distinct_quads(ranks):
    """Each distinct tuple of six pair ranks among the quads, mapped to the
    first quad that has it: the quartic loop over all C(n, 4) quads."""
    first = {}
    for quad in combinations(range(len(ranks)), 4):
        first.setdefault(quad_key(ranks, quad), quad)
    return first


def model_set_oracle(space: FiniteMetricSpace) -> set:
    """The four-point models that some quad of the space is weakly similar
    to, by the quartic loop: one quad per distinct six-rank tuple, built as a
    subspace and matched by the public ``model_match``."""
    return {
        model_match(restrict(space, [space.points[i] for i in quad]))
        for quad in distinct_quads(rank_matrix(space)).values()
    }


def tree_form(tree):
    """A ball tree ``(root, leaf order)`` as nested frozensets: a leaf is its
    point, a ball is ``(level, frozenset of its children)``.  Equal forms
    are equal trees, whatever the order of the children and of the leaves."""
    root, order = tree
    leaves = iter(order)

    def form(node):
        level, size, children = node
        if not children:
            return next(leaves)
        return (level, frozenset(form(child) for child in children))

    return form(root)


def closed_balls_oracle(ranks):
    """The ball tree of an ultrametric rank matrix in the form of
    :func:`tree_form`, from its closed balls: every set of points within
    some rank of some point, each ball's level its largest rank and its
    children the largest balls strictly inside it."""
    n = len(ranks)
    balls = {frozenset(y for y in range(n) if ranks[x][y] <= r) for x in range(n) for r in ranks[x]}

    def form(ball):
        if len(ball) == 1:
            return next(iter(ball))
        children = [c for c in balls if c < ball and not any(c < d < ball for d in balls)]
        return (max(ranks[x][y] for x in ball for y in ball), frozenset(map(form, children)))

    return form(frozenset(range(n)))


def balls_oracle(root) -> list:
    """The walk of ``spaces._balls`` by recursion: ``(node, starts, balls)``
    for each ball of the tree, a parent before its child balls and those
    last first.  A child's offset counts the leaves before it, never a
    size field."""
    found = []

    def leaves(node):
        return sum(map(leaves, node[2])) if node[2] else 1

    def visit(node, first):
        starts = [first]
        for child in node[2][:-1]:
            starts.append(starts[-1] + leaves(child))
        balls = [(child, at) for child, at in zip(node[2], starts) if child[2]]
        found.append((node, starts, balls))
        for child, at in reversed(balls):
            visit(child, at)

    if root[2]:
        visit(root, 0)
    return found


def check_ball_walk(root) -> None:
    """Assert the contract of ``spaces._balls`` on a ball tree: every ball
    once, the root first and a parent before its child balls; each ball's
    child offsets start at its first leaf and step by each child's size;
    and the walk is :func:`balls_oracle`'s."""
    walk = list(_balls(root))
    assert walk == balls_oracle(root)
    if not root[2]:
        return
    assert walk[0][0] is root and walk[0][1][0] == 0
    # a ball is its run of the leaf order: its first leaf and its size
    position = {}
    for k, ((_, size, children), starts, balls) in enumerate(walk):
        assert (starts[0], size) not in position, (starts[0], size)
        position[starts[0], size] = k
        ends = starts[1:] + [starts[0] + size]
        assert [end - at for at, end in zip(starts, ends)] == [child[1] for child in children]
        assert balls == [(child, at) for child, at in zip(children, starts) if child[2]]
    for k, (_, _, balls) in enumerate(walk):
        assert all(position[at, child[1]] > k for child, at in balls)
    assert len(walk) == 1 + sum(len(balls) for _, _, balls in walk)


def ball_tree_labeled(space: FiniteMetricSpace, tree) -> LabeledTree:
    """The ball tree ``(root, leaf order)`` of ``space`` as a representing
    tree: each leaf is its point, labelled 0, and each ball a vertex
    labelled with the distance its level ranks."""
    root, order = tree
    leaves = iter(order)
    values = spectrum(space).values
    vertices, edges, labels = [], [], {}

    def add(node):
        level, size, children = node
        if not children:
            name = space.points[next(leaves)]
        else:
            name = f"ball {len(vertices)}"
        vertices.append(name)
        labels[name] = values[level]
        for child in children:
            edges.append((name, add(child)))
        return name

    add(root)
    return LabeledTree.build(vertices, edges, labels)


def conjecture_oracle(which: str, space: FiniteMetricSpace):
    """Reference for the three conjecture checks: every quad is built as a
    subspace with ``restrict``, then classified by ``classify_four_point``
    and compared with the models by the public ``weakly_similar``.  Returns
    the record the matching ``check_*`` function returns."""
    require_ultrametric(space)
    n = space.n
    subs = [
        (tuple(space.points[i] for i in quad), restrict(space, [space.points[i] for i in quad]))
        for quad in combinations(range(n), 4)
    ]
    if which == "equidistant":
        reference = space.dist[0][1]
        all_equal = all(space.dist[i][j] == reference for i in range(n) for j in range(i + 1, n))
        return EquidistantCheck(
            all_equal, all(classify_four_point(sub) == FourPointClass.K1111 for _, sub in subs)
        )
    if which == "k112":
        k112 = [classify_four_point(sub) == FourPointClass.K112 for _, sub in subs]
        w4 = [weakly_similar(sub, W4) is not None for _, sub in subs]
        violations = tuple(labels for (labels, _), a, b in zip(subs, k112, w4) if a != b)
        whole = (weakly_similar(space, W4) is not None) if n == 4 else None
        return K112Check(all(k112), all(w4), whole, violations)
    all_k13 = all(classify_four_point(sub) == FourPointClass.K13 for _, sub in subs)
    any_z4 = any(weakly_similar(sub, Z4) is not None for _, sub in subs)
    truth = {
        "i": all_k13 and not any_z4,
        "ii": all(weakly_similar(sub, S4) is not None for _, sub in subs),
        "iii": embeds_in_dplus(space) is not None,
    }
    pairs = tuple((a, b) for a, b in combinations(("i", "ii", "iii"), 2) if truth[a] != truth[b])
    return K13Check(truth["i"], truth["ii"], truth["iii"], pairs)


# ---------------------------------------------------------------------------
# Fraction reference kernels
# ---------------------------------------------------------------------------


def construct_oracle(points, dist):
    """Reference construction on Fractions: every cell parsed on its own,
    then the structural checks in row order.  Returns (points, rows,
    spectrum values, rank rows), or raises what the constructor must."""
    pts = tuple(points)
    if not pts:
        raise InvalidSpaceError("labels", "a space needs at least one point")
    if any(not isinstance(p, str) or not p for p in pts):
        raise InvalidSpaceError("labels", "point labels must be non-empty strings")
    if len(set(pts)) != len(pts):
        raise InvalidSpaceError("labels", "point labels must be unique")
    n = len(pts)
    rows = tuple(tuple(parse_rational(x) for x in row) for row in dist)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise InvalidSpaceError("shape", f"distance matrix must be {n}x{n} to match {n} points")
    for i in range(n):
        if rows[i][i] != 0:
            raise InvalidSpaceError("diagonal", f"d({pts[i]},{pts[i]}) = {rows[i][i]} must be 0")
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise InvalidSpaceError(
                    "asymmetry",
                    f"d({pts[i]},{pts[j]}) = {rows[i][j]} but d({pts[j]},{pts[i]}) = {rows[j][i]}",
                )
            if rows[i][j] < 0:
                raise InvalidSpaceError("negative", f"d({pts[i]},{pts[j]}) = {rows[i][j]} is negative")
            if rows[i][j] == 0:
                raise InvalidSpaceError(
                    "coincident", f"d({pts[i]},{pts[j]}) = 0 but {pts[i]} != {pts[j]}"
                )
    values = tuple(sorted({rows[i][j] for i in range(n) for j in range(i + 1, n)} | {Fraction(0)}))
    index = {v: k for k, v in enumerate(values)}
    return pts, rows, values, tuple(tuple(index[x] for x in row) for row in rows)


def outcome(build, *args):
    """What ``build(*args)`` does: ("ok", result) or (error type, kind, message)."""
    try:
        return ("ok", build(*args))
    except (ValueError, TypeError) as exc:
        return (type(exc), getattr(exc, "kind", None), str(exc))


def construct_outcome(points, dist):
    """The outcome of the package constructor, in :func:`construct_oracle`'s form."""

    def build(points, dist):
        space = FiniteMetricSpace(points, dist)
        return space.points, space.dist, spectrum(space).values, rank_matrix(space)

    return outcome(build, points, dist)


def mst_edges_oracle(dist):
    """Prim's tree from vertex 0 on Fraction distances, as (vertex, parent, weight).

    The argmin is ``min`` with a key over the outside vertices, where
    ``spaces._mst_edges`` takes ``list.index`` of the least key: the
    reference for its order on ties."""
    n = len(dist)
    key = list(dist[0])
    parent = [0] * n
    outside = list(range(1, n))
    while outside:
        v = min(outside, key=key.__getitem__)
        outside.remove(v)
        yield v, parent[v], key[v]
        for u in outside:
            if dist[v][u] < key[u]:
                key[u] = dist[v][u]
                parent[u] = v


def prim_reference(dist) -> list:
    """The ``(vertex, weight)`` join order of :func:`mst_edges_oracle`, the
    form ``spaces._mst_edges`` yields."""
    return [(v, w) for v, _, w in mst_edges_oracle(dist)]


def equals_subdominant_oracle(dist) -> bool:
    """Whether the Fraction matrix equals the path maximum over its spanning tree."""
    tree = [0]
    for v, p, w in mst_edges_oracle(dist):
        if any(dist[v][u] != max(w, dist[p][u]) for u in tree):
            return False
        tree.append(v)
    return True


def subdominant_oracle(dist):
    """The subdominant ultrametric by minimax paths, Floyd-Warshall style:
    each pair's least, over all paths, of the largest step on the path."""
    n = len(dist)
    sub = [list(row) for row in dist]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                sub[i][j] = min(sub[i][j], max(sub[i][k], sub[k][j]))
    return sub


def violating_triple_oracle(dist):
    """The full cubic scan, on distances or their ranks: the first ordered
    triple (a, b, c) of distinct indices, in lexicographic order, with
    dist[a][c] > max(dist[a][b], dist[b][c]), or None."""
    for a, b, c in permutations(range(len(dist)), 3):
        if dist[a][c] > max(dist[a][b], dist[b][c]):
            return a, b, c
    return None


def scan_violation_oracle(space: FiniteMetricSpace):
    """The first ordered triple (a, b, c) with d(a, c) > max(d(a, b), d(b, c)), or None."""
    dist, points = space.dist, space.points
    triple = violating_triple_oracle(dist)
    if triple is None:
        return None
    a, b, c = triple
    return Violation(points[a], points[b], points[c], dist[a][c], max(dist[a][b], dist[b][c]))


def nearest_oracle(space: FiniteMetricSpace) -> tuple[int, ...]:
    """Each point's nearest-neighbour rank: the least off-diagonal value of
    its row of the ``Fraction`` matrix, as its index in the spectrum."""
    values = spectrum(space).values
    return tuple(values.index(min(row[:i] + row[i + 1 :])) for i, row in enumerate(space.dist))


def adjoin_near_oracle(space: FiniteMetricSpace, anchor: str, eps, label: str) -> FiniteMetricSpace:
    """The space with ``label`` adjoined at ``eps`` from ``anchor``, built
    from the ``Fraction`` matrix: the new row and column copy the anchor's."""
    a = space.index(anchor)
    eps = parse_rational(eps)
    rows = [list(row) + [row[a]] for row in space.dist]
    rows[a][-1] = eps
    new_row = rows[a][:]
    new_row[a], new_row[-1] = eps, Fraction(0)
    rows.append(new_row)
    return FiniteMetricSpace(space.points + (label,), rows)


def center_condition_violation_oracle(space: FiniteMetricSpace, candidate: str):
    """First pair (x, y) with d(candidate, x) > d(y, x) on Fractions, or None."""
    c, dist, n = space.index(candidate), space.dist, space.n
    for a in range(n):
        for b in range(n):
            if a != c and b != c and b != a and dist[c][b] > dist[a][b]:
                return (space.points[b], space.points[a])
    return None


def find_center_oracle(space: FiniteMetricSpace):
    """The first point whose distance to every other point is that point's
    nearest-neighbour distance, on Fractions; None when there is none."""
    dist, n = space.dist, space.n
    nearest = [min((dist[i][j] for j in range(n) if j != i), default=None) for i in range(n)]
    for c in range(n):
        if all(x == c or dist[c][x] == nearest[x] for x in range(n)):
            return space.points[c]
    return None


def four_cycle_oracle(dist):
    """The quartic scan, on distances or their ranks: the first index quad,
    in lexicographic order, whose diametrical graph is a 4-cycle, or None."""
    for quad in combinations(range(len(dist)), 4):
        if _quad_class(dist, quad) is FourPointClass.K22:
            return quad
    return None


def forbidden_scan_oracle(space: FiniteMetricSpace):
    """The quartic scan on Fraction distances: the first 4-cycle quad in
    lexicographic order, with its model, or None."""
    quad = four_cycle_oracle(space.dist)
    if quad is None:
        return None
    labels = tuple(space.points[i] for i in quad)
    return ForbiddenWitness(labels, (2, 2), classify_forbidden(restrict(space, labels)).model)


def embeds_weights_oracle(space: FiniteMetricSpace):
    """The max-metric weights on Fractions: row minima, the smaller member
    of the unique minimum pair halved below them, then the max equation."""
    n = space.n
    if n == 1:
        return {space.points[0]: Fraction(1)}
    dist = space.dist
    weights = [min(dist[i][j] for j in range(n) if j != i) for i in range(n)]
    floor = min(weights)
    attaining = [(i, j) for i, j in combinations(range(n), 2) if dist[i][j] == floor]
    if len(attaining) != 1:
        return None
    weights[attaining[0][0]] = sorted(weights)[1] / 2
    if len(set(weights)) != n:
        return None
    if any(dist[i][j] != max(weights[i], weights[j]) for i, j in combinations(range(n), 2)):
        return None
    return dict(zip(space.points, weights))


def sample_dendrogram_oracle(spec: GeneratorSpec, index: int = 0) -> FiniteMetricSpace:
    """The dendrogram sampler as written on ``randrange`` and ``randint``,
    recursing into each split's parts: the draws ``sample_dendrogram`` takes
    straight from ``getrandbits`` must give the same matrices."""
    n = spec.n
    labels = tuple(f"p{i + 1}" for i in range(n))
    if n == 1:
        return FiniteMetricSpace(labels, [[0]])
    rng = random.Random(f"{spec.seed}:{index}")
    rows = [[0] * n for _ in range(n)]

    def partition(block):
        k = rng.randint(2, len(block))
        while True:
            assignment = [rng.randrange(k) for _ in block]
            groups = {}
            for x, g in zip(block, assignment):
                groups.setdefault(g, []).append(x)
            if len(groups) >= 2:
                return [groups[g] for g in dict.fromkeys(assignment)]

    def split(block, top):
        lower = rng.randrange(top)
        groups = partition(block) if lower else [[x] for x in block]
        for gi in range(len(groups)):
            for gj in range(gi + 1, len(groups)):
                for x in groups[gi]:
                    for y in groups[gj]:
                        rows[x][y] = rows[y][x] = lower + 1
        for group in groups:
            if len(group) >= 2:
                split(group, lower)

    split(list(range(n)), len(spec.alphabet))
    return FiniteMetricSpace._trusted(labels, rows, (Fraction(0),) + spec.alphabet)
