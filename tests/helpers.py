"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the code paths they check: the ultrametric
enumeration oracle filters a raw product through its own cubic triple scan,
the max-metric embedding oracle tries every point ordering outright, the
matching oracle tries every point permutation in itertools order, and the
multipartite oracle takes the complement graph's components by breadth-first
search and tests each for a clique.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations, product

from starmetric import (
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
    classify_four_point,
    embeds_in_dplus,
    restrict,
    sample_dendrogram,
    weakly_similar,
)
from starmetric.lab import EquidistantCheck, K112Check, K13Check
from starmetric.spaces import require_ultrametric

DEFAULT_ALPHABET = ("1", "2", "3", "4")


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
