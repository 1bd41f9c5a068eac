"""Generators of finite ultrametric spaces and desk-scale conjecture checks.

Two space sources feed the checks: exhaustive enumeration of every
ultrametric matrix over a small distance alphabet (in lexicographic matrix
order, duplicate-free), and seeded dendrogram sampling (random recursive
partitions with strictly decreasing levels, ultrametric by construction and
reaching every space over the alphabet, drawn in pre-order by ``getrandbits``
rejection: the tests pin that stream to this code, not to ``randrange``).
Both generators work on alphabet indices and hand them, with the letters,
to a private constructor that skips parsing, the exact sort and the axiom
checks; every check still verifies that its space is ultrametric.
Campaigns stream spaces through a chosen check, stop at the first
counterexample or at budget/exhaustion, and re-verify any counterexample
from its serialized form through an independent load path before reporting
it.

Every check is unchanged by relabelling the points and reads only the
order of the distances, so an exhaustive campaign checks one representative
per order class: a ball tree whose levels are exactly 1..j, over the first j
letters, built just before its check.  It counts as the n!/|Aut| labelled
matrices of its isometry class times the C(k, j) choices of j of the k
letters, and the reported ``instances``, the labelled matrices, must equal
their count V(n, k).  If any class fails or raises, the labelled scan runs
from the start, so a counterexample, its explanation and ``instances`` are
always the labelled route's; a failed self-check (``InternalCheckError``)
propagates instead.

The checks build no subspaces and read no quad loop.  Every four-point
ultrametric space is weakly similar to exactly one of the six models, so
each statement turns on which models occur among a space's quads, and a
census walks the space's ball tree, read off the pass that proves the space
ultrametric, once to name one quad for each model that occurs.  Each named
quad's six ranks, densely re-ranked, are looked up once: the table entry
gives its model, which must be the one it was named for, and its class, as
the four-point classifier gives it on that pattern.  So each statement is
one about the census's model names and the classes of its quads.  Only a
broken K112 biconditional reads every quad, to list each one that breaks
it.  The equidistance check's two legs keep separate algorithms, ranks and
tree, so each still checks the other.

Only a sampled campaign with ``jobs`` > 1 starts a process pool, and only
that route imports one: ``concurrent.futures.process``, with
``multiprocessing`` under it, loads in that branch and on no other path.
"""

from __future__ import annotations

import json
import os
import random
import time
from fractions import Fraction
from functools import cache
from itertools import combinations, groupby, islice
from math import comb, factorial
from typing import Iterator, Optional

from .decision import embeds_in_dplus
from .diametrical import FourPointClass
from .errors import InternalCheckError, SizeCapError, _Record
from .models import CONJECTURE_IDS, W4
from .rationals import format_rational, parse_rational
from .similarity import _quad_model, weakly_similar
from .spaces import FiniteMetricSpace, rank_matrix, require_ultrametric
from .spaces import _LEAF, _balls, _require_ball_tree

EXHAUSTIVE_MAX_POINTS = 5
EXHAUSTIVE_MAX_ALPHABET = 4

INTERPRETATION_NOTE = (
    "'weakly isometric' is read as weak similarity (a point bijection composed "
    "with a strictly increasing bijection between distance sets); whole-space "
    "comparison against a four-point model is only evaluable at four points "
    "and is reported NOT_EVALUABLE otherwise"
)


class GeneratorSpec(_Record):
    """Parameters shared by both space generators."""

    _fields = ("n", "alphabet", "mode", "seed", "count", "override_caps")
    n: int
    alphabet: tuple[Fraction, ...]
    mode: str = "exhaustive"  # "exhaustive" | "sample"
    seed: int = 0
    count: int = 0
    override_caps: bool = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.mode not in ("exhaustive", "sample"):
            raise ValueError(f"unknown generator mode {self.mode!r}")
        if self.count < 0:
            raise ValueError(f"sample count must be non-negative, got {self.count}")
        alphabet = tuple(parse_rational(v) for v in self.alphabet)
        for v in alphabet:
            if v <= 0:
                raise ValueError(f"alphabet values must be positive, got {v}")
        if any(alphabet[i] >= alphabet[i + 1] for i in range(len(alphabet) - 1)):
            raise ValueError("alphabet must be strictly increasing")
        object.__setattr__(self, "alphabet", alphabet)


@cache
def _point_labels(n: int) -> tuple[str, ...]:
    return tuple(f"p{i + 1}" for i in range(n))


def _require_exhaustive(spec: GeneratorSpec) -> None:
    """The size cap and the non-empty alphabet every exhaustive run needs."""
    if not spec.override_caps and (
        spec.n > EXHAUSTIVE_MAX_POINTS or len(spec.alphabet) > EXHAUSTIVE_MAX_ALPHABET
    ):
        raise SizeCapError(
            f"exhaustive enumeration capped at n <= {EXHAUSTIVE_MAX_POINTS} and "
            f"|alphabet| <= {EXHAUSTIVE_MAX_ALPHABET}; set override_caps to force"
        )
    if spec.n >= 2 and not spec.alphabet:
        raise ValueError("alphabet must be non-empty for n >= 2")


def enumerate_ultrametrics(spec: GeneratorSpec) -> Iterator[FiniteMetricSpace]:
    """Every ultrametric matrix over the alphabet, exactly once.

    Assignments of the upper triangle are explored cell by cell in row-major
    order with incremental triple pruning, so survivors stream out in
    lexicographic matrix order.  Ultrametricity over a fixed alphabet only
    depends on the order of values, so pruning runs on alphabet indices.
    """
    _require_exhaustive(spec)
    n = spec.n
    labels = _point_labels(n)
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index_of = {cell: k for k, cell in enumerate(cells)}
    # triples completed by each cell: cell (i, j) closes {p, i, j} for p < i
    closing: list[list[tuple[int, int]]] = []
    for i, j in cells:
        closing.append([(index_of[(p, i)], index_of[(p, j)]) for p in range(i)])
    k = len(spec.alphabet)
    values = [0] * len(cells)
    levels_to_values = (Fraction(0),) + spec.alphabet

    def emit() -> FiniteMetricSpace:
        # letter v is level v + 1; level 0 is the diagonal
        rows = [[0] * n for _ in range(n)]
        for (i, j), v in zip(cells, values):
            rows[i][j] = rows[j][i] = v + 1
        return FiniteMetricSpace._trusted(labels, rows, levels_to_values)

    def fill(pos: int) -> Iterator[FiniteMetricSpace]:
        if pos == len(cells):
            yield emit()
            return
        for letter in range(k):
            values[pos] = letter
            ok = True
            for ca, cb in closing[pos]:
                x, y, z = values[ca], values[cb], letter
                m = x if x >= y else y
                if z > m:
                    m = z
                if (x == m) + (y == m) + (z == m) < 2:
                    ok = False
                    break
            if ok:
                yield from fill(pos + 1)

    yield from fill(0)


def _isometry_classes(n: int, letters: int) -> Iterator[tuple[tuple, int, int]]:
    """The ball tree of each isometry class of ``n``-point ultrametric spaces
    whose distances are among ``letters`` letters, one at a time, with its
    orbit size and the bit set of its levels, the diagonal's 0 among them
    (bit ``v`` for level ``v``).

    A finite ultrametric space is fixed up to isometry by its ball tree: the
    points are its leaves, every internal node has at least two children and
    a level above theirs, and a pair's distance is the level of its least
    common node.  Trees are built bottom-up with each node's children taken
    as a multiset of trees listed once each, so every class appears exactly
    once; level ``v`` stands for the ``v``-th letter.  The orbit size is the
    number of labelled matrices in the class: n!/|Aut|, where |Aut| is the
    product over the nodes of the factorials of the multiplicities of equal
    child subtrees.  :func:`_level_rows` builds a tree's representative.
    """
    # each part's |Aut| and level bits, by id: the cache of ``trees`` keeps
    # every part alive while the listing runs
    measured = {id(_LEAF): (1, 1)}

    def measure(node: tuple) -> tuple[int, int]:
        # equal children are one listed tree, so they sit side by side
        aut, levels = 1, 1 << node[0]
        for child, equal in groupby(node[2]):
            count = len(list(equal))
            child_aut, child_levels = measured[id(child)]
            aut *= child_aut**count * factorial(count)
            levels |= child_levels
        return aut, levels

    @cache
    def trees(leaves: int, top: int) -> tuple:
        # every tree with ``leaves`` leaves and levels at most ``top``
        if leaves == 1:
            return (_LEAF,)
        found = []
        for level in range(1, top + 1):
            parts = [t for size in range(1, leaves) for t in trees(size, level - 1)]
            chosen: list = []

            def pick(start: int, left: int) -> None:
                # each part has fewer leaves than the node, so at least two are picked
                if not left:
                    found.append((level, leaves, tuple(chosen)))
                    return
                for i in range(start, len(parts)):
                    # parts list in ascending size, so none after this fits
                    if parts[i][1] > left:
                        break
                    chosen.append(parts[i])
                    pick(i, left - parts[i][1])
                    chosen.pop()

            pick(0, leaves)
        if leaves < n:  # only a smaller tree is ever a part
            measured.update((id(node), measure(node)) for node in found)
        return tuple(found)

    for tree in trees(n, letters):
        aut, levels = measure(tree)
        yield tree, factorial(n) // aut, levels


def _level_rows(tree: tuple) -> list[list[int]]:
    """The level matrix of a ball tree, its leaves numbered depth first and 0
    on the diagonal."""
    n = tree[1]
    rows = [[0] * n for _ in range(n)]
    for (level, size, _), starts, _ in _balls(tree):
        # a ball writes its level over its block; its child balls, walked
        # after it, overwrite their own blocks
        first = starts[0]
        block = [level] * size
        for x in range(first, first + size):
            rows[x][first : first + size] = block
    for x in range(n):
        rows[x][x] = 0
    return rows


def _order_classes(n: int, letters: int) -> Iterator[tuple[tuple, int]]:
    """The ball tree of each order class of ``n``-point ultrametric spaces
    over ``letters`` letters, one at a time, with the number of labelled
    matrices it stands for.

    An order class is a ball tree whose levels are exactly 1..j: its
    isometry classes over the letters are its n!/|Aut| relabellings of the
    points times its C(letters, j) choices of j letters for the levels.
    """
    for tree, orbit, levels in _isometry_classes(n, letters):
        # levels 0..j leave no gap; a tree whose levels do relabels another
        if not levels & (levels + 1):
            yield tree, orbit * comb(letters, levels.bit_length() - 1)


def _ultrametric_count(n: int, letters: int) -> int:
    """V(n, k): the number of labelled ultrametric matrices on ``n`` points
    with distances among ``letters`` letters, by the exponential formula.

    V(1, j) = 1, V(m, 0) = 0 for m >= 2, and V(m, j) = P(m, j - 1), where
    P(0, j) = 1 and P(m, j) sums C(m - 1, s - 1) V(s, j) P(m - s, j) over
    the size s of the block that holds the first point: the blocks are the
    balls under the top letter.
    """
    counts = [0, 1] + [0] * (n - 1)
    for _ in range(letters):
        blocks = [1] + [0] * n
        for m in range(1, n + 1):
            blocks[m] = sum(comb(m - 1, s - 1) * counts[s] * blocks[m - s] for s in range(1, m + 1))
        counts = blocks
    return counts[n]


def sample_dendrogram(spec: GeneratorSpec, index: int = 0) -> FiniteMetricSpace:
    """One seeded random ultrametric space over the alphabet.

    The point set is partitioned recursively; each split draws a level from
    the alphabet and every deeper split must use a strictly smaller one, so
    the pair distance is the level of the coarsest partition separating the
    pair.  When no smaller level remains the split is forced down to
    singletons.  Deterministic per (seed, index): splits run in pre-order,
    each draw below k is k's bit length of ``getrandbits``, redrawn while not
    below k.  ``SAMPLED_DIGEST`` and the sampler oracle in the tests pin that
    stream to this code, not to ``randrange``'s internals (which draw alike on
    CPython 3.10-3.13).  The root split's block holds every point, so its
    level fills the matrix a whole row at a time.  The splits are the
    space's ball tree, which its ultrametric check yields again.
    """
    n = spec.n
    labels = _point_labels(n)
    if n == 1:
        return FiniteMetricSpace(labels, [[0]])
    if not spec.alphabet:
        raise ValueError("alphabet too small: sampling n >= 2 needs at least one level")
    getrandbits = random.Random(f"{spec.seed}:{index}").getrandbits

    def below(k: int) -> int:
        bits = k.bit_length()
        r = getrandbits(bits)
        while r >= k:
            r = getrandbits(bits)
        return r

    # level k stands for the k-th letter (from 1); level 0 is the diagonal
    rows = []
    stack = [(range(n), len(spec.alphabet))]
    while stack:
        # a split's level is drawn from 1..top and written over its block;
        # the deeper splits, below it, overwrite their own blocks
        block, top = stack.pop()
        lower = below(top)
        level = lower + 1
        if not rows:  # the root block holds every point: one list a row
            rows = [[level] * n for _ in block]
            for x in block:
                rows[x][x] = 0
        else:
            for x in block:
                row = rows[x]
                for y in block:
                    row[y] = level
                row[x] = 0
        if lower:
            # any partition into >= 2 parts is reachable; groups follow
            # first appearance
            k = 2 + below(len(block) - 1)
            groups: dict[int, list[int]] = {}
            while len(groups) < 2:
                groups = {}
                for x in block:
                    groups.setdefault(below(k), []).append(x)
            stack += [(group, lower) for group in reversed(groups.values()) if len(group) >= 2]
    return FiniteMetricSpace._trusted(labels, rows, (Fraction(0),) + spec.alphabet)


def generate(spec: GeneratorSpec) -> Iterator[FiniteMetricSpace]:
    """Stream from the generator selected by ``spec.mode``."""
    if spec.mode == "exhaustive":
        yield from enumerate_ultrametrics(spec)
    else:
        for index in range(spec.count):
            yield sample_dendrogram(spec, index)


# ---------------------------------------------------------------------------
# conjecture checks
# ---------------------------------------------------------------------------


class EquidistantCheck(_Record):
    _fields = ("all_equal", "all_quads_k1111")
    all_equal: bool
    all_quads_k1111: bool

    @property
    def agree(self) -> bool:
        return self.all_equal == self.all_quads_k1111


def _census(tree: tuple) -> dict[str, tuple[int, int, int, int]]:
    """One quad, its points ascending, for each four-point model that some
    quad of the space is weakly similar to, read off the ball tree.

    ``tree`` is ``(root, leaf order)`` as ``spaces`` builds it: a node is
    ``(level, leaves below it, children)``, a leaf is ``(0, 1, ())``, and
    each node's leaves are a run of the leaf order.  A ball's pair is two
    points in its first two children, at exactly its level.  The models
    occur where the ball tree has these shapes, each found in one walk:

    - E4: a ball with four or more children;
    - W4: a ball with three or more children, one a ball, whose pair joins
      points in two other children;
    - Z4: a ball below the root with three or more children, with a point
      outside it;
    - S4: a ball C whose parent B is below the root: C's pair, a point in
      another child of B, and a point outside B;
    - Y4 and X4: the pairs of two disjoint balls at equal levels (two balls
      at one level are always disjoint) and at different levels.  Two child
      balls of one node give X4 when their levels differ; when every child
      ball of a node has one level, a ball inside any of them gives X4 with
      another's pair.
    """
    root, order = tree
    n = root[1]
    e4 = w4 = z4 = s4 = x4 = y4 = None
    pair_at: dict[int, tuple[int, int]] = {}
    for (level, size, children), starts, balls in _balls(root):
        k = len(children)
        first = starts[0]
        pair = (order[first], order[starts[1]])
        if level not in pair_at:
            pair_at[level] = pair
        elif y4 is None:
            y4 = pair_at[level] + pair
        # a point outside the node, for a node below the root
        outside = order[first - 1 if first else size] if size < n else None
        if k >= 4 and e4 is None:
            e4 = [order[at] for at in starts[:4]]
        if k >= 3 and outside is not None and z4 is None:
            z4 = (order[starts[0]], order[starts[1]], order[starts[2]], outside)
        if not balls:
            continue
        ball, ball_at = balls[0]
        ball_pair = (order[ball_at], order[ball_at + ball[2][0][1]])
        if k >= 3 and w4 is None or outside is not None and s4 is None:
            others = [order[at] for at in starts if at != ball_at]
            if k >= 3:
                w4 = w4 or (*ball_pair, *others[:2])
            if outside is not None:
                s4 = s4 or (*ball_pair, others[0], outside)
        if len(balls) >= 2 and x4 is None:
            for child, at in balls[1:]:
                if child[0] != ball[0]:
                    x4 = (*ball_pair, order[at], order[at + child[2][0][1]])
                    break
            else:
                # the child balls share one level; the first ball inside one
                # of them, after j leaves, holds two closer points
                for i, (child, at) in enumerate(balls):
                    j = next((j for j, grandchild in enumerate(child[2]) if grandchild[2]), None)
                    if j is not None:
                        mate, mate_at = balls[1 if i == 0 else 0]
                        mate_pair = (order[mate_at], order[mate_at + mate[2][0][1]])
                        x4 = (order[at + j], order[at + j + 1], *mate_pair)
                        break
    found = {"E4": e4, "W4": w4, "Z4": z4, "S4": s4, "X4": x4, "Y4": y4}
    return {model: tuple(sorted(quad)) for model, quad in found.items() if quad is not None}


def _census_quads(space: FiniteMetricSpace) -> dict[str, FourPointClass]:
    """Each model the census of an ultrametric space names, read off the
    ball tree that the ultrametric check kept on accepting it, with the
    class of its quad.  Both come from one lookup of the quad's ranks, which
    must give the model the quad was named for, or the census is wrong.
    """
    ranks = rank_matrix(space)
    classes = {}
    for model, quad in _census(_require_ball_tree(space)).items():
        found, classes[model] = _quad_model(ranks, quad) or (None, None)
        if found != model:
            raise InternalCheckError(
                f"the ball-tree census named quad {quad} for model {model}, "
                "which it is not weakly similar to"
            )
    return classes


def check_equidistant(space: FiniteMetricSpace) -> EquidistantCheck:
    """Equidistance versus all-quads-K1111, evaluated independently.

    All distances are equal iff every off-diagonal rank is 1.  Every quad is
    K1111 iff every census quad is, one per model that occurs, each with
    the class its ranks look up.  The two sides are provably equivalent
    for ultrametric spaces, so a disagreement in the returned record
    indicates a bug, not mathematics.
    """
    if space.n < 4:
        raise ValueError("equidistance check needs at least four points")
    require_ultrametric(space)
    n = space.n
    ranks = rank_matrix(space)
    all_equal = all(ranks[i][j] == 1 for i in range(n) for j in range(i + 1, n))
    return EquidistantCheck(all_equal, set(_census_quads(space).values()) == {FourPointClass.K1111})


class K112Check(_Record):
    _fields = (
        "every_quad_k112", "every_quad_w4_similar", "whole_space_w4_similar",
        "biconditional_violations",
    )
    every_quad_k112: bool
    every_quad_w4_similar: bool
    whole_space_w4_similar: Optional[bool]  # None when not evaluable (n != 4)
    biconditional_violations: tuple[tuple[str, ...], ...]

    @property
    def consistent(self) -> bool:
        if self.biconditional_violations:
            return False
        if self.whole_space_w4_similar is not None:
            return self.whole_space_w4_similar == self.every_quad_w4_similar
        return True


def check_k112_conjecture(space: FiniteMetricSpace) -> K112Check:
    """Per-quad biconditional: classifies K112 iff weakly similar to W4.

    A quad is W4-similar iff its model is W4, and the census names one
    quad per model that occurs, with the class its ranks look up.  A quad's
    class depends only on its model, so a census quad that breaks the
    biconditional stands for every quad of its model; only then is every
    quad looked up, to list each one that breaks it.
    """
    if space.n < 4:
        raise ValueError("K112 conjecture check needs at least four points")
    require_ultrametric(space)
    n = space.n
    census = _census_quads(space)
    k112 = {model: cls is FourPointClass.K112 for model, cls in census.items()}
    violations = ()
    if any(is_k112 != (model == "W4") for model, is_k112 in k112.items()):
        ranks = rank_matrix(space)
        entries = [(quad, _quad_model(ranks, quad)) for quad in combinations(range(n), 4)]
        if any(entry is None for _, entry in entries):
            raise InternalCheckError("a quad of an ultrametric space has no model; this is a bug")
        violations = tuple(
            tuple(space.points[i] for i in quad)
            for quad, (model, cls) in entries
            if (cls is FourPointClass.K112) != (model == "W4")
        )
    whole = (weakly_similar(space, W4) is not None) if n == 4 else None
    return K112Check(all(k112.values()), set(census) <= {"W4"}, whole, violations)


class K13Check(_Record):
    _fields = ("statement_i", "statement_ii", "statement_iii", "disagreements")
    statement_i: bool  # every quad K13 and none weakly similar to Z4
    statement_ii: bool  # every quad weakly similar to S4
    statement_iii: bool  # the space embeds into the max-metric model
    disagreements: tuple[tuple[str, str], ...]

    @property
    def truth_vector(self) -> tuple[bool, bool, bool]:
        return (self.statement_i, self.statement_ii, self.statement_iii)

    @property
    def consistent(self) -> bool:
        return not self.disagreements


def check_k13_conjecture(space: FiniteMetricSpace) -> K13Check:
    """Evaluate the three K13 statements independently and compare them.

    The per-quad statements read the census, as
    :func:`check_k112_conjecture` does: no quad is Z4-similar iff the census
    names no Z4 quad, and every quad is S4-similar iff it names S4 alone.
    """
    if space.n < 4:
        raise ValueError("K13 conjecture check needs at least four points")
    require_ultrametric(space)
    census = _census_quads(space)
    i = set(census.values()) <= {FourPointClass.K13} and "Z4" not in census
    ii = set(census) <= {"S4"}
    iii = embeds_in_dplus(space) is not None
    truth = {"i": i, "ii": ii, "iii": iii}
    names = ("i", "ii", "iii")
    disagreements = tuple(
        (a, b)
        for ai, a in enumerate(names)
        for b in names[ai + 1 :]
        if truth[a] != truth[b]
    )
    return K13Check(i, ii, iii, disagreements)


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------

STATUS_EXHAUSTED = "EXHAUSTED_HOLDS"
STATUS_SAMPLE = "HOLDS_ON_SAMPLE"
STATUS_COUNTEREXAMPLE = "COUNTEREXAMPLE"


class ConjectureReport(_Record):
    _fields = (
        "conjecture", "mode", "n", "alphabet", "seed", "requested", "instances", "status",
        "counterexample", "interpretation", "wall_time_s",
    )
    conjecture: str
    mode: str
    n: int
    alphabet: tuple[Fraction, ...]
    seed: int
    requested: Optional[int]
    instances: int
    status: str
    counterexample: Optional[dict]
    interpretation: str
    wall_time_s: float

    def to_dict(self) -> dict:
        # wall time is reported on stderr by the CLI, never in this dict,
        # so identical invocations stay byte-identical on stdout
        return {
            "conjecture": self.conjecture,
            "mode": self.mode,
            "n": self.n,
            "alphabet": [format_rational(v) for v in self.alphabet],
            "seed": self.seed,
            "requested": self.requested,
            "instances": self.instances,
            "status": self.status,
            "counterexample": self.counterexample,
            "interpretation": self.interpretation,
        }


def evaluate_conjecture(which: str, space: FiniteMetricSpace) -> Optional[str]:
    """Explanation of why ``space`` violates the conjecture, or None."""
    if which == "equidistant":
        result = check_equidistant(space)
        if not result.agree:
            return (
                f"equidistant={result.all_equal} but "
                f"all-quads-K1111={result.all_quads_k1111}"
            )
        return None
    if which == "k112":
        result = check_k112_conjecture(space)
        if result.biconditional_violations:
            quad = result.biconditional_violations[0]
            return f"quad {list(quad)} breaks the K112 <-> W4-similarity biconditional"
        if (
            result.whole_space_w4_similar is not None
            and result.whole_space_w4_similar != result.every_quad_w4_similar
        ):
            return "whole-space W4 similarity disagrees with the per-quad statement"
        return None
    if which == "k13":
        result = check_k13_conjecture(space)
        if result.disagreements:
            vec = result.truth_vector
            return (
                f"statements disagree: i={vec[0]}, ii={vec[1]}, iii={vec[2]} "
                f"(pairs {list(result.disagreements)})"
            )
        return None
    raise ValueError(f"unknown conjecture id {which!r}; expected one of {CONJECTURE_IDS}")


_CHUNK = 64  # sampled indices per pool task
_AHEAD = 4  # pool tasks queued per worker at once


def _sample_chunk(spec: GeneratorSpec, which: str, start: int) -> Optional[tuple]:
    """The first index of the chunk from ``start`` that breaks the conjecture, and why, or None."""
    for index in range(start, min(start + _CHUNK, spec.count)):
        outcome = evaluate_conjecture(which, sample_dendrogram(spec, index))
        if outcome is not None:
            return index, outcome
    return None


def _orbit_sum_if_all_hold(spec: GeneratorSpec, which: str) -> Optional[int]:
    """The number of labelled spaces when one representative of each order
    class satisfies the conjecture, else None.

    Every check reads only the order of the distances and is unchanged by
    relabelling the points, so an order class holds iff each of its
    labelled matrices does.  Each class's rows are built just before its
    check.  A failed self-check propagates.
    """
    labels = _point_labels(spec.n)
    values = (Fraction(0),) + spec.alphabet
    total = 0
    for tree, weight in _order_classes(spec.n, len(spec.alphabet)):
        try:
            space = FiniteMetricSpace._trusted(labels, _level_rows(tree), values)
            outcome = evaluate_conjecture(which, space)
        except InternalCheckError:
            # a failed self-check is a bug to report, not a case to rescan
            raise
        except Exception:
            # whatever else went wrong, the labelled scan decides what is reported
            return None
        if outcome is not None:
            return None
        total += weight
    return total


def run_campaign(spec: GeneratorSpec, which: str, jobs: int = 1) -> ConjectureReport:
    """Stream generated spaces through one conjecture check.

    Stops at the first counterexample (by enumeration order) or at
    exhaustion/budget.  An exhaustive run first checks one representative
    per order class; only when one fails or raises does it scan the
    labelled matrices, and a failed self-check from a representative is
    raised, not rescanned.  Its ``instances`` must equal the count V(n, k)
    of labelled matrices before it reports ``EXHAUSTED_HOLDS``, and a
    counterexample must re-verify from its serialized form, or the run
    aborts.  ``jobs`` > 1 parallelizes sampled campaigns over
    index chunks, at most one worker per CPU and per sample and a few chunks
    per worker queued; chunks are read in index order and those not started
    at the first counterexample are cancelled: the report is the sequential one.
    """
    if which not in CONJECTURE_IDS:
        raise ValueError(f"unknown conjecture id {which!r}; expected one of {CONJECTURE_IDS}")
    if spec.n < 4:
        raise ValueError("conjecture campaigns need n >= 4")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1, spec.count)
    start = time.perf_counter()
    instances = 0
    bad_space: Optional[FiniteMetricSpace] = None
    explanation: Optional[str] = None
    orbit_sum = None
    if spec.mode == "exhaustive":
        _require_exhaustive(spec)
        orbit_sum = _orbit_sum_if_all_hold(spec, which)

    if spec.mode == "sample" and workers > 1:
        # imported here: it loads multiprocessing, which no other route uses
        from concurrent.futures import ProcessPoolExecutor

        instances = spec.count
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = (pool.submit(_sample_chunk, spec, which, i) for i in range(0, spec.count, _CHUNK))
            pending = list(islice(chunks, _AHEAD * workers))
            try:
                while pending:
                    found = pending.pop(0).result()
                    if found is not None:
                        index, explanation = found
                        instances = index + 1
                        bad_space = sample_dendrogram(spec, index)
                        break
                    pending += islice(chunks, 1)
            finally:
                # drop the chunks no worker has started yet
                for future in pending:
                    future.cancel()
    elif orbit_sum is not None:
        instances = orbit_sum
    else:
        # from the start, so a counterexample is the first in matrix order
        for space in generate(spec):
            instances += 1
            explanation = evaluate_conjecture(which, space)
            if explanation is not None:
                bad_space = space
                break

    counterexample = None
    if bad_space is not None:
        space_dict = bad_space.to_dict()
        # independent path: serialize to text, reload through the file-format
        # constructor, re-run the check from scratch
        reloaded = FiniteMetricSpace.from_dict(json.loads(json.dumps(space_dict)))
        if evaluate_conjecture(which, reloaded) is None:
            raise InternalCheckError(
                "counterexample failed to re-verify from its serialized form"
            )
        counterexample = {"space": space_dict, "explanation": explanation}
        status = STATUS_COUNTEREXAMPLE
    elif spec.mode == "exhaustive":
        expected = _ultrametric_count(spec.n, len(spec.alphabet))
        if instances != expected:
            raise InternalCheckError(
                f"an exhaustive campaign counted {instances} labelled matrices, not V(n, k) = {expected}"
            )
        status = STATUS_EXHAUSTED
    else:
        status = STATUS_SAMPLE

    return ConjectureReport(
        conjecture=which,
        mode=spec.mode,
        n=spec.n,
        alphabet=spec.alphabet,
        seed=spec.seed,
        requested=spec.count if spec.mode == "sample" else None,
        instances=instances,
        status=status,
        counterexample=counterexample,
        interpretation=INTERPRETATION_NOTE,
        wall_time_s=time.perf_counter() - start,
    )
