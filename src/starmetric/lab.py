"""Generators of finite ultrametric spaces and desk-scale conjecture checks.

Two space sources feed the checks: exhaustive enumeration of every
ultrametric matrix over a small distance alphabet (in lexicographic matrix
order, duplicate-free), and seeded dendrogram sampling (random recursive
partitions with strictly decreasing level values, which are ultrametric by
construction and reach every space over the alphabet).  Both generators
work on alphabet indices and hand them, with the letters, to a private
constructor that skips parsing, the exact sort and the axiom checks; every
check still verifies that its space is ultrametric.  Campaigns stream spaces
through a chosen check, stop at the first counterexample or at
budget/exhaustion, and re-verify any counterexample from its serialized form
through an independent load path before reporting it.

Every check is unchanged by relabelling the points, so an exhaustive
campaign checks one representative per isometry class, built from its ball
tree, and counts it as the n!/|Aut| labelled matrices of its class: the
reported ``instances`` counts labelled matrices.  If any class fails or
raises, the labelled scan runs from the start, so a counterexample, its
explanation and ``instances`` are always the labelled route's; a failed
self-check (``InternalCheckError``) propagates instead.

The checks build no subspaces.  A quad's diametrical class and its weak
similarity type depend only on the order of its six distances, so each quad
is read off the space's int rank matrix: the class through the
four-point classifier, the model comparisons through the quad's densely
re-ranked pattern, matched once per (pattern, model) and verified when
first matched.  The K112 and K13 checks decide each distinct tuple of six
raw ranks once; the equidistance check stops at the first quad that is not
K1111.  The two legs keep separate algorithms, so each still checks
the other.

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
from functools import cache, partial
from itertools import combinations, groupby
from math import factorial
from typing import Iterator, Optional

from .decision import embeds_in_dplus
from .diametrical import FourPointClass, _require_quad_class
from .errors import InternalCheckError, SizeCapError, _Record
from .models import CONJECTURE_IDS, W4
from .rationals import format_rational, parse_rational
from .similarity import _pattern_weakly_similar, _quad_pattern, weakly_similar
from .spaces import FiniteMetricSpace, RankMatrix, rank_matrix, require_ultrametric

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
    if n == 1:
        yield FiniteMetricSpace(labels, [[0]])
        return
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


# a ball-tree node: (level, leaves below it, children in ascending order);
# a leaf is level 0 with no children
_LEAF = (0, 1, ())


def _isometry_classes(n: int, letters: int) -> tuple[tuple[tuple[tuple[int, ...], ...], int], ...]:
    """One level matrix per isometry class of ``n``-point ultrametric spaces
    whose distances are among ``letters`` letters, each with its orbit size.

    A finite ultrametric space is fixed up to isometry by its ball tree: the
    points are its leaves, every internal node has at least two children and
    a level above theirs, and a pair's distance is the level of its least
    common node.  Trees are built bottom-up with each node's children taken
    as a multiset of trees listed once each, so every class appears exactly
    once.  The representative numbers the leaves depth first; level ``v``
    stands for the ``v``-th letter and 0 for the diagonal.  The orbit size
    is the number of labelled matrices in the class: n!/|Aut|, where |Aut|
    is the product over the nodes of the factorials of the multiplicities
    of equal child subtrees.
    """

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
                    if parts[i][1] <= left:
                        chosen.append(parts[i])
                        pick(i, left - parts[i][1])
                        chosen.pop()

            pick(0, leaves)
        return tuple(found)

    def place(node: tuple, rows: list[list[int]], first: int) -> int:
        # write the node's levels on leaves first, first + 1, ...; children
        # overwrite their own blocks, and each leaf its diagonal cell
        level, size, children = node
        for x in range(first, first + size):
            rows[x][first : first + size] = [level] * size
        aut = 1
        for child in children:
            aut *= place(child, rows, first)
            first += child[1]
        for _, equal in groupby(children):
            aut *= factorial(len(list(equal)))
        return aut

    classes = []
    for tree in trees(n, letters):
        rows = [[0] * n for _ in range(n)]
        aut = place(tree, rows, 0)
        classes.append((tuple(map(tuple, rows)), factorial(n) // aut))
    return tuple(classes)


def _random_partition(block: list[int], rng: random.Random) -> list[list[int]]:
    # any partition into >= 2 parts is reachable; grouping follows first
    # appearance so the outcome is fully determined by the rng stream
    k = rng.randint(2, len(block))
    while True:
        assignment = [rng.randrange(k) for _ in block]
        groups: dict[int, list[int]] = {}
        for x, g in zip(block, assignment):
            groups.setdefault(g, []).append(x)
        if len(groups) >= 2:
            return [groups[g] for g in dict.fromkeys(assignment)]


def sample_dendrogram(spec: GeneratorSpec, index: int = 0) -> FiniteMetricSpace:
    """One seeded random ultrametric space over the alphabet.

    The point set is partitioned recursively; each split draws a level from
    the alphabet and every deeper split must use a strictly smaller one, so
    the pair distance is the level of the coarsest partition separating the
    pair.  When no smaller level remains the split is forced down to
    singletons.  Deterministic per (seed, index).
    """
    n = spec.n
    labels = _point_labels(n)
    if n == 1:
        return FiniteMetricSpace(labels, [[0]])
    if not spec.alphabet:
        raise ValueError("alphabet too small: sampling n >= 2 needs at least one level")
    rng = random.Random(f"{spec.seed}:{index}")
    # level k stands for the k-th letter (from 1); level 0 is the diagonal
    rows = [[0] * n for _ in range(n)]

    def split(block: list[int], top: int) -> None:
        # the split's level is drawn from levels 1..top, deeper ones below it
        lower = rng.randrange(top)
        if lower:
            groups = _random_partition(block, rng)
        else:
            groups = [[x] for x in block]
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


def _quad_key(ranks: RankMatrix, quad: tuple[int, int, int, int]) -> tuple[int, ...]:
    a, b, c, e = quad
    ra, rb = ranks[a], ranks[b]
    return (ra[b], ra[c], ra[e], rb[c], rb[e], ranks[c][e])


def _distinct_quads(ranks: RankMatrix) -> dict[tuple[int, ...], tuple[int, int, int, int]]:
    """Each distinct tuple of six pair ranks among the quads, mapped to the
    first quad that has it.

    A quad's class and its weak similarity type depend on these six ranks
    alone, so deciding one quad per tuple decides every quad.  The dict
    lives for one call: a cache keyed on raw ranks would grow without bound
    over spaces with many levels.
    """
    first: dict[tuple[int, ...], tuple[int, int, int, int]] = {}
    for quad in combinations(range(len(ranks)), 4):
        first.setdefault(_quad_key(ranks, quad), quad)
    return first


def check_equidistant(space: FiniteMetricSpace) -> EquidistantCheck:
    """Equidistance versus all-quads-K1111, evaluated independently.

    Both sides read the space's rank matrix: all distances are equal iff
    every off-diagonal rank is 1, and each quad is classified on its ranks
    in place.  The two sides are provably equivalent for ultrametric spaces,
    so a disagreement in the returned record indicates a bug, not
    mathematics.
    """
    if space.n < 4:
        raise ValueError("equidistance check needs at least four points")
    require_ultrametric(space)
    n = space.n
    ranks = rank_matrix(space)
    all_equal = all(ranks[i][j] == 1 for i in range(n) for j in range(i + 1, n))
    all_quads = all(
        _require_quad_class(ranks, quad) is FourPointClass.K1111
        for quad in combinations(range(n), 4)
    )
    return EquidistantCheck(all_equal, all_quads)


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

    Each quad is read from the space's rank matrix: its class through the
    four-point classifier, its W4 similarity through its re-ranked pattern.
    """
    if space.n < 4:
        raise ValueError("K112 conjecture check needs at least four points")
    require_ultrametric(space)
    n = space.n
    ranks = rank_matrix(space)
    all_k112 = True
    all_w4 = True
    broken = set()
    for key, quad in _distinct_quads(ranks).items():
        is_k112 = _require_quad_class(ranks, quad) is FourPointClass.K112
        is_w4 = _pattern_weakly_similar(_quad_pattern(ranks, quad), "W4")
        all_k112 = all_k112 and is_k112
        all_w4 = all_w4 and is_w4
        if is_k112 != is_w4:
            broken.add(key)
    violations = []
    if broken:
        for quad in combinations(range(n), 4):
            if _quad_key(ranks, quad) in broken:
                violations.append(tuple(space.points[i] for i in quad))
    whole = (weakly_similar(space, W4) is not None) if n == 4 else None
    return K112Check(all_k112, all_w4, whole, tuple(violations))


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

    The per-quad statements read each quad from the space's rank matrix, as
    :func:`check_k112_conjecture` does.
    """
    if space.n < 4:
        raise ValueError("K13 conjecture check needs at least four points")
    require_ultrametric(space)
    ranks = rank_matrix(space)
    all_k13 = True
    any_z4 = False
    all_s4 = True
    for quad in _distinct_quads(ranks).values():
        if _require_quad_class(ranks, quad) is not FourPointClass.K13:
            all_k13 = False
        pattern = _quad_pattern(ranks, quad)
        if _pattern_weakly_similar(pattern, "Z4"):
            any_z4 = True
        if not _pattern_weakly_similar(pattern, "S4"):
            all_s4 = False
    i = all_k13 and not any_z4
    ii = all_s4
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


def _sample_trial(spec: GeneratorSpec, which: str, index: int) -> Optional[str]:
    return evaluate_conjecture(which, sample_dendrogram(spec, index))


def _reverify_counterexample(which: str, space_dict: dict) -> Optional[str]:
    # independent path: serialize to text, reload through the file-format
    # constructor, re-run the check from scratch
    reloaded = FiniteMetricSpace.from_dict(json.loads(json.dumps(space_dict)))
    return evaluate_conjecture(which, reloaded)


def _orbit_sum_if_all_hold(spec: GeneratorSpec, which: str) -> Optional[int]:
    """The number of labelled spaces when one representative of each
    isometry class satisfies the conjecture, else None.

    Every check is unchanged by relabelling the points, so a class holds iff
    each of its labelled matrices does.  A failed self-check propagates.
    """
    labels = _point_labels(spec.n)
    values = (Fraction(0),) + spec.alphabet
    total = 0
    for rows, orbit in _isometry_classes(spec.n, len(spec.alphabet)):
        try:
            outcome = evaluate_conjecture(which, FiniteMetricSpace._trusted(labels, rows, values))
        except InternalCheckError:
            # a failed self-check is a bug to report, not a case to rescan
            raise
        except Exception:
            # whatever else went wrong, the labelled scan decides what is reported
            return None
        if outcome is not None:
            return None
        total += orbit
    return total


def run_campaign(spec: GeneratorSpec, which: str, jobs: int = 1) -> ConjectureReport:
    """Stream generated spaces through one conjecture check.

    Stops at the first counterexample (by enumeration order) or at
    exhaustion/budget.  An exhaustive run first checks one representative
    per isometry class; only when one fails or raises does it scan the
    labelled matrices, and a failed self-check from a representative is
    raised, not rescanned.  A counterexample must re-verify from its serialized
    form or the run aborts.  ``jobs`` > 1 parallelizes sampled campaigns over
    index chunks, with at most one worker per CPU and per sample; results are
    read in index order and the chunks not yet started when the first
    counterexample is read are cancelled, so the report is identical to the
    sequential one.
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

        trial = partial(_sample_trial, spec, which)
        instances = spec.count
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for index, outcome in enumerate(pool.map(trial, range(spec.count), chunksize=64)):
                if outcome is not None:
                    # drop the chunks no worker has started yet
                    pool.shutdown(cancel_futures=True)
                    instances = index + 1
                    explanation = outcome
                    bad_space = sample_dendrogram(spec, index)
                    break
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
        recheck = _reverify_counterexample(which, space_dict)
        if recheck is None:
            raise InternalCheckError(
                "counterexample failed to re-verify from its serialized form"
            )
        counterexample = {"space": space_dict, "explanation": explanation}
        status = STATUS_COUNTEREXAMPLE
    elif spec.mode == "exhaustive":
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
