"""Weak similarity of finite metric spaces and four-point model matching.

Two spaces are weakly similar when a point bijection composed with a
strictly increasing bijection between their distance sets carries one metric
to the other.  Between finite totally ordered sets of equal size the
increasing bijection is unique, so the two-sided search collapses to one:
replace every distance by its rank in the sorted spectrum and look for a
bijection equating the rank matrices.  Isometry is the case of equal
spectra, so one rank-matrix matcher serves both searches.  A four-point
quad of a larger space is compared with a model through its six ranks
alone, and that answer is kept per rank pattern.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Optional

from .diametrical import FourPointClass, _quad_class
from .errors import InternalCheckError, SizeCapError, _Record
from .models import MODELS, X4, Y4
from .rationals import format_rational
from .spaces import FiniteMetricSpace, RankMatrix, rank_matrix, require_ultrametric, spectrum


def _match_ranks(ra: RankMatrix, rb: RankMatrix) -> Optional[list[int]]:
    """First bijection (as ``assign[i] = j``) with ra[i][k] == rb[assign[i]][assign[k]].

    Backtracks over points of ``ra`` in stored order, trying candidates of
    ``rb`` in stored order and pruning on sorted rank profiles, so the
    result is the lexicographically first match.
    """
    n = len(ra)
    prof_a = [tuple(sorted(ra[i][k] for k in range(n) if k != i)) for i in range(n)]
    prof_b = [tuple(sorted(rb[j][k] for k in range(n) if k != j)) for j in range(n)]
    assign: list[int] = []
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if used[j] or prof_a[i] != prof_b[j]:
                continue
            if any(ra[i][k] != rb[j][assign[k]] for k in range(i)):
                continue
            assign.append(j)
            used[j] = True
            if extend(i + 1):
                return True
            used[j] = False
            assign.pop()
        return False

    return assign if extend(0) else None


QuadPattern = tuple[int, int, int, int, int, int]


def _quad_pattern(ranks: RankMatrix, quad: tuple[int, int, int, int]) -> QuadPattern:
    """The quad's six pair ranks in pair order, densely re-ranked from 1:
    the rank matrix its induced subspace would have, without building it."""
    a, b, c, e = quad
    ra, rb = ranks[a], ranks[b]
    six = (ra[b], ra[c], ra[e], rb[c], rb[e], ranks[c][e])
    dense = {r: k for k, r in enumerate(sorted(set(six)), 1)}
    return tuple([dense[r] for r in six])


# one cache entry per (four-point ultrametric rank pattern, model): about a hundred
@cache
def _pattern_weakly_similar(pattern: QuadPattern, model: str) -> bool:
    """Whether a four-point space with dense rank ``pattern`` is weakly
    similar to the four-point model named ``model``.

    ``pattern`` lists the six pair ranks in pair order (12, 13, 14, 23, 24,
    34), densely ranked from 1, so it is the rank matrix of the four-point
    space and ``max(pattern) + 1`` its spectrum size.  The answer is the one
    :func:`weakly_similar` gives and depends on nothing else, so it is
    matched once per (pattern, model) and kept.  A newly stored match is
    verified first: with spectra of equal size, the witness check reduces
    to the bijection carrying the pattern's ranks onto the model's.
    """
    ab, ac, ae, bc, be, ce = pattern
    ra = ((0, ab, ac, ae), (ab, 0, bc, be), (ac, bc, 0, ce), (ae, be, ce, 0))
    target = MODELS[model]
    rb = rank_matrix(target)
    if max(pattern) + 1 != len(spectrum(target).values):
        return False
    assign = _match_ranks(ra, rb)
    if assign is not None and (
        sorted(assign) != [0, 1, 2, 3]
        or any(ra[i][k] != rb[assign[i]][assign[k]] for i in range(4) for k in range(4))
    ):
        raise InternalCheckError(
            f"rank-pattern match onto model {model} produced a non-verifying bijection"
        )
    return assign is not None


def are_isometric(
    a: FiniteMetricSpace, b: FiniteMetricSpace, max_points: int = 8
) -> Optional[dict[str, str]]:
    """Search for a distance-preserving bijection from ``a`` onto ``b``.

    An isometry is a weak similarity whose distance map is the identity, so
    it exists iff the spectra are equal and the rank matrices match.  The
    returned witness is the lexicographically first one.  Sizes above
    ``max_points`` are refused explicitly rather than allowed to crawl
    through factorial search space.
    """
    if a.n > max_points or b.n > max_points:
        raise SizeCapError(
            f"isometry search capped at {max_points} points "
            f"(got {a.n} and {b.n}); raise max_points to override"
        )
    if a.n != b.n:
        return None
    if spectrum(a).values != spectrum(b).values:
        return None
    assign = _match_ranks(rank_matrix(a), rank_matrix(b))
    if assign is None:
        return None
    return {a.points[i]: b.points[j] for i, j in enumerate(assign)}


class WeakSimilarityWitness(_Record):
    """A point bijection plus the increasing distance-set bijection it induces.

    ``phi`` maps points of the first space onto the second; ``f_pairs`` lists
    the positive distance pairs (value in the second space, value in the
    first) in increasing order, with f(0) = 0 left implicit.
    """

    _fields = ("phi", "f_pairs")
    phi: tuple[tuple[str, str], ...]
    f_pairs: tuple[tuple[Fraction, Fraction], ...]

    @property
    def mapping(self) -> dict[str, str]:
        return dict(self.phi)

    @property
    def f(self) -> dict[Fraction, Fraction]:
        table = {Fraction(0): Fraction(0)}
        table.update({src: dst for src, dst in self.f_pairs})
        return table

    def verify(self, a: FiniteMetricSpace, b: FiniteMetricSpace) -> bool:
        """Re-check d_a(x, y) = f(d_b(phi x, phi y)) for every pair."""
        phi = self.mapping
        f = self.f
        for x in a.points:
            for y in a.points:
                if a.d(x, y) != f.get(b.d(phi[x], phi[y])):
                    return False
        return True

    def to_dict(self) -> dict:
        return {
            "phi": {x: y for x, y in self.phi},
            "f": [
                [format_rational(src), format_rational(dst)]
                for src, dst in self.f_pairs
            ],
        }


def weakly_similar(
    a: FiniteMetricSpace, b: FiniteMetricSpace, max_points: int = 8
) -> Optional[WeakSimilarityWitness]:
    """Search for a weak similarity from ``a`` onto ``b``.

    Present iff the spectra have equal size and some bijection equates the
    rank matrices entrywise; the witness is the lexicographically first
    such bijection.  Spaces of different cardinality are a usage error, not
    a negative answer.
    """
    if a.n != b.n:
        raise ValueError(f"weak similarity needs equal point counts (got {a.n}, {b.n})")
    if a.n > max_points:
        raise SizeCapError(
            f"weak similarity search capped at {max_points} points (got {a.n}); "
            "raise max_points to override"
        )
    spec_a = spectrum(a).values
    spec_b = spectrum(b).values
    if len(spec_a) != len(spec_b):
        return None
    assign = _match_ranks(rank_matrix(a), rank_matrix(b))
    if assign is None:
        return None
    witness = WeakSimilarityWitness(
        phi=tuple((a.points[i], b.points[j]) for i, j in enumerate(assign)),
        f_pairs=tuple(zip(spec_b[1:], spec_a[1:])),
    )
    if not witness.verify(a, b):
        raise InternalCheckError("rank-matrix match produced a non-verifying witness")
    return witness


class QuadModel(_Record):
    """Model classification of a forbidden quad, with its explicit witness."""

    _fields = ("model", "witness")
    model: str  # "X4" or "Y4"
    witness: WeakSimilarityWitness


def classify_forbidden(space: FiniteMetricSpace) -> QuadModel:
    """Decide whether a 4-cycle quad matches the X4 or the Y4 model.

    Requires a four-point ultrametric space whose diametrical graph has
    signature (2, 2).  Label the two non-diameter pairs (p1, p3) and
    (p2, p4): equal chord values give the Y4 model, distinct values the X4
    model (with the point map swapped when the second chord is the smaller).
    The returned witness is re-verified before returning.
    """
    if space.n != 4:
        raise ValueError(f"forbidden-quad classification got {space.n} points")
    require_ultrametric(space)
    ranks = rank_matrix(space)
    cls, low = _quad_class(ranks, (0, 1, 2, 3))
    if cls is not FourPointClass.K22:
        # each class is named by its sorted part sizes, as in "K112"
        sizes = None if cls is None else tuple(map(int, cls.value[1:]))
        raise ValueError(
            "forbidden-quad classification needs diametrical signature (2, 2), "
            f"got {sizes}"
        )
    (p1, p3), (p2, p4) = ((space.points[i], space.points[j]) for i, j in low)
    chord_a, chord_b = (ranks[i][j] for i, j in low)
    if chord_a == chord_b:
        model, target = "Y4", Y4
        phi = {p1: "y1", p2: "y2", p3: "y3", p4: "y4"}
    elif chord_a < chord_b:
        model, target = "X4", X4
        phi = {p1: "x1", p2: "x2", p3: "x3", p4: "x4"}
    else:
        model, target = "X4", X4
        phi = {p1: "x2", p2: "x1", p3: "x4", p4: "x3"}
    spec_s = spectrum(space).values
    spec_t = spectrum(target).values
    witness = WeakSimilarityWitness(
        phi=tuple((p, phi[p]) for p in space.points),
        f_pairs=tuple(zip(spec_t[1:], spec_s[1:])),
    )
    if not witness.verify(space, target):
        raise InternalCheckError(f"forbidden-quad witness for model {model} failed to verify")
    return QuadModel(model, witness)


def model_match(space: FiniteMetricSpace) -> Optional[str]:
    """Name of the unique canonical four-point model the space is weakly
    similar to, or None.

    Uniqueness rests on the six models being pairwise non-weakly-similar,
    which the test suite asserts outright.
    """
    if space.n != 4:
        raise ValueError(f"model matching got {space.n} points")
    for name, target in MODELS.items():
        if weakly_similar(space, target) is not None:
            return name
    return None
