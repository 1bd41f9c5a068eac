"""Weak similarity of finite metric spaces and four-point model matching.

Two spaces are weakly similar when a point bijection composed with a
strictly increasing bijection between their distance sets carries one metric
to the other.  Between spectra of equal size that increasing bijection is
unique, so the search replaces every distance by its rank in the spectrum
and looks for a bijection equating the rank matrices.  :func:`weakly_similar`
alone turns a rank match into a witness, and verifies each one it returns:
an isometry's, and a 4-cycle's model.  A quad of a larger space needs no
search: its six ranks, densely re-ranked, key one entry of a table of the
six four-point models' relabelled patterns, which gives its model and class.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from typing import Optional, Sequence

from .diametrical import FourPointClass, _quad_class, classify_four_point
from .errors import InternalCheckError, SizeCapError, _Record
from .models import MODELS
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


@cache
def _model_table() -> dict[tuple[int, ...], tuple[str, FourPointClass]]:
    """The dense rank pattern of every relabelling of every four-point model,
    mapped to the model's name and diametrical class.

    A four-point space with dense ranks 1..k is weakly similar to a model
    iff some relabelling of the model has exactly its six ranks in pair
    order (12, 13, 14, 23, 24, 34), since the increasing map between two
    spectra of equal size is unique.  So the 32 patterns of the six models'
    24 relabellings are every four-point ultrametric pattern.  Two models
    sharing one, or a model's relabellings classified apart, is a bug.
    """
    table: dict[tuple[int, ...], tuple[str, FourPointClass]] = {}
    for name, model in MODELS.items():
        ranks = rank_matrix(model)
        cls, *more = {_quad_class(ranks, perm) for perm in permutations(range(4))}
        if cls is None or more:
            raise InternalCheckError(f"model {name}'s relabellings get no class or two; this is a bug")
        for perm in permutations(range(4)):
            pattern = tuple([ranks[x][y] for x, y in combinations(perm, 2)])
            if table.setdefault(pattern, (name, cls))[0] != name:
                raise InternalCheckError(
                    f"models {table[pattern][0]} and {name} share a rank pattern; this is a bug"
                )
    return table


def _quad_model(ranks: RankMatrix, quad: Sequence[int]) -> Optional[tuple[str, FourPointClass]]:
    """Name and class of the four-point model the quad's induced subspace is
    weakly similar to, or None if it is not ultrametric, read off its six
    pair ranks, densely re-ranked from 1, without building the subspace."""
    a, b, c, e = quad
    ra, rb = ranks[a], ranks[b]
    six = (ra[b], ra[c], ra[e], rb[c], rb[e], ranks[c][e])
    dense = {r: k for k, r in enumerate(sorted(set(six)), 1)}
    return _model_table().get(tuple([dense[r] for r in six]))


def are_isometric(
    a: FiniteMetricSpace, b: FiniteMetricSpace, max_points: int = 8
) -> Optional[dict[str, str]]:
    """Search for a distance-preserving bijection from ``a`` onto ``b``.

    An isometry is a weak similarity whose distance map is the identity, so
    it exists iff the spectra are equal and the rank matrices match.  The
    returned map is the lexicographically first one, the verified mapping
    of :func:`weakly_similar`'s witness.  Sizes above ``max_points`` are
    refused explicitly rather than allowed to crawl through factorial
    search space.
    """
    if a.n > max_points or b.n > max_points:
        raise SizeCapError(
            f"isometry search capped at {max_points} points "
            f"(got {a.n} and {b.n}); raise max_points to override"
        )
    if a.n != b.n or spectrum(a).values != spectrum(b).values:
        return None
    witness = weakly_similar(a, b, max_points)
    return None if witness is None else witness.mapping


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
    signature (2, 2).  The model is the one of X4 and Y4 the space is weakly
    similar to, and the witness is the one :func:`weakly_similar` finds and
    verifies.
    """
    if space.n != 4:
        raise ValueError(f"forbidden-quad classification got {space.n} points")
    require_ultrametric(space)
    cls = classify_four_point(space)
    if cls is not FourPointClass.K22:
        # each class is named by its sorted part sizes, as in "K112"
        raise ValueError(
            "forbidden-quad classification needs diametrical signature (2, 2), "
            f"got {tuple(map(int, cls.value[1:]))}"
        )
    for model in ("X4", "Y4"):
        witness = weakly_similar(space, MODELS[model])
        if witness is not None:
            return QuadModel(model, witness)
    raise InternalCheckError("a 4-cycle quad matched neither X4 nor Y4; this is a bug")


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
