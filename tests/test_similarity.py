"""Weak similarity decisions, forbidden-quad models, model matching."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from starmetric import (
    E4,
    FiniteMetricSpace,
    GeneratorSpec,
    MODELS,
    NotUltrametricError,
    S4,
    SizeCapError,
    W4,
    X4,
    Y4,
    are_isometric,
    classify_forbidden,
    diametrical_graph,
    dplus_space,
    enumerate_ultrametrics,
    equidistant,
    model_match,
    multipartite_signature,
    rank_matrix,
    weakly_similar,
)
from helpers import first_matching_permutation, ranks, sample_space, scale


class TestRankMatrix:
    def test_x4(self):
        assert rank_matrix(X4) == (
            (0, 3, 1, 3),
            (3, 0, 3, 2),
            (1, 3, 0, 3),
            (3, 2, 3, 0),
        )

    def test_equidistant(self):
        assert rank_matrix(E4) == tuple(
            tuple(0 if i == j else 1 for j in range(4)) for i in range(4)
        )

    def test_y4(self):
        assert rank_matrix(Y4) == (
            (0, 2, 1, 2),
            (2, 0, 2, 1),
            (1, 2, 0, 2),
            (2, 1, 2, 0),
        )


class TestWeaklySimilar:
    def test_monotone_rescaling(self):
        doubled = scale(X4, 2)
        witness = weakly_similar(X4, doubled)
        assert witness is not None
        assert witness.mapping == {p: p for p in X4.points}
        assert witness.f_pairs == (
            (Fraction(2), Fraction(1)),
            (Fraction(4), Fraction(2)),
            (Fraction(6), Fraction(3)),
        )
        assert witness.verify(X4, doubled)

    def test_x4_y4_not_similar(self):
        assert weakly_similar(X4, Y4) is None

    def test_isometric_spaces_have_identity_distance_map(self):
        target = dplus_space(["1/2", "1", "2", "3"])
        witness = weakly_similar(S4, target)
        assert witness is not None
        assert witness.f_pairs == tuple((v, v) for v in (1, 2, 3))

    def test_size_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            weakly_similar(X4, equidistant(5))

    def test_cap(self):
        big = equidistant(9)
        with pytest.raises(SizeCapError):
            weakly_similar(big, big)
        assert weakly_similar(big, big, max_points=9) is not None

    def test_reflexive_and_symmetric_on_samples(self):
        for seed in range(25):
            a = sample_space(n=4, seed=400 + seed)
            b = sample_space(n=4, seed=800 + seed)
            assert weakly_similar(a, a) is not None
            assert (weakly_similar(a, b) is None) == (weakly_similar(b, a) is None)

    def test_transitive_through_rescaling_chains(self):
        for seed in range(10):
            a = sample_space(n=5, seed=40 + seed)
            b = scale(a, Fraction(3, 2))
            c = scale(a, 5)
            ab = weakly_similar(a, b)
            bc = weakly_similar(b, c)
            ac = weakly_similar(a, c)
            assert ab is not None and bc is not None and ac is not None

    def test_witnesses_preserve_diametrical_signatures(self):
        for seed in range(25):
            a = sample_space(n=5, seed=seed)
            b = scale(a, Fraction(7, 3))
            witness = weakly_similar(a, b)
            assert witness is not None
            sig_a = multipartite_signature(diametrical_graph(a))
            sig_b = multipartite_signature(diametrical_graph(b))
            assert sig_a.sizes == sig_b.sizes


def _witness_order_pairs(count: int):
    """Seeded (a, b) pairs with n <= 6: ultrametric samples with many ties and
    plain metrics over {2, 3, 4}, against a shuffled copy, a shuffled copy
    under the increasing map x -> x^2, or an unrelated space."""
    rng = random.Random(2013)
    for trial in range(count):
        n = rng.randint(1, 6)
        if trial % 2:
            a = sample_space(n, seed=trial, alphabet=("1", "2", "3"))
        else:
            cells = {(i, j): rng.randint(2, 4) for i in range(n) for j in range(i + 1, n)}
            a = FiniteMetricSpace(
                [f"p{i + 1}" for i in range(n)],
                [[0 if i == j else cells[min(i, j), max(i, j)] for j in range(n)] for i in range(n)],
            )
        order = list(range(n))
        rng.shuffle(order)
        kind = trial % 3
        if kind == 2:
            other = sample_space(n, seed=trial + 1, alphabet=("1", "2", "3"))
            dist = other.dist
        else:
            dist = [[a.dist[i][j] ** (kind + 1) for j in order] for i in order]
        yield a, FiniteMetricSpace([f"q{k + 1}" for k in range(n)], dist)


class TestWitnessOrder:
    def test_matches_first_permutation_oracle(self):
        found_iso = found_weak = 0
        for a, b in _witness_order_pairs(1500):
            perm = first_matching_permutation(a.dist, b.dist)
            expected = None if perm is None else dict(zip(a.points, (b.points[j] for j in perm)))
            assert are_isometric(a, b) == expected, (a.dist, b.dist)
            found_iso += expected is not None
            perm = first_matching_permutation(ranks(a.dist), ranks(b.dist))
            expected = None if perm is None else dict(zip(a.points, (b.points[j] for j in perm)))
            witness = weakly_similar(a, b)
            assert (None if witness is None else witness.mapping) == expected, (a.dist, b.dist)
            found_weak += expected is not None
        assert 0 < found_iso < found_weak < 1500


class TestClassifyForbidden:
    def test_x4_is_its_own_model(self):
        result = classify_forbidden(X4)
        assert result.model == "X4"
        assert result.witness.mapping == {p: p for p in X4.points}

    def test_y4_is_its_own_model(self):
        result = classify_forbidden(Y4)
        assert result.model == "Y4"
        assert result.witness.mapping == {
            "y1": "y1", "y2": "y2", "y3": "y3", "y4": "y4",
        }

    def test_swapped_chords_use_the_crossed_map(self):
        swapped = FiniteMetricSpace.from_pairs(
            ("x1", "x2", "x3", "x4"),
            {
                ("x1", "x2"): 3, ("x2", "x3"): 3, ("x3", "x4"): 3, ("x4", "x1"): 3,
                ("x1", "x3"): 2, ("x2", "x4"): 1,
            },
        )
        result = classify_forbidden(swapped)
        assert result.model == "X4"
        assert result.witness.mapping == {
            "x1": "x2", "x2": "x1", "x3": "x4", "x4": "x3",
        }
        assert result.witness.verify(swapped, X4)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            classify_forbidden(S4)  # signature (1,3), not a forbidden quad
        with pytest.raises(ValueError):
            classify_forbidden(equidistant(3))
        bad = FiniteMetricSpace(
            ("a", "b", "c", "d"),
            [[0, 1, 3, 1], [1, 0, 1, 3], [3, 1, 0, 1], [1, 3, 1, 0]],
        )
        with pytest.raises(NotUltrametricError):
            classify_forbidden(bad)

    def test_agrees_with_direct_similarity_on_all_small_forbidden_quads(self):
        spec = GeneratorSpec(n=4, alphabet=("1", "2", "3"))
        checked = 0
        for space in enumerate_ultrametrics(spec):
            sig = multipartite_signature(diametrical_graph(space))
            if sig.sizes != (2, 2):
                continue
            checked += 1
            result = classify_forbidden(space)
            against_x4 = weakly_similar(space, X4) is not None
            against_y4 = weakly_similar(space, Y4) is not None
            assert against_x4 != against_y4
            assert (result.model == "X4") == against_x4
            assert (result.model == "Y4") == against_y4
        assert checked > 0


class TestModelMatch:
    def test_examples(self):
        assert model_match(dplus_space([1, 2, 3, 4])) == "S4"
        assert model_match(E4) == "E4"
        assert model_match(scale(W4, 7)) == "W4"

    def test_each_model_matches_itself(self):
        for name, space in MODELS.items():
            assert model_match(space) == name

    def test_models_are_pairwise_non_similar(self):
        for a, b in combinations(MODELS, 2):
            assert weakly_similar(MODELS[a], MODELS[b]) is None

    def test_wrong_cardinality(self):
        with pytest.raises(ValueError):
            model_match(equidistant(5))

    def test_match_is_unique_over_small_exhaustive_enumeration(self):
        # every four-point ultrametric space over {1,2,3} matches exactly one model
        spec = GeneratorSpec(n=4, alphabet=("1", "2", "3"))
        for space in enumerate_ultrametrics(spec):
            matches = [
                name for name, m in MODELS.items() if weakly_similar(space, m) is not None
            ]
            assert len(matches) == 1
            assert model_match(space) == matches[0]

    def test_unmatched_space(self):
        # non-ultrametric input: its diameter pairs form a path, while the
        # same rank multiset in Z4 forms a star, so no bijection works
        space = FiniteMetricSpace.from_pairs(
            ("a", "b", "c", "d"),
            {
                ("a", "b"): 3, ("b", "c"): 3, ("c", "d"): 3,
                ("a", "c"): 1, ("b", "d"): 1, ("a", "d"): 1,
            },
        )
        assert model_match(space) is None
