"""Core space representation, validation, and constructive operations."""

import random
from fractions import Fraction

import pytest

from starmetric import (
    E4,
    FiniteMetricSpace,
    InvalidSpaceError,
    NotUltrametricError,
    S4,
    SizeCapError,
    X4,
    Y4,
    adjoin_near,
    are_isometric,
    equidistant,
    min_pair,
    rank_matrix,
    restrict,
    spectrum,
    swap_isometry,
    validate,
)
from starmetric.spaces import require_ultrametric
from helpers import relabel, sample_space, validate_oracle


def quad(v12, v13, v14, v23, v24, v34, labels=("a", "b", "c", "d")):
    a, b, c, d = labels
    return FiniteMetricSpace.from_pairs(
        labels,
        {(a, b): v12, (a, c): v13, (a, d): v14, (b, c): v23, (b, d): v24, (c, d): v34},
    )


class TestConstruction:
    def test_structural_errors_are_distinct(self):
        with pytest.raises(InvalidSpaceError) as err:
            FiniteMetricSpace(("a", "b"), [[0, 1]])
        assert err.value.kind == "shape"
        with pytest.raises(InvalidSpaceError) as err:
            FiniteMetricSpace(("a", "b"), [[1, 1], [1, 0]])
        assert err.value.kind == "diagonal"
        with pytest.raises(InvalidSpaceError) as err:
            FiniteMetricSpace(("a", "b"), [[0, 1], [2, 0]])
        assert err.value.kind == "asymmetry"
        with pytest.raises(InvalidSpaceError) as err:
            FiniteMetricSpace(("a", "b"), [[0, -1], [-1, 0]])
        assert err.value.kind == "negative"
        with pytest.raises(InvalidSpaceError) as err:
            FiniteMetricSpace(("a", "b"), [[0, 0], [0, 0]])
        assert err.value.kind == "coincident"
        with pytest.raises(InvalidSpaceError) as err:
            FiniteMetricSpace(("a", "a"), [[0, 1], [1, 0]])
        assert err.value.kind == "labels"

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace(("a", "b"), [[0, 0.5], [0.5, 0]])

    def test_exact_decimal_strings(self):
        space = FiniteMetricSpace(("a", "b"), [["0", "0.5"], ["0.5", "0"]])
        assert space.d("a", "b") == Fraction(1, 2)

    def test_json_round_trip_is_exact(self):
        for space in (X4, S4, E4):
            assert FiniteMetricSpace.from_dict(space.to_dict()) == space

    def test_json_points_and_dist_must_be_arrays(self):
        for data in (
            {"points": "ab", "dist": [["0", "1"], ["1", "0"]]},
            {"points": ["a", "b"], "dist": "0110"},
            {"points": ["a", "b"], "dist": ["01", "10"]},
        ):
            with pytest.raises(InvalidSpaceError):
                FiniteMetricSpace.from_dict(data)

    def test_from_pairs_rejects_a_self_pair(self):
        # a self-pair must not count as one of the n(n-1)/2 pairs, leaving
        # d(b, c) silently zero
        with pytest.raises(InvalidSpaceError, match=r"\(a,a\)") as err:
            FiniteMetricSpace.from_pairs(
                ("a", "b", "c"), {("a", "a"): 0, ("a", "b"): 1, ("a", "c"): 2}
            )
        assert err.value.kind == "labels"

    def test_from_pairs_names_an_unknown_label(self):
        with pytest.raises(InvalidSpaceError, match="'zz'") as err:
            FiniteMetricSpace.from_pairs(("a", "b"), {("a", "zz"): 1})
        assert err.value.kind == "labels"


class TestValidate:
    def test_canonical_spaces_are_ultrametric(self):
        for space in (X4, Y4, S4, E4):
            report = validate(space)
            assert report.is_ultrametric and report.is_metric
            assert report.violation is None

    def test_first_violation_in_point_order(self):
        # X4 with the short chord stretched to 5 is no longer ultrametric
        broken = quad(3, 5, 3, 3, 2, 3, labels=("x1", "x2", "x3", "x4"))
        report = validate(broken)
        assert not report.is_ultrametric
        v = report.violation
        assert (v.x, v.via, v.y) == ("x1", "x2", "x3")
        assert v.lhs == 5 and v.bound == 3

    def test_non_metric_detected(self):
        bad = FiniteMetricSpace(("a", "b", "c"), [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        report = validate(bad)
        assert not report.is_ultrametric and not report.is_metric

    def test_metric_but_not_ultrametric(self):
        euclideanish = FiniteMetricSpace(
            ("a", "b", "c"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        )
        report = validate(euclideanish)
        assert report.is_metric and not report.is_ultrametric

    def test_agrees_with_the_cubic_oracle_on_random_matrices(self):
        # the spanning-tree accept path and the cubic reject path together
        # must reproduce the whole report, first violating triple included
        rng = random.Random(53)
        kinds = {"ultrametric": 0, "metric only": 0, "not metric": 0}
        for i in range(3000):
            n = rng.randint(1, 6)
            if i % 3 == 0:
                base = sample_space(n=n, seed=5000 + i)
                space = restrict(base, rng.sample(base.points, n))
            else:
                values = (2, 3, 4) if i % 3 == 1 else (Fraction(1, 2), 1, 2, 5)
                rows = [[Fraction(0)] * n for _ in range(n)]
                for a in range(n):
                    for b in range(a + 1, n):
                        rows[a][b] = rows[b][a] = Fraction(rng.choice(values))
                space = FiniteMetricSpace([f"p{k}" for k in range(n)], rows)
            expected = validate_oracle(space)
            assert validate(space) == expected
            if expected.is_ultrametric:
                kinds["ultrametric"] += 1
            elif expected.is_metric:
                kinds["metric only"] += 1
            else:
                kinds["not metric"] += 1
        assert min(kinds.values()) >= 300, kinds

    def test_guard_first_then_full_report(self):
        # require_ultrametric fills the space's memo without the is_metric
        # flag; validate must still report it, and the same first triple
        rng = random.Random(71)
        kinds = {"metric only": 0, "not metric": 0}
        for i in range(600):
            n = rng.randint(3, 6)
            values = (2, 3, 4) if i % 2 == 0 else (Fraction(1, 2), 1, 2, 5)
            rows = [[Fraction(0)] * n for _ in range(n)]
            for a in range(n):
                for b in range(a + 1, n):
                    rows[a][b] = rows[b][a] = Fraction(rng.choice(values))
            space = FiniteMetricSpace([f"p{k}" for k in range(n)], rows)
            expected = validate_oracle(space)
            if expected.is_ultrametric:
                continue
            with pytest.raises(NotUltrametricError) as err:
                require_ultrametric(space)
            assert err.value.violation == expected.violation
            assert validate(space) == expected
            kinds["metric only" if expected.is_metric else "not metric"] += 1
        assert min(kinds.values()) >= 100, kinds

    def test_order_data_does_not_change_equality(self):
        space = sample_space(n=6, seed=73)
        fresh = FiniteMetricSpace(space.points, space.dist)
        validate(space)
        rank_matrix(space)
        assert space == fresh and hash(space) == hash(fresh)
        assert rank_matrix(fresh) == rank_matrix(space)
        assert spectrum(fresh) == spectrum(space)


class TestSpectrum:
    def test_x4(self):
        s = spectrum(X4)
        assert s.values == (0, 1, 2, 3)
        assert s.diameter == 3
        assert s.d0 == (1, 2, 3)

    def test_equidistant(self):
        s = spectrum(E4)
        assert s.values == (0, 1) and s.diameter == 1

    def test_singleton(self):
        s = spectrum(FiniteMetricSpace(("p",), [[0]]))
        assert s.values == (Fraction(0),) and s.diameter == 0


class TestRestrict:
    def test_triple_of_x4(self):
        sub = restrict(X4, ["x1", "x2", "x3"])
        assert sub.points == ("x1", "x2", "x3")
        assert sorted(sub.dist[i][j] for i in range(3) for j in range(i + 1, 3)) == [1, 3, 3]
        assert validate(sub).is_ultrametric

    def test_identity(self):
        assert restrict(X4, X4.points) == X4

    def test_pair_of_s4(self):
        sub = restrict(S4, {"s1", "s3"})
        assert sub.points == ("s1", "s3") and sub.d("s1", "s3") == 1

    def test_sequence_input_keeps_the_given_order(self):
        sub = restrict(S4, ("s3", "s1"))
        assert sub.points == ("s3", "s1")
        assert sub.dist[0][1] == 1

    def test_errors(self):
        with pytest.raises(ValueError):
            restrict(X4, [])
        with pytest.raises(KeyError):
            restrict(X4, ["x1", "zz"])
        with pytest.raises(ValueError):
            restrict(X4, ["x1", "x1"])


class TestMinPair:
    def test_examples(self):
        assert min_pair(X4) == ("x1", "x3", 1)
        assert min_pair(E4) == ("p1", "p2", 1)
        assert min_pair(S4) == ("s1", "s3", 1)

    def test_singleton_has_none(self):
        assert min_pair(FiniteMetricSpace(("p",), [[0]])) is None

    def test_agrees_with_the_pair_scan(self):
        rng = random.Random(31)
        for seed in range(200):
            space = sample_space(n=2 + seed % 9, seed=7000 + seed)
            # shuffled point order moves the first minimum pair around
            space = restrict(space, rng.sample(space.points, space.n))
            n, dist = space.n, space.dist
            i, j = min(((i, j) for i in range(n) for j in range(i + 1, n)), key=lambda p: dist[p[0]][p[1]])
            assert min_pair(space) == (space.points[i], space.points[j], dist[i][j])


class TestSwapIsometry:
    def test_x4_min_pair_swaps(self):
        perm = swap_isometry(X4, "x1", "x3")
        assert perm == {"x1": "x3", "x2": "x2", "x3": "x1", "x4": "x4"}

    def test_equidistant_any_pair(self):
        perm = swap_isometry(E4, "p1", "p2")
        assert perm["p1"] == "p2" and perm["p3"] == "p3"

    def test_non_minimal_pair_rejected(self):
        with pytest.raises(ValueError):
            swap_isometry(X4, "x2", "x4")

    def test_requires_ultrametric(self):
        bad = FiniteMetricSpace(("a", "b", "c"), [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        with pytest.raises(NotUltrametricError):
            swap_isometry(bad, "a", "b")

    def test_involution_on_samples(self):
        for seed in range(25):
            space = sample_space(n=5, seed=900 + seed)
            pair = min_pair(space)
            perm = swap_isometry(space, pair[0], pair[1])
            assert all(perm[perm[p]] == p for p in space.points)


class TestAdjoinNear:
    def test_s4_example(self):
        grown = adjoin_near(S4, "s1", Fraction(1, 2))
        assert grown.points == ("s1", "s2", "s3", "s4", "c")
        assert grown.d("c", "s1") == Fraction(1, 2)
        assert grown.d("c", "s3") == 1
        assert grown.d("c", "s4") == 2
        assert grown.d("c", "s2") == 3
        assert validate(grown).is_ultrametric

    def test_equidistant_forced_values(self):
        grown = adjoin_near(E4, "p1", "1/2")
        assert grown.d("c", "p1") == Fraction(1, 2)
        assert all(grown.d("c", p) == 1 for p in ("p2", "p3", "p4"))
        assert validate(grown).is_ultrametric

    def test_restriction_returns_input_bit_exactly(self):
        for seed in range(20):
            space = sample_space(n=6, seed=300 + seed)
            anchor = space.points[seed % 6]
            grown = adjoin_near(space, anchor, Fraction(1, 3))
            assert restrict(grown, space.points) == space
            assert validate(grown).is_ultrametric

    def test_eps_range_enforced(self):
        with pytest.raises(ValueError):
            adjoin_near(X4, "x1", 1)  # min positive distance of X4 is 1
        with pytest.raises(ValueError):
            adjoin_near(X4, "x1", 0)
        with pytest.raises(KeyError):
            adjoin_near(X4, "zz", "1/2")

    def test_fresh_label_avoids_collisions(self):
        base = FiniteMetricSpace(("c", "d"), [[0, 2], [2, 0]])
        grown = adjoin_near(base, "c", 1)
        assert grown.points == ("c", "d", "c2")


class TestAreIsometric:
    def test_relabeled_copy(self):
        copy = relabel(X4, ("a", "b", "c", "d"))
        witness = are_isometric(X4, copy)
        assert witness == {"x1": "a", "x2": "b", "x3": "c", "x4": "d"}

    def test_x4_y4_differ(self):
        assert are_isometric(X4, Y4) is None

    def test_dropping_either_point_of_new_min_pair(self):
        grown = adjoin_near(S4, "s1", Fraction(1, 2))
        without_anchor = restrict(grown, [p for p in grown.points if p != "s1"])
        without_new = restrict(grown, S4.points)
        assert without_new == S4
        witness = are_isometric(without_anchor, without_new)
        assert witness is not None
        assert all(
            without_anchor.d(p, q) == without_new.d(witness[p], witness[q])
            for p in without_anchor.points
            for q in without_anchor.points
        )

    def test_symmetry_of_existence(self):
        rng = random.Random(7)
        for seed in range(20):
            a = sample_space(n=4, seed=seed)
            b = sample_space(n=4, seed=rng.randint(0, 10))
            assert (are_isometric(a, b) is None) == (are_isometric(b, a) is None)

    def test_size_mismatch_is_negative_not_error(self):
        assert are_isometric(X4, equidistant(5)) is None

    def test_cap_is_an_explicit_refusal(self):
        big = equidistant(9)
        with pytest.raises(SizeCapError):
            are_isometric(big, big)
        assert are_isometric(big, big, max_points=9) is not None


class TestUltrametricInvariants:
    def test_strong_triangle_exact_on_samples(self):
        for seed in range(30):
            space = sample_space(n=6, seed=seed)
            n = space.n
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if len({a, b, c}) == 3:
                            assert space.dist[a][c] <= max(
                                space.dist[a][b], space.dist[b][c]
                            )

    def test_diameter_seen_from_every_point(self):
        # in an ultrametric space, diam S = max_y d(x0, y) for every x0 in S
        rng = random.Random(11)
        for seed in range(20):
            space = sample_space(n=6, seed=100 + seed)
            points = list(space.points)
            subset = sorted(rng.sample(points, rng.randint(2, 6)), key=space.index)
            sub = restrict(space, subset)
            diam = spectrum(sub).diameter
            for x0 in subset:
                assert max(sub.d(x0, y) for y in subset) == (diam if len(subset) > 1 else 0)
