"""Core space representation, validation, and constructive operations."""

import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

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
    min_positive_distance,
    rank_matrix,
    restrict,
    spectrum,
    star_metric,
    swap_isometry,
    validate,
)
from starmetric.spaces import require_ultrametric
from helpers import (
    adjoin_near_oracle, construct_oracle, construct_outcome, outcome, random_star, relabel,
    sample_space, validate_oracle,
)


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


def max_metric(n: int, cell=str) -> list:
    """The max-metric matrix on n points, d(i, j) = max(i, j) + 1, each
    entry made by ``cell``: n distinct values."""
    return [[cell(0) if i == j else cell(max(i, j) + 1) for j in range(n)] for i in range(n)]


def build_time(points, dist, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        FiniteMetricSpace(points, dist)
        best = min(best, time.perf_counter() - start)
    return best


class TestCellIds:
    """Construction maps each cell to an id in first-appearance order,
    parses each id's cell once, then gathers each row's ranks by id."""

    def assert_as_oracle(self, dist):
        points = [f"p{k}" for k in range(max(len(dist), 1))]
        expected = outcome(construct_oracle, points, dist)
        assert construct_outcome(points, dist) == expected
        return expected

    @pytest.mark.parametrize("cell", [str, int, Fraction])
    def test_one_and_two_points(self, cell):
        one = FiniteMetricSpace(("a",), [[cell(0)]])
        assert rank_matrix(one) == ((0,),) and spectrum(one).values == (0,)
        two = FiniteMetricSpace(("a", "b"), [[cell(0), cell(3)], [cell(3), cell(0)]])
        assert rank_matrix(two) == ((0, 1), (1, 0)) and spectrum(two).values == (0, 3)
        for dist in ([[cell(0)]], [[cell(0), cell(3)], [cell(3), cell(0)]], [[cell(0), cell(3)]]):
            self.assert_as_oracle(dist)

    @pytest.mark.parametrize(
        "dist, kind",
        [
            ([[]], "shape"),
            ([[], ["1", "0"]], "shape"),
            ([["0", "1"], []], "shape"),
            ([["0"], ["1", "0"]], "shape"),
            ([["0", "1", "2"], ["1", "0"]], "shape"),
            ([["0", "1"], ["1", "0"], ["2"]], "shape"),
            ([[0, 1], [1]], "shape"),
            ([["0", "1"], ["1", "0", "zz"]], None),
            ([[], ["0", "y"]], None),
            ([["0", "1", "2", "x"], ["1", "0"]], None),
            ([["x"]], None),
        ],
    )
    def test_empty_short_and_long_rows(self, dist, kind):
        # a bad numeral in any row is reported before the shape is checked
        expected = self.assert_as_oracle(dist)
        assert issubclass(expected[0], ValueError) and expected[1] == kind
        assert kind or "not an exact rational" in expected[2]

    @pytest.mark.parametrize(
        "dist, message",
        [
            ([[0, ["1"]], [["1"], 0]], "not an exact rational: ['1']"),
            ([["0", "x"], [{}, "0"]], "not an exact rational: 'x'"),
            ([["0", [1]], ["x", "0"]], "not an exact rational: [1]"),
            ([[0, 1], [True, 0]], "not an exact rational: True"),
            ([[0, 1], [1.0, 0]], "refusing float 1.0: "),
            ([[0, Fraction(1)], [True, 0]], "not an exact rational: True"),
            ([[0, Fraction(1, 2)], [0.5, 0]], "refusing float 0.5: "),
            ([["0", 1], [1.0, "0"]], "refusing float 1.0: "),
        ],
        ids=[
            "unhashable", "text-before-unhashable", "unhashable-before-text", "bool-beside-int",
            "float-beside-int", "bool-beside-fraction", "float-beside-fraction",
            "float-beside-text-and-int",
        ],
    )
    def test_cells_that_are_no_exact_numbers_are_refused(self, dist, message):
        with pytest.raises(ValueError) as err:
            FiniteMetricSpace(("a", "b"), dist)
        assert str(err.value).startswith(message)
        assert self.assert_as_oracle(dist)[2] == str(err.value)

    def test_spellings_of_one_value_share_a_rank(self):
        space = FiniteMetricSpace(
            ("a", "b", "c"), [["0", "1/2", "1"], ["0.5", "0", 1], [Fraction(1), "1.0", 0]]
        )
        assert rank_matrix(space) == ((0, 1, 2), (1, 0, 2), (2, 2, 0))
        assert spectrum(space).values == (0, Fraction(1, 2), 1)

    def test_the_first_bad_numeral_in_row_order_is_named(self):
        for dist, bad in (
            ([["0", "1", "1"], ["1", "0", "b1"], ["b0", "b2", "0"]], "b1"),
            ([["0", "1", "1"], ["1", "0", "1"], ["b0", "b1", "0"]], "b0"),
            ([["0", "1", "b"], ["1", "0", "a"], ["a", "b", "0"]], "b"),
            ([["0", 1, 2], [1, 0, "q"], ["p", "q", 0]], "q"),
        ):
            with pytest.raises(ValueError, match=f"not an exact rational: '{bad}'"):
                FiniteMetricSpace(("a", "b", "c"), dist)
            self.assert_as_oracle(dist)

    def test_ranks_do_not_depend_on_the_hash_seed(self):
        # distinct texts whose first appearance and value orders differ
        script = (
            "import random; from starmetric import FiniteMetricSpace, rank_matrix, spectrum\n"
            "rng = random.Random(3); n = 40\n"
            "dist = [['0'] * n for _ in range(n)]\n"
            "for i in range(n):\n"
            "    for j in range(i + 1, n):\n"
            "        v = rng.randrange(1, 10**6)\n"
            "        dist[i][j], dist[j][i] = str(v), f'{v}/1' if v % 3 else f'{v}.0'\n"
            "space = FiniteMetricSpace([f'p{k}' for k in range(n)], dist)\n"
            "print(rank_matrix(space), spectrum(space).values)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
            )
            assert run.returncode == 0, run.stderr
            outs.append(run.stdout)
        assert outs[0] == outs[1]

    def test_int_and_fraction_cells_build_as_fast_as_text(self):
        # int and Fraction cells take the id route that text takes; parsed
        # one by one, ints build about 25 times slower than their text
        n = 512
        points = [f"p{k}" for k in range(n)]
        texts, ints = max_metric(n), max_metric(n, int)
        space = FiniteMetricSpace(points, texts)
        assert FiniteMetricSpace(points, ints) == space
        assert FiniteMetricSpace(points, max_metric(n, Fraction)) == space
        assert build_time(points, ints) < 2 * build_time(points, texts)

    def test_the_id_and_rank_matrices_never_both_exist(self):
        # the peak while building is the rank rows the space keeps, the id
        # rows they replace one by one, and the small tables of distinct
        # cells; a third matrix-sized block would take it past 2.5 times
        n = 512
        points = [f"p{k}" for k in range(n)]
        dist = max_metric(n)
        tracemalloc.start()
        try:
            space = FiniteMetricSpace(points, dist)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert space.n == n
        assert peak < 2.5 * kept, (peak, kept)


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

    def test_matches_the_fraction_matrix_build(self):
        # seeded stars and ball trees, each anchor in turn, eps below min D0
        # as a Fraction, an int or a text
        rng = random.Random(2901)
        cases = [star_metric(random_star(rng, max_leaves=14)) for _ in range(40)]
        cases += [sample_space(n=rng.randint(1, 12), seed=2902, index=k) for k in range(40)]
        cases.append(FiniteMetricSpace(("a",), [[0]]))
        for space in cases:
            floor = min_positive_distance(space) or Fraction(5)
            for anchor in space.points:
                eps = rng.choice((floor / 2, floor / 7, str(floor / 3)))
                if floor > 1:
                    eps = rng.choice((eps, 1))
                grown = adjoin_near(space, anchor, eps, label="new")
                assert grown == adjoin_near_oracle(space, anchor, eps, "new")

    def test_builds_no_value_matrix(self):
        space = star_metric(random_star(random.Random(2903), max_leaves=20))
        grown = adjoin_near(space, space.points[-1], Fraction(1, 8))
        assert space._dist is None and grown._dist is None
        assert validate(grown).is_ultrametric and grown._dist is None


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
