"""Generators, conjecture checks, and campaign plumbing."""

import json
from collections import Counter
from itertools import combinations, permutations

import pytest

from starmetric import (
    E4,
    FourPointClass,
    GeneratorSpec,
    InternalCheckError,
    S4,
    SizeCapError,
    W4,
    X4,
    Z4,
    adjoin_near,
    are_isometric,
    check_equidistant,
    check_k112_conjecture,
    check_k13_conjecture,
    dplus_space,
    enumerate_ultrametrics,
    equidistant,
    run_campaign,
    sample_dendrogram,
    validate,
)
from starmetric import lab, similarity
from helpers import brute_force_ultrametrics, conjecture_oracle

CHECKS = {
    "equidistant": check_equidistant,
    "k112": check_k112_conjecture,
    "k13": check_k13_conjecture,
}


class TestEnumerate:
    def test_two_points_single_letter(self):
        spec = GeneratorSpec(n=2, alphabet=("1",))
        assert len(list(enumerate_ultrametrics(spec))) == 1

    def test_matches_brute_force_oracle_at_n3(self):
        spec = GeneratorSpec(n=3, alphabet=("1", "2"))
        ours = list(enumerate_ultrametrics(spec))
        oracle = brute_force_ultrametrics(3, ("1", "2"))
        assert len(oracle) == 5
        assert ours == oracle  # same spaces, same lexicographic matrix order

    def test_matches_brute_force_oracle_at_n4(self):
        spec = GeneratorSpec(n=4, alphabet=("1", "2", "3"))
        ours = list(enumerate_ultrametrics(spec))
        oracle = brute_force_ultrametrics(4, ("1", "2", "3"))
        assert ours == oracle
        assert len(set(s.dist for s in ours)) == len(ours)  # duplicate-free

    def test_contains_an_isometric_copy_of_x4(self):
        spec = GeneratorSpec(n=4, alphabet=("1", "2", "3"))
        assert any(
            are_isometric(space, X4) is not None
            for space in enumerate_ultrametrics(spec)
        )

    def test_caps_are_enforced_and_overridable(self):
        with pytest.raises(SizeCapError):
            list(enumerate_ultrametrics(GeneratorSpec(n=6, alphabet=("1",))))
        spaces = list(
            enumerate_ultrametrics(GeneratorSpec(n=6, alphabet=("1",), override_caps=True))
        )
        assert spaces == [equidistant(6)]

    def test_singleton(self):
        spec = GeneratorSpec(n=1, alphabet=("1",))
        assert [s.points for s in enumerate_ultrametrics(spec)] == [("p1",)]


class TestSampleDendrogram:
    def test_singleton(self):
        spec = GeneratorSpec(n=1, alphabet=("1",), mode="sample", seed=3)
        assert sample_dendrogram(spec).points == ("p1",)

    def test_always_ultrametric(self):
        for seed in range(40):
            spec = GeneratorSpec(
                n=(seed % 7) + 1, alphabet=("1", "2", "3", "4"), mode="sample", seed=seed
            )
            space = sample_dendrogram(spec, index=seed)
            assert validate(space).is_ultrametric

    def test_deterministic_per_seed_and_index(self):
        spec = GeneratorSpec(n=4, alphabet=("1", "2", "3"), mode="sample", seed=7)
        assert sample_dendrogram(spec, 5) == sample_dendrogram(spec, 5)

    def test_indices_vary_the_output(self):
        spec = GeneratorSpec(n=5, alphabet=("1", "2", "3"), mode="sample", seed=7)
        matrices = {sample_dendrogram(spec, i).dist for i in range(20)}
        assert len(matrices) > 1

    def test_values_stay_in_the_alphabet(self):
        spec = GeneratorSpec(n=6, alphabet=("1", "3"), mode="sample", seed=11)
        space = sample_dendrogram(spec)
        used = {x for row in space.dist for x in row if x != 0}
        assert used <= {1, 3}

    def test_empty_alphabet_rejected(self):
        with pytest.raises(ValueError):
            sample_dendrogram(GeneratorSpec(n=3, alphabet=(), mode="sample"))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count must be non-negative, got -3"):
            GeneratorSpec(n=5, alphabet=("1", "2"), mode="sample", count=-3)


class TestChecks:
    def test_equidistant_cases(self):
        both_true = check_equidistant(E4)
        assert both_true.all_equal and both_true.all_quads_k1111 and both_true.agree
        both_false = check_equidistant(S4)
        assert not both_false.all_equal and not both_false.all_quads_k1111
        assert both_false.agree
        big = check_equidistant(equidistant(6, value="7/2"))
        assert big.all_equal and big.all_quads_k1111

    def test_equidistant_needs_four_points(self):
        with pytest.raises(ValueError):
            check_equidistant(equidistant(3))

    def test_k112_on_w4(self):
        result = check_k112_conjecture(W4)
        assert result.every_quad_k112 and result.every_quad_w4_similar
        assert result.whole_space_w4_similar is True
        assert result.biconditional_violations == ()
        assert result.consistent

    def test_k112_on_x4(self):
        result = check_k112_conjecture(X4)
        assert not result.every_quad_k112 and not result.every_quad_w4_similar
        assert result.consistent

    def test_k112_whole_space_not_evaluable_beyond_four_points(self):
        grown = adjoin_near(W4, "w1", "1/2")
        result = check_k112_conjecture(grown)
        assert result.whole_space_w4_similar is None
        assert result.consistent

    def test_k13_on_dplus(self):
        result = check_k13_conjecture(dplus_space([1, 2, 3, 4, 5]))
        assert result.truth_vector == (True, True, True)
        assert result.consistent

    def test_k13_on_z4(self):
        result = check_k13_conjecture(Z4)
        assert result.truth_vector == (False, False, False)
        assert result.consistent

    def test_k13_on_s4(self):
        result = check_k13_conjecture(S4)
        assert result.truth_vector == (True, True, True)
        assert result.consistent


class TestCampaign:
    def test_equidistant_exhausts_and_holds(self):
        report = run_campaign(GeneratorSpec(n=4, alphabet=("1", "2", "3")), "equidistant")
        assert report.status == "EXHAUSTED_HOLDS"
        assert report.instances == 60
        assert report.counterexample is None

    def test_k13_exhausts_and_holds(self):
        report = run_campaign(GeneratorSpec(n=4, alphabet=("1", "2", "3")), "k13")
        assert report.status == "EXHAUSTED_HOLDS"

    def test_sampled_reports_are_deterministic(self):
        spec = GeneratorSpec(
            n=6, alphabet=("1", "2", "3"), mode="sample", seed=42, count=100
        )
        first = run_campaign(spec, "k112").to_dict()
        second = run_campaign(spec, "k112").to_dict()
        assert first == second
        assert first["status"] == "HOLDS_ON_SAMPLE"
        assert first["instances"] == 100

    def test_parallel_jobs_do_not_change_the_report(self):
        spec = GeneratorSpec(
            n=5, alphabet=("1", "2", "3"), mode="sample", seed=9, count=40
        )
        sequential = run_campaign(spec, "equidistant", jobs=1).to_dict()
        parallel = run_campaign(spec, "equidistant", jobs=2).to_dict()
        assert sequential == parallel

    def test_workers_capped_by_cpus_and_sample_count(self, monkeypatch):
        requested = []

        class InProcessPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(lab.os, "cpu_count", lambda: 3)
        spec = GeneratorSpec(n=4, alphabet=("1", "2"), mode="sample", seed=1, count=5)
        sequential = run_campaign(spec, "k13", jobs=1).to_dict()
        assert run_campaign(spec, "k13", jobs=10_000).to_dict() == sequential
        small = GeneratorSpec(n=4, alphabet=("1", "2"), mode="sample", seed=1, count=2)
        run_campaign(small, "k13", jobs=10_000)
        assert requested == [3, 2]

    def test_jobs_below_one_rejected(self):
        spec = GeneratorSpec(n=4, alphabet=("1", "2"), mode="sample", seed=1, count=2)
        for jobs in (0, -1):
            with pytest.raises(ValueError, match="jobs"):
                run_campaign(spec, "k13", jobs=jobs)

    def test_unknown_conjecture_id(self):
        with pytest.raises(ValueError):
            run_campaign(GeneratorSpec(n=4, alphabet=("1",)), "riemann")

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            run_campaign(GeneratorSpec(n=3, alphabet=("1",)), "equidistant")

    def test_counterexample_reporting_and_reverification(self, monkeypatch):
        # no honest counterexample exists at this scale, so flag every space
        # artificially to exercise serialization, re-verification, and status
        monkeypatch.setattr(
            lab, "evaluate_conjecture", lambda which, space: "flagged for plumbing test"
        )
        spec = GeneratorSpec(n=4, alphabet=("1", "2"), mode="sample", seed=5, count=8)
        report = run_campaign(spec, "equidistant")
        assert report.status == "COUNTEREXAMPLE"
        assert report.instances == 1
        embedded = report.counterexample["space"]
        first_sample = sample_dendrogram(spec, 0)
        assert lab.FiniteMetricSpace.from_dict(json.loads(json.dumps(embedded))) == first_sample
        assert report.counterexample["explanation"] == "flagged for plumbing test"

    def test_counterexample_that_fails_reverification_aborts(self, monkeypatch):
        calls = {"n": 0}

        def flaky(which, space):
            calls["n"] += 1
            return "only the first time" if calls["n"] == 1 else None

        monkeypatch.setattr(lab, "evaluate_conjecture", flaky)
        spec = GeneratorSpec(n=4, alphabet=("1", "2"), mode="sample", seed=5, count=4)
        with pytest.raises(lab.InternalCheckError):
            run_campaign(spec, "equidistant")

    def test_wall_time_never_reaches_the_json_dict(self):
        report = run_campaign(GeneratorSpec(n=4, alphabet=("1", "2")), "equidistant")
        assert report.wall_time_s >= 0
        assert "wall_time_s" not in report.to_dict()


class TestOracleAgreement:
    """The checks read quads off the parent's ranks; the oracle builds each
    subspace and runs the public classifier and similarity search on it."""

    @pytest.mark.parametrize("which", sorted(CHECKS))
    def test_every_five_point_space_over_four_letters(self, which):
        spaces = list(enumerate_ultrametrics(GeneratorSpec(n=5, alphabet=("1", "2", "3", "4"))))
        assert len(spaces) == 1304
        for space in spaces:
            assert CHECKS[which](space) == conjecture_oracle(which, space), space.dist

    @pytest.mark.parametrize("which", sorted(CHECKS))
    def test_seeded_eight_point_samples(self, which):
        spec = GeneratorSpec(n=8, alphabet=("1", "2", "3", "4"), mode="sample", seed=31, count=300)
        for index in range(spec.count):
            space = sample_dendrogram(spec, index)
            assert CHECKS[which](space) == conjecture_oracle(which, space), index

    def test_model_records_match_too(self):
        # the models and a grown W4 give records where the per-quad
        # statements differ, and the n = 4 whole-space W4 statement
        for space in (W4, X4, S4, Z4, E4, adjoin_near(W4, "w1", "1/2"), dplus_space([1, 2, 3, 4, 5])):
            for which, check in CHECKS.items():
                assert check(space) == conjecture_oracle(which, space), (which, space)

    def test_a_wrong_bijection_on_a_memo_miss_raises(self, monkeypatch):
        similarity._pattern_weakly_similar.cache_clear()
        monkeypatch.setattr(similarity, "_match_ranks", lambda ra, rb: [1, 0, 2, 3])
        with pytest.raises(lab.InternalCheckError):
            check_k13_conjecture(S4)

    def test_a_memo_hit_runs_no_match(self, monkeypatch):
        grown = adjoin_near(W4, "w1", "1/2")
        first = check_k112_conjecture(grown)

        def no_match(ra, rb):
            raise AssertionError("a stored pattern was matched again")

        monkeypatch.setattr(similarity, "_match_ranks", no_match)
        assert check_k112_conjecture(grown) == first


class TestParallelEarlyStop:
    def test_pool_stops_after_the_chunk_holding_a_counterexample(self, monkeypatch):
        evaluated = []
        shutdowns = []

        class InProcessPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                # like a process pool, run a whole chunk before yielding from it
                items = list(items)
                for lo in range(0, len(items), chunksize):
                    chunk = items[lo : lo + chunksize]
                    evaluated.extend(chunk)
                    yield from [fn(index) for index in chunk]

            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append((len(evaluated), cancel_futures))

        spec = GeneratorSpec(n=8, alphabet=("1", "2", "3", "4"), mode="sample", seed=3, count=3000)
        k = 700
        flagged = sample_dendrogram(spec, k)
        monkeypatch.setattr(
            lab, "evaluate_conjecture", lambda which, space: "flagged" if space == flagged else None
        )
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(lab.os, "cpu_count", lambda: 2)
        sequential = run_campaign(spec, "k13", jobs=1).to_dict()
        assert sequential["status"] == "COUNTEREXAMPLE"
        assert sequential["instances"] == k + 1
        assert run_campaign(spec, "k13", jobs=2).to_dict() == sequential
        assert k + 1 <= len(evaluated) < k + 1 + 64
        assert evaluated == list(range(len(evaluated)))
        assert shutdowns == [(len(evaluated), True)]


def canonical_form(matrix):
    """The least matrix over every relabelling: equal iff isometric."""
    n = len(matrix)
    return min(
        tuple(tuple(matrix[p[i]][p[j]] for j in range(n)) for i in range(n))
        for p in permutations(range(n))
    )


def labelled_route(monkeypatch, spec, which):
    """The report of the labelled scan alone, with the class route switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(lab, "_orbit_sum_if_all_hold", lambda spec, which: None)
        return run_campaign(spec, which).to_dict()


LETTERS = ("1/2", "1", "3", "7")


class TestIsometryClasses:
    """Exhaustive campaigns check one ball-tree representative per class; the
    labelled enumerator is the oracle."""

    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in range(4, 8) for k in (1, 2, 3)] + [(4, 4), (5, 4), (6, 4)]
    )
    def test_orbit_sizes_sum_to_the_labelled_count(self, n, k):
        spec = GeneratorSpec(n=n, alphabet=LETTERS[:k], override_caps=True)
        classes = lab._isometry_classes(n, k)
        assert sum(orbit for _, orbit in classes) == len(list(enumerate_ultrametrics(spec)))

    @pytest.mark.parametrize("k, labelled, classes", [(3, 167_894, 223), (4, 1_855_570, 1_344)])
    def test_eight_points_match_the_multichain_counts(self, k, labelled, classes):
        found = lab._isometry_classes(8, k)
        assert len(found) == classes
        assert sum(orbit for _, orbit in found) == labelled

    @pytest.mark.parametrize("n, k", [(n, k) for n in range(2, 6) for k in range(1, 5)])
    def test_each_labelled_space_is_isometric_to_one_representative(self, n, k):
        # the canonical form of a level matrix is a complete isometry invariant
        spec = GeneratorSpec(n=n, alphabet=LETTERS[:k])
        orbits = Counter()
        for rows, orbit in lab._isometry_classes(n, k):
            space = lab.FiniteMetricSpace._trusted(lab._point_labels(n), rows, (0,) + spec.alphabet)
            assert validate(space).is_ultrametric
            assert canonical_form(rows) not in orbits
            orbits[canonical_form(rows)] = orbit
        level = {v: i for i, v in enumerate((0,) + spec.alphabet)}
        seen = Counter(
            canonical_form([[level[v] for v in row] for row in space.dist])
            for space in enumerate_ultrametrics(spec)
        )
        assert seen == orbits

    @pytest.mark.parametrize("which", sorted(CHECKS))
    @pytest.mark.parametrize("n, k", [(n, k) for n in (4, 5) for k in range(1, 5)] + [(6, 3)])
    def test_class_route_reports_what_the_labelled_route_reports(self, monkeypatch, which, n, k):
        spec = GeneratorSpec(n=n, alphabet=LETTERS[:k], override_caps=n > 5)
        calls = Counter()
        evaluate = lab.evaluate_conjecture

        def counted(which, space):
            calls[which] += 1
            return evaluate(which, space)

        monkeypatch.setattr(lab, "evaluate_conjecture", counted)
        by_class = run_campaign(spec, which).to_dict()
        assert calls[which] == len(lab._isometry_classes(n, k))
        assert by_class["status"] == "EXHAUSTED_HOLDS"
        assert json.dumps(by_class) == json.dumps(labelled_route(monkeypatch, spec, which))

    @pytest.mark.parametrize("which", sorted(CHECKS))
    def test_a_failing_class_reports_the_first_labelled_counterexample(self, monkeypatch, which):
        spec = GeneratorSpec(n=5, alphabet=("1", "2", "3"))
        # flag every member of one class
        rows, _ = lab._isometry_classes(5, 3)[-2]
        flagged = canonical_form(rows)
        level = {v: i for i, v in enumerate((0,) + spec.alphabet)}

        def flag(which, space):
            if canonical_form([[level[v] for v in row] for row in space.dist]) == flagged:
                return f"{which}: flagged class"
            return None

        monkeypatch.setattr(lab, "evaluate_conjecture", flag)
        by_class = run_campaign(spec, which).to_dict()
        assert by_class["status"] == "COUNTEREXAMPLE"
        assert by_class["counterexample"]["explanation"] == f"{which}: flagged class"
        labelled = labelled_route(monkeypatch, spec, which)
        assert json.dumps(by_class) == json.dumps(labelled)
        # the instance count is the labelled index of the first member
        first = next(
            i
            for i, space in enumerate(enumerate_ultrametrics(spec), 1)
            if flag(which, space) is not None
        )
        assert by_class["instances"] == first > 1

    def test_a_class_that_raises_falls_back_to_the_labelled_scan(self, monkeypatch):
        spec = GeneratorSpec(n=4, alphabet=("1", "2"))
        evaluate = lab.evaluate_conjecture
        calls = []

        def raise_once(which, space):
            calls.append(space)
            if len(calls) == 1:
                raise ValueError("first representative refused")
            return evaluate(which, space)

        expected = labelled_route(monkeypatch, spec, "k13")
        monkeypatch.setattr(lab, "evaluate_conjecture", raise_once)
        assert run_campaign(spec, "k13").to_dict() == expected
        assert len(calls) == 1 + expected["instances"]

    def test_a_failed_self_check_in_a_representative_crashes_the_campaign(self, monkeypatch):
        spec = GeneratorSpec(n=5, alphabet=("1", "2", "3"))
        calls = []

        def broken(which, space):
            calls.append(space)
            raise InternalCheckError("representative failed its self-check")

        monkeypatch.setattr(lab, "evaluate_conjecture", broken)
        with pytest.raises(InternalCheckError, match="representative failed"):
            run_campaign(spec, "k13")
        # no labelled scan ran after the first representative
        assert len(calls) == 1


class TestQuadMemo:
    """The K112 and K13 checks decide one quad per distinct tuple of six pair
    ranks; the equidistance check stops at the first quad that is not K1111."""

    @pytest.mark.parametrize("which", sorted(CHECKS))
    def test_one_class_decision_per_distinct_rank_tuple(self, monkeypatch, which):
        spec = GeneratorSpec(n=8, alphabet=("1", "2", "3", "4"), mode="sample", seed=17, count=40)
        classify = lab._require_quad_class
        for index in range(spec.count):
            space = sample_dendrogram(spec, index)
            seen = []

            def counted(ranks, quad):
                seen.append(lab._quad_key(ranks, quad))
                return classify(ranks, quad)

            monkeypatch.setattr(lab, "_require_quad_class", counted)
            CHECKS[which](space)
            ranks = lab.rank_matrix(space)
            quads = list(combinations(range(space.n), 4))
            if which == "equidistant":
                # the plain loop decides quads in order up to the first that
                # is not K1111
                stop = next(
                    (i for i, quad in enumerate(quads) if classify(ranks, quad) is not FourPointClass.K1111),
                    len(quads) - 1,
                )
                assert seen == [lab._quad_key(ranks, quad) for quad in quads[: stop + 1]]
            else:
                assert len(seen) == len(set(seen))
                assert set(seen) == {lab._quad_key(ranks, quad) for quad in quads}

    @pytest.mark.parametrize("which", sorted(CHECKS))
    def test_every_space_to_six_points_over_three_letters(self, which):
        for n in (4, 5, 6):
            for k in (1, 2, 3):
                spec = GeneratorSpec(n=n, alphabet=LETTERS[:k], override_caps=True)
                for space in enumerate_ultrametrics(spec):
                    assert CHECKS[which](space) == conjecture_oracle(which, space), space.dist

    @pytest.mark.parametrize("which", sorted(CHECKS))
    def test_seeded_samples_to_twelve_points(self, which):
        for index in range(200):
            spec = GeneratorSpec(n=4 + index % 9, alphabet=LETTERS, mode="sample", seed=23)
            space = sample_dendrogram(spec, index)
            assert CHECKS[which](space) == conjecture_oracle(which, space), index

    def test_k112_lists_every_violating_quad_in_order(self, monkeypatch):
        # W4-similarity is read off for each distinct tuple; flipping it for
        # one pattern makes every quad with that pattern a violation
        space = adjoin_near(adjoin_near(W4, "w1", "1/2"), "w2", "1/4")
        target = lab._quad_pattern(lab.rank_matrix(space), (0, 1, 2, 3))
        similar = lab._pattern_weakly_similar
        monkeypatch.setattr(
            lab, "_pattern_weakly_similar",
            lambda pattern, model: similar(pattern, model) != (pattern == target),
        )
        ranks = lab.rank_matrix(space)
        expected = tuple(
            tuple(space.points[i] for i in quad)
            for quad in combinations(range(space.n), 4)
            if lab._quad_pattern(ranks, quad) == target
        )
        assert len(expected) > 1
        assert check_k112_conjecture(space).biconditional_violations == expected
