"""Generators, conjecture checks, and campaign plumbing."""

import hashlib
import json
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from starmetric import (
    E4,
    FiniteMetricSpace,
    FourPointClass,
    GeneratorSpec,
    InternalCheckError,
    MODELS,
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
    diagnose,
    dplus_space,
    enumerate_ultrametrics,
    equidistant,
    model_match,
    restrict,
    run_campaign,
    sample_dendrogram,
    star_from_center,
    tree_metric,
    validate,
)
from starmetric import diametrical, lab, similarity, spaces
from helpers import (
    ball_tree_labeled,
    brute_force_ultrametrics,
    check_ball_walk,
    closed_balls_oracle,
    conjecture_oracle,
    model_set_oracle,
    sample_dendrogram_oracle,
    tree_form,
)

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

    def test_singleton_over_any_alphabet(self):
        # the general fill emits the one point from zero cells, its unused
        # letters dropped from the spectrum
        for alphabet in ((), ("1", "2")):
            found = list(enumerate_ultrametrics(GeneratorSpec(n=1, alphabet=alphabet)))
            assert found == [FiniteMetricSpace(["p1"], [[0]])]
            assert spaces.spectrum(found[0]).values == (Fraction(0),)


class TestSampleDendrogram:
    def test_singleton(self):
        spec = GeneratorSpec(n=1, alphabet=("1",), mode="sample", seed=3)
        assert sample_dendrogram(spec).points == ("p1",)

    def test_singleton_over_an_empty_alphabet(self):
        # a single point needs no distance letter, and the sampler draws none
        space = sample_dendrogram(GeneratorSpec(n=1, alphabet=(), mode="sample", seed=3, count=1))
        assert space == FiniteMetricSpace(["p1"], [[0]])
        assert spaces.spectrum(space).values == (Fraction(0),)

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
        pools = in_process_pools(monkeypatch)
        monkeypatch.setattr(lab.os, "cpu_count", lambda: 3)
        spec = GeneratorSpec(n=4, alphabet=("1", "2"), mode="sample", seed=1, count=5)
        sequential = run_campaign(spec, "k13", jobs=1).to_dict()
        assert run_campaign(spec, "k13", jobs=10_000).to_dict() == sequential
        small = GeneratorSpec(n=4, alphabet=("1", "2"), mode="sample", seed=1, count=2)
        run_campaign(small, "k13", jobs=10_000)
        assert [pool.max_workers for pool in pools] == [3, 2]

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

    def test_the_model_table_is_weak_similarity(self):
        # every four-point space with distances in 1..6, looked up from its
        # rows; the oracle searches one space per dense rank pattern, which
        # is weakly similar to every space of that pattern, and the class of
        # each ultrametric one is the classifier's on its own rows
        assert len(similarity._model_table()) == 32
        oracle = {}
        classified = Counter()
        for six in product(range(1, 7), repeat=6):
            ab, ac, ae, bc, be, ce = six
            rows = ((0, ab, ac, ae), (ab, 0, bc, be), (ac, bc, 0, ce), (ae, be, ce, 0))
            dense = {r: k for k, r in enumerate(sorted({0, *six}))}
            pattern = tuple(dense[r] for r in six)
            if pattern not in oracle:
                space = FiniteMetricSpace("abcd", [[dense[r] for r in row] for row in rows])
                oracle[pattern] = model_match(space)
                assert (oracle[pattern] is None) != validate(space).is_ultrametric, six
            entry = similarity._quad_model(rows, (0, 1, 2, 3))
            if oracle[pattern] is None:
                assert entry is None, six
            else:
                cls = diametrical._quad_class(rows, (0, 1, 2, 3))
                assert entry == (oracle[pattern], cls), six
                classified[cls] += 1
        assert len(oracle) == 4683
        assert sum(classified.values()) == 561 and set(classified) == set(FourPointClass)
        assert sum(model is not None for model in oracle.values()) == 32

    def test_a_model_listed_twice_raises(self, monkeypatch):
        monkeypatch.setattr(similarity, "MODELS", {**MODELS, "V4": W4})
        with pytest.raises(InternalCheckError, match="share a rank pattern"):
            similarity._model_table.__wrapped__()

    @pytest.mark.parametrize("wrong", [FourPointClass.K22, None], ids=["K22", "None"])
    def test_a_model_classified_two_ways_raises(self, monkeypatch, wrong):
        # one relabelling of W4, a K112, gets another class or none
        classify, w4 = similarity._quad_class, spaces.rank_matrix(W4)

        def one_off(ranks, quad):
            return wrong if ranks == w4 and tuple(quad) == (1, 0, 3, 2) else classify(ranks, quad)

        monkeypatch.setattr(similarity, "_quad_class", one_off)
        with pytest.raises(InternalCheckError, match="W4's relabellings get no class or two"):
            similarity._model_table.__wrapped__()


class InProcessPool:
    """A stand-in for the process pool: each submitted chunk runs in process
    when its result is first read.  Records the start of each chunk as it
    is submitted, read and cancelled, and the most chunks ever submitted
    and unread when one is read."""

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.submitted, self.read, self.cancelled = [], [], []
        self.most_unread = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        pool = self
        start = args[-1]
        pool.submitted.append(start)

        class Future:
            def result(self):
                pool.most_unread = max(pool.most_unread, len(pool.submitted) - len(pool.read))
                pool.read.append(start)
                return fn(*args)

            def cancel(self):
                pool.cancelled.append(start)
                return True

        return Future()


def in_process_pools(monkeypatch) -> list:
    """Patch the process pool to :class:`InProcessPool`; the list gets each
    pool a campaign makes."""
    pools = []

    def make(max_workers):
        pools.append(InProcessPool(max_workers))
        return pools[-1]

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", make)
    return pools


class TestParallelEarlyStop:
    def flag(self, monkeypatch, spec, k):
        flagged = sample_dendrogram(spec, k)
        monkeypatch.setattr(
            lab, "evaluate_conjecture", lambda which, space: "flagged" if space == flagged else None
        )
        monkeypatch.setattr(lab.os, "cpu_count", lambda: 2)

    def test_pool_stops_after_the_chunk_holding_a_counterexample(self, monkeypatch):
        spec = GeneratorSpec(n=8, alphabet=("1", "2", "3", "4"), mode="sample", seed=3, count=3000)
        k = 700
        self.flag(monkeypatch, spec, k)
        sequential = run_campaign(spec, "k13", jobs=1).to_dict()
        assert sequential["status"] == "COUNTEREXAMPLE"
        assert sequential["instances"] == k + 1
        pools = in_process_pools(monkeypatch)
        assert run_campaign(spec, "k13", jobs=2).to_dict() == sequential
        [pool] = pools
        # chunks are read in index order up to the one holding the
        # counterexample, and every chunk submitted after it is cancelled
        assert pool.read == list(range(0, k + 1, 64))
        assert pool.cancelled == pool.submitted[len(pool.read) :]
        assert pool.submitted == list(range(0, 64 * len(pool.submitted), 64))

    def test_submitted_chunks_stay_bounded_for_a_huge_count(self, monkeypatch):
        # a budget of 10^9 samples queues a few chunks per worker, never
        # one task per chunk of the whole budget
        spec = GeneratorSpec(n=8, alphabet=("1", "2", "3", "4"), mode="sample", seed=3, count=10**9)
        k = 700
        self.flag(monkeypatch, spec, k)
        pools = in_process_pools(monkeypatch)
        report = run_campaign(spec, "k13", jobs=2)
        assert (report.status, report.instances) == ("COUNTEREXAMPLE", k + 1)
        [pool] = pools
        assert pool.most_unread == len(pool.cancelled) + 1 == lab._AHEAD * 2
        assert len(pool.submitted) == len(pool.read) + len(pool.cancelled)


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

# the sha256 of the JSON of every (level rows, orbit size) pair that
# _isometry_classes lists for n <= 9 over k <= 4 letters, one per line, as
# the listing gave them when pick still scanned every part
CLASSES_DIGEST = "696389eaecb0d0c94b0ed82b8cade6a3937cfbca94b8dc8d8c142ebdd721bb9f"


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

    def test_the_class_listing_is_pinned(self):
        digest = hashlib.sha256()
        for n in range(1, 10):
            for k in range(1, 5):
                for rows, orbit in lab._isometry_classes(n, k):
                    digest.update(json.dumps([rows, orbit]).encode() + b"\n")
        assert digest.hexdigest() == CLASSES_DIGEST

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
    """The checks look up the model and class of one census quad per
    four-point model that occurs; only a broken K112 biconditional looks up
    every quad."""

    @pytest.mark.parametrize("which", sorted(CHECKS))
    def test_one_class_decision_per_model_that_occurs(self, monkeypatch, which):
        spec = GeneratorSpec(n=8, alphabet=("1", "2", "3", "4"), mode="sample", seed=17, count=40)
        lookup = lab._quad_model
        for index in range(spec.count):
            space = sample_dendrogram(spec, index)
            seen = []

            def counted(ranks, quad):
                seen.append(quad)
                return lookup(ranks, quad)

            monkeypatch.setattr(lab, "_quad_model", counted)
            CHECKS[which](space)
            assert all(list(quad) == sorted(set(quad)) for quad in seen), seen
            models = [model_match(restrict(space, [space.points[i] for i in quad])) for quad in seen]
            assert len(models) == len(set(models))
            assert set(models) == model_set_oracle(space), index

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
        # every S4 quad classified K112 makes every S4 quad, and no other,
        # break the biconditional
        space = adjoin_near(adjoin_near(W4, "w1", "1/2"), "w2", "1/4")
        lookup = lab._quad_model

        def s4_as_k112(ranks, quad):
            model, cls = lookup(ranks, quad)
            if model_match(restrict(space, [space.points[i] for i in quad])) == "S4":
                return model, FourPointClass.K112
            return model, cls

        monkeypatch.setattr(lab, "_quad_model", s4_as_k112)
        quads = [tuple(space.points[i] for i in quad) for quad in combinations(range(space.n), 4)]
        models = [model_match(restrict(space, quad)) for quad in quads]
        expected = tuple(quad for quad, model in zip(quads, models) if model == "S4")
        assert len(expected) > 1 and {"W4", "X4"} <= set(models)
        assert check_k112_conjecture(space).biconditional_violations == expected

    def test_a_quad_with_no_entry_raises(self, monkeypatch):
        # a census quad classified K112 off W4 sends the listing to every
        # quad, and a quad of an ultrametric space that looks up nothing is
        # a bug
        space = adjoin_near(adjoin_near(W4, "w1", "1/2"), "w2", "1/4")
        lookup = lab._quad_model

        def broken(ranks, quad):
            model, cls = lookup(ranks, quad)
            if quad == (2, 3, 4, 5):
                return None
            return model, FourPointClass.K112 if model == "S4" else cls

        monkeypatch.setattr(lab, "_quad_model", broken)
        with pytest.raises(InternalCheckError, match="has no model"):
            check_k112_conjecture(space)

    def test_a_census_quad_of_the_wrong_model_raises(self, monkeypatch):
        census = lab._census

        def mislabelled(tree):
            return {"Z4" if model == "S4" else model: quad for model, quad in census(tree).items()}

        monkeypatch.setattr(lab, "_census", mislabelled)
        with pytest.raises(InternalCheckError, match="census named quad"):
            check_k13_conjecture(dplus_space([1, 2, 3, 4, 5]))


def census_models(space):
    """The models the census names for an ultrametric space, each checked to
    name an ascending quad of distinct points that matches its model."""
    lab.require_ultrametric(space)
    found = lab._census(space._ball_tree)
    for model, quad in found.items():
        assert list(quad) == sorted(set(quad)) and len(quad) == 4, (model, quad)
        assert model_match(restrict(space, [space.points[i] for i in quad])) == model, (model, quad)
    return set(found)


def tree_cases():
    """Every labelled space to six points over one to three letters, every
    isometry class to eight points over one to four letters, and 300
    seeded samples to sixteen points over four letters."""
    for n in range(2, 7):
        for k in (1, 2, 3):
            yield from enumerate_ultrametrics(GeneratorSpec(n=n, alphabet=LETTERS[:k], override_caps=True))
    for n in range(2, 9):
        for k in (1, 2, 3, 4):
            values = (Fraction(0),) + tuple(map(Fraction, LETTERS[:k]))
            for rows, _ in lab._isometry_classes(n, k):
                yield lab.FiniteMetricSpace._trusted(lab._point_labels(n), rows, values)
    for index in range(300):
        yield sample_dendrogram(GeneratorSpec(n=2 + index % 15, alphabet=LETTERS, mode="sample", seed=43), index)


# the sha256 of the JSON of every sample in SAMPLED_CORPUS, one per line,
# as the sampler drew them before it handed its ball tree over
SAMPLED_DIGEST = "ea2f61c2462239f8b0e20e08c22525836b0e3d30b3763c43c9c6d85b347c3651"
SAMPLED_CORPUS = [
    (seed, n, alphabet, index)
    for seed in (1, 7, 23)
    for n in (1, 2, 3, 4, 5, 8, 12, 16)
    for alphabet in (("1",), ("1", "2"), ("1/2", "1", "3", "7"), ("1", "2", "3", "4", "5", "6"))
    for index in range(20)
]


class TestCensus:
    """The census names one quad per four-point model that occurs, read off
    the ball tree; the quartic loop over every quad is the oracle."""

    def test_every_labelled_space_to_six_points_over_three_letters(self):
        for n in (4, 5, 6):
            for k in (1, 2, 3):
                spec = GeneratorSpec(n=n, alphabet=LETTERS[:k], override_caps=True)
                for space in enumerate_ultrametrics(spec):
                    assert census_models(space) == model_set_oracle(space), space.dist

    def test_every_isometry_class_to_eight_points_over_three_letters(self):
        values = (0,) + LETTERS[:3]
        for n in range(4, 9):
            for rows, _ in lab._isometry_classes(n, 3):
                space = lab.FiniteMetricSpace._trusted(lab._point_labels(n), rows, values)
                assert census_models(space) == model_set_oracle(space), rows

    def test_seeded_samples_to_sixteen_points(self):
        for index in range(390):
            n = 4 + index % 13
            alphabet = ("1", "2", "3", "4", "5", "6")[: 1 + index % 6]
            space = sample_dendrogram(GeneratorSpec(n=n, alphabet=alphabet, mode="sample", seed=41), index)
            assert census_models(space) == model_set_oracle(space), index

    def test_the_guards_tree_equals_a_slow_builder_of_closed_balls(self):
        # the tree is also a representing tree: its path maxima, with each
        # ball labelled by its distance and each point by 0, are the space
        for space in tree_cases():
            lab.require_ultrametric(space)
            tree = space._ball_tree
            assert tree_form(tree) == closed_balls_oracle(lab.rank_matrix(space)), space.dist
            metric = tree_metric(ball_tree_labeled(space, tree))
            assert restrict(metric, space.points) == space, space.dist

    def test_the_ball_walk_keeps_its_contract(self):
        # every ball once, a parent first, child offsets stepping by size,
        # and the walk of the recursive oracle
        for space in tree_cases():
            lab.require_ultrametric(space)
            check_ball_walk(space._ball_tree[0])

    def test_the_ball_walk_keeps_no_recursion(self):
        # the max-metric slice on 1,200 values is a chain of 1,199 balls,
        # deeper than the default recursion limit
        space = dplus_space(range(1, 1201))
        lab.require_ultrametric(space)
        assert sum(1 for _ in spaces._balls(space._ball_tree[0])) == 1199

    def test_each_space_grows_one_spanning_tree(self, monkeypatch):
        # one Prim pass proves a space ultrametric and builds its ball tree,
        # wherever the space came from and however many routes read it
        checked = []
        mst_edges = spaces._mst_edges

        def counted(dist):
            checked.append(dist)
            return mst_edges(dist)

        def grown():
            # each space's rank matrix is its own object, and kept alive here
            assert len(set(map(id, checked))) == len(checked)
            count = len(checked)
            checked.clear()
            return count

        monkeypatch.setattr(spaces, "_mst_edges", counted)
        space = dplus_space([1, 2, 3, 4, 5, 6])
        report = diagnose(space)
        star_from_center(space, report.center.center)
        assert grown() == 1
        space = dplus_space([1, 2, 3, 4, 5, 6])
        for check in CHECKS.values():
            check(space)
        assert grown() == 1
        for which in sorted(CHECKS):
            run_campaign(GeneratorSpec(n=8, alphabet=LETTERS, mode="sample", seed=5, count=50), which)
            assert grown() == 50
            run_campaign(GeneratorSpec(n=5, alphabet=LETTERS[:3]), which)
            assert grown() == len(lab._isometry_classes(5, 3))
        # a flagged sample is reported after its reload is checked again
        spec = GeneratorSpec(n=8, alphabet=LETTERS, mode="sample", seed=5, count=50)
        flagged = sample_dendrogram(spec, 21)
        evaluate = lab.evaluate_conjecture

        def flag(which, space):
            outcome = evaluate(which, space)
            return "flagged" if space == flagged else outcome

        monkeypatch.setattr(lab, "evaluate_conjecture", flag)
        assert run_campaign(spec, "k13").status == "COUNTEREXAMPLE"
        assert grown() == 22 + 1

    def test_sampled_matrices_are_unchanged(self):
        digest = hashlib.sha256()
        for seed, n, alphabet, index in SAMPLED_CORPUS:
            spec = GeneratorSpec(n=n, alphabet=alphabet, mode="sample", seed=seed)
            digest.update(json.dumps(sample_dendrogram(spec, index).to_dict()).encode() + b"\n")
        assert digest.hexdigest() == SAMPLED_DIGEST

    def test_getrandbits_draws_give_the_randrange_samplers_matrices(self):
        # one letter spends a draw on randrange(1)'s rejected bit at each split
        letters = ("1", "2", "3", "4", "5", "6")
        for seed in (0, 1, 7, 2**40, -3):
            for n in (*range(1, 17), 64):
                for k in range(1, 7):
                    spec = GeneratorSpec(n=n, alphabet=letters[:k], mode="sample", seed=seed)
                    for index in range(3):
                        expected = sample_dendrogram_oracle(spec, index)
                        assert sample_dendrogram(spec, index) == expected, (seed, n, k, index)
