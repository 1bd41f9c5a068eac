"""Membership criteria, shift transforms, and the max-metric model."""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from starmetric import (
    E4,
    FiniteMetricSpace,
    FourPointClass,
    GeneratorSpec,
    InternalCheckError,
    LabeledStarGraph,
    NotUltrametricError,
    S4,
    Verdict,
    W4,
    X4,
    Z4,
    adjoin_near,
    are_isometric,
    check_equidistant,
    check_k112_conjecture,
    check_k13_conjecture,
    classify_four_point,
    diagnose,
    dplus_space,
    embeds_in_dplus,
    enumerate_ultrametrics,
    find_center,
    forbidden_scan,
    min_pair,
    min_positive_distance,
    restrict,
    sample_dendrogram,
    shift,
    spectrum,
    star_from_center,
    star_metric,
    unshift,
    validate,
)
from starmetric import cli, decision, lab, spaces
from starmetric.fileio import space_to_json_text
from starmetric.rationals import parse_rational
from starmetric.stars import center_condition_violation
from helpers import embeds_oracle, gen, random_star, sample_space


def exhaustive_n5():
    return list(enumerate_ultrametrics(GeneratorSpec(n=5, alphabet=("1", "2", "3", "4"))))


def seeded_n9(count=300):
    return [sample_space(n=9, seed=6000 + k) for k in range(count)]


def first_center_oracle(space):
    """The first point passing the per-candidate center condition check."""
    for p in space.points:
        if center_condition_violation(space, p) is None:
            return p
    return None


class TestFindCenter:
    def test_s4_center_is_s1(self):
        assert find_center(S4).center == "s1"

    def test_x4_has_no_center(self):
        assert find_center(X4) is None

    def test_equidistant_first_point_wins(self):
        assert find_center(E4).center == "p1"

    def test_w4_center_is_w1(self):
        assert find_center(W4).center == "w1"

    def test_non_ultrametric_rejected(self):
        bad = FiniteMetricSpace(("a", "b", "c"), [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        with pytest.raises(NotUltrametricError):
            find_center(bad)

    def test_agrees_with_the_per_candidate_oracle(self):
        rng = random.Random(59)
        stars = [star_metric(random_star(rng, max_leaves=8)) for _ in range(100)]
        spaces = exhaustive_n5() + seeded_n9() + stars
        centers = 0
        for space in spaces:
            # shuffled point order moves the first center around
            space = restrict(space, rng.sample(space.points, space.n))
            found = find_center(space)
            expected = first_center_oracle(space)
            assert (found.center if found else None) == expected
            centers += expected is not None
        assert 500 < centers < len(spaces)


class TestForbiddenScan:
    def test_x4_reports_itself(self):
        witness = forbidden_scan(X4)
        assert witness.quad == ("x1", "x2", "x3", "x4")
        assert witness.signature == (2, 2)
        assert witness.model == "X4"

    def test_forbidden_quad_survives_adjunction(self):
        grown = adjoin_near(X4, "x1", Fraction(1, 2))
        witness = forbidden_scan(grown)
        assert witness is not None
        assert witness.quad == ("x1", "x2", "x3", "x4")

    def test_s4_is_clean(self):
        assert forbidden_scan(S4) is None

    def test_small_spaces_trivially_clean(self):
        assert forbidden_scan(FiniteMetricSpace(("p",), [[0]])) is None
        assert forbidden_scan(restrict(X4, ["x1", "x2", "x3"])) is None

    def test_scan_agrees_with_the_signature_route_exhaustively(self):
        # the scan's inline 4-cycle test must match the full multipartite
        # decomposition in both directions
        from starmetric import diametrical_graph, multipartite_signature

        spec = GeneratorSpec(n=4, alphabet=("1", "2", "3"))
        for space in enumerate_ultrametrics(spec):
            sizes = multipartite_signature(diametrical_graph(space)).sizes
            assert (forbidden_scan(space) is not None) == (sizes == (2, 2))


class TestCenterAndFourCycleLegs:
    """The center leg, on the nearest-neighbour ranks, and the 4-cycle leg,
    on the ball tree, each find their witness exactly when the other does not."""

    def test_agree_exhaustively_at_n5(self):
        spaces = exhaustive_n5()
        assert len(spaces) == 1304
        forbidden = 0
        for space in spaces:
            expected = forbidden_scan(space) is not None
            assert (find_center(space) is None) == expected
            forbidden += expected
        assert 0 < forbidden < len(spaces)

    def test_agree_on_seeded_n9_samples(self):
        forbidden = 0
        for space in seeded_n9():
            expected = forbidden_scan(space) is not None
            assert (find_center(space) is None) == expected
            forbidden += expected
        assert 0 < forbidden < 300


class TestDiagnose:
    def test_s4_is_a_star_space(self):
        report = diagnose(S4)
        assert report.verdict is Verdict.US and report.center.center == "s1"

    def test_x4_is_forbidden(self):
        report = diagnose(X4)
        assert report.verdict is Verdict.FORBIDDEN
        assert report.forbidden.quad == ("x1", "x2", "x3", "x4")
        assert report.forbidden.model == "X4"

    def test_w4_is_a_star_space(self):
        report = diagnose(W4)
        assert report.verdict is Verdict.US and report.center.center == "w1"

    def test_singleton(self):
        report = diagnose(FiniteMetricSpace(("p",), [[0]]))
        assert report.verdict is Verdict.US and report.center.center == "p"

    @pytest.mark.parametrize(
        "space, leg, found, match",
        [
            (W4, "find_center", None, "disagree"),
            (X4, "_first_four_cycle", None, "disagree"),
            (W4, "_first_four_cycle", (0, 1, 2, 3), "not a 4-cycle"),
        ],
        ids=["center", "four-cycle", "not-a-four-cycle"],
    )
    def test_a_leg_that_misses_its_witness_is_a_bug(
        self, tmp_path, monkeypatch, space, leg, found, match
    ):
        # W4 has a center and X4 a 4-cycle quad, so one leg finding nothing
        # leaves both legs empty-handed, and W4's quad matches neither 4-cycle
        # model; the CLI must crash, not exit 2
        monkeypatch.setattr(decision, leg, lambda arg: found)
        with pytest.raises(InternalCheckError, match=match):
            diagnose(space)
        path = tmp_path / "space.json"
        path.write_text(space_to_json_text(space), encoding="utf-8")
        with pytest.raises(InternalCheckError, match=match):
            cli.main(["diagnose", str(path)])

    def test_criteria_agree_on_samples(self):
        for seed in range(100):
            space = sample_space(n=(seed % 4) + 4, seed=1000 + seed)
            report = diagnose(space)  # raises InternalCheckError on disagreement
            assert report.verdict in (Verdict.US, Verdict.FORBIDDEN)

    def test_256_point_star_with_the_hub_last(self):
        # distinct leaf labels above the hub label 1: a leaf is a center
        # exactly when its label is the smallest, so the first center is
        # that leaf, placed just before the hub, and every earlier point
        # must be rejected first
        rng = random.Random(61)
        labels = rng.sample(range(4, 2000), 255)
        smallest = labels.index(min(labels))
        leaves = {f"v{k}": Fraction(value, 3) for k, value in enumerate(labels)}
        order = [f"v{k}" for k in range(255) if k != smallest] + [f"v{smallest}", "hub"]
        space = restrict(star_metric(LabeledStarGraph.build("hub", 1, leaves)), order)
        report = diagnose(space)
        assert report.verdict is Verdict.US
        assert report.center.center == f"v{smallest}" == first_center_oracle(space)
        assert report.forbidden is None
        assert star_metric(star_from_center(space, report.center.center)) == space

    def test_256_point_forbidden_space(self):
        # two 128-point max-metric balls at distance 1000: the first 4-cycle
        # quad in lexicographic order takes the first two points of each
        a = [f"a{i}" for i in range(1, 129)]
        b = [f"b{i}" for i in range(1, 129)]
        pairs = {}
        for i in range(128):
            for j in range(i + 1, 128):
                pairs[(a[i], a[j])] = j + 1
                pairs[(b[i], b[j])] = Fraction(2 * j + 3, 2)
            for j in range(128):
                pairs[(a[i], b[j])] = 1000
        space = FiniteMetricSpace.from_pairs(a + b, pairs)
        report = diagnose(space)
        assert report.verdict is Verdict.FORBIDDEN
        assert report.center is None
        assert report.forbidden.quad == ("a1", "a2", "b1", "b2")
        assert report.forbidden.signature == (2, 2)
        assert report.forbidden.model == "X4"


class TestShift:
    def test_s4_shift_values_and_class(self):
        shifted = shift(S4, "1/2")
        assert spectrum(shifted).d0 == (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2))
        assert classify_four_point(shifted) is FourPointClass.K13
        assert validate(shifted).is_ultrametric

    def test_zero_shift_is_identity(self):
        assert shift(S4, 0) == S4

    def test_delta_must_stay_below_min_distance(self):
        with pytest.raises(ValueError):
            shift(S4, 1)
        with pytest.raises(ValueError):
            shift(S4, "-1/2")

    def test_unshift_round_trip_is_exact(self):
        for seed in range(40):
            space = sample_space(n=5, seed=2000 + seed)
            delta = min_positive_distance(space) * Fraction(seed % 3, 4)
            assert unshift(shift(space, delta), delta) == space

    def test_unshift_equidistant(self):
        grown = unshift(E4, 1)
        assert spectrum(grown).d0 == (Fraction(2),)
        assert validate(grown).is_ultrametric

    def test_unshift_keeps_x4_forbidden(self):
        stretched = unshift(X4, "1/2")
        assert spectrum(stretched).d0 == (Fraction(3, 2), Fraction(5, 2), Fraction(7, 2))
        assert diagnose(stretched).verdict is Verdict.FORBIDDEN

    def test_every_quad_classification_is_shift_invariant(self):
        for seed in range(25):
            space = sample_space(n=6, seed=3000 + seed)
            delta = min_positive_distance(space) * Fraction(1, 2)
            shifted = shift(space, delta)
            for quad in combinations(space.points, 4):
                assert classify_four_point(restrict(space, list(quad))) is (
                    classify_four_point(restrict(shifted, list(quad)))
                )


class TestDplusSpace:
    def test_isometric_to_s4(self):
        space = dplus_space(["1/2", "1", "2", "3"])
        assert space.points == ("1/2", "1", "2", "3")
        witness = are_isometric(S4, space)
        assert witness == {"s1": "1/2", "s2": "3", "s3": "1", "s4": "2"}

    def test_singleton(self):
        assert dplus_space([1]).points == ("1",)

    def test_four_values_classify_k13(self):
        assert classify_four_point(dplus_space([1, 2, 3, 4])) is FourPointClass.K13

    def test_always_a_star_space(self):
        space = dplus_space(["1/3", "2", "7/2", "9", "10"])
        report = diagnose(space)
        assert report.verdict is Verdict.US and report.center.center == "1/3"

    def test_equals_the_general_constructor(self):
        # the space is built from the levels max(i, j); the definition's
        # Fraction matrix, parsed and ranked by the checking constructor,
        # must give the same space
        rng = random.Random(78)
        forms = (str, lambda v: f"{v}/7", lambda v: f"{v / 100:.2f}", lambda v: Fraction(v, 3))
        lists = [[1], ["5/2"], [3, 1, 2], ["0.25", "1/2", "7", "1.5"], [Fraction(5, 3), 2, "0.1"]]
        for _ in range(200):
            form = rng.choice(forms)
            lists.append([form(v) for v in rng.sample(range(1, 400), rng.randint(1, 12))])
        for values in lists:
            parsed = sorted(parse_rational(v) for v in values)
            n = len(parsed)
            rows = [[0 if i == j else max(parsed[i], parsed[j]) for j in range(n)] for i in range(n)]
            expected = FiniteMetricSpace([str(v) for v in parsed], rows)
            space = dplus_space(values)
            assert space == expected and space.dist == expected.dist, values

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            dplus_space([1, 1, 2])
        with pytest.raises(ValueError):
            dplus_space([0, 1])
        with pytest.raises(ValueError):
            dplus_space([])


class TestEmbedsInDplus:
    def test_s4_witness(self):
        weights = embeds_in_dplus(S4)
        assert weights == {
            "s1": Fraction(1, 2),
            "s2": Fraction(3),
            "s3": Fraction(1),
            "s4": Fraction(2),
        }

    def test_z4_does_not_embed(self):
        assert embeds_in_dplus(Z4) is None

    def test_singleton(self):
        assert embeds_in_dplus(FiniteMetricSpace(("p",), [[0]])) == {"p": Fraction(1)}

    def test_witness_always_satisfies_the_max_equation(self):
        found = 0
        for seed in range(80):
            space = sample_space(n=(seed % 4) + 2, seed=4000 + seed)
            weights = embeds_in_dplus(space)
            if weights is None:
                continue
            found += 1
            assert len(set(weights.values())) == space.n
            for a, b in combinations(space.points, 2):
                assert space.d(a, b) == max(weights[a], weights[b])
        assert found > 0

    def test_agrees_with_ordering_oracle_exhaustively_at_n4(self):
        spec = GeneratorSpec(n=4, alphabet=("1", "2", "3"))
        positives = negatives = 0
        for space in enumerate_ultrametrics(spec):
            expected = embeds_oracle(space)
            assert (embeds_in_dplus(space) is not None) == expected
            positives += expected
            negatives += not expected
        assert positives > 0 and negatives > 0

    def test_dplus_spaces_always_embed(self):
        rng = random.Random(9)
        for _ in range(30):
            values = sorted(rng.sample(range(1, 40), rng.randint(1, 6)))
            space = dplus_space(values)
            assert embeds_in_dplus(space) is not None

    def test_planted_injective_weights_fail_the_max_equation(self):
        # an ultrametric space whose weights are injective embeds, so only a
        # wrong nearest memo with injective weights reaches the max equation,
        # which raises: the top two weights swapped in an embeddable space (a
        # seeded max-metric slice, or a sample), else the ranks 1..n in a
        # seeded order, n being above every rank of the space
        rng = random.Random(37)
        cases = []
        for index in range(400):
            n = 2 + index % 63
            letters = tuple(map(str, range(1, 1 + (n if index % 2 else 4))))
            spec = GeneratorSpec(n=n, alphabet=letters, mode="sample", seed=37)
            cases.append(lambda spec=spec, index=index: sample_dendrogram(spec, index))
            values = rng.sample(range(1, 4 * n), n)
            cases.append(lambda values=values: dplus_space(values))
        embeddable = 0
        for build in cases:
            space = build()
            n = space.n
            nearest = list(spaces._nearest(space))
            if embeds_in_dplus(space) is not None and n >= 3:
                embeddable += 1
                top, second = sorted(range(n), key=nearest.__getitem__)[-2:]
                nearest[top], nearest[second] = nearest[second], nearest[top]
            else:
                nearest = rng.sample(range(1, n + 1), n)
            weights = nearest[:]
            weights[weights.index(min(weights))] = 0
            assert len(set(weights)) == n
            planted = build()
            planted._nearest_ranks = tuple(nearest)
            with pytest.raises(InternalCheckError, match="injective weights break"):
                embeds_in_dplus(planted)
        assert embeddable > 390, embeddable


class TestStructuralProperties:
    def test_star_metrics_are_always_star_spaces(self):
        rng = random.Random(31)
        for _ in range(60):
            space = star_metric(random_star(rng, max_leaves=8))
            assert diagnose(space).verdict is Verdict.US

    def test_subspace_heredity_of_the_verdict(self):
        rng = random.Random(37)
        for _ in range(25):
            space = star_metric(random_star(rng, max_leaves=6))
            for quad in combinations(space.points, 4):
                assert diagnose(restrict(space, list(quad))).verdict is Verdict.US

    def test_adjunction_at_a_center_preserves_clean_scans(self):
        rng = random.Random(41)
        for _ in range(25):
            space = star_metric(random_star(rng, max_leaves=6))
            assert forbidden_scan(space) is None
            anchor = find_center(space).center
            eps = min_positive_distance(space) / rng.randint(2, 5)
            grown = adjoin_near(space, anchor, eps)
            assert forbidden_scan(grown) is None
            assert min_pair(grown)[2] == eps

    def test_adjunction_at_a_non_center_can_create_a_forbidden_quad(self):
        # anchoring next to a point with two equidistant neighbours that are
        # closer to each other builds a 4-cycle: the new pair and that
        # neighbour pair become the two chords
        grown = adjoin_near(S4, "s2", Fraction(1, 2))
        witness = forbidden_scan(grown)
        assert witness is not None
        assert set(witness.quad) == {"s1", "s2", "s3", "c"}
        assert witness.model == "X4"

    def test_deleting_either_member_of_the_new_pair_is_safe_for_any_anchor(self):
        rng = random.Random(43)
        for _ in range(20):
            space = star_metric(random_star(rng, max_leaves=5))
            anchor = rng.choice(space.points)
            eps = min_positive_distance(space) / rng.randint(2, 4)
            grown = adjoin_near(space, anchor, eps, label="new")
            keep_anchor = restrict(grown, [p for p in grown.points if p != "new"])
            keep_new = restrict(grown, [p for p in grown.points if p != anchor])
            assert keep_anchor == space
            assert are_isometric(keep_anchor, keep_new) is not None


# the nine operations that need an ultrametric, each guarded unconditionally
GUARDED = {
    "find_center": find_center,
    "forbidden_scan": forbidden_scan,
    "diagnose": diagnose,
    "shift": lambda space: shift(space, "1/2"),
    "unshift": lambda space: unshift(space, 1),
    "embeds_in_dplus": embeds_in_dplus,
    "check_equidistant": check_equidistant,
    "check_k112_conjecture": check_k112_conjecture,
    "check_k13_conjecture": check_k13_conjecture,
}


class TestUltrametricGuard:
    @pytest.mark.parametrize("name", GUARDED)
    def test_non_ultrametric_input_raises_without_validate(self, name, monkeypatch):
        # X4 with the short chord stretched to 5: metric, not ultrametric.
        # Guards must not go through validate, whose is_metric flag is a
        # cubic scan that only the validate report needs.
        def no_validate(space):
            raise AssertionError("an ultrametric guard went through validate")

        monkeypatch.setattr(spaces, "validate", no_validate)
        broken = FiniteMetricSpace(
            ("x1", "x2", "x3", "x4"),
            [[0, 3, 5, 3], [3, 0, 3, 2], [5, 3, 0, 3], [3, 2, 3, 0]],
        )
        with pytest.raises(NotUltrametricError) as err:
            GUARDED[name](broken)
        v = err.value.violation
        assert (v.x, v.via, v.y, v.lhs, v.bound) == ("x1", "x2", "x3", 5, 3)

    def test_diagnose_then_star_checks_the_space_once(self, monkeypatch):
        calls = []
        guard = spaces._subdominant_tree

        def counted(dist):
            calls.append(len(dist))
            return guard(dist)

        monkeypatch.setattr(spaces, "_subdominant_tree", counted)
        space = star_metric(random_star(random.Random(74), max_leaves=20))
        report = diagnose(space)
        assert report.verdict is Verdict.US
        star_from_center(space, report.center.center)
        assert calls == [space.n]

    def test_diagnose_then_star_fills_the_nearest_memo_once(self, monkeypatch):
        fills, trees = [], []
        memo = FiniteMetricSpace._nearest_ranks
        mst_edges = spaces._mst_edges

        class CountedMemo:
            """The memo's slot, counting each write of a filled memo."""

            def __get__(self, space, owner):
                return memo.__get__(space, owner)

            def __set__(self, space, value):
                if value is not None:
                    fills.append(value)
                memo.__set__(space, value)

        def counted(dist):
            trees.append(len(dist))
            return mst_edges(dist)

        monkeypatch.setattr(FiniteMetricSpace, "_nearest_ranks", CountedMemo())
        monkeypatch.setattr(spaces, "_mst_edges", counted)
        space = star_metric(random_star(random.Random(75), max_leaves=20))
        report = diagnose(space)
        assert report.verdict is Verdict.US
        star_from_center(space, report.center.center)
        assert len(fills) == 1 and trees == [space.n]

    def test_a_rejected_space_grows_one_spanning_tree(self, monkeypatch):
        trees = []
        mst_edges = spaces._mst_edges

        def counted(dist):
            trees.append(len(dist))
            return mst_edges(dist)

        monkeypatch.setattr(spaces, "_mst_edges", counted)
        rng = random.Random(76)
        rejected = 0
        while rejected < 20:
            base = star_metric(random_star(rng, max_leaves=20))
            if base.n < 3:
                continue
            rows = [list(row) for row in base.dist]
            i, j = rng.sample(range(base.n), 2)
            rows[i][j] = rows[j][i] = rows[i][j] * 3 + 1
            space = FiniteMetricSpace(base.points, rows)
            trees.clear()
            if validate(space).is_ultrametric:
                continue
            rejected += 1
            with pytest.raises(NotUltrametricError):
                diagnose(space)
            assert trees == [space.n]

    def test_an_accepted_space_never_sums_its_rows(self, monkeypatch):
        # one total accepts an ultrametric space; the row sums of its
        # subdominant ultrametric are read only to name a rejected space's
        # first differing row
        def no_row_sums(tree):
            raise AssertionError("an accepted space summed its rows")

        monkeypatch.setattr(spaces, "_subdominant_row_sums", no_row_sums)
        rng = random.Random(78)
        cases = [star_metric(random_star(rng, max_leaves=20)) for _ in range(30)]
        for k in range(30):
            points, rows = gen.forbidden_space(rng, rng.randint(6, 24), k % 2 == 1)
            cases.append(FiniteMetricSpace(points, rows))
        cases += [sample_space(n=rng.randint(1, 16), seed=78, index=k) for k in range(60)]
        labels = [f"p{i + 1}" for i in range(5)]
        values = (Fraction(0), Fraction(1), Fraction(2), Fraction(3))
        cases += [FiniteMetricSpace._trusted(labels, lab._level_rows(tree), values) for tree, _, _ in lab._isometry_classes(5, 3)]
        verdicts = set()
        for space in cases:
            report = diagnose(space)
            verdicts.add(report.verdict)
            if report.center is not None:
                star_from_center(space, report.center.center)
            if space.n >= 4:
                check_equidistant(space)
                check_k112_conjecture(space)
                check_k13_conjecture(space)
        assert verdicts == {Verdict.US, Verdict.FORBIDDEN}, verdicts

    def test_a_rejected_space_sums_its_rows_once(self, monkeypatch):
        calls = []
        row_sums = spaces._subdominant_row_sums

        def counted(tree):
            calls.append(len(tree[1]))
            return row_sums(tree)

        monkeypatch.setattr(spaces, "_subdominant_row_sums", counted)
        rng = random.Random(79)
        rejected = 0
        while rejected < 20:
            base = star_metric(random_star(rng, max_leaves=20))
            if base.n < 3:
                continue
            rows = [list(row) for row in base.dist]
            i, j = rng.sample(range(base.n), 2)
            rows[i][j] = rows[j][i] = rows[i][j] * 3 + 1
            space = FiniteMetricSpace(base.points, rows)
            calls.clear()
            if validate(space).is_ultrametric:
                assert calls == []
                continue
            rejected += 1
            for check in (diagnose, find_center, embeds_in_dplus, forbidden_scan):
                with pytest.raises(NotUltrametricError):
                    check(space)
            assert calls == [space.n]

    @pytest.mark.parametrize("command", ["diagnose", "scan"])
    def test_a_forbidden_space_grows_one_spanning_tree(self, tmp_path, monkeypatch, capsys, command):
        # the quad's model is read off the space's rank matrix, so no
        # four-point subspace is built and checked again
        trees = []
        guard = spaces._subdominant_tree

        def counted(dist):
            trees.append(len(dist))
            return guard(dist)

        monkeypatch.setattr(spaces, "_subdominant_tree", counted)
        points, rows = gen.forbidden_space(random.Random(77), 24, True)
        for space in (X4, FiniteMetricSpace(points, rows)):
            path = tmp_path / "space.json"
            path.write_text(space_to_json_text(space), encoding="utf-8")
            trees.clear()
            assert cli.main([command, str(path)]) == 1
            assert json.loads(capsys.readouterr().out)["model"] in ("X4", "Y4")
            assert trees == [space.n]
