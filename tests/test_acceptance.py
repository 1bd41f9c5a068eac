"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance here is exact (all arithmetic is
rational); the only numeric budgets are the two wall-clock bounds in
criterion 1.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from starmetric import (
    E4,
    FiniteMetricSpace,
    FourPointClass,
    GeneratorSpec,
    S4,
    Verdict,
    W4,
    X4,
    Y4,
    Z4,
    adjoin_near,
    are_isometric,
    classify_forbidden,
    classify_four_point,
    diagnose,
    diametrical_graph,
    dplus_space,
    embeds_in_dplus,
    enumerate_ultrametrics,
    find_center,
    forbidden_scan,
    min_pair,
    min_positive_distance,
    model_match,
    multipartite_signature,
    restrict,
    sample_dendrogram,
    shift,
    spectrum,
    star_from_center,
    star_metric,
    unshift,
    validate,
    weakly_similar,
)
from starmetric.fileio import space_to_json_text
from starmetric.models import MODELS
from helpers import embeds_oracle, random_star, scale

EXHAUSTIVE_SPEC = GeneratorSpec(n=4, alphabet=("1", "2", "3"))
SAMPLE_SPECS = (
    GeneratorSpec(n=6, alphabet=("1", "2", "3", "4"), mode="sample", seed=606, count=5000),
    GeneratorSpec(n=7, alphabet=("1", "2", "3", "4"), mode="sample", seed=707, count=5000),
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_main_theorem_agreement():
    with criterion(1, "MAIN-THEOREM AGREEMENT"):
        start = time.perf_counter()
        exhaustive_count = 0
        for space in enumerate_ultrametrics(EXHAUSTIVE_SPEC):
            exhaustive_count += 1
            center = find_center(space)
            forbidden = forbidden_scan(space)
            assert (center is not None) == (forbidden is None), space.to_dict()
        exhaustive_time = time.perf_counter() - start
        assert exhaustive_count == 60
        assert exhaustive_time < 10.0, f"exhaustive pass took {exhaustive_time:.1f}s"

        start = time.perf_counter()
        sampled = 0
        for spec in SAMPLE_SPECS:
            for index in range(spec.count):
                space = sample_dendrogram(spec, index)
                assert validate(space).is_ultrametric
                center = find_center(space)
                forbidden = forbidden_scan(space)
                assert (center is not None) == (forbidden is None), space.to_dict()
                sampled += 1
        sampled_time = time.perf_counter() - start
        assert sampled == 10000
        assert sampled_time < 60.0, f"sampled pass took {sampled_time:.1f}s"


def test_criterion_2_canonical_classifications():
    with criterion(2, "CANONICAL CLASSIFICATIONS"):
        assert classify_four_point(X4) is FourPointClass.K22
        assert classify_forbidden(X4).model == "X4"
        assert classify_four_point(Y4) is FourPointClass.K22
        assert classify_forbidden(Y4).model == "Y4"
        assert classify_four_point(W4) is FourPointClass.K112
        assert classify_four_point(S4) is FourPointClass.K13
        assert classify_four_point(Z4) is FourPointClass.K13
        assert classify_four_point(E4) is FourPointClass.K1111
        assert diagnose(X4).verdict is Verdict.FORBIDDEN
        assert diagnose(Y4).verdict is Verdict.FORBIDDEN
        for space in (W4, S4, Z4, E4):
            assert diagnose(space).verdict is Verdict.US


def test_criterion_3_star_round_trip():
    with criterion(3, "STAR ROUND TRIP"):
        rng = random.Random(20260808)
        for trial in range(1000):
            star = random_star(rng, max_leaves=12)
            space = star_metric(star)
            assert validate(space).is_ultrametric, trial
            report = diagnose(space)
            assert report.verdict is Verdict.US, trial
            rebuilt = star_from_center(space, report.center.center)
            assert star_metric(rebuilt) == space, trial


def test_criterion_4_shift_unshift():
    with criterion(4, "SHIFT/UNSHIFT"):
        for trial in range(1000):
            n = 4 + trial % 4
            spec = GeneratorSpec(
                n=n, alphabet=("1", "2", "3", "4"), mode="sample", seed=44, count=1000
            )
            space = sample_dendrogram(spec, trial)
            delta = min_positive_distance(space) * Fraction(trial % 4, 5)
            shifted = shift(space, delta)
            assert validate(shifted).is_ultrametric, trial
            assert unshift(shifted, delta) == space, trial
            for quad in combinations(space.points, 4):
                before = classify_four_point(restrict(space, list(quad)))
                after = classify_four_point(restrict(shifted, list(quad)))
                assert before is after, (trial, quad)


def test_criterion_5_adjunction_safety():
    with criterion(5, "ADJUNCTION SAFETY"):
        rng = random.Random(55)
        for trial in range(1000):
            star = random_star(rng, max_leaves=6)
            space = star_metric(star)
            assert forbidden_scan(space) is None, trial
            anchor = find_center(space).center
            eps = min_positive_distance(space) / rng.randint(2, 5)
            grown = adjoin_near(space, anchor, eps, label="new")
            assert forbidden_scan(grown) is None, trial
            new_pair = min_pair(grown)
            assert {new_pair[0], new_pair[1]} == {anchor, "new"} and new_pair[2] == eps
            keep_anchor = restrict(grown, [p for p in grown.points if p != "new"])
            keep_new = restrict(grown, [p for p in grown.points if p != anchor])
            assert keep_anchor == space, trial
            assert are_isometric(keep_anchor, keep_new) is not None, trial


def test_criterion_6_dplus_model():
    with criterion(6, "D+ MODEL"):
        rng = random.Random(66)
        quads_checked = 0
        for _ in range(100):
            values = sorted(
                {Fraction(rng.randint(1, 60), rng.choice((1, 2, 3))) for _ in range(6)}
            )[:4]
            if len(values) < 4:
                continue
            space = dplus_space(values)
            assert classify_four_point(space) is FourPointClass.K13
            assert weakly_similar(space, S4) is not None
            assert embeds_in_dplus(space) is not None
            quads_checked += 1
        assert quads_checked > 80

        positives = negatives = 0
        for trial in range(500):
            if trial % 5 < 3:
                n = 2 + trial % 4
                spec = GeneratorSpec(
                    n=n, alphabet=("1", "2", "3", "4"), mode="sample", seed=660, count=500
                )
                space = sample_dendrogram(spec, trial)
            else:
                n = 2 + trial % 4
                weights = rng.sample(range(1, 50), n)
                labels = [f"q{i + 1}" for i in range(n)]
                rows = [
                    [
                        Fraction(0) if i == j else Fraction(max(weights[i], weights[j]))
                        for j in range(n)
                    ]
                    for i in range(n)
                ]
                space = FiniteMetricSpace(labels, rows)
            expected = embeds_oracle(space)
            witness = embeds_in_dplus(space)
            assert (witness is not None) == expected, trial
            if witness is not None:
                assert len(set(witness.values())) == space.n
                for a, b in combinations(space.points, 2):
                    assert space.d(a, b) == max(witness[a], witness[b])
            positives += expected
            negatives += not expected
        assert positives > 0 and negatives > 0


def test_criterion_7_equidistant_iff_all_k1111():
    with criterion(7, "EQUIDISTANT IFF ALL-K1111"):
        for space in enumerate_ultrametrics(EXHAUSTIVE_SPEC):
            n = space.n
            all_equal = len(spectrum(space).d0) == 1
            all_quads = all(
                classify_four_point(restrict(space, list(quad))) is FourPointClass.K1111
                for quad in combinations(space.points, 4)
            )
            assert all_equal == all_quads, space.to_dict()
        for n, seed in ((5, 755), (6, 766)):
            spec = GeneratorSpec(
                n=n, alphabet=("1", "2", "3", "4"), mode="sample", seed=seed, count=2500
            )
            for index in range(spec.count):
                space = sample_dendrogram(spec, index)
                n_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
                all_equal = len({space.dist[i][j] for i, j in n_pairs}) == 1
                all_quads = all(
                    classify_four_point(restrict(space, list(quad)))
                    is FourPointClass.K1111
                    for quad in combinations(space.points, 4)
                )
                assert all_equal == all_quads, (n, index)


def test_criterion_8_weak_similarity_on_every_forbidden_quad():
    with criterion(8, "WEAK SIMILARITY"):
        quads = [X4, Y4]  # criterion 2's forbidden spaces
        for space in enumerate_ultrametrics(EXHAUSTIVE_SPEC):
            witness = forbidden_scan(space)
            if witness is not None:
                quads.append(restrict(space, list(witness.quad)))
        for spec in SAMPLE_SPECS:
            for index in range(spec.count):
                space = sample_dendrogram(spec, index)
                witness = forbidden_scan(space)
                if witness is not None:
                    quads.append(restrict(space, list(witness.quad)))
        assert len(quads) > 100  # the sampled runs hit plenty of forbidden spaces
        for quad in quads:
            result = classify_forbidden(quad)
            against_x4 = weakly_similar(quad, X4)
            against_y4 = weakly_similar(quad, Y4)
            assert (against_x4 is not None) != (against_y4 is not None)
            assert result.model == ("X4" if against_x4 is not None else "Y4")
            model_space = MODELS[result.model]
            assert result.witness.verify(quad, model_space)
            direct = against_x4 if against_x4 is not None else against_y4
            for witness, target in ((result.witness, model_space), (direct, model_space)):
                sig_a = multipartite_signature(diametrical_graph(quad))
                sig_b = multipartite_signature(diametrical_graph(target))
                assert sig_a.sizes == sig_b.sizes == (2, 2)
            assert model_match(quad) == result.model


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "starmetric", *argv], capture_output=True, text=True
    )


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI DETERMINISM"):
        paths = {}
        for name, space in (
            ("S4", S4), ("X4", X4), ("Y4", Y4), ("W4", W4), ("Z4", Z4),
            ("E4", E4), ("S4x2", scale(S4, 2)),
        ):
            path = tmp_path / f"{name}.json"
            path.write_text(space_to_json_text(space))
            paths[name] = str(path)

        battery = [
            (("validate", paths["S4"]), 0),
            (("validate", paths["X4"]), 0),
            (("diagnose", paths["S4"], "--dot"), 0),
            (("diagnose", paths["W4"]), 0),
            (("diagnose", paths["Z4"]), 0),
            (("diagnose", paths["E4"]), 0),
            (("diagnose", paths["X4"]), 1),
            (("diagnose", paths["Y4"]), 1),
            (("star", paths["S4"], "--dot"), 0),
            (("star", paths["X4"]), 1),
            (("scan", paths["S4"]), 0),
            (("scan", paths["X4"]), 1),
            (("shift", paths["S4"], "--delta", "1/2"), 0),
            (("shift", paths["E4"], "--delta", "1", "--unshift"), 0),
            (("weaksim", paths["S4"], paths["S4x2"]), 0),
            (("weaksim", paths["X4"], paths["Y4"]), 1),
            (("dplus", "1/2,1,2,3"), 0),
            (("gen", "--n", "3", "--alphabet", "1,2"), 0),
            (
                ("gen", "--n", "4", "--alphabet", "1,2,3", "--mode", "sample",
                 "--seed", "9", "--count", "5"),
                0,
            ),
            (
                ("conjecture", "--which", "equidistant", "--n", "4",
                 "--alphabet", "1,2,3"),
                0,
            ),
            (
                ("conjecture", "--which", "k13", "--n", "5", "--alphabet", "1,2,3",
                 "--mode", "sample", "--seed", "2", "--count", "20"),
                0,
            ),
        ]
        for argv, expected_code in battery:
            first = _run_cli(*argv)
            second = _run_cli(*argv)
            assert first.returncode == expected_code, (argv, first.returncode, first.stderr)
            assert second.returncode == expected_code, argv
            assert first.stdout == second.stdout, argv

        # emitted space files re-parse to equal values
        shifted = _run_cli("shift", paths["S4"], "--delta", "1/2")
        reloaded = json.loads(shifted.stdout)
        assert reloaded["points"] == list(S4.points)
        assert reloaded["dist"][0][2] == "1/2"
