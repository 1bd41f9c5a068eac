"""The O(n^2) witness searches against the exhaustive scans they replaced:
the first 4-cycle quad of an ultrametric space and the first violating
triple of any other space, both in lexicographic point order."""

import random
import time
from fractions import Fraction

from starmetric import (
    FiniteMetricSpace,
    GeneratorSpec,
    Verdict,
    diagnose,
    enumerate_ultrametrics,
    forbidden_scan,
    rank_matrix,
    restrict,
)
from starmetric.spaces import _first_violation
from helpers import (
    forbidden_scan_oracle,
    gen,
    scan_violation_oracle,
    violating_triple_oracle,
)


def shuffled(space: FiniteMetricSpace, rng: random.Random) -> FiniteMetricSpace:
    return restrict(space, rng.sample(space.points, space.n))


def late_ball_space(n: int) -> FiniteMetricSpace:
    """Top-level singletons plus one ball on the last four points that
    splits 2+2: the only 4-cycle quad is the last one."""
    rows = [[0 if i == j else 3 for j in range(n)] for i in range(n)]
    for i in range(n - 4, n):
        for j in range(n - 4, n):
            if i != j:
                rows[i][j] = 1 if (i < n - 2) == (j < n - 2) else 2
    return FiniteMetricSpace([f"p{i}" for i in range(n)], rows)


class TestFourCycleWitness:
    def test_every_n6_four_letter_space_in_stored_and_shuffled_order(self):
        rng = random.Random(9100)
        found = 0
        for n in range(1, 7):
            spec = GeneratorSpec(n=n, alphabet=("1", "2", "3", "4"), override_caps=True)
            for space in enumerate_ultrametrics(spec):
                # forbidden_scan's quad is the ball-tree walk's, and its
                # model is named from the quad's rank pattern, which the
                # oracle names from a restricted subspace's chords
                for version in (space, shuffled(space, rng)):
                    witness = forbidden_scan(version)
                    assert witness == forbidden_scan_oracle(version), version.dist
                    found += witness is not None
        assert found > 20_000

    def test_seeded_benchmark_generator_spaces(self):
        verdicts = {True: 0, False: 0}
        for k in range(300):
            rng = random.Random(9200 + k)
            n = rng.randint(5, 24)
            if k % 3 == 0:
                points, rows = gen.star_space(rng, n, rng.random() < 0.5)
            else:
                points, rows = gen.forbidden_space(rng, n, rng.random() < 0.5)
            space = FiniteMetricSpace(points, rows)
            if k % 2:
                space = shuffled(space, rng)
            witness = forbidden_scan(space)
            assert witness == forbidden_scan_oracle(space)
            verdicts[witness is None] += 1
        assert min(verdicts.values()) >= 50, verdicts

    def test_late_two_plus_two_ball_at_128_points_is_fast(self):
        space = late_ball_space(128)
        start = time.perf_counter()
        report = diagnose(space)
        elapsed = time.perf_counter() - start
        assert report.verdict is Verdict.FORBIDDEN
        assert report.forbidden.quad == ("p124", "p125", "p126", "p127")
        assert elapsed < 1.0, elapsed


def random_rows(rng: random.Random, n: int):
    """A symmetric matrix over a few seeded positive values."""
    pool = [Fraction(rng.randint(1, 8), rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 5))]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.choice(pool)
    return rows


class TestViolationWitness:
    def test_random_matrices_match_the_cubic_scan(self):
        rng = random.Random(9300)
        rejected = 0
        for _ in range(1500):
            n = rng.randint(3, 10)
            space = FiniteMetricSpace([f"q{i}" for i in range(n)], random_rows(rng, n))
            expected = scan_violation_oracle(space)
            assert _first_violation(space) == expected
            if expected is not None:
                rejected += 1
                triple = violating_triple_oracle(rank_matrix(space))
                assert tuple(space.points[i] for i in triple) == (
                    expected.x, expected.via, expected.y
                )
        assert rejected >= 700, rejected

    def test_perturbed_ultrametrics_match_the_cubic_scan(self):
        # one raised or lowered distance in an otherwise ultrametric space,
        # so the first violating row can lie anywhere
        rng = random.Random(9400)
        rejected = 0
        for k in range(400):
            n = rng.randint(5, 12)
            if k % 2:
                points, rows = gen.star_space(rng, n, rng.random() < 0.5)
            else:
                points, rows = gen.forbidden_space(rng, n, rng.random() < 0.5)
            i, j = rng.sample(range(n), 2)
            rows[i][j] = rows[j][i] = rows[i][j] * Fraction(rng.choice((1, 3)), 2)
            space = FiniteMetricSpace(points, rows)
            expected = scan_violation_oracle(space)
            if expected is not None:
                rejected += 1
                assert _first_violation(space) == expected
        assert rejected >= 150, rejected
