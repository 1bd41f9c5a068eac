"""The int order core: each space is parsed and ranked once at construction,
and every order-only kernel, run on the ranks, agrees with its Fraction
reference in ``helpers``."""

import random
from fractions import Fraction

import pytest

from starmetric import (
    S4,
    X4,
    FiniteMetricSpace,
    GeneratorSpec,
    NotUltrametricError,
    enumerate_ultrametrics,
    embeds_in_dplus,
    find_center,
    forbidden_scan,
    rank_matrix,
    restrict,
    shift,
    spectrum,
    unshift,
    validate,
)
from starmetric import cli, lab, spaces
from starmetric.fileio import parse_space_file, parse_space_text, space_to_json_text
from starmetric.rationals import parse_rational
from starmetric.spaces import (
    _first_violation,
    _rank_values,
    _scan_violation,
    _subdominant_row_sums,
    _subdominant_tree,
)
from starmetric.stars import center_condition_violation
from helpers import (
    center_condition_violation_oracle,
    construct_oracle,
    construct_outcome,
    embeds_oracle,
    embeds_weights_oracle,
    equals_subdominant_oracle,
    find_center_oracle,
    forbidden_scan_oracle,
    nearest_oracle,
    outcome,
    prim_reference,
    sample_space,
    scan_violation_oracle,
    subdominant_oracle,
    validate_oracle,
)

ALPHABET = ("1", "2", "3", "4")


def exhaustive(n):
    return list(enumerate_ultrametrics(GeneratorSpec(n=n, alphabet=ALPHABET)))


def spell(rng: random.Random, value: Fraction):
    """One of several exact spellings of ``value``: numeral texts in fraction,
    unreduced, decimal and exponent form, or the value as a Python number."""
    p, q = value.numerator, value.denominator
    forms = [str(value), f"{2 * p}/{2 * q}", f" {value} ", value]
    if q == 1:
        forms.append(p)
    m = next((m for m in range(8) if 10**m % q == 0), None)
    if m is not None:
        digits = p * 10**m // q
        forms += [f"{digits}e-{m}", f"{digits}0E-{m + 1}"]
        if m:
            sign, digits = ("-", -digits) if digits < 0 else ("+", digits)
            text = str(digits).rjust(m + 1, "0")
            forms.append(f"{sign}{text[:-m]}.{text[-m:]}0")
    return rng.choice(forms)


def random_matrix(rng: random.Random, n: int, pool):
    """A symmetric matrix over ``pool`` with a zero diagonal, every cell
    spelled independently, as lists a caller may mutate."""
    values = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            values[i][j] = values[j][i] = rng.choice(pool)
    return [[spell(rng, v) for v in row] for row in values]


POOL = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 4), Fraction(3))


def mutate(rng: random.Random, dist) -> None:
    """Break a square matrix in one seeded way the constructor must report."""
    n = len(dist)
    i, j = rng.randrange(n), rng.randrange(n)
    kind = rng.choice(
        ("bad numeral", "diagonal", "asymmetry", "negative", "coincident",
         "one-sided negative", "spelling only")
    )
    if kind == "bad numeral":
        dist[i][j] = rng.choice(("1_0", "x", "1/0", "", "1e2000", True, 1.0, ["1"], None))
    elif kind == "diagonal":
        dist[i][i] = spell(rng, rng.choice(POOL + (Fraction(-1),)))
    elif kind == "asymmetry" and i != j:
        dist[i][j] = spell(rng, rng.choice(POOL))
    elif kind == "negative" and i != j:
        dist[i][j] = dist[j][i] = spell(rng, -rng.choice(POOL))
    elif kind == "coincident" and i != j:
        dist[i][j] = dist[j][i] = rng.choice(("0", "0.0", "-0", "0/5", 0))
    elif kind == "one-sided negative" and i != j:
        dist[i][j] = "-1/2"
    elif kind == "spelling only" and i != j:
        # the same value spelled two ways on either side is no asymmetry
        dist[i][j], dist[j][i] = "1/2", "0.5"


def reshape(rng: random.Random, dist) -> None:
    """Make the matrix ragged or give it one row too many."""
    if rng.random() < 0.5:
        rng.choice(dist).pop()
    else:
        dist.append(list(dist[0]))


def assert_same_space(a: FiniteMetricSpace, b: FiniteMetricSpace) -> None:
    """Equal, hashed alike, and equal in every stored or derived matrix."""
    assert a == b and hash(a) == hash(b)
    assert (a.points, a.dist, rank_matrix(a), spectrum(a)) == (b.points, b.dist, rank_matrix(b), spectrum(b))


class TestConstruction:
    def test_agrees_with_the_fraction_oracle_on_mutated_matrices(self):
        rng = random.Random(2024)
        kinds = {}
        for _ in range(3000):
            n = rng.randint(1, 6)
            points = [f"p{k}" for k in range(n)]
            dist = random_matrix(rng, n, POOL)
            for _ in range(rng.randint(0, 3)):
                mutate(rng, dist)
            if rng.random() < 0.1:
                reshape(rng, dist)
            expected = outcome(construct_oracle, points, dist)
            assert construct_outcome(points, dist) == expected
            kind = "ok" if expected[0] == "ok" else expected[1] or expected[0].__name__
            kinds[kind] = kinds.get(kind, 0) + 1
            if kind == "ok" and all(type(x) is str for row in dist for x in row):
                # the all-text route against the per-cell route on the same values
                texts = FiniteMetricSpace(points, dist)
                values = FiniteMetricSpace(points, [[parse_rational(x) for x in row] for row in dist])
                assert_same_space(texts, values)
                kinds["ok, all text"] = kinds.get("ok, all text", 0) + 1
        # every error kind and the order between them is exercised
        assert set(kinds) >= {
            "ok", "ok, all text", "ValueError", "shape", "diagonal", "asymmetry", "negative",
            "coincident"
        }, kinds
        assert min(kinds.values()) >= 30, kinds

    def test_error_precedence_follows_the_reference_order(self):
        # a bad numeral beats a bad shape; then row order decides between a
        # diagonal and an asymmetry, and within a row the asymmetry comes first
        for dist in (
            [["0", "1"], ["x"]],
            [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "1", "0"]],
            [["0", "1", "2"], ["2", "0", "1"], ["2", "1", "5"]],
            [["0", "1", "-2"], ["1", "5", "1"], ["-2", "1", "0"]],
            [["0", "0", "1"], ["0", "0", "1"], ["3", "1", "0"]],
        ):
            points = [f"p{k}" for k in range(len(dist))]
            expected = outcome(construct_oracle, points, dist)
            assert expected[0] != "ok"
            assert construct_outcome(points, dist) == expected

    def test_spellings_of_one_value_share_a_rank(self):
        texts = ("1/2", "0.5", "5e-1", "+0.50", "2/4", Fraction(1, 2))
        rng = random.Random(91)
        for _ in range(50):
            n = 4
            dist = [["0"] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    dist[i][j] = rng.choice(texts) if rng.random() < 0.6 else "1"
                    dist[j][i] = rng.choice(texts) if dist[i][j] != "1" else "1.0"
            points = ["a", "b", "c", "d"]
            expected = outcome(construct_oracle, points, dist)
            assert expected[0] == "ok"
            assert construct_outcome(points, dist) == expected
            space = FiniteMetricSpace(points, dist)
            assert set(spectrum(space).values) <= {0, Fraction(1, 2), 1}

    def test_exact_sort_of_values_that_collide_or_overflow_as_floats(self):
        assert float(10**20) == float(10**20 + 1)
        assert float(Fraction(1, 3)) == float(Fraction(3333333333333333, 10**16))
        values = [
            Fraction(10**20), Fraction(10**20 + 1), Fraction(1, 3),
            Fraction(3333333333333333, 10**16), Fraction(10**400), Fraction(10**400 + 1),
            Fraction(1, 10**400), Fraction(2, 10**400), -Fraction(10**400),
            -Fraction(1, 10**400), Fraction(0), Fraction(1), Fraction(-1, 3),
        ]
        rng = random.Random(5)
        for _ in range(30):
            sample = [rng.choice(values) for _ in range(20)]
            rank, distinct = _rank_values(sample)
            assert distinct == tuple(sorted(set(sample)))
            assert [distinct[r] for r in rank] == sample

    def test_numerals_that_collide_or_overflow_as_floats_rank_exactly(self):
        texts = ("1e400", "1e-400", "100000000000000000000", "100000000000000000001",
                 "1/3", "0.3333333333333333")
        v12, v13, v14, v23, v24, v34 = texts
        dist = [["0", v12, v13, v14], [v12, "0", v23, v24], [v13, v23, "0", v34],
                [v14, v24, v34, "0"]]
        space = FiniteMetricSpace(("a", "b", "c", "d"), dist)
        expected = outcome(construct_oracle, space.points, dist)
        assert construct_outcome(space.points, dist) == expected
        assert spectrum(space).values == (0,) + tuple(sorted(Fraction(t) for t in texts))


class TestTrustedConstruction:
    def test_generators_equal_the_public_constructor(self):
        spaces = exhaustive(5) + [sample_space(n=8, seed=8100, index=k) for k in range(300)]
        assert len(spaces) == 1304 + 300
        for space in spaces:
            public = FiniteMetricSpace(space.points, space.dist)
            assert public == space
            assert rank_matrix(public) == rank_matrix(space)
            assert spectrum(public) == spectrum(space)
            assert_same_space(space, public)
            assert_same_space(space, FiniteMetricSpace.from_dict(space.to_dict()))

    def test_restrict_and_shifts_equal_the_public_constructor(self):
        rng = random.Random(8200)
        for k in range(300):
            space = sample_space(n=8, seed=8200, index=k)
            labels = rng.sample(space.points, rng.randint(1, 8))
            delta = min(spectrum(space).d0) * Fraction(rng.randint(0, 9), 10)
            for derived, rows in (
                (restrict(space, labels), [[space.d(a, b) for b in labels] for a in labels]),
                (shift(space, delta), [[x - delta if x else x for x in row] for row in space.dist]),
                (unshift(space, delta), [[x + delta if x else x for x in row] for row in space.dist]),
            ):
                public = FiniteMetricSpace(derived.points, rows)
                assert derived == public
                assert rank_matrix(derived) == rank_matrix(public)
                assert spectrum(derived) == spectrum(public)
                assert_same_space(derived, public)


def agreement_spaces():
    """Every n <= 5 four-letter ultrametric, then seeded matrices, ultrametric
    and not, in shuffled point order and over fractional values."""
    spaces = [s for n in range(1, 6) for s in exhaustive(n)]
    rng = random.Random(8300)
    for k in range(600):
        if k % 2:
            base = sample_space(n=rng.randint(4, 9), seed=8300, index=k)
            spaces.append(restrict(base, rng.sample(base.points, base.n)))
        else:
            n = rng.randint(2, 7)
            dist = random_matrix(rng, n, POOL[: rng.randint(2, len(POOL))])
            spaces.append(FiniteMetricSpace([f"q{i}" for i in range(n)], dist))
    return spaces


class TestKernelsOnRanks:
    def test_every_kernel_agrees_with_its_fraction_oracle(self):
        seen = {"ultrametric": 0, "not ultrametric": 0, "forbidden": 0, "embeds": 0}
        for space in agreement_spaces():
            ultra = equals_subdominant_oracle(space.dist)
            ranks = rank_matrix(space)
            sub = subdominant_oracle(ranks)
            tree, total = _subdominant_tree(ranks)
            sums = _subdominant_row_sums(tree)
            assert sums == list(map(sum, sub))
            assert (sums == list(map(sum, ranks))) == ultra
            assert total == sum(sums)
            assert (total == sum(map(sum, ranks))) == ultra
            assert validate(space) == validate_oracle(space)
            for p in space.points:
                assert center_condition_violation(space, p) == center_condition_violation_oracle(space, p)
            if not ultra:
                seen["not ultrametric"] += 1
                a = next(a for a, row in enumerate(ranks) if list(row) != sub[a])
                assert _scan_violation(space, a) == scan_violation_oracle(space)
                with pytest.raises(NotUltrametricError):
                    find_center(space)
                continue
            seen["ultrametric"] += 1
            center = find_center(space)
            assert (center and center.center) == find_center_oracle(space)
            witness = forbidden_scan(space)
            assert witness == forbidden_scan_oracle(space)
            weights = embeds_in_dplus(space)
            assert weights == embeds_weights_oracle(space)
            if space.n <= 5:
                assert (weights is not None) == embeds_oracle(space)
            seen["forbidden"] += witness is not None
            seen["embeds"] += weights is not None
        assert min(seen.values()) >= 100, seen

    def test_the_largest_join_weight_between_two_points_is_their_subdominant(self):
        # Prim's join order is a single-linkage order for any symmetric
        # matrix, which the ball tree is read off
        rng = random.Random(8400)
        for _ in range(600):
            n = rng.randint(2, 14)
            dist = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    dist[i][j] = dist[j][i] = rng.randint(1, rng.choice((2, 5, n * n)))
            joins = [(0, 0), *spaces._mst_edges(dist)]
            sub = subdominant_oracle(dist)
            for a, (u, _) in enumerate(joins):
                largest = 0
                for v, w in joins[a + 1 :]:
                    largest = max(largest, w)
                    assert sub[u][v] == sub[v][u] == largest, (dist, u, v)

    def test_the_trees_row_sums_name_the_first_violation(self):
        # a space is accepted on its row sums alone, which rests on Prim's
        # tree being a true minimum spanning tree, joined in the reference
        # loop's order, ties included: seeded int matrices, most over a few
        # values, and every labelled space of up to six points over three
        # letters
        rng = random.Random(8500)
        cases = []
        for _ in range(600):
            n = rng.randint(1, 14)
            dist = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    dist[i][j] = dist[j][i] = rng.randint(1, rng.choice((2, 5, n * n)))
            cases.append(FiniteMetricSpace([f"q{i}" for i in range(n)], dist))
        for n in range(1, 7):
            cases += enumerate_ultrametrics(GeneratorSpec(n=n, alphabet=("1", "2", "3"), override_caps=True))
        rejected = 0
        for space in cases:
            ranks = rank_matrix(space)
            assert list(spaces._mst_edges(ranks)) == prim_reference(ranks), ranks
            tree, total = _subdominant_tree(ranks)
            sums = _subdominant_row_sums(tree)
            assert sums == list(map(sum, subdominant_oracle(ranks))), ranks
            assert total == sum(sums), ranks
            assert _first_violation(space) == scan_violation_oracle(space), ranks
            rejected += space._ball_tree is None
        assert rejected >= 400 and len(cases) - rejected >= 2000, (rejected, len(cases))

    def test_nearest_ranks_agree_with_the_fraction_minimum(self):
        # every labelled space of up to six points over three letters,
        # seeded non-ultrametric int matrices and the 1,024-point CSV star
        rng = random.Random(8600)
        cases = []
        for n in range(1, 7):
            cases += enumerate_ultrametrics(GeneratorSpec(n=n, alphabet=("1", "2", "3"), override_caps=True))
        for _ in range(600):
            n = rng.randint(1, 14)
            dist = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    dist[i][j] = dist[j][i] = rng.randint(1, rng.choice((2, 5, n * n)))
            cases.append(FiniteMetricSpace([f"q{i}" for i in range(n)], dist))
        n = 1024
        label = [1 + i % 13 for i in range(n - 1)] + [0]
        lines = [",".join(f"p{i}" for i in range(n))]
        lines += [",".join("0" if i == j else str(max(label[i], label[j])) for j in range(n)) for i in range(n)]
        cases.append(parse_space_text("\n".join(lines), "csv"))
        rejected = 0
        for space in cases:
            if space.n == 1:
                assert spaces._nearest(space) == (0,)
            else:
                assert spaces._nearest(space) == nearest_oracle(space), rank_matrix(space)
            rejected += not validate(space).is_ultrametric
        assert rejected >= 400, rejected


class TestNoValueMatrix:
    """Order-only routes read ranks and single spectrum values, so they never
    build a space's ``Fraction`` matrix."""

    def test_cli_order_routes_leave_the_matrix_unbuilt(self, tmp_path, monkeypatch, capsys):
        paths = {}
        for name, space in (("us", S4), ("forbidden", X4)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(space_to_json_text(restrict(space, reversed(space.points))))
        paths["nonultra"] = tmp_path / "nonultra.csv"
        paths["nonultra"].write_text("a,b,c\n0,1,2\n1,0,1\n2,1,0\n")
        paths["star"] = tmp_path / "star.csv"
        paths["star"].write_text("h,x,y\n0,1/2,3\n1/2,0,3\n3,3,0\n")
        loaded = []

        def recording(path):
            loaded.append(parse_space_file(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "parse_space_file", recording)
        codes = {}
        for name, path in paths.items():
            for argv in (("diagnose", str(path), "--dot"), ("star", str(path)), ("scan", str(path))):
                codes[name, argv[0]] = cli.main(list(argv))
                capsys.readouterr()
        assert codes[("us", "diagnose")] == codes[("star", "diagnose")] == 0
        assert codes[("forbidden", "diagnose")] == 1
        assert codes[("nonultra", "diagnose")] == 2
        assert len(loaded) == 12
        assert all(space._dist is None for space in loaded)

    def test_campaign_spaces_leave_the_matrix_unbuilt(self, monkeypatch):
        checked = []
        evaluate = lab.evaluate_conjecture

        def recording(which, space):
            checked.append(space)
            return evaluate(which, space)

        monkeypatch.setattr(lab, "evaluate_conjecture", recording)
        for which in ("equidistant", "k112", "k13"):
            lab.run_campaign(GeneratorSpec(n=8, alphabet=ALPHABET, mode="sample", seed=3, count=20), which)
            lab.run_campaign(GeneratorSpec(n=5, alphabet=ALPHABET[:3]), which)
        assert len(checked) > 100
        assert all(space._dist is None for space in checked)
