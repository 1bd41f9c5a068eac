"""Labeled trees, star metrics, and center reconstruction."""

import random
from fractions import Fraction

import pytest

from starmetric import (
    CenterViolationError,
    DegenerateLabelingError,
    E4,
    InternalCheckError,
    LabeledStarGraph,
    LabeledTree,
    S4,
    X4,
    degenerate_edge,
    diagnose,
    find_center,
    restrict,
    star_center,
    star_from_center,
    star_metric,
    star_to_dot,
    tree_metric,
    tree_to_dot,
    validate,
    Verdict,
)
from starmetric.stars import center_condition_violation
from helpers import center_condition_violation_oracle, random_star


def shuffled(space, rng):
    return restrict(space, rng.sample(space.points, space.n))


def star_tree(center_label, leaf_labels):
    labels = {"c": center_label}
    labels.update(leaf_labels)
    return LabeledTree.build(
        ("c",) + tuple(leaf_labels),
        [("c", leaf) for leaf in leaf_labels],
        labels,
    )


class TestLabeledTree:
    def test_build_rejects_non_trees(self):
        with pytest.raises(ValueError):
            LabeledTree.build(("a", "b", "c"), [("a", "b")], {"a": 1, "b": 1, "c": 1})
        with pytest.raises(ValueError):
            LabeledTree.build(
                ("a", "b", "c", "d"),
                [("a", "b"), ("c", "d"), ("a", "b")],
                {"a": 1, "b": 1, "c": 1, "d": 1},
            )
        with pytest.raises(ValueError):
            LabeledTree.build(("a", "b"), [("a", "a")], {"a": 1, "b": 1})
        with pytest.raises(ValueError):
            LabeledTree.build(("a", "b"), [("a", "b")], {"a": -1, "b": 1})

    def test_degenerate_edge_scan(self):
        assert degenerate_edge(star_tree(0, {"a": 1, "b": 2, "d": 3})) is None
        bad = star_tree(0, {"a": 1, "b": 0})
        assert degenerate_edge(bad) == ("c", "b")
        path = LabeledTree.build(
            ("u", "v", "w"), [("u", "v"), ("v", "w")], {"u": 1, "v": 0, "w": 1}
        )
        assert degenerate_edge(path) is None


class TestTreeMetric:
    def test_star_with_silent_center(self):
        space = tree_metric(star_tree(0, {"a": 1, "b": 2}))
        assert space.d("a", "b") == 2
        assert space.d("c", "a") == 1
        assert space.d("c", "b") == 2
        assert validate(space).is_ultrametric

    def test_dominant_center_flattens_distances(self):
        space = tree_metric(star_tree(5, {"a": 1, "b": 2}))
        assert {space.d("a", "b"), space.d("a", "c"), space.d("b", "c")} == {5}

    def test_path_maximum(self):
        path = LabeledTree.build(
            ("u", "v", "w"), [("u", "v"), ("v", "w")], {"u": 1, "v": 0, "w": 1}
        )
        space = tree_metric(path)
        assert space.d("u", "w") == space.d("u", "v") == space.d("v", "w") == 1

    def test_degenerate_labeling_refused(self):
        with pytest.raises(DegenerateLabelingError):
            tree_metric(star_tree(0, {"a": 0, "b": 1}))

    def test_random_nondegenerate_trees_generate_ultrametrics(self):
        rng = random.Random(5)
        for _ in range(150):
            n = rng.randint(1, 9)
            vertices = tuple(f"t{i}" for i in range(n))
            edges = [(vertices[rng.randrange(i)], vertices[i]) for i in range(1, n)]
            labels = {}
            for v in vertices:
                labels[v] = Fraction(rng.randint(0, 8), rng.choice((1, 2, 3)))
            tree = LabeledTree.build(vertices, edges, labels)
            if degenerate_edge(tree) is not None:
                with pytest.raises(DegenerateLabelingError):
                    tree_metric(tree)
                continue
            assert validate(tree_metric(tree)).is_ultrametric


class TestStarMetric:
    def test_reproduces_s4(self):
        star = LabeledStarGraph.build("s1", 0, {"s2": 3, "s3": 1, "s4": 2})
        assert star_metric(star) == S4

    def test_equidistant_leaves(self):
        star = LabeledStarGraph.build("p1", 0, {"p2": 1, "p3": 1, "p4": 1})
        assert star_metric(star) == E4

    def test_center_label_dominates(self):
        star = LabeledStarGraph.build("c", 2, {"a": 1, "b": 1})
        space = star_metric(star)
        assert space.d("a", "b") == space.d("a", "c") == space.d("b", "c") == 2

    def test_degenerate_star_cannot_be_built(self):
        with pytest.raises(DegenerateLabelingError):
            LabeledStarGraph.build("c", 0, {"a": 0})

    def test_matches_tree_metric(self):
        rng = random.Random(13)
        for _ in range(50):
            star = random_star(rng, max_leaves=7)
            assert star_metric(star) == tree_metric(star.to_tree())

    def test_substar_consistency(self):
        rng = random.Random(17)
        for _ in range(30):
            star = random_star(rng, max_leaves=8)
            space = star_metric(star)
            keep = [leaf for i, leaf in enumerate(star.leaves) if i % 2 == 0]
            if not keep:
                continue
            sub_star = LabeledStarGraph.build(
                star.center,
                star.center_label,
                {leaf: star.leaf_label(leaf) for leaf in keep},
            )
            assert star_metric(sub_star) == restrict(space, [star.center] + keep)


class TestStarFromCenter:
    def test_s4_reconstruction(self):
        star = star_from_center(S4, "s1")
        assert star.center == "s1" and star.center_label == 0
        assert dict(zip(star.leaves, star.leaf_labels)) == {
            "s2": Fraction(3),
            "s3": Fraction(1),
            "s4": Fraction(2),
        }
        assert star_metric(star) == S4

    def test_equidistant_reconstruction(self):
        star = star_from_center(E4, "p1")
        assert set(star.leaf_labels) == {Fraction(1)}
        assert star_metric(star) == E4

    def test_round_trip_preserves_point_order_for_any_center(self):
        # every point of an equidistant space is a center, including non-first ones
        star = star_from_center(E4, "p3")
        assert star.center == "p3"
        assert star_metric(star) == E4

    def test_x4_has_no_center_and_names_the_witness(self):
        with pytest.raises(CenterViolationError) as err:
            star_from_center(X4, "x1")
        assert err.value.pair == ("x4", "x2")

    def test_a_wrong_nearest_memo_raises_instead_of_accepting(self):
        space = restrict(S4, S4.points)  # a fresh copy, with its own memo
        space._nearest_ranks = (0,) * space.n
        with pytest.raises(InternalCheckError):
            center_condition_violation(space, "s1")

    def test_equals_the_built_star_in_the_space_order(self):
        rng = random.Random(29)
        for _ in range(60):
            space = shuffled(star_metric(random_star(rng, max_leaves=9)), rng)
            centers = [x0 for x0 in space.points if center_condition_violation_oracle(space, x0) is None]
            assert centers
            for x0 in centers:
                built = LabeledStarGraph.build(
                    x0, 0, {p: space.d(p, x0) for p in space.points if p != x0}
                )
                assert star_from_center(space, x0) == LabeledStarGraph(
                    built.center, built.center_label, built.leaves, built.leaf_labels, space.points
                )

    def test_round_trip_on_random_stars(self):
        rng = random.Random(23)
        for _ in range(60):
            star = random_star(rng, max_leaves=9)
            space = star_metric(star)
            report = diagnose(space)
            assert report.verdict is Verdict.US
            rebuilt = star_from_center(space, report.center.center)
            assert star_metric(rebuilt) == space


class TestStarCenter:
    def test_four_vertex_star(self):
        tree = star_tree(1, {"a": 1, "b": 1, "d": 1})
        assert star_center(tree) == "c"

    def test_path_is_not_a_star(self):
        path = LabeledTree.build(
            ("a", "b", "c", "d"),
            [("a", "b"), ("b", "c"), ("c", "d")],
            {"a": 1, "b": 1, "c": 1, "d": 1},
        )
        assert star_center(path) is None

    def test_two_vertex_convention(self):
        tree = LabeledTree.build(("a", "b"), [("a", "b")], {"a": 1, "b": 1})
        assert star_center(tree) == "a"


class TestDot:
    def test_tree_dot_is_sorted_and_stable(self):
        tree = star_tree("1/2", {"b": 1, "a": 2})
        dot = tree_to_dot(tree)
        assert dot == (
            "graph {\n"
            '  "a" [label="a:2"];\n'
            '  "b" [label="b:1"];\n'
            '  "c" [label="c:1/2"];\n'
            '  "a" -- "c";\n'
            '  "b" -- "c";\n'
            "}\n"
        )

    def test_labels_are_escaped(self):
        star = LabeledStarGraph.build('h"1', 1, {"x\\": 2, "y\nz": 3})
        assert star_to_dot(star) == (
            "graph {\n"
            '  "h\\"1" [label="h\\"1:1"];\n'
            '  "x\\\\" [label="x\\\\:2"];\n'
            '  "y\\nz" [label="y\\nz:3"];\n'
            '  "h\\"1" -- "x\\\\";\n'
            '  "h\\"1" -- "y\\nz";\n'
            "}\n"
        )

    def test_star_dot_matches_tree_dot(self):
        rng = random.Random(37)
        stars = [
            LabeledStarGraph.build("c", "1/2", {"b": 1, "a": 2}),
            LabeledStarGraph.build('h"1', 1, {"x\\": 2, "y\nz": 3}),
        ]
        for _ in range(100):
            star = random_star(rng)
            # a shuffled space gives a star whose order is not center-first
            space = shuffled(star_metric(star), rng)
            stars += [star, star_from_center(space, find_center(space).center)]
        for star in stars:
            assert star_to_dot(star) == tree_to_dot(star.to_tree())
