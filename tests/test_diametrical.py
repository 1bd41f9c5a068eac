"""Diametrical graphs, multipartite recognition, four-point classes."""

import random
import re
from itertools import combinations, product

import pytest

from starmetric import (
    E4,
    FiniteMetricSpace,
    FourPointClass,
    NotCompleteMultipartiteError,
    S4,
    SimpleGraph,
    W4,
    X4,
    Y4,
    Z4,
    classify_forbidden,
    classify_four_point,
    diametrical_graph,
    graph_to_dot,
    multipartite_signature,
)
from helpers import multipartite_oracle, sample_space, validate_oracle


def edge_set(graph):
    return {frozenset(e) for e in graph.edges}


class TestDiametricalGraph:
    def test_x4_gives_a_four_cycle(self):
        g = diametrical_graph(X4)
        assert edge_set(g) == {
            frozenset({"x1", "x2"}),
            frozenset({"x2", "x3"}),
            frozenset({"x3", "x4"}),
            frozenset({"x4", "x1"}),
        }

    def test_equidistant_gives_complete_graph(self):
        assert len(diametrical_graph(E4).edges) == 6

    def test_z4_gives_a_star_with_hub_z2(self):
        g = diametrical_graph(Z4)
        assert edge_set(g) == {
            frozenset({"z1", "z2"}),
            frozenset({"z2", "z3"}),
            frozenset({"z2", "z4"}),
        }

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            diametrical_graph(FiniteMetricSpace(("p",), [[0]]))


class TestMultipartiteSignature:
    def test_complete_graph_signature(self):
        sig = multipartite_signature(diametrical_graph(E4))
        assert sig.sizes == (1, 1, 1, 1)

    def test_four_cycle_signature_and_parts(self):
        sig = multipartite_signature(diametrical_graph(X4))
        assert sig.sizes == (2, 2)
        assert sig.parts == (("x1", "x3"), ("x2", "x4"))

    def test_three_vertex_path_is_complete_bipartite(self):
        # a path on three vertices equals the complete bipartite graph with
        # parts {middle} and {ends}, so recognition must succeed on it
        p3 = SimpleGraph.build(("a", "b", "c"), [("a", "b"), ("b", "c")])
        sig = multipartite_signature(p3)
        assert sig is not None
        assert sig.sizes == (1, 2)
        assert sig.parts == (("b",), ("a", "c"))

    def test_four_vertex_path_is_not_complete_multipartite(self):
        p4 = SimpleGraph.build(
            ("a", "b", "c", "d"), [("a", "b"), ("b", "c"), ("c", "d")]
        )
        assert multipartite_signature(p4) is None

    def test_five_cycle_is_not_complete_multipartite(self):
        c5 = SimpleGraph.build(
            tuple("abcde"),
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a")],
        )
        assert multipartite_signature(c5) is None

    def test_signature_invariant_under_relabeling(self):
        # complete multipartite graphs with equal signatures are isomorphic,
        # so permuting vertex names must never change the recovered sizes
        rng = random.Random(3)
        vertices = tuple("abcdef")
        for _ in range(40):
            cut1 = rng.randint(1, 4)
            cut2 = rng.randint(cut1 + 1, 5)
            parts = [vertices[:cut1], vertices[cut1:cut2], vertices[cut2:]]
            edges = [
                (u, v)
                for i in range(3)
                for j in range(i + 1, 3)
                for u in parts[i]
                for v in parts[j]
            ]
            base = multipartite_signature(SimpleGraph.build(vertices, edges))
            image = list(rng.sample(vertices, 6))
            rename = dict(zip(vertices, image))
            permuted = SimpleGraph.build(
                vertices, [(rename[u], rename[v]) for u, v in edges]
            )
            assert multipartite_signature(permuted).sizes == base.sizes

    def test_present_for_every_sampled_ultrametric_space(self):
        for seed in range(60):
            space = sample_space(n=((seed % 5) + 2), seed=seed)
            assert multipartite_signature(diametrical_graph(space)) is not None


class TestClassifyFourPoint:
    @pytest.mark.parametrize(
        "space,expected",
        [
            (X4, FourPointClass.K22),
            (Y4, FourPointClass.K22),
            (W4, FourPointClass.K112),
            (S4, FourPointClass.K13),
            (Z4, FourPointClass.K13),
            (E4, FourPointClass.K1111),
        ],
        ids=["X4", "Y4", "W4", "S4", "Z4", "E4"],
    )
    def test_canonical_classifications(self, space, expected):
        assert classify_four_point(space) is expected

    def test_wrong_cardinality(self):
        with pytest.raises(ValueError):
            classify_four_point(FiniteMetricSpace(("a", "b"), [[0, 1], [1, 0]]))

    def test_non_ultrametric_input_gets_a_certificate(self):
        # diametrical graph is a 4-vertex path: impossible for ultrametrics
        rows = [
            [0, 3, 1, 1],
            [3, 0, 3, 1],
            [1, 3, 0, 3],
            [1, 1, 3, 0],
        ]
        space = FiniteMetricSpace(("a", "b", "c", "d"), rows)
        with pytest.raises(NotCompleteMultipartiteError):
            classify_four_point(space)

    def test_c4_signature_iff_degree_sequence_cycle(self):
        # cross-check on all 64 graphs over 4 fixed vertices: signature (2,2)
        # holds exactly for the 4-cycles (all degrees 2 and connected)
        vertices = ("a", "b", "c", "d")
        all_pairs = list(combinations(vertices, 2))
        for mask in range(64):
            edges = [all_pairs[k] for k in range(6) if mask >> k & 1]
            graph = SimpleGraph.build(vertices, edges)
            sig = multipartite_signature(graph)
            degrees = [graph.degree(v) for v in vertices]
            is_cycle = len(edges) == 4 and all(d == 2 for d in degrees) and _connected(graph)
            assert ((sig is not None) and sig.sizes == (2, 2)) == is_cycle


class TestAgreementWithOracle:
    """The closed-neighbourhood test and the four-point classifier against the
    complement + breadth-first search + clique oracle, exhaustively."""

    CLASS_BY_SIZES = {
        (1, 1, 1, 1): FourPointClass.K1111,
        (1, 1, 2): FourPointClass.K112,
        (1, 3): FourPointClass.K13,
        (2, 2): FourPointClass.K22,
    }

    def test_every_labelled_graph_on_two_to_six_vertices(self):
        # vertex order differs from name order, so parts must follow position
        checked = 0
        for n in range(2, 7):
            vertices = tuple("fbdace"[:n])
            pairs = list(combinations(vertices, 2))
            for mask in range(1 << len(pairs)):
                edges = [pairs[k] for k in range(len(pairs)) if mask >> k & 1]
                graph = SimpleGraph.build(vertices, edges)
                assert multipartite_signature(graph) == multipartite_oracle(graph), edges
                checked += 1
        assert checked == 2 + 8 + 64 + 1024 + 32768

    def test_every_four_point_matrix_over_one_to_five(self):
        labels = ("d", "b", "a", "c")
        cells = list(combinations(range(4), 2))
        forbidden = 0
        for values in product(range(1, 6), repeat=6):
            rows = [[0] * 4 for _ in range(4)]
            for (i, j), v in zip(cells, values):
                rows[i][j] = rows[j][i] = v
            space = FiniteMetricSpace(labels, rows)
            sig = multipartite_oracle(diametrical_graph(space))
            if sig is None:
                with pytest.raises(NotCompleteMultipartiteError):
                    classify_four_point(space)
                continue
            assert classify_four_point(space) is self.CLASS_BY_SIZES[sig.sizes], values
            if not validate_oracle(space).is_ultrametric:
                continue
            if sig.sizes != (2, 2):
                with pytest.raises(ValueError, match=re.escape(f"got {sig.sizes}")):
                    classify_forbidden(space)
                continue
            forbidden += 1
            (p1, p3), (p2, p4) = sig.parts
            chord_a, chord_b = space.d(p1, p3), space.d(p2, p4)
            if chord_a == chord_b:
                model, images = "Y4", ("y1", "y2", "y3", "y4")
            elif chord_a < chord_b:
                model, images = "X4", ("x1", "x2", "x3", "x4")
            else:
                model, images = "X4", ("x2", "x1", "x4", "x3")
            result = classify_forbidden(space)
            assert result.model == model, values
            assert result.witness.mapping == dict(zip((p1, p2, p3, p4), images)), values
        assert forbidden > 0


def _connected(graph):
    seen = {graph.vertices[0]}
    frontier = [graph.vertices[0]]
    while frontier:
        x = frontier.pop()
        for y in graph.vertices:
            if y not in seen and graph.has_edge(x, y):
                seen.add(y)
                frontier.append(y)
    return len(seen) == len(graph.vertices)


class TestDot:
    def test_sorted_emission(self):
        g = SimpleGraph.build(("b", "a", "c"), [("c", "a"), ("b", "c")])
        assert graph_to_dot(g) == (
            "graph {\n"
            '  "a";\n'
            '  "b";\n'
            '  "c";\n'
            '  "a" -- "c";\n'
            '  "b" -- "c";\n'
            "}\n"
        )

    def test_names_are_escaped(self):
        g = SimpleGraph.build(('a"b', "c\\", "d\ne"), [('a"b', "c\\"), ("c\\", "d\ne")])
        assert graph_to_dot(g) == (
            "graph {\n"
            '  "a\\"b";\n'
            '  "c\\\\";\n'
            '  "d\\ne";\n'
            '  "a\\"b" -- "c\\\\";\n'
            '  "c\\\\" -- "d\\ne";\n'
            "}\n"
        )
