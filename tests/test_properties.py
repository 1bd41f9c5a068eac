"""Property tests of the int order core against the Fraction oracles.

Needs ``hypothesis`` (the ``test`` extra); without it the module is skipped.
Matrices are small, mix numeral spellings of one value with Python numbers,
and are valid or broken; the constructor's outcome (ranks and spectrum, or
the error's type, kind and message) must equal the Fraction oracle's, and so
must the first violating triple and the center of the valid ones, and each
valid space must come back equal from its JSON and CSV text.  The O(n^2)
searches are compared with the exhaustive scans on larger spaces:
ultrametrics drawn as ball trees for the first 4-cycle quad and the
center leg, and such spaces with one pair redrawn for the first
violating triple.  The conjecture checks, which read each quad off the
space's rank matrix, are compared on the same ball trees with the oracle
that builds every quad as a subspace, the ball-tree census of the models
that occur with the quartic loop over every quad, Prim's join order on
their rank matrices with the reference loop, and the walk of their ball
trees with its recursive form.
"""

import csv
import io
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from starmetric import (  # noqa: E402
    FiniteMetricSpace,
    NotUltrametricError,
    find_center,
    forbidden_scan,
    rank_matrix,
    spectrum,
)
from starmetric.lab import (  # noqa: E402
    _census,
    check_equidistant,
    check_k13_conjecture,
    check_k112_conjecture,
)
from starmetric.fileio import parse_space_text, space_to_json_text  # noqa: E402
from starmetric.spaces import (  # noqa: E402
    _first_four_cycle,
    _mst_edges,
    _first_violation,
    require_ultrametric,
)
from helpers import (  # noqa: E402
    check_ball_walk,
    closed_balls_oracle,
    conjecture_oracle,
    construct_oracle,
    construct_outcome,
    find_center_oracle,
    forbidden_scan_oracle,
    four_cycle_oracle,
    model_set_oracle,
    outcome,
    prim_reference,
    scan_violation_oracle,
    tree_form,
)

VALUES = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2))

# every spelling of each value that the number grammar accepts, plus the
# value as a Python number
SPELLINGS = {
    Fraction(0): ("0", "0.0", "-0", "0/3", "0e5", 0, Fraction(0)),
    Fraction(1, 2): ("1/2", "0.5", "5e-1", "+0.50", "2/4", " .5", Fraction(1, 2)),
    Fraction(1): ("1", "1.0", "+1", "10e-1", "3/3", 1, Fraction(1)),
    Fraction(3, 2): ("3/2", "1.5", "15E-1", "6/4", Fraction(3, 2)),
    Fraction(2): ("2", "2.", "0.2e1", "4/2", 2),
    Fraction(5, 2): ("5/2", "2.50", "25e-1", Fraction(5, 2)),
}

# cells no valid space holds: broken numerals, numbers refused on type, and
# numbers that break an axiom wherever they land
BAD_CELLS = ("1_0", "x", "1/0", "", True, False, 1.0, ["1"], None, "-1/2", -3)

# seeded from the test's name, so every run draws the same examples
PROFILE = settings(max_examples=300, deadline=None, database=None, derandomize=True)


@st.composite
def matrices(draw):
    """(points, dist): a symmetric matrix over ``VALUES`` with each cell
    spelled on its own, then possibly a few cells overwritten."""
    n = draw(st.integers(1, 5))
    values = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            values[i][j] = values[j][i] = draw(st.sampled_from(VALUES))
    dist = [[draw(st.sampled_from(SPELLINGS[v])) for v in row] for row in values]
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        dist[i][j] = draw(st.sampled_from(BAD_CELLS + (Fraction(0),) + VALUES))
    return [f"p{k}" for k in range(n)], dist


@PROFILE
@given(matrices())
def test_construction_matches_the_fraction_oracle(case):
    points, dist = case
    assert construct_outcome(points, dist) == outcome(construct_oracle, points, dist)


@PROFILE
@given(matrices())
def test_violation_and_center_match_the_fraction_oracles(case):
    points, dist = case
    try:
        space = FiniteMetricSpace(points, dist)
    except ValueError:
        return
    expected = scan_violation_oracle(space)
    if expected is None:
        require_ultrametric(space)
        center = find_center(space)
        assert (center and center.center) == find_center_oracle(space)
    else:
        with pytest.raises(NotUltrametricError) as err:
            require_ultrametric(space)
        assert err.value.violation == expected


@PROFILE
@given(matrices())
def test_json_and_csv_round_trips_keep_the_space(case):
    try:
        space = FiniteMetricSpace(*case)
    except ValueError:
        return
    data = space.to_dict()
    buffer = io.StringIO()
    csv.writer(buffer).writerows([data["points"]] + data["dist"])
    for text, kind in ((space_to_json_text(space), "json"), (buffer.getvalue(), "csv")):
        back = parse_space_text(text, kind)
        assert back == space
        assert spectrum(back) == spectrum(space)
        assert rank_matrix(back) == rank_matrix(space)


@st.composite
def ball_trees(draw):
    """(points, dist): each point gets an address of three digits below 3,
    and two points are at distance 4 minus the length of their addresses'
    common prefix, so points sharing an address are at distance 1."""
    n = draw(st.integers(4, 11))
    digits = st.integers(0, 2)
    addresses = draw(st.lists(st.tuples(digits, digits, digits), min_size=n, max_size=n))

    def distance(x, y):
        if x is y:
            return 0
        return 4 - next((k for k in range(3) if x[k] != y[k]), 3)

    return [f"p{k}" for k in range(n)], [[distance(x, y) for y in addresses] for x in addresses]


@PROFILE
@given(ball_trees())
def test_first_four_cycle_matches_the_quartic_scan(case):
    space = FiniteMetricSpace(*case)
    require_ultrametric(space)
    assert _first_four_cycle(space._ball_tree) == four_cycle_oracle(rank_matrix(space))
    assert forbidden_scan(space) == forbidden_scan_oracle(space)


@PROFILE
@given(ball_trees())
def test_center_leg_matches_the_quartic_scan(case):
    space = FiniteMetricSpace(*case)
    assert (find_center(space) is None) == (four_cycle_oracle(rank_matrix(space)) is not None)


@PROFILE
@given(ball_trees())
def test_conjecture_checks_match_the_subspace_oracle(case):
    space = FiniteMetricSpace(*case)
    assert check_equidistant(space) == conjecture_oracle("equidistant", space)
    assert check_k112_conjecture(space) == conjecture_oracle("k112", space)
    assert check_k13_conjecture(space) == conjecture_oracle("k13", space)


@PROFILE
@given(ball_trees())
def test_census_names_the_models_of_the_quartic_loop(case):
    space = FiniteMetricSpace(*case)
    require_ultrametric(space)
    assert set(_census(space._ball_tree)) == model_set_oracle(space)


@PROFILE
@given(ball_trees())
def test_the_guards_tree_matches_the_closed_balls(case):
    space = FiniteMetricSpace(*case)
    require_ultrametric(space)
    assert tree_form(space._ball_tree) == closed_balls_oracle(rank_matrix(space))


@PROFILE
@given(ball_trees())
def test_the_ball_walk_keeps_its_contract(case):
    space = FiniteMetricSpace(*case)
    require_ultrametric(space)
    check_ball_walk(space._ball_tree[0])


@PROFILE
@given(ball_trees())
def test_prims_join_order_matches_the_reference(case):
    ranks = rank_matrix(FiniteMetricSpace(*case))
    assert list(_mst_edges(ranks)) == prim_reference(ranks)


@PROFILE
@given(ball_trees(), st.data())
def test_first_violation_matches_the_cubic_scan(case, data):
    points, dist = case
    n = len(points)
    i = data.draw(st.integers(0, n - 2))
    j = data.draw(st.integers(i + 1, n - 1))
    dist[i][j] = dist[j][i] = data.draw(st.sampled_from((Fraction(1, 2), 1, Fraction(5, 2), 4, 5)))
    space = FiniteMetricSpace(points, dist)
    assert _first_violation(space) == scan_violation_oracle(space)
