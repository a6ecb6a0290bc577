"""Kernel correctness: integer pivoting vs an independent Fraction tableau."""
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tverlab import kernels

from oracles import phase1_reference


def run_both(kernel, nrows, ncols, data, rhs, costs=None):
    got = kernel.phase1(nrows, ncols, [row[:] for row in data], rhs[:], costs)
    ref = phase1_reference(nrows, ncols, data, rhs, costs)
    assert got[0] == ref[0], "feasibility disagrees with Fraction reference"
    if got[0]:
        x = [Fraction(n, got[2]) for n in got[1]]
        assert x == ref[1]
    else:
        assert Fraction(got[3], got[4]) == ref[2]
        # the objective row lp_solve_eq reads the Farkas dual from
        assert [Fraction(v, got[4]) for v in got[1]] == ref[4]
    assert got[5] == ref[3], "pivot sequences diverged"
    return got


# A single parameter keeps the recorded "[pure]" test ids stable.
@pytest.mark.parametrize("kernel", [kernels], ids=["pure"])
class TestPhase1:
    def test_single_equation(self, kernel):
        feasible, xnum, xden, *_ = kernel.phase1(1, 1, [[1]], [1])
        assert feasible and Fraction(xnum[0], xden) == 1

    def test_two_by_two(self, kernel):
        got = run_both(kernel, 2, 2, [[1, 1], [1, -1]], [1, 1])
        x = [Fraction(n, got[2]) for n in got[1]]
        assert x == [1, 0]

    def test_infeasible_gap(self, kernel):
        got = run_both(kernel, 2, 1, [[1], [1]], [1, 2])
        assert not got[0]
        assert Fraction(got[3], got[4]) == 1

    def test_weighted_gap_shifts_violation(self, kernel):
        got = kernel.phase1(2, 1, [[1], [1]], [1, 2], costs=[1, 3])
        assert Fraction(got[3], got[4]) == 3
        got = kernel.phase1(2, 1, [[1], [2]], [1, 2], costs=[3, 1])
        # x = 1 satisfies both rows exactly here
        assert got[0]

    def test_zero_row_feasible_iff_rhs_zero(self, kernel):
        assert kernel.phase1(1, 2, [[0, 0]], [0])[0]
        got = kernel.phase1(1, 2, [[0, 0]], [5])
        assert not got[0] and Fraction(got[3], got[4]) == 5

    def test_empty_system(self, kernel):
        feasible, xnum, xden, *_ = kernel.phase1(0, 3, [], [])
        assert feasible and xnum == [0, 0, 0]

    def test_negative_rhs_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.phase1(1, 1, [[1]], [-1])

    @pytest.mark.parametrize("costs", [[0], [-1], [1, 2], [], [Fraction(1, 2)], [1.0]])
    def test_bad_costs_rejected(self, kernel, costs):
        # unchecked, a zero cost would pass x = [0, 0] as feasible for
        # x1 + x2 = 1, and a negative one would give a gap of -1
        with pytest.raises(ValueError):
            kernel.phase1(1, 2, [[1, 1]], [1], costs)

    @pytest.mark.parametrize(
        "nrows, ncols, data, rhs",
        [
            (2, 2, [[1, 1]], [1, 1]),
            (1, 2, [[1, 1], [1, 0]], [1]),
            (1, 2, [[1]], [1]),
            (1, 2, [[1, 1, 1]], [1]),
            (1, 2, [[1, 1]], [1, 1]),
        ],
    )
    def test_bad_shapes_rejected(self, kernel, nrows, ncols, data, rhs):
        with pytest.raises(ValueError):
            kernel.phase1(nrows, ncols, data, rhs)

    def test_solution_satisfies_system(self, kernel):
        rng = random.Random(7)
        for _ in range(40):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 7)
            xhat = [rng.randint(0, 6) for _ in range(ncols)]
            data = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
            rhs = [sum(a * x for a, x in zip(row, xhat)) for row in data]
            for i in range(nrows):
                if rhs[i] < 0:
                    data[i] = [-v for v in data[i]]
                    rhs[i] = -rhs[i]
            feasible, xnum, xden, *_ = kernel.phase1(nrows, ncols, data, rhs)
            assert feasible
            for row, b in zip(data, rhs):
                assert sum(Fraction(a * n, xden) for a, n in zip(row, xnum)) == b

    def test_random_agreement_with_reference(self, kernel):
        rng = random.Random(20260819)
        for _ in range(120):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 6)
            data = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
            rhs = [rng.randint(0, 6) for _ in range(nrows)]
            costs = [rng.randint(1, 4) for _ in range(nrows)]
            run_both(kernel, nrows, ncols, data, rhs, costs)

    def test_determinism(self, kernel):
        data = [[2, -1, 3], [1, 1, -2]]
        a = kernel.phase1(2, 3, [r[:] for r in data], [4, 1])
        b = kernel.phase1(2, 3, [r[:] for r in data], [4, 1])
        assert a == b



@st.composite
def systems(draw):
    """(data, rhs, costs): small integer systems, rhs >= 0, positive costs."""
    nrows = draw(st.integers(1, 5))
    ncols = draw(st.integers(1, 6))
    entries = st.integers(-6, 6)
    data = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    rhs = draw(st.lists(st.integers(0, 6), min_size=nrows, max_size=nrows))
    costs = draw(st.lists(st.integers(1, 4), min_size=nrows, max_size=nrows))
    return data, rhs, costs


@given(systems())
@settings(max_examples=200, deadline=None)
def test_infeasible_objective_row_holds_farkas_dual(system):
    # with D = gapden, D*y_i = D*costs[i] - row[ncols+i] is an integer, so
    # every dual condition is checked exactly, in integers
    data, rhs, costs = system
    nrows, ncols = len(data), len(data[0])
    feasible, row, _, gapnum, gapden, _ = kernels.phase1(
        nrows, ncols, [r[:] for r in data], rhs[:], costs
    )
    assume(not feasible)
    run_both(kernels, nrows, ncols, data, rhs, costs)
    assert gapden > 0 and gapnum > 0
    dy = [gapden * c - row[ncols + i] for i, c in enumerate(costs)]
    for j in range(ncols):
        assert sum(y * data[i][j] for i, y in enumerate(dy)) <= 0
    assert all(y <= gapden * c for y, c in zip(dy, costs))
    assert sum(y * b for y, b in zip(dy, rhs)) == gapnum
