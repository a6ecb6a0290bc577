"""Geometry layer: common-point LP vs the brute-force oracle; the witness verifier oracle."""
import random
from fractions import Fraction

import pytest

from tverlab import geometry
from tverlab.geometry import (
    CommonPointWitness,
    affine_dim,
    as_point,
    common_point_gap,
)

from oracles import caratheodory_feasible, verify_common_point_witness

F = Fraction


def pt(*coords):
    return as_point(coords)


class TestCommonPoint:
    def test_square_diagonals(self):
        pieces = [[pt(0, 0), pt(1, 1)], [pt(1, 0), pt(0, 1)]]
        w = common_point_gap(pieces)[0]
        assert w is not None
        assert w.point == pt(F(1, 2), F(1, 2))
        assert verify_common_point_witness(pieces, w)

    def test_disjoint_singletons(self):
        pieces = [[pt(0, 0)], [pt(1, 0)]]
        w, gap = common_point_gap(pieces)
        assert w is None
        assert gap > 0

    def test_pair_normal_separates_a_miss(self):
        a = [(0, 0), (2, 0)]
        b = [(0, 3), (3, 1)]
        x, gap, normal = geometry.lp_solve_eq([a, b], 1)
        assert geometry.lp_solve_eq([a, b], 1) == (None, gap, normal)
        assert gap > 0
        assert max(normal[0] * x + normal[1] * y for x, y in a) < min(
            normal[0] * x + normal[1] * y for x, y in b
        )
        assert x is None
        # the diagonals meet at (1, 1), with weight 1/2 on every point
        x, gap, normal = geometry.lp_solve_eq([[(0, 0), (2, 2)], [(2, 0), (0, 2)]], 1)
        assert (gap, normal) == (0, None)
        assert geometry.weights_of(x) == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))

    def test_triangle_pair_with_center(self):
        # two copies of a triangle and its barycenter: hulls meet only there
        tri = [pt(0, 0), pt(4, 0), pt(0, 4)]
        center = pt(F(4, 3), F(4, 3))
        pieces = [tri, list(tri), [center]]
        w = common_point_gap(pieces)[0]
        assert w is not None
        assert w.point == center
        assert caratheodory_feasible(pieces)

    def test_empty_piece_rejected(self):
        with pytest.raises(ValueError):
            common_point_gap([[pt(0, 0)], []])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            common_point_gap([[pt(0, 0)], [pt(1, 0, 0)]])

    def test_single_piece(self):
        w = common_point_gap([[pt(3, 5), pt(7, 1)]])[0]
        assert w is not None
        assert verify_common_point_witness([[pt(3, 5), pt(7, 1)]], w)

    def test_agrees_with_caratheodory_oracle(self):
        rng = random.Random(4242)
        agree = 0
        for _ in range(150):
            d = rng.randint(1, 3)
            npieces = rng.randint(1, 3)
            total = rng.randint(npieces, 8)
            sizes = [1] * npieces
            for _ in range(total - npieces):
                sizes[rng.randrange(npieces)] += 1
            pieces = [
                [pt(*[rng.randint(-4, 4) for _ in range(d)]) for _ in range(s)]
                for s in sizes
            ]
            w = common_point_gap(pieces)[0]
            expect = caratheodory_feasible(pieces)
            assert (w is not None) == expect
            if w is not None:
                assert verify_common_point_witness(pieces, w)
                agree += 1
        assert agree > 10  # sanity: the corpus exercises both outcomes

    def test_gap_is_deterministic_and_positive(self):
        pieces = [[pt(0, 0)], [pt(3, 4)]]
        _, g1 = common_point_gap(pieces)
        _, g2 = common_point_gap(pieces)
        assert g1 == g2 > 0

    def test_determinism_of_witness(self):
        pieces = [[pt(0, 0), pt(2, 0), pt(0, 2)], [pt(1, 1), pt(-1, 1)]]
        assert common_point_gap(pieces)[0] == common_point_gap(pieces)[0]


class TestVerifyWitness:
    def test_tampered_weight(self):
        pieces = [[pt(0, 0), pt(1, 1)], [pt(1, 0), pt(0, 1)]]
        w = common_point_gap(pieces)[0]
        bad = CommonPointWitness(point=w.point, weights=((F(2), F(-1)), w.weights[1]))
        v = verify_common_point_witness(pieces, bad)
        assert not v and v.reason == "negative-weight"

    def test_weight_sum_violation(self):
        pieces = [[pt(0, 0)], [pt(0, 0)]]
        bad = CommonPointWitness(point=pt(0, 0), weights=((F(1, 2),), (F(1),)))
        v = verify_common_point_witness(pieces, bad)
        assert not v and v.reason == "weight-sum"

    def test_point_mismatch(self):
        pieces = [[pt(0, 0)], [pt(0, 0)]]
        bad = CommonPointWitness(point=pt(1, 0), weights=((F(1),), (F(1),)))
        v = verify_common_point_witness(pieces, bad)
        assert not v and v.reason == "point-mismatch"

    def test_shape_mismatch(self):
        pieces = [[pt(0, 0)], [pt(0, 0)]]
        bad = CommonPointWitness(point=pt(0, 0), weights=((F(1),),))
        v = verify_common_point_witness(pieces, bad)
        assert not v and v.reason == "shape-mismatch"

    def test_malformed(self):
        v = verify_common_point_witness([[pt(0, 0)]], object())
        assert not v and v.reason == "malformed"


class TestAffineDim:
    def test_cases(self):
        assert affine_dim([]) == -1
        assert affine_dim([pt(7, 7)]) == 0
        assert affine_dim([pt(0, 0), pt(1, 0), pt(2, 0)]) == 1
        assert affine_dim([pt(0, 0), pt(1, 0), pt(0, 1)]) == 2
        assert affine_dim([pt(0, 0, 0), pt(1, 1, 1), pt(2, 2, 2), pt(1, 0, 0)]) == 2
