"""The benchmark's checkers reject wrong answers.  Run: python3 -m pytest perfbench"""
import itertools
from fractions import Fraction as F

import checks
import workloads


def _brute_count(classes, n, r):
    total = 0
    for labels in itertools.product(range(r), repeat=n):
        pieces = [[i for i in range(n) if labels[i] == b] for b in range(r)]
        if checks.partition_problem(n, classes, r, pieces) is None:
            total += 1
    return total


def test_partition_count_matches_brute_force():
    for classes, r in (
        (((0,), (1,), (2,), (3,), (4,)), 3),
        (((0, 1), (2, 3), (4,)), 3),
        (((0, 1, 2), (3,), (4,), (5,)), 3),
        (((0,), (1, 2), (3,)), 2),
    ):
        n = sum(len(c) for c in classes)
        assert checks.colorful_partition_count([len(c) for c in classes], r) == _brute_count(classes, n, r)
    assert checks.colorful_partition_count([1] * 8, 3) == 5796


SQUARE = ((0, 0), (2, 0), (0, 2), (2, 2))
SQUARE_CLASSES = ((0,), (1,), (2,), (3,))


def test_tverberg_certificate_and_tampered_weight():
    pieces = ((0, 3), (1, 2))
    weights = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    assert checks.tverberg_problem(SQUARE, SQUARE_CLASSES, 2, pieces, weights, (1, 1)) is None
    tampered = ((F(1, 2), F(1, 2)), (F(2, 3), F(1, 3)))
    assert checks.tverberg_problem(SQUARE, SQUARE_CLASSES, 2, pieces, tampered, (1, 1)) == "point-mismatch"
    negative = ((F(3, 2), F(-1, 2)), (F(1, 2), F(1, 2)))
    assert checks.tverberg_problem(SQUARE, SQUARE_CLASSES, 2, pieces, negative, (1, 1)) == "negative-weight"
    not_colorful = ((0, 1), (2, 3))
    two_colors = ((0, 1), (2,), (3,))
    assert checks.tverberg_problem(SQUARE, two_colors, 2, not_colorful, weights, (1, 1)) == "not-colorful"


def _line_cert(base):
    # the line y = 1 meets segment {(0,0),(0,2)} at (0,1) and {(2,0),(2,2)} at (2,1)
    return {
        "base": base,
        "directions": ((1, 0),),
        "partitions": [((0, 2), (1, 3))],
        "weights": [((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))],
        "witness_points": [((0, 1), (2, 1))],
    }


def test_transversal_plane_moved_off_witness():
    cols = [(SQUARE, SQUARE_CLASSES)]
    assert checks.transversal_problem(cols, (2,), 1, _line_cert((0, 1))) is None
    assert checks.transversal_problem(cols, (2,), 1, _line_cert((0, F(3, 2)))) == "off-plane"


def test_refutation_with_short_partition_count():
    cols = [(tuple((i, i * i, i ** 3) for i in range(8)), tuple((i,) for i in range(8)))]
    check = workloads._check_refutation(cols, (3,), "partitions", lambda: True)
    assert check({"status": "infeasible-exhausted", "stats": {"partitions": 5796}}) is None
    assert check({"status": "infeasible-exhausted", "stats": {"partitions": 5795}})
    assert check({"status": "certified", "stats": {"partitions": 12}})
    unjustified = workloads._check_refutation(cols, (3,), "partitions", lambda: False)
    assert unjustified({"status": "infeasible-exhausted", "stats": {"partitions": 5796}})


def test_general_position():
    pts = [(3, 1, 4), (1, 5, 9), (2, 6, 5), (3, 5, 8), (9, 7, 9), (3, 2, 3), (8, 4, 6), (2, 6, 4)]
    assert checks.affine_hulls_disjoint(pts, 3)
    # a repeated point is a Tverberg partition's worth of degeneracy
    assert not checks.affine_hulls_disjoint(pts[:7] + [pts[0]], 3)


def test_tightness_structure():
    verts = [(0, 0), (6, 0), (0, 6)]
    pts = [v for v in verts for _ in range(2)] + [(2, 2)]
    big = ((0, 1, 2),) + tuple((i,) for i in range(3, 7))
    assert checks.tightness_rules_out(2, 0, [(pts, big)], (3,)) == 0
    moved = pts[:6] + [(2, 3)]
    assert checks.tightness_rules_out(2, 0, [(moved, big)], (3,)) is None
    singletons = tuple((i,) for i in range(7))
    assert checks.tightness_rules_out(2, 0, [(pts, singletons)], (3,)) is None


TRIANGLE = ((0, 1), (1, 2), (0, 2))


def test_flipped_orientation_sign():
    assert checks.orientation_problem(TRIANGLE, (1, 1, -1)) is None
    assert checks.orientation_problem(TRIANGLE, (1, -1, -1)) == "incidences-do-not-cancel"
    assert checks.orientation_problem(TRIANGLE[:2], (1, 1)) == "not-a-pseudo-manifold"


def test_betti_and_connectivity():
    assert checks.betti_mod_p(TRIANGLE, 2) == (1, 1)
    board = workloads.board_facets(4, 3, list(range(12)))
    assert checks.betti_mod_p(board, 3) == (1, 2, 1)
    assert checks.board_f_vector(4, 3) == (12, 36, 24)
    assert checks.board_betti_problem(5, 4, (1, 0, 20, 1)) is None
    assert checks.board_betti_problem(5, 4, (1, 1, 20, 0)) == "connectivity-violated"
    assert checks.board_betti_problem(5, 4, (2, 0, 20, 1)) == "not-connected"


def test_wrong_degree():
    assert checks.degree_problem(3, 2, 8) is None
    assert checks.degree_problem(3, 3, -16) is None
    assert checks.degree_problem(3, 2, 9) == "degree-magnitude"
    assert checks.degree_problem(4, 1, 36) == "degree-residue"
