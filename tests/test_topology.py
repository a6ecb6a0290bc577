"""Tests for chessboard complexes, homology, orientation, and the map degree."""
import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from tverlab import linalg, topology as tp
from tverlab.errors import CapExceeded, PreconditionError

from oracles import (
    PLMap,
    chain_complex_mod_p,
    chessboard_join,
    factor_vector,
    free_action_reference,
    join_signed_crossings,
    orient_reference,
    pseudo_manifold_reference,
    signed_crossings_reference,
    weight_map,
)

# ---------------------------------------------------------------------------
# fixtures


def mobius_band():
    """Five-triangle band with a half twist; its boundary is a pentagon."""
    return tp.SimplicialComplex(
        5, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)]
    )


def projective_plane():
    """The 6-vertex triangulation of the projective plane (10 triangles)."""
    return tp.SimplicialComplex(
        6,
        [
            (0, 1, 2), (0, 2, 4), (0, 3, 4), (0, 1, 5), (0, 3, 5),
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (2, 3, 5), (2, 4, 5),
        ],
    )


def betti_via_sympy(complex_, p):
    """Independent Betti computation: sympy rref ranks over GF(p).

    The dense boundary matrix is built here from the face lists: entry
    (f, g) is (-1)^pos when f is g without its vertex at position pos.
    """
    faces = complex_.faces_by_dim()
    counts = complex_.f_vector()
    ranks = [0] * (complex_.dim + 2)
    for d in range(1, complex_.dim + 1):
        mat = []
        for f in faces[d - 1]:
            row = []
            for g in faces[d]:
                extra = set(g) - set(f)
                row.append((-1) ** g.index(extra.pop()) if len(extra) == 1 else 0)
            mat.append([sympy.Integer(x) for x in row])
        dm = DomainMatrix.from_list(mat, GF(p))
        _, pivots = dm.rref()
        ranks[d] = len(pivots)
    return tuple(counts[d] - ranks[d] - ranks[d + 1] for d in range(complex_.dim + 1))


# ---------------------------------------------------------------------------
# complex construction


def test_facets_canonicalized_and_sorted():
    c = tp.SimplicialComplex(4, [(2, 1), (3, 0), (1, 2)])
    assert c.facets == ((0, 3), (1, 2))
    assert c.dim == 1


def test_non_maximal_facet_rejected():
    with pytest.raises(ValueError, match="maximal"):
        tp.SimplicialComplex(3, [(0, 1, 2), (0, 1)])


def test_bad_facets_rejected():
    with pytest.raises(ValueError):
        tp.SimplicialComplex(2, [(0, 2)])
    with pytest.raises(ValueError):
        tp.SimplicialComplex(3, [(1, 1, 2)])
    with pytest.raises(ValueError):
        tp.SimplicialComplex(3, [])


def test_chessboard_f_vectors():
    cases = {
        (2, 1): (2,),
        (2, 2): (4, 2),
        (3, 2): (6, 6),
        (4, 3): (12, 36, 24),
        (5, 4): (20, 120, 240, 120),
    }
    for (r, n), fv in cases.items():
        c = tp.chessboard_complex(r, n)
        assert c.f_vector() == fv, (r, n)
        assert c.is_pure()


def test_chessboard_transpose_symmetry():
    a = tp.chessboard_complex(3, 2)
    b = tp.chessboard_complex(2, 3)
    assert a.f_vector() == b.f_vector()


def test_chessboard_bad_args():
    with pytest.raises(ValueError):
        tp.chessboard_complex(0, 2)


def test_join_of_point_pairs_is_square():
    s0 = tp.chessboard_complex(2, 1)
    sq = tp.join(s0, s0)
    assert sq.f_vector() == (4, 4)
    assert tp.homology_mod_p(sq, 2) == (1, 1)


# ---------------------------------------------------------------------------
# homology


def test_betti_goldens():
    assert tp.homology_mod_p(tp.chessboard_complex(2, 1), 2) == (2,)
    assert tp.homology_mod_p(tp.chessboard_complex(2, 2), 2) == (2, 0)
    for p in (2, 3):
        assert tp.homology_mod_p(tp.chessboard_complex(3, 2), p) == (1, 1)
        assert tp.homology_mod_p(tp.chessboard_complex(4, 3), p) == (1, 2, 1)
        assert tp.homology_mod_p(tp.chessboard_complex(7, 5), p) == (1, 0, 0, 98, 132)


def test_torsion_goldens():
    # Shareshian and Wachs: 3-torsion in the bottom nonvanishing homology,
    # Z_3 for 5x5 and Z_3^10 for 6x6, which only mod 3 adds its rank to
    # the Betti numbers of that dimension and the next
    for p in (2, 5):
        assert tp.homology_mod_p(tp.chessboard_complex(5, 5), p) == (1, 0, 0, 56, 0)
        assert tp.homology_mod_p(tp.chessboard_complex(6, 6), p) == (1, 0, 0, 25, 210, 0)
    assert tp.homology_mod_p(tp.chessboard_complex(5, 5), 3) == (1, 0, 1, 57, 0)
    assert tp.homology_mod_p(tp.chessboard_complex(6, 6), 3) == (1, 0, 0, 35, 220, 0)


@pytest.mark.parametrize("r,n", [(2, 1), (2, 2), (3, 2), (4, 3)])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_homology_matches_sympy(r, n, p):
    c = tp.chessboard_complex(r, n)
    assert tp.homology_mod_p(c, p) == betti_via_sympy(c, p)


def test_homology_matches_sympy_on_projective_plane():
    c = projective_plane()
    for p in (2, 3):
        assert tp.homology_mod_p(c, p) == betti_via_sympy(c, p)
    assert tp.homology_mod_p(c, 2) == (1, 1, 1)
    assert tp.homology_mod_p(c, 3) == (1, 0, 0)


@st.composite
def sparse_columns(draw):
    """p, and integer columns {row: value} with multiples of p, empty and repeated columns."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    nrows = draw(st.integers(1, 6))
    column = st.dictionaries(st.integers(0, nrows - 1), st.integers(-2 * p, 2 * p), max_size=nrows)
    columns = draw(st.lists(column, min_size=1, max_size=8))
    columns += draw(st.lists(st.sampled_from(columns), max_size=3))
    return p, nrows, draw(st.permutations(columns))


@example((3, 2, [{0: 3, 1: 6}, {}, {1: 1}]))
@example((2, 2, [{0: 1, 1: 1}, {1: 1}, {0: 1}]))
@given(sparse_columns())
@settings(max_examples=200, deadline=None)
def test_sparse_rank_matches_sympy(case):
    p, nrows, columns = case
    dense = [[sympy.Integer(col.get(i, 0)) for col in columns] for i in range(nrows)]
    assert len(tp._rank_mod_p(columns, p)) == DomainMatrix.from_list(dense, GF(p)).rank()


@st.composite
def complexes_on_seven_vertices(draw):
    """Inclusion-maximal sets among up to 8 drawn vertex sets, pure or of
    mixed sizes, on at most 7 vertices named by a random permutation."""
    n = draw(st.integers(1, 7))
    drawn = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=8))
    sets = set(drawn)
    relabel = draw(st.permutations(range(n)))
    return tp.SimplicialComplex(n, [[relabel[v] for v in f] for f in sets if not any(f < g for g in sets)])


@given(complexes_on_seven_vertices(), st.sampled_from((2, 3, 5)))
@settings(max_examples=200, deadline=None)
def test_clearing_matches_sympy(complex_, p):
    assert tp.homology_mod_p(complex_, p) == betti_via_sympy(complex_, p)


@pytest.mark.parametrize("r,n,betti", [(4, 3, (1, 2, 1)), (5, 3, (1, 0, 14))])
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from((2, 3, 5)))
@settings(max_examples=20, deadline=None)
def test_clearing_ignores_vertex_names(r, n, betti, seed, p):
    # renaming vertices reorders every face list that clearing reads
    assert tp.homology_mod_p(relabelled(tp.chessboard_complex(r, n), seed), p) == betti


def test_euler_characteristic_consistency():
    for c in (
        tp.chessboard_complex(3, 2),
        tp.chessboard_complex(4, 3),
        projective_plane(),
        mobius_band(),
    ):
        for p in (2, 3):
            betti = tp.homology_mod_p(c, p)
            assert sum((-1) ** i * b for i, b in enumerate(betti)) == c.euler_characteristic()


def test_suspension_shifts_betti():
    hexagon = tp.chessboard_complex(3, 2)
    susp = tp.join(hexagon, tp.chessboard_complex(2, 1))
    for p in (2, 3):
        assert tp.homology_mod_p(susp, p) == (1, 0, 1) == betti_via_sympy(susp, p)


def test_homology_requires_prime():
    with pytest.raises(ValueError, match="prime"):
        tp.homology_mod_p(tp.chessboard_complex(3, 2), 4)


def test_chain_complex_boundary_squares_to_zero():
    cc = chain_complex_mod_p(tp.chessboard_complex(4, 3), 3)
    assert cc.face_counts == (12, 36, 24)
    with pytest.raises(ValueError, match="prime"):
        chain_complex_mod_p(tp.chessboard_complex(3, 2), 6)


# ---------------------------------------------------------------------------
# pseudo-manifolds and orientation


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_square_minus_column_boards_are_orientable_pseudo_manifolds(r):
    c = tp.chessboard_complex(r, r - 1)
    report = tp.is_pseudo_manifold(c)
    assert report.ok and report.pure and report.connected
    ori = tp.orient(c)
    assert ori is not None
    assert len(ori.signs) == len(c.facets)
    assert set(ori.signs) <= {1, -1}


def test_band_with_twist_has_boundary_ridges():
    report = tp.is_pseudo_manifold(mobius_band())
    assert not report.ok
    assert report.pure and report.connected
    assert len(report.bad_ridges) == 5  # its boundary circle is a pentagon
    with pytest.raises(PreconditionError):
        tp.orient(mobius_band())


def test_projective_plane_is_non_orientable():
    c = projective_plane()
    assert tp.is_pseudo_manifold(c).ok
    assert tp.orient(c) is None


def test_impure_complex_is_not_pseudo_manifold():
    c = tp.SimplicialComplex(4, [(0, 1, 2), (2, 3)])
    report = tp.is_pseudo_manifold(c)
    assert not report.ok and not report.pure


def test_disconnected_pair_of_edges():
    c = tp.chessboard_complex(2, 2)  # two disjoint segments
    report = tp.is_pseudo_manifold(c)
    assert not report.ok
    assert report.bad_ridges  # free endpoints


def tetrahedron_boundary(offset=0):
    return [tuple(v + offset for v in f) for f in itertools.combinations(range(4), 3)]


def outcome(orient, complex_):
    """An orientation's signs, None, or "raise" for a PreconditionError."""
    try:
        ori = orient(complex_)
    except PreconditionError:
        return "raise"
    return None if ori is None else ori.signs


def assert_matches_oracles(complex_):
    assert tp.is_pseudo_manifold(complex_) == pseudo_manifold_reference(complex_)
    assert outcome(tp.orient, complex_) == outcome(orient_reference, complex_)


@pytest.mark.parametrize(
    "complex_, expected",
    [
        (mobius_band(), "raise"),
        (projective_plane(), None),
        # disconnected and non-orientable: the walk meets the conflict first
        (tp.SimplicialComplex(10, projective_plane().facets + tuple(tetrahedron_boundary(6))), "raise"),
        (tp.SimplicialComplex(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)]), "raise"),
        (tp.SimplicialComplex(6, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5)]), "raise"),
        # only the three-facet ridge (0, 1) links (0, 1, 2) to the rest
        (tp.SimplicialComplex(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 3, 4)]), "raise"),
        (tp.SimplicialComplex(4, tetrahedron_boundary()), (1, -1, 1, -1)),
    ],
    ids=[
        "mobius", "rp2", "rp2-beside-tetrahedron", "edge-in-three", "edge-in-four",
        "linked-by-edge-in-three", "tetrahedron",
    ],
)
def test_facet_walk_matches_oracles_on_named_complexes(complex_, expected):
    assert_matches_oracles(complex_)
    assert outcome(tp.orient, complex_) == expected


CLOSED_PARTS = (
    tuple(tetrahedron_boundary()),
    tp.SimplicialComplex(6, [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]).facets,
    projective_plane().facets,
    tp.chessboard_complex(3, 2).facets,
    tp.chessboard_complex(4, 3).facets,
    ((0,), (1,)),
)


@st.composite
def small_complexes(draw):
    """Relabelled complexes of one or two disjoint parts: random facet sets,
    pure or mixed-size, and closed pseudo-manifolds, whole or with facets removed."""
    facets, n = [], 0
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            part = list(draw(st.sampled_from(CLOSED_PARTS)))
            keep = draw(st.lists(st.booleans(), min_size=len(part), max_size=len(part)))
            part = [f for f, k in zip(part, keep) if k] or part[:1]
        else:
            size = draw(st.integers(1, 6))
            dims = st.just(draw(st.integers(1, 3))) if draw(st.booleans()) else st.integers(1, 4)
            drawn = draw(st.lists(st.tuples(dims, st.permutations(range(size))), min_size=1, max_size=8))
            sets = {frozenset(perm[: min(k, size)]) for k, perm in drawn}
            part = [tuple(f) for f in sets if not any(f < g for g in sets)]
        facets += [tuple(v + n for v in f) for f in part]
        n += max(max(f) for f in part) + 1
    relabel = draw(st.permutations(range(n)))
    return tp.SimplicialComplex(n, [tuple(relabel[v] for v in f) for f in facets])


@given(small_complexes())
@settings(max_examples=300, deadline=None)
def test_facet_walk_matches_oracles(complex_):
    assert_matches_oracles(complex_)


def relabelled(complex_, seed):
    """complex_ with its vertices renamed by a seeded permutation, so its
    facets come in another order and its ridges at other positions."""
    relabel = list(range(complex_.n_vertices))
    random.Random(seed).shuffle(relabel)
    return tp.SimplicialComplex(complex_.n_vertices, [tuple(relabel[v] for v in f) for f in complex_.facets])


def seeded_complexes():
    board = tp.chessboard_complex
    for r in range(2, 7):
        yield f"board-{r}x{r - 1}", board(r, r - 1)
        if r < 6:
            yield f"board-{r}x{r}", board(r, r)
    yield "board-3x2*board-2x1", tp.join(board(3, 2), board(2, 1))
    yield "board-3x2*board-3x2", tp.join(board(3, 2), board(3, 2))
    yield "board-4x3*board-2x2", tp.join(board(4, 3), board(2, 2))
    yield "mobius", mobius_band()
    yield "rp2", projective_plane()
    yield "disk", tp.SimplicialComplex(6, [(0, i, i % 5 + 1) for i in range(1, 5)])
    yield "ridge-in-three", tp.SimplicialComplex(6, tetrahedron_boundary() + [(0, 1, 4), (4, 5, 1)])
    yield "non-pure", tp.SimplicialComplex(6, [(0, 1, 2), (2, 3), (3, 4, 5)])
    # facet 0 on the sphere until relabelled: the walk never needs the second part's signs
    yield "sphere-beside-rp2", tp.SimplicialComplex(
        10, tetrahedron_boundary() + [tuple(v + 4 for v in f) for f in projective_plane().facets]
    )


@pytest.mark.parametrize("seed", range(3))
def test_facet_walk_matches_oracles_on_seeded_complexes(seed):
    for name, complex_ in seeded_complexes():
        for c in (complex_, relabelled(complex_, seed)):
            assert tp.is_pseudo_manifold(c) == pseudo_manifold_reference(c), name
            assert outcome(tp.orient, c) == outcome(orient_reference, c), name


def test_pseudo_manifold_check_and_orient_share_one_walk(monkeypatch):
    c = relabelled(tp.chessboard_complex(4, 3), 0)
    ridge_passes = []
    combinations = itertools.combinations
    monkeypatch.setattr(tp.itertools, "combinations", lambda *a: ridge_passes.append(a) or combinations(*a))
    report = tp.is_pseudo_manifold(c)
    assert report.ok and len(ridge_passes) == len(c.facets)
    ori = tp.orient(c)
    assert len(ridge_passes) == len(c.facets)
    # what is returned is immutable, so the cached walk cannot be changed through it
    assert type(ori.signs) is tuple and type(report.bad_ridges) is tuple
    with pytest.raises(dataclasses.FrozenInstanceError):
        ori.signs = ()
    assert tp.orient(c) == ori == orient_reference(c)
    assert len(ridge_passes) == len(c.facets)


def test_orientation_signs_cancel_on_ridges():
    c = tp.chessboard_complex(3, 2)
    ori = tp.orient(c)
    incidence = {}
    for fi, facet in enumerate(c.facets):
        for pos in range(len(facet)):
            ridge = facet[:pos] + facet[pos + 1 :]
            incidence.setdefault(ridge, []).append(ori.signs[fi] * (-1) ** pos)
    assert all(sum(v) == 0 for v in incidence.values())


# ---------------------------------------------------------------------------
# group actions


def test_cyclic_row_action_closure():
    act = tp.cyclic_row_action(3, 2)
    assert len(act.elements()) == 3


def test_group_closure_cap(monkeypatch):
    act = tp.PermutationAction(3, ((1, 0, 2), (1, 2, 0)))  # generates S_3
    assert len(act.elements()) == 6
    monkeypatch.setattr(tp, "GROUP_CAP", 5)
    with pytest.raises(CapExceeded, match="group closure exceeds cap 5"):
        act.elements()


def test_row_shift_acts_freely_on_boards():
    for rows, cols in ((3, 2), (2, 2)):
        board, shift = tp.chessboard_complex(rows, cols), tp.cyclic_row_action(rows, cols)
        assert tp.is_free_action(board, shift)
        assert free_action_reference(board, shift)


def test_row_shift_acts_freely_on_join():
    km, _info = chessboard_join(3, 1)
    shift = tp.cyclic_row_action(3, 2, copies=2)
    assert tp.is_free_action(km, shift)
    assert free_action_reference(km, shift)


def test_fixed_face_means_not_free():
    c = tp.SimplicialComplex(2, [(0, 1)])
    swap = tp.PermutationAction(2, ((1, 0),))
    assert not tp.is_free_action(c, swap)
    assert not free_action_reference(c, swap)


@st.composite
def invariant_complexes(draw, max_generators=2):
    """(complex, action): the inclusion-maximal images of a few vertex sets
    under a group of one to max_generators random permutations of up to 7
    vertices."""
    n = draw(st.integers(1, 7))
    generators = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=max_generators))
    action = tp.PermutationAction(n, tuple(map(tuple, generators)))
    seeds = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=4))
    faces = {frozenset(g[v] for v in s) for s in seeds for g in action.elements()}
    return tp.SimplicialComplex(n, [f for f in faces if not any(f < h for h in faces)]), action


@settings(max_examples=300, deadline=None)
@given(invariant_complexes())
@example((tp.chessboard_complex(3, 2), tp.cyclic_row_action(3, 2)))  # free
@example((tp.SimplicialComplex(4, [(0, 1), (2, 3)]), tp.PermutationAction(4, ((1, 0, 3, 2),))))  # not
@example((tp.SimplicialComplex(4, [(0, 2), (1, 3)]), tp.PermutationAction(4, ((1, 0, 3, 2),))))  # free
def test_free_action_matches_face_enumeration(case):
    # each nontrivial element's orbits against the facets, against every face
    complex_, action = case
    assert tp.is_free_action(complex_, action) == free_action_reference(complex_, action)


@settings(max_examples=200, deadline=None)
@given(invariant_complexes(max_generators=1))
@example((tp.chessboard_complex(3, 2), tp.cyclic_row_action(3, 2)))  # free
@example((tp.chessboard_complex(2, 2), tp.cyclic_row_action(2, 2)))  # free
@example((tp.SimplicialComplex(4, [(0, 1), (2, 3)]), tp.PermutationAction(4, ((1, 0, 3, 2),))))  # not
@example((tp.SimplicialComplex(3, [(0, 1, 2)]), tp.PermutationAction(3, ((1, 2, 0),))))  # not
def test_joined_copies_are_free_iff_one_copy_is(case):
    """The lemma `topology free` decides on one board by: a face of a join is
    one face per copy, and the diagonal <g> fixes it iff it fixes every part."""
    base, action = case
    (g,), n = action.generators, base.n_vertices
    joined = base
    for copies in (2, 3):
        joined = tp.join(joined, base)
        diagonal = tuple((v // n) * n + g[v % n] for v in range(copies * n))
        free = tp.is_free_action(joined, tp.PermutationAction(copies * n, (diagonal,)))
        assert free == tp.is_free_action(base, action), copies


def test_action_must_preserve_complex():
    c = tp.chessboard_complex(2, 2)  # edges (0,3) and (1,2)
    bad = tp.PermutationAction(4, ((1, 0, 2, 3),))
    with pytest.raises(PreconditionError, match="preserve"):
        tp.is_free_action(c, bad)
    with pytest.raises(PreconditionError):
        tp.is_free_action(c, tp.cyclic_row_action(3, 2))


def test_non_permutation_generator_rejected():
    with pytest.raises(ValueError):
        tp.PermutationAction(3, ((0, 0, 2),))


# ---------------------------------------------------------------------------
# the weight map and its degree


def test_map_complex_shape():
    km, info = chessboard_join(3, 1)
    assert km.n_vertices == 12
    assert len(km.facets) == 36
    assert km.dim == 3
    assert info[0] == (0, 0, 0) and info[-1] == (1, 2, 1)
    assert tp.is_pseudo_manifold(km).ok


def test_map_images_have_zero_row_sums():
    plm = weight_map(3, 1)
    assert plm.target_dim == 4
    # the three distinct row images within a factor sum to zero blockwise
    row_imgs = [plm.images[i * 2] for i in range(3)]
    for coord in range(4):
        assert sum(p[coord] for p in row_imgs) == 0


@pytest.mark.parametrize(
    "r,d",
    [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3),
     (6, 4), (7, 2), (7, 4)],
)
def test_degree_values(r, d):
    rep = tp.test_map_degree(r, d)
    expected = math.factorial(r - 1) ** (d + 1)
    assert abs(rep.degree) == expected
    assert rep.modulus == r
    assert rep.facets == math.factorial(r) ** (d + 1)
    # Wilson: (r-1)! is -1 mod r exactly when r is prime
    assert rep.residue_is_plus_minus_one == linalg.is_prime(r)
    # the clean value meets exactly the expected sheets
    assert rep.crossings == expected


@pytest.mark.parametrize("r", range(2, 9))
def test_clean_value_is_regular_on_every_board_block(r):
    """The facts `test_map_degree`'s docstring proves regularity from: every
    (r-1)-row block is invertible, and at w = 1/(d+1) only the row set
    without row r-1 crosses, every other one reading "negative"."""
    coords = [tp._weight_coords(r, i) for i in range(r)]
    for rows in itertools.combinations(range(r), r - 1):
        block = [[coords[i][k] for i in rows] for k in range(r - 1)]
        assert linalg.det(block) != 0
        for d in range(5):
            outcome = tp._board_outcome(block, [Fraction(1, d + 1)] * (r - 1))
            if r - 1 in rows:
                assert outcome == "negative", (rows, d)
            else:
                assert outcome in (1, -1), d


def clean_value(r, d):
    return [Fraction(1)] * (r - 1) + [Fraction(0)] * ((r - 1) * d)


def test_degree_invariant_under_value_perturbation():
    """The join-facet count at every regular nudged value gives the degree
    `test_map_degree` counts at the clean value."""
    for r, d in [(2, 1), (3, 0), (3, 1), (3, 2)]:
        plm = weight_map(r, d)
        signs = tp.orient(plm.complex_).signs
        degree, regular = tp.test_map_degree(r, d).degree, 0
        for value in nudged_values(r, d, 40, seed=r * 10 + d)[1:]:
            counted = join_signed_crossings(plm, signs, value)
            if counted is not None:
                assert counted[0] == degree, value
                regular += 1
        assert regular > 0


# perfbench's DEGREE_PAIRS and the one-factor maps
FACTORED_PAIRS = [(2, 0), (3, 0), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]


def nudged_values(r, d, count, seed):
    """The clean value, then `count` copies with up to 3 coordinates moved
    by small fractions, 1/1009ths among them."""
    rng = random.Random(seed)
    n = (r - 1) * (d + 1)
    values = [clean_value(r, d)]
    for _ in range(count):
        value = clean_value(r, d)
        for axis in rng.sample(range(n), rng.randint(1, min(3, n))):
            value[axis] += Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 1009)))
        values.append(value)
    return values


def test_factored_count_matches_facet_by_facet_solve():
    """The join-facet reference the board count is checked against agrees
    with one full solve per join facet."""
    non_regular = 0
    for r, d in FACTORED_PAIRS:
        plm = weight_map(r, d)
        signs = orient_reference(plm.complex_).signs
        for value in nudged_values(r, d, 12 if (r, d) == (3, 3) else 40, seed=r * 10 + d):
            counted = join_signed_crossings(plm, signs, value)
            assert counted == signed_crossings_reference(plm, signs, value), (r, d, value)
            non_regular += counted is None
    assert non_regular > 0


@pytest.mark.parametrize("r,d", [(r, d) for r in (2, 3) for d in range(4)] + [(4, d) for d in range(3)])
def test_join_orientation_is_the_product_of_board_orientations(r, d):
    board_signs = tp.orient(tp.chessboard_complex(r, r - 1)).signs
    bad, connected, signs = tp._facet_walk(chessboard_join(r, d)[0])
    assert not bad and connected
    assert signs == tuple(math.prod(p) for p in itertools.product(board_signs, repeat=d + 1))


@pytest.mark.parametrize("r,d", FACTORED_PAIRS + [(4, 2)])
def test_board_count_matches_join_count(r, d):
    rep = tp.test_map_degree(r, d)
    plm = weight_map(r, d)
    signs = tp.orient(plm.complex_).signs
    assert (rep.degree, rep.crossings) == join_signed_crossings(plm, signs, clean_value(r, d))
    assert rep.facets == len(plm.complex_.facets)


@pytest.mark.parametrize(
    "r,d,keep", [(3, 0, 15), (3, 1, 3), (3, 1, 6), (3, 2, 6), (3, 2, 12), (4, 1, 6), (4, 1, 24)]
)
def test_factored_count_matches_on_complexes_that_are_not_boards(r, d, keep):
    """A seeded sample of the facets that take any r-1 vertices of each
    factor: blocks may repeat a row, so singular and inconsistent blocks
    meet negative and zero ones, and a sample of fewer than all of them
    makes the order the outcomes are read in matter (the order the board
    count's regularity rule is read from)."""
    plm = weight_map(r, d)
    size = r * (r - 1)
    factors = [range(ell * size, ell * size + size) for ell in range(d + 1)]
    facets = [sum(boards, ()) for boards in itertools.product(
        *(itertools.combinations(f, r - 1) for f in factors))]
    facets = random.Random(keep).sample(facets, keep)
    loose = PLMap(tp.SimplicialComplex(plm.complex_.n_vertices, facets), plm.images, plm.target_dim)
    signs = [(-1) ** i for i in range(keep)]
    for value in nudged_values(r, d, 40, seed=r * 10 + d):
        counted = join_signed_crossings(loose, signs, value)
        assert counted == signed_crossings_reference(loose, signs, value), value


def test_factor_matrix_determinant_is_d_plus_one():
    for d in range(6):
        c = [[factor_vector(d, ell)[row] for ell in range(d + 1)] for row in range(d + 1)]
        assert linalg.det(c) == d + 1


def misplaced_maps():
    plm = weight_map(3, 1)
    moved = list(plm.images)
    moved[4] = (moved[4][0] + Fraction(1, 7),) + moved[4][1:]
    half = len(plm.images) // 2
    swapped = plm.images[half:] + plm.images[:half]
    lopsided = tp.SimplicialComplex(plm.complex_.n_vertices, [(0, 1, 2, 3), (0, 1, 2, 6)])
    overlong = tp.SimplicialComplex(plm.complex_.n_vertices, [(0, 2, 6, 8, 10)])
    return [
        PLMap(plm.complex_, tuple(moved), plm.target_dim),
        PLMap(plm.complex_, swapped, plm.target_dim),
        PLMap(lopsided, plm.images, plm.target_dim),
        PLMap(overlong, plm.images, plm.target_dim),
    ]


@pytest.mark.parametrize(
    "plm", misplaced_maps(), ids=["moved", "factors-swapped", "lopsided-facet", "long-facet"]
)
def test_factored_count_refuses_other_maps(plm):
    """The join-facet reference reads blocks only off the weight map."""
    signs = [1] * len(plm.complex_.facets)
    with pytest.raises(PreconditionError):
        join_signed_crossings(plm, signs, clean_value(3, 1))


def test_degree_refuses_a_non_regular_clean_value(monkeypatch):
    for outcome in ("singular", "zero"):
        monkeypatch.setattr(tp, "_board_outcome", lambda block, w, outcome=outcome: outcome)
        with pytest.raises(AssertionError, match="clean value is not regular at r=3, d=1"):
            tp.test_map_degree(3, 1)


def test_degree_deterministic():
    assert tp.test_map_degree(3, 1) == tp.test_map_degree(3, 1)


def test_degree_bad_args():
    with pytest.raises(ValueError):
        tp.test_map_degree(1, 2)
    with pytest.raises(ValueError):
        tp.test_map_degree(3, -1)


def test_plmap_validation():
    plm = weight_map(2, 1)
    with pytest.raises(ValueError):
        PLMap(plm.complex_, plm.images[:-1], plm.target_dim)
    with pytest.raises(ValueError):
        PLMap(plm.complex_, tuple(p[:-1] for p in plm.images), plm.target_dim)


# ---------------------------------------------------------------------------
# dimension bookkeeping


def test_dims_report_extremal_profile():
    rep = tp.dims_report([2, 2, 2, 1], 3, 2, 0)
    assert rep.join_dim == 6
    assert rep.reduced_join_dim == 7
    assert rep.target_dim == 6
    assert rep.sum_bundle_rank == 6
    assert rep.diagonal_rank == 2
    assert rep.complement_rank == 4


def test_dims_report_transversal_case():
    rep = tp.dims_report([1, 1, 1], 2, 2, 1)
    assert rep.join_dim == 2
    assert rep.sum_bundle_rank == 2
    assert rep.diagonal_rank == 1
    assert rep.complement_rank == 1


@pytest.mark.parametrize(
    "profile, r", [([2, 2, 2, 1], 3), ([1, 1, 1], 2), ([3, 2], 4), ([2], 3)]
)
def test_dims_report_join_dim_matches_built_class_join(profile, r):
    k_complex = tp.chessboard_complex(r, profile[0])
    for c in profile[1:]:
        k_complex = tp.join(k_complex, tp.chessboard_complex(r, c))
    assert k_complex.dim == tp.dims_report(profile, r, 2, 0).join_dim


def test_dims_report_rejects_oversized_class():
    with pytest.raises(ValueError):
        tp.dims_report([3, 1], 3, 2, 0)
    with pytest.raises(ValueError):
        tp.dims_report([], 3, 2, 0)
    with pytest.raises(ValueError):
        tp.dims_report([1, 1], 2, 1, 2)


def test_mixed_size_facet_check_needs_no_face_enumeration():
    # C(30, 15) faces of the larger facet would be listed by a face lookup
    c = tp.SimplicialComplex(45, [tuple(range(30)), tuple(range(30, 45))])
    assert len(c.facets) == 2
    with pytest.raises(ValueError, match="inclusion-maximal"):
        tp.SimplicialComplex(45, [tuple(range(30)), tuple(range(15))])


def test_caps_are_enforced(monkeypatch):
    # FACET_CAP is read at call time, so assigning it reaches every check
    board = tp.chessboard_complex(3, 2)
    monkeypatch.setattr(tp, "FACET_CAP", 10)
    with pytest.raises(CapExceeded, match="facet count 120 exceeds cap 10"):
        tp.chessboard_complex(5, 4)
    monkeypatch.setattr(tp, "FACET_CAP", 35)
    with pytest.raises(CapExceeded, match="facet count 36 exceeds cap 35"):
        tp.join(board, board)
    monkeypatch.setattr(tp, "FACET_CAP", 36)
    assert len(tp.join(board, board).facets) == 36


def test_default_cap_fires_before_facets_are_generated(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("facets were enumerated past the cap")

    monkeypatch.setattr(tp.itertools, "permutations", no_enumeration)
    # 11! = 39,916,800 rook placements, above 10^7
    with pytest.raises(CapExceeded):
        tp.chessboard_complex(11, 11)
