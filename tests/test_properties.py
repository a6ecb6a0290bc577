"""Property-based invariants for the exact-arithmetic core."""

import copy
import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tverlab import linalg, serialize, solver, svg
from tverlab.errors import CapExceeded, ParseError
from tverlab.geometry import common_point_gap, gap_reaches, lp_solve_eq, weights_of
from tverlab.linalg import integer_point_lists, integer_points
from tverlab.model import ColoredConfig, ProblemInstance, random_instance, tightness_instance
from tverlab.solver import KPlane
from tverlab.topology import SimplicialComplex

from oracles import (
    affine_certificate,
    affine_image,
    bound_step,
    common_point_rows,
    coprime_normal,
    dual_bound,
    fraction_flat_normal,
    fraction_projected_direction,
    fraction_projected_transversal,
    hyperplane_disjunct_search,
    inclusion_maximal,
    ordered_nonempty_partitions,
    pair_filtered_tverberg,
    pair_gap_reaches,
    rational_det,
    rational_echelon,
    rational_lp_solve_eq,
    rational_solve,
    relabelled,
    snap_quotients,
    support_points,
    trial_division_is_prime,
    unfiltered_tverberg,
    verify_common_point_witness,
)

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
coords = st.integers(min_value=-9, max_value=9)


@given(st.fractions(max_denominator=10**9))
def test_rational_serialization_round_trips(x):
    assert serialize.parse_rational(serialize.fraction_to_json(x)) == x


@functools.cache
def _valid_documents():
    line = random_instance(2, 1, (2, 2), [(1, 1, 1)] * 2, seed=0)
    config = random_instance(2, 0, (3,), seed=2).collections[0]
    return (
        (serialize.instance_from_json, serialize.instance_to_json(line)),
        (serialize.certificate_from_json, serialize.certificate_to_json(solver.solve(line).certificate)),
        (
            serialize.certificate_from_json,
            serialize.certificate_to_json(solver.solve_tverberg(config, 3).certificate),
        ),
    )


def _fields(node, path=()):
    """The path to every value inside a JSON document but the document itself."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _fields(child, path + (key,))


# digit strings on both sides of the length that int() converts from text
long_digits = st.integers(4290, 4400).map(lambda n: "7" * n)
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["1/0", "-3/4", "2", " 5 "])
    | long_digits
    | long_digits.map(lambda digits: "1/" + digits),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300)
@given(st.data())
def test_one_field_edit_reads_or_raises_parse_error(data):
    # replacing or deleting any one field of a valid file either still reads
    # or is refused as malformed, never with another exception
    read, document = data.draw(st.sampled_from(_valid_documents()))
    document = copy.deepcopy(document)
    path = data.draw(st.sampled_from(list(_fields(document))))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(json_values)
    try:
        read(document)
    except ParseError:
        pass


@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.data(),
)
def test_lp_finds_planted_solutions(nrows, ncols, data):
    rows = [
        [data.draw(rationals) for _ in range(ncols)] for _ in range(nrows)
    ]
    planted = [Fraction(data.draw(st.integers(0, 6))) for _ in range(ncols)]
    rhs = [sum(a * v for a, v in zip(row, planted)) for row in rows]
    x, gap = rational_lp_solve_eq(rows, rhs)
    assert gap == 0
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, x)) == b


@st.composite
def rational_pieces(draw):
    """One to four pieces of one to four points in R^d, d = 1..3."""
    d = draw(st.integers(1, 3))
    point = st.tuples(*[rationals] * d)
    return draw(st.lists(st.lists(point, min_size=1, max_size=4), min_size=1, max_size=4))


# infeasible with scale 6, so gap units and weight-row costs both show
@example([[(Fraction(1, 2),)], [(Fraction(1, 3),)]])
@given(rational_pieces())
@settings(max_examples=200)
def test_integer_common_point_lp_matches_rational_rows(pieces):
    flat = [p for piece in pieces for p in piece]
    ints, scale = integer_points(flat)
    assert scale > 0
    assert all(a == c * scale for p, q in zip(flat, ints) for c, a in zip(p, q))
    it = iter(ints)
    hit, gap, h = lp_solve_eq([[next(it) for _ in piece] for piece in pieces], scale)
    assert (h is None) == (hit is not None)  # a miss always returns its dual

    rows, rhs, offs = common_point_rows(pieces)
    x, ref_gap = rational_lp_solve_eq(rows, rhs)
    assert gap == ref_gap
    if x is None:
        assert hit is None and gap > 0
    else:
        # integer numerators, one list per piece, over one positive denominator
        nums, den = hit
        assert den > 0 and all(type(v) is int for num in nums for v in num)
        weights = weights_of(hit)
        assert weights == tuple(tuple(x[offs[j]:offs[j + 1]]) for j in range(len(pieces)))

    witness, api_gap = common_point_gap(pieces)
    assert api_gap == ref_gap
    assert (witness is None) == (x is None)
    if witness is not None:
        assert witness.weights == weights
        assert verify_common_point_witness(pieces, witness)


@st.composite
def rational_systems(draw):
    """A 1-5 x 1-5 matrix of zeros, ints and Fractions, some rows
    combinations of earlier ones, and a right-hand side."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), coords, rationals)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(1, m):
        if draw(st.booleans()):
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            s, t = draw(rationals), draw(rationals)
            rows[i] = [s * u + t * v for u, v in zip(rows[a], rows[b])]
    return rows, draw(st.lists(entry, min_size=m, max_size=m))


# one row swap and scale 2: det -3/2
@example(([[0, Fraction(1, 2)], [3, 1]], [1, 1]))
@given(rational_systems())
@settings(max_examples=200)
def test_integer_linalg_matches_fraction_reference(system):
    matrix, rhs = system
    n = len(matrix[0])
    rows = [[Fraction(v) for v in row] for row in matrix]
    assert linalg.rank(matrix) == len(rational_echelon(rows, n))
    assert linalg.solve(matrix, rhs) == rational_solve(matrix, rhs)
    assert linalg.nullspace(matrix, n) == [coprime_normal(v) for v in rational_solve(matrix, [0] * len(matrix))[1]]
    k = min(len(matrix), n)
    square = [row[:k] for row in matrix[:k]]
    assert linalg.det(square) == rational_det(square)


@st.composite
def integer_row_list_pairs(draw):
    """Two 0-4 row lists of one width 1-4 with entries in -2..2; the second is
    often integer combinations of the first, so their row spaces often agree."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    first = draw(st.lists(row, max_size=4))
    if first and draw(st.booleans()):
        coeffs = st.lists(st.integers(-2, 2), min_size=len(first), max_size=len(first))
        second = [
            [sum(c * r[j] for c, r in zip(cs, first)) for j in range(n)]
            for cs in draw(st.lists(coeffs, max_size=4))
        ]
    else:
        second = draw(st.lists(row, max_size=4))
    return n, first, second


@example((2, [[1, 2]], [[-2, -4], [0, 0]]))
@example((3, [], [[0, 0, 0]]))
@given(integer_row_list_pairs())
@settings(max_examples=200)
def test_nullspace_is_a_row_space_key(pair):
    # `_candidate_quotients` keeps a row space once by its nullspace, so that
    # key must agree exactly when the reduced echelon forms do
    n, first, second = pair

    def reduced(rows):
        rows = [[Fraction(v) for v in row] for row in rows]
        return rows[:len(rational_echelon(rows, n))]

    same_key = linalg.nullspace(first, n) == linalg.nullspace(second, n)
    assert same_key == (reduced(first) == reduced(second))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 10**5) if linalg.is_prime(n)] == [
        n for n in range(-3, 10**5) if trial_division_is_prime(n)
    ]


def test_is_prime_on_large_moduli():
    assert linalg.is_prime(2**31 - 1)
    assert linalg.is_prime(2**61 - 1)
    # above the bound where the bases are proof, a failed base still decides
    assert not linalg.is_prime((2**31 - 1) * (2**61 - 1))
    # the least strong pseudoprime to the bases 2, 3, 5 and 7
    assert not linalg.is_prime(3_215_031_751)
    # a prime above that bound passes every base, which proves nothing there
    with pytest.raises(CapExceeded, match="cannot prove"):
        linalg.is_prime(3_317_044_064_679_887_385_962_123)


@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=8))
def test_hull_contains_inputs_and_is_order_independent(points):
    hull = svg.convex_hull(points)
    assert set(hull) <= {(Fraction(a), Fraction(b)) for a, b in points}
    assert svg.convex_hull(list(reversed(points))) == hull
    # every input point lies weakly inside each hull edge
    n = len(hull)
    if n >= 3:
        for p in points:
            for i in range(n):
                assert svg._cross(hull[i], hull[(i + 1) % n], p) >= 0


@given(
    st.lists(
        st.lists(st.tuples(coords, coords), min_size=1, max_size=3),
        min_size=1,
        max_size=3,
    ),
    st.tuples(coords, coords),
)
def test_common_point_feasibility_is_translation_invariant(pieces, shift):
    moved = [[(p[0] + shift[0], p[1] + shift[1]) for p in piece] for piece in pieces]
    got = common_point_gap(pieces)[0]
    got_moved = common_point_gap(moved)[0]
    assert (got is None) == (got_moved is None)
    if got is not None:
        expected = tuple(c + s for c, s in zip(got.point, shift))
        # witnesses may differ, but the translated witness must still work
        assert got_moved.point is not None
        moved_hulls_feasible = common_point_gap(
            [[expected]] + [list(piece) for piece in moved]
        )[0]
        assert moved_hulls_feasible is not None


@given(
    st.tuples(rationals, rationals, rationals),
    st.tuples(rationals, rationals),
)
def test_plane_contains_its_own_combinations(base, ts):
    directions = ((Fraction(1), Fraction(0), Fraction(2)), (Fraction(0), Fraction(1), Fraction(-1)))
    plane = KPlane(base=base, directions=directions)
    point = tuple(
        b + ts[0] * u + ts[1] * v for b, u, v in zip(base, *directions)
    )
    assert plane.contains(point)
    off = (point[0], point[1], point[2] + Fraction(1, 3))
    assert not plane.contains(off)


@given(
    st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=4), min_size=1, max_size=6),
    st.data(),
)
@settings(max_examples=300)
def test_facet_maximality_matches_pairwise_oracle(facets, data):
    # faces of drawn facets (nested lists) and reversed copies (duplicates)
    derived = []
    picks = st.lists(st.tuples(st.integers(0, 5), st.integers(1, 15)), max_size=2)
    for i, mask in data.draw(picks):
        facet = sorted(facets[i % len(facets)])
        face = [v for bit, v in enumerate(facet) if mask >> bit & 1]
        derived.append(face or facet[::-1])
    facets = [sorted(f) for f in facets] + derived
    try:
        SimplicialComplex(10, facets)
        accepted = True
    except ValueError as exc:
        assert "inclusion-maximal" in str(exc)
        accepted = False
    assert accepted == inclusion_maximal(facets)


@st.composite
def colored_configs(draw, d, r, max_points, span=3, coord=None):
    """r to max_points points, classes of size at most r.

    Coordinates come from `coord`, by default the grid [-span, span].
    """
    n = draw(st.integers(r, max_points))
    if coord is None:
        coord = st.integers(-span, span)
    points = draw(st.lists(st.tuples(*[coord] * d), min_size=n, max_size=n))
    classes, start = [], 0
    while start < n:
        size = draw(st.integers(1, min(r, n - start)))
        classes.append(tuple(range(start, start + size)))
        start += size
    return ColoredConfig(dim=d, points=points, classes=classes)


def quotient_matching_ordered(search):
    """search() over one partition per relabelling, checked against every ordered one.

    Both must give the same status and certificate bytes.  Gaps may
    differ: the common-point LP is not symmetric in the piece labels.
    """
    quotient = search()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "enumerate_colorful_partitions", ordered_nonempty_partitions)
        ordered = search()
    assert quotient.status == ordered.status
    cert_bytes = [
        rep.certificate and serialize.canonical_bytes(serialize.certificate_to_json(rep.certificate))
        for rep in (quotient, ordered)
    ]
    assert cert_bytes[0] == cert_bytes[1]
    return quotient


def ordered_count(cfg, r):
    return sum(1 for _ in ordered_nonempty_partitions(cfg, r))


@given(st.sampled_from(((1, 2), (2, 2), (1, 3), (2, 3), (1, 4))), st.data())
@settings(max_examples=40)
def test_quotient_tverberg_search_matches_ordered_search(dr, data):
    d, r = dr
    cfg = data.draw(colored_configs(d, r, (r - 1) * (d + 1) + 1))
    quotient = quotient_matching_ordered(lambda: solver.solve_tverberg(cfg, r))
    if quotient.status == "infeasible-exhausted":
        assert quotient.stats["partitions"] == ordered_count(cfg, r)


@st.composite
def tverberg_cases(draw):
    """(configuration, r) for r in {2, 3, 4} and d in {1, 2, 3} on [-2, 2]^d.

    Up to seven points (d + 3 at r = 2) allow extremal sizes, which
    certify, beside smaller ones, which mostly refute; the coarse grid
    often repeats a point or puts three on a line or four on a plane.
    Half the configurations take their class indices from a shuffled
    order, so a piece's points, read in class order, need not be in index
    order, and coincident points can fall in different classes.
    """
    d, r = draw(st.sampled_from([(d, r) for r in (2, 3, 4) for d in (1, 2, 3)]))
    cfg = draw(colored_configs(d, r, 7 if r > 2 else d + 3, span=2))
    if draw(st.booleans()):
        order = draw(st.permutations(range(cfg.size)))
        cfg = ColoredConfig(d, cfg.points, [[order[i] for i in cls] for cls in cfg.classes])
    return cfg, r


def tverberg_examples(test):
    """The hand-picked cases every Tverberg-search comparison runs."""
    for case in (
        # ((0,), (1, 3), (2,)) has full gap 1/2 but a (piece 1, piece 2) gap
        # of 1: only pairs holding piece 0 bound the full LP's gap from below
        (ColoredConfig(3, [(0, 0, 0), (0, 1, -1), (0, 0, 0), (0, 0, 1)], [(0,), (1,), (2,), (3,)]), 3),
        (tightness_instance(2, 0, (3,), 0).collections[0], 3),
        # 729 representatives, 324 distinct support tuples: the refutation
        # pass revisits each deferred tuple once, not each duplicate
        (tightness_instance(3, 0, (3,), 0).collections[0], 3),
        # 800 distinct tuples of coordinate multisets but 392 of supports:
        # at r = 3 the two keys give the same count, here they do not
        (tightness_instance(2, 0, (4,), 0).collections[0], 4),
        (random_instance(2, 0, (3,), seed=3).collections[0], 3),
        (random_instance(1, 0, (4,), seed=0).collections[0], 4),
    ):
        test = example(case)(test)
    return test


def assert_same_search_outcome(report, expected):
    """Status, certificate, its canonical bytes, gap and partitions agree."""
    assert report.status == expected.status
    assert report.certificate == expected.certificate
    cert_bytes = [
        rep.certificate and serialize.canonical_bytes(serialize.certificate_to_json(rep.certificate))
        for rep in (report, expected)
    ]
    assert cert_bytes[0] == cert_bytes[1]
    assert report.gap == expected.gap
    assert report.stats["partitions"] == expected.stats["partitions"]


def support_tuples(cfg, lp_pieces):
    """How many distinct ordered tuples of piece supports (sets of points) `lp_pieces` hold."""
    return len({
        tuple(frozenset(cfg.points[i] for i in piece) for piece in pieces)
        for pieces in lp_pieces
    })


@tverberg_examples
@given(tverberg_cases())
def test_pair_filtered_tverberg_search_matches_unfiltered(case):
    cfg, r = case
    report = solver.solve_tverberg(cfg, r)
    expected = unfiltered_tverberg(cfg, r)
    assert_same_search_outcome(report, expected)
    # a full LP is solved at most once per representative, never at r = 2
    assert report.stats["lps"] <= expected.stats["lps"]
    if r == 2:
        # and, with no stored full-LP duals, once per ordered tuple of supports
        assert report.stats["pair_lps"] == 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_DUALS", 0)
            undual = solver.solve_tverberg(cfg, r)
        assert_same_search_outcome(undual, expected)
        assert undual.stats["lps"] == support_tuples(cfg, expected.stats["lp_pieces"])
        assert report.stats["lps"] <= undual.stats["lps"]


@tverberg_examples
@given(tverberg_cases())
def test_separator_tverberg_search_matches_pair_filtered(case):
    # a stored dual normal only ever proves a miss, and a dual bound only
    # skips a pair whose gap reaches the least gap, so with no stored
    # full-LP duals the same representatives reach a full LP; of those
    # with equal support tuples only the first solves it (all of them on
    # distinct points)
    cfg, r = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_DUALS", 0)
        report = solver.solve_tverberg(cfg, r)
    expected = pair_filtered_tverberg(cfg, r)
    assert_same_search_outcome(report, expected)
    assert report.stats["lps"] == support_tuples(cfg, expected.stats["lp_pieces"])
    # each pair a separator skips costs at most one LP, in the refutation walk
    assert report.stats["pair_lps"] <= expected.stats["pair_lps"]
    # stored full-LP duals only skip full LPs: all else is as without them
    dual = solver.solve_tverberg(cfg, r)
    assert_same_search_outcome(dual, report)
    assert dual.stats["pair_lps"] == report.stats["pair_lps"]
    assert dual.stats["lps"] <= report.stats["lps"]


@tverberg_examples
@given(tverberg_cases())
def test_witness_memo_decides_only_meeting_pairs(case):
    # a pair decided by a stored meeting support, with no LP, has hulls
    # that meet: its own two-piece LP has gap 0
    cfg, r = case
    decided = []
    witnessed = solver._witnessed

    def recording(witnesses, ca, cb):
        met = witnessed(witnesses, ca, cb)
        if met:
            decided.append((ca, cb))
        return met

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_witnessed", recording)
        solver.solve_tverberg(cfg, r)
    # a piece's hull is the hull of the distinct points its code names
    ints, scale = integer_points(cfg.points)
    for ca, cb in decided:
        assert lp_solve_eq([support_points(ints, ca), support_points(ints, cb)], scale)[1] == 0


@st.composite
def normals_and_pieces(draw):
    """(a, b, normals, scale): integer pieces in [-6, 6]^d, d <= 3, and the
    dual normals of one to three other drawn pairs that miss."""
    d = draw(st.integers(1, 3))
    piece = st.lists(st.tuples(*[st.integers(-6, 6)] * d), min_size=1, max_size=4)
    a, b = draw(piece), draw(piece)
    scale = draw(st.integers(1, 6))
    drawn = (lp_solve_eq([draw(piece), draw(piece)], scale)[2] for _ in range(draw(st.integers(1, 3))))
    normals = [h for h in drawn if h is not None]
    assume(normals)
    return a, b, normals, scale


def projected(a, b, normal):
    """(h.p over a, h.p over b, max h, min h): the oracle `pair_gap_reaches`'s first arguments."""
    ha, hb = ([sum(map(operator.mul, normal, p)) for p in piece] for piece in (a, b))
    return ha, hb, max(normal), min(normal)


def pair_reaches(ha, hb, hmax, hmin, scale, best):
    """`gap_reaches` at r = 2 for h, then for -h: the pair bound for either orientation."""
    return gap_reaches((-max(ha), min(hb)), hmax, scale, best) or gap_reaches(
        (min(ha), -max(hb)), -hmin, scale, best
    )


def separates(a, b, normal):
    ha, hb, _, _ = projected(a, b, normal)
    return max(ha) < min(hb) or max(hb) < min(ha)


def stored(points, normals):
    """`solver._settled`'s stored normals: (h.p for every point, no cached extremes, max h, min h)."""
    return [([sum(map(operator.mul, h, p)) for p in points], {}, max(h), min(h)) for h in normals]


@given(normals_and_pieces())
@settings(max_examples=300)
def test_pair_gap_reaches_never_exceeds_the_pair_gap(case):
    a, b, normals, scale = case
    gap = lp_solve_eq([a, b], scale)[1]
    # no bound exceeds the gap: one that did would reach gap + step
    for normal in normals:
        proj = projected(a, b, normal)
        assert not pair_reaches(*proj, scale, gap + bound_step(*proj, scale, gap))
    # a pair's own dual normal bounds its gap exactly
    own = lp_solve_eq([a, b], scale)[2]
    if own is not None:
        assert pair_reaches(*projected(a, b, own), scale, gap)


@given(normals_and_pieces(), st.fractions(min_value=Fraction(1, 60), max_value=4, max_denominator=60))
@settings(max_examples=300)
def test_two_piece_gap_reaches_matches_the_pair_bound(case, best):
    # the r = 2 case, run with h and -h, is the pair bound it replaced,
    # and with no best it asks for strict separation
    a, b, normals, scale = case
    for h in normals:
        proj = projected(a, b, h)
        assert pair_reaches(*proj, scale, best) == pair_gap_reaches(*proj, scale, best)
        assert pair_reaches(*proj, scale, None) == separates(a, b, h)


@given(normals_and_pieces(), st.fractions(min_value=Fraction(1, 60), max_value=4, max_denominator=60))
@settings(max_examples=300)
def test_settled_tests_separation_then_the_dual_bound(case, best):
    a, b, normals, scale = case
    points = a + b
    separators = stored(points, normals)
    ia, ib = range(len(a)), range(len(a), len(points))
    # with no least gap, a stored normal rules the pair out iff it strictly separates it
    kept = list(separators)
    assert solver._settled(kept, ia, ib, (0, 1), scale) == any(separates(a, b, h) for h in normals)
    # given one, iff some normal's dual bound reaches it; that normal moves to the front
    kept = list(separators)
    settled = solver._settled(kept, ia, ib, (0, 1), scale, best)
    assert settled == any(pair_gap_reaches(*projected(a, b, h), scale, best) for h in normals)
    if settled:
        front = normals[separators.index(kept[0])]
        assert separates(a, b, front) and pair_gap_reaches(*projected(a, b, front), scale, best)


@given(
    normals_and_pieces(),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from([None, Fraction(1, 4), 1])), max_size=12),
)
@settings(max_examples=200)
def test_cached_extremes_decide_as_a_recomputation_does(case, calls):
    # pieces are keyed by support, the set of their distinct points, as
    # in the search; over a run of calls whose caches fill up, each call
    # decides as separation and the pair bound recomputed from every
    # point's projection do, and moves the same normal to the front
    a, b, normals, scale = case
    points = a + b
    pool = [piece for n in (1, 2) for piece in itertools.combinations(range(len(points)), n)][:6]
    sid = {}
    support = lambda piece: sid.setdefault(frozenset(points[i] for i in piece), len(sid))
    cached = stored(points, normals)
    order = list(normals)
    for i, j, best in calls:
        pa, pb = pool[i % len(pool)], pool[j % len(pool)]
        pts_a, pts_b = [points[i] for i in pa], [points[i] for i in pb]
        decides = [
            h for h in order
            if separates(pts_a, pts_b, h)
            and (best is None or pair_gap_reaches(*projected(pts_a, pts_b, h), scale, best))
        ]
        assert solver._settled(cached, pa, pb, (support(pa), support(pb)), scale, best) == bool(decides)
        if decides:
            order.remove(decides[0])
            order.insert(0, decides[0])
        assert [entry[0] for entry in cached] == [entry[0] for entry in stored(points, order)]
    # every cached entry holds its support's extremes
    for proj, cache, _, _ in cached:
        for piece in pool:
            if support(piece) in cache:
                vals = [proj[i] for i in piece]
                assert cache[support(piece)] == (min(vals), max(vals))


def dual_directions(h, d):
    """A full-LP dual's directions per piece: -(h_1 + ... + h_{r-1}), then each h_j."""
    hs = [h[j:j + d] for j in range(0, len(h), d)]
    return [tuple(-sum(c) for c in zip(*hs)), *hs]


@tverberg_examples
@given(tverberg_cases())
def test_every_full_lp_skipped_by_a_dual_is_justified(case):
    # a stored full-LP dual skips a tuple only if its weak-duality bound,
    # computed independently from the dual, is at most the skipped LP's
    # gap, and above 0 in the walk or at least the least gap afterwards
    cfg, r = case
    _, scale = integer_points(cfg.points)
    duals = []  # h of every missed full LP
    skips = []

    def recording_lp(pieces, scale):
        out = lp_solve_eq(pieces, scale)
        if out[2] is not None and len(pieces) == r:  # a missed full LP, not a pair LP
            duals.append(out[2])
        return out

    def recording_bounds(kept, pieces, points, scale, best=None):
        decided = kept_bounds(kept, pieces, points, scale, best)
        if decided:
            top, directions, _ = kept[0]
            skips.append((top, directions, [[pts[i] for i in piece] for pts, piece in zip(points, pieces)], best))
        return decided

    kept_bounds = solver._kept_bounds
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "lp_solve_eq", recording_lp)
        mp.setattr(solver, "_kept_bounds", recording_bounds)
        report = solver.solve_tverberg(cfg, r)
    assert report.stats["lps"] == len(duals) + report.certified
    for top, directions, pieces, best in skips:
        # the deciding dual is a missed full LP's h: top is its largest
        # entry, and piece j reads -(h_1 + ... + h_{r-1}) at j = 0, h_j after
        h = next(h for h in duals if list(map(tuple, directions)) == dual_directions(h, cfg.dim))
        assert top == max(h)
        bound = dual_bound(pieces, h, scale)
        assert lp_solve_eq(pieces, scale)[1] >= bound
        assert bound > 0 if best is None else bound >= best


@tverberg_examples
@given(tverberg_cases())
def test_direction_scan_at_k0_matches_the_partition_walk(case):
    # at k = 0 the scan has one direction, the identity, and decides the
    # walk's question with the same kept-dual store: the same gap, the
    # same status (the scan's "budget-exhausted" is the walk's complete
    # refutation) and, on a hit, the same first partition and weights
    cfg, r = case
    scan = solver.solve_transversal(ProblemInstance(cfg.dim, 0, (r,), (cfg,)))
    walk = solver.solve_tverberg(cfg, r)
    assert scan.gap == walk.gap
    assert {"budget-exhausted": "infeasible-exhausted"}.get(scan.status, scan.status) == walk.status
    if walk.certified:
        assert scan.certificate.partitions[0].pieces == walk.certificate.partition.pieces
        assert scan.certificate.weights[0] == walk.certificate.weights


@given(st.sampled_from(((2, 2), (2, 3))), st.data())
@settings(max_examples=20)
def test_quotient_hyperplane_search_matches_ordered_search(rs, data):
    # at most six points in all keep the ordered search near a second
    first = data.draw(colored_configs(2, rs[0], 3))
    second = data.draw(colored_configs(2, rs[1], 6 - first.size))
    inst = ProblemInstance(d=2, k=1, rs=rs, collections=(first, second))
    quotient = quotient_matching_ordered(lambda: solver.solve_hyperplane_transversal_exact(inst))
    if quotient.status == "infeasible-exhausted":
        assert quotient.stats["combos"] == ordered_count(first, rs[0]) * ordered_count(second, rs[1])


def singleton_classes(d, *point_lists):
    """A codimension-one instance, r = 2, one collection per list, one class per point."""
    collections = tuple(
        ColoredConfig(dim=d, points=pts, classes=[(i,) for i in range(len(pts))])
        for pts in point_lists
    )
    return ProblemInstance(d=d, k=d - 1, rs=(2,) * d, collections=collections)


@st.composite
def hyperplane_instances(draw):
    """Codimension-one instances on a small grid, with collinear, coplanar
    and repeated points; the point budget keeps the reference's ordered
    LP search near a second."""
    d, rs = draw(st.sampled_from(
        ((1, (2,)), (1, (3,)), (2, (2, 2)), (2, (2, 3)), (3, (2, 2, 2)))
    ))
    budget = 7 if d == 3 else 6
    collections = []
    for ell, r in enumerate(rs):
        room = budget - sum(cfg.size for cfg in collections) - sum(rs[ell + 1:])
        collections.append(draw(colored_configs(d, r, room)))
    return ProblemInstance(d=d, k=d - 1, rs=rs, collections=tuple(collections))


# every transversal through two input points is parallel to an earlier
# candidate line, so a scan that keeps one plane per normal refutes it
@example(singleton_classes(2, [(0, 2), (2, -2), (1, 2)], [(-1, 2), (2, -1), (1, -2)]))
# on the line a hyperplane is one point {x = v}, through one input point
@example(singleton_classes(1, [(0,), (1,), (2,), (3,)]))
@given(hyperplane_instances())
@settings(max_examples=40)
def test_hyperplane_plane_scan_matches_disjunct_lps(inst):
    report = solver.solve_hyperplane_transversal_exact(inst)
    found, tried = hyperplane_disjunct_search(inst)
    assert report.certified == found
    if report.certified:
        assert solver.verify_transversal(inst, report.certificate)
    else:
        assert report.status == "infeasible-exhausted"
        assert report.stats["combos"] == tried
        assert report.gap > 0


# coincident points, and three points on a line, in the plane and in space
@example(singleton_classes(2, [(0, 0), (0, 0), (1, 1)], [(2, 2), (3, 0), (3, 0)]))
@example(singleton_classes(3, [(0, 0, 0), (1, 1, 1), (2, 2, 2)], [(0, 0, 0), (1, 0, 0)], [(0, 1, 0), (1, 0, 0)]))
@given(hyperplane_instances().filter(lambda inst: inst.d > 1))
def test_candidate_quotients_match_the_snap_reference(inst):
    assert list(solver._candidate_quotients(inst)) == snap_quotients(inst)


# coincident points; three on a line in space; one point on the line;
# a plane through the origin
@example([(1, -2), (1, -2)])
@example([(0, 0, 0), (1, 2, 3), (2, 4, 6)])
@example([(3,)])
@example([(0, 0, 0), (2, -3, 1), (-1, 1, 0)])
@given(st.integers(1, 4).flatmap(lambda d: st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=d, max_size=d)))
def test_flat_normal_matches_the_fraction_nullspace_reference(points):
    subset = tuple(range(len(points)))
    assert solver._flat_normal(points, subset) == fraction_flat_normal(points, subset)


@st.composite
def rational_transversal_instances(draw):
    """k in {0, 1, d-1, d}, d <= 3, with coordinates of denominator up to 6.

    A direction's projections then often need a smaller scale than the
    points themselves, so the search's scale is a proper multiple of the
    per-direction one.
    """
    d, k = draw(st.sampled_from([(d, k) for d in (1, 2, 3) for k in sorted({0, 1, d - 1, d})]))
    rs = tuple(draw(st.sampled_from((2, 2, 3))) for _ in range(k + 1))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    budget = max(6, sum(rs))
    collections = []
    for ell, r in enumerate(rs):
        room = budget - sum(cfg.size for cfg in collections) - sum(rs[ell + 1:])
        collections.append(draw(colored_configs(d, r, room, coord=coord)))
    return ProblemInstance(d=d, k=k, rs=rs, collections=tuple(collections))


def halved_and_shifted(inst):
    """inst under x -> x/2 + 1/3 in every coordinate: same answers, scale 6."""
    collections = tuple(
        ColoredConfig(
            dim=cfg.dim,
            points=[tuple(c / 2 + Fraction(1, 3) for c in p) for p in cfg.points],
            classes=cfg.classes,
        )
        for cfg in inst.collections
    )
    return ProblemInstance(d=inst.d, k=inst.k, rs=inst.rs, collections=collections)


# parallel segments: along the normal (0, 1) each collection's pieces
# meet, but the joint LP misses, two pieces 1/3 off piece 0, at
# projection scale 3, half the search's; that 2/3 is the least gap
@example(singleton_classes(2, [(0, 0), (Fraction(1, 2), 0)], [(0, Fraction(1, 3)), (1, Fraction(1, 3))]))
# each certifies; the d=3 k=1 hit is on a direction whose projections
# need scale 2, a third of the search's
@example(halved_and_shifted(random_instance(3, 1, (2, 2), seed=3)))
@example(halved_and_shifted(random_instance(3, 2, (2, 2, 2), seed=0)))
@example(halved_and_shifted(random_instance(3, 3, (2, 2, 2, 2), seed=0)))
@given(rational_transversal_instances())
@settings(max_examples=100)
def test_candidate_scan_matches_fraction_projected_reference(inst):
    # the Farkas duals the scan keeps across directions and its
    # projected-interval rule only spare LPs: without the duals it still
    # tries the reference's directions, on at most its LPs
    report = solver.solve_transversal(inst)
    expected = fraction_projected_transversal(inst)
    assert report.status == expected.status
    assert report.gap == expected.gap
    assert report.stats["directions"] == expected.stats["directions"]
    assert report.stats["lps"] <= expected.stats["lps"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_DUALS", 0)
        plain = solver.solve_transversal(inst).stats
        assert plain["directions"] == expected.stats["directions"]
        assert plain["lps"] <= expected.stats["lps"]
    assert report.certificate == expected.certificate
    cert_bytes = [
        rep.certificate and serialize.canonical_bytes(serialize.certificate_to_json(rep.certificate))
        for rep in (report, expected)
    ]
    assert cert_bytes[0] == cert_bytes[1]
    if report.certified:
        assert solver.verify_transversal(inst, report.certificate)
    # every direction's hit or exact gap, not only the first hit or least
    # gap, with the duals of every earlier direction kept: a miss's
    # record is revisited at once, with no bound
    plists = solver._partition_lists(inst)
    if plists is None:
        return
    int_points, scale = integer_point_lists([cfg.points for cfg in inst.collections])
    duals = [[] for _ in range(len(plists) + 1)]
    for rows in solver._candidate_quotients(inst):
        stats, ref_stats = {"lps": 0}, {"lps": 0}
        hit, record = solver._evaluate_direction(rows, int_points, scale, plists, stats, duals)
        gap = 0 if record is None else solver._revisit(record, int_points, scale, plists, stats, duals, None)
        ref_hit, ref_gap = fraction_projected_direction(
            [[Fraction(v) for v in row] for row in rows], inst.collections, plists, ref_stats
        )
        assert gap == ref_gap
        assert hit == (ref_hit and (ref_hit[0], ref_hit[1].weights))
        assert stats["lps"] <= ref_stats["lps"]


@st.composite
def projected_tuples(draw):
    """Integer points in R^m, m = 1..3, and 2-4 pieces of them, as a direction projects a tuple.

    Coordinates are small, so coincident and collinear points are common.
    """
    m = draw(st.integers(1, 3))
    n = draw(st.integers(2, 8))
    pts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * m), min_size=n, max_size=n))
    piece = st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True).map(tuple)
    return pts, draw(st.lists(piece, min_size=2, max_size=4))


# coincident points: the pieces share a point
@example(([(1,), (1,), (2,)], [(0,), (1, 2)]))
# touching intervals on a line meet at one point
@example(([(0,), (2,), (2,), (5,)], [(0, 1), (2, 3)]))
# a crossing of two segments in the plane: every row's intervals meet
@example(([(0, 0), (2, 2), (0, 2), (2, 0)], [(0, 1), (2, 3)]))
# parallel segments: the intervals meet on the first row only, so the
# rule proves the miss
@example(([(0, 0), (2, 0), (1, 1), (3, 1)], [(0, 1), (2, 3)]))
# overlapping segments on one line meet
@example(([(0, 0), (2, 2), (1, 1), (3, 3)], [(0, 1), (2, 3)]))
# skew diagonals: every row's intervals meet, yet the hulls miss
@example(([(0, 0), (1, 1), (2, 0), (3, 1)], [(0, 3), (2,)]))
@given(projected_tuples())
def test_projected_intervals_decide_only_what_the_lp_decides(case):
    # the direction scan's fast path: intervals that miss on a row prove
    # the hulls miss, and on one row intervals that meet prove they meet;
    # the common part of common parts is that of all the intervals
    pts, pieces = case
    spans = [solver._spans(pts, piece) for piece in pieces]
    common = solver._common(spans)
    hit = lp_solve_eq([[pts[i] for i in piece] for piece in pieces], 1)[0] is not None
    if common is None:
        assert not hit
    if len(pts[0]) == 1:
        assert hit == (common is not None)
    for j in range(1, len(spans)):
        parts = [solver._common(spans[:j]), solver._common(spans[j:])]
        assert (None if None in parts else solver._common(parts)) == common


@example(tightness_instance(3, 1, (2, 2), 0))
@example(random_instance(2, 1, (3, 3), seed=0))
@given(rational_transversal_instances())
@settings(max_examples=60)
def test_scan_wide_bound_keeps_the_unbounded_scan(inst):
    # the first pass meets the hit a scan measuring each direction as it
    # goes meets; with none, each record revisited with the least gap of
    # the earlier ones as bound gives the least of its exact gap and that
    # bound, so the scan ends as a loop over unbounded directions does
    report = solver.solve_transversal(inst)
    plists = solver._partition_lists(inst)
    if plists is None:
        assert report.status == "no-valid-partition"
        return
    int_points, scale = integer_point_lists([cfg.points for cfg in inst.collections])
    duals, ref_duals = ([[] for _ in range(len(plists) + 1)] for _ in range(2))
    stats, ref_stats = {"lps": 0}, {"lps": 0}
    records, ref_gaps = [], []
    cert = None
    directions = 0
    for rows in solver._candidate_quotients(inst):
        directions += 1
        hit, record = solver._evaluate_direction(rows, int_points, scale, plists, stats, duals)
        ref_hit, ref_record = solver._evaluate_direction(rows, int_points, scale, plists, ref_stats, ref_duals)
        assert hit == ref_hit
        if hit is not None:
            cert = solver._build_certificate(inst, rows, *hit)
            break
        records.append(record)
        ref_gaps.append(solver._revisit(ref_record, int_points, scale, plists, ref_stats, ref_duals, None))
    best = None
    if cert is None:
        for record, ref_gap in zip(records, ref_gaps):
            gap = solver._revisit(record, int_points, scale, plists, stats, duals, best)
            assert gap == (ref_gap if best is None else min(ref_gap, best))
            best = gap
    assert report.status == ("certified" if cert else "budget-exhausted")
    assert report.gap == (0 if cert else best)
    assert report.stats == {**stats, "directions": directions}
    assert report.stats["lps"] <= ref_stats["lps"]
    if cert is None:
        assert report.certificate is None
    else:
        cert_bytes = lambda c: serialize.canonical_bytes(serialize.certificate_to_json(c))
        assert cert_bytes(report.certificate) == cert_bytes(cert)


@example(random_instance(3, 1, (2, 2), seed=0), 0, 1)
@example(random_instance(2, 1, (3, 3), seed=0), 3, 5)
@given(rational_transversal_instances(), st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=40)
def test_a_dual_kept_from_one_direction_bounds_gaps_at_another(inst, first, then):
    # the Farkas dual of an LP missed at one direction, read at another
    # with the same piece positions, bounds every tuple's exact gap
    # there: never at or above a best the gap is below, and above 0
    # only on a miss
    plists = solver._partition_lists(inst)
    directions = list(itertools.islice(solver._candidate_quotients(inst), 6))
    if plists is None or not directions or not directions[0]:  # k = d: every hull meets the one point
        return
    int_points, scale = integer_point_lists([cfg.points for cfg in inst.collections])
    project = lambda rows: [[tuple(sum(map(operator.mul, row, p)) for row in rows) for p in pts] for pts in int_points]
    at_first = project(directions[first % len(directions)])
    at_then = project(directions[then % len(directions)])
    m = len(directions[0])
    # tuples as (collection, piece) per position: each collection's
    # partitions, then the joint combinations, at most 16 of each shape
    shapes = [[[(ell, piece) for piece in part] for part in plist] for ell, plist in enumerate(plists)]
    shapes.append([[(ell, piece) for ell, part in enumerate(combo) for piece in part] for combo in itertools.product(*plists)])
    points_of = lambda proj, tup: [[proj[ell][i] for i in piece] for ell, piece in tup]
    for tuples in shapes:
        tuples = tuples[::-(-len(tuples) // 16)]
        gaps = [lp_solve_eq(points_of(at_then, tup), scale)[1] for tup in tuples]
        for tup in tuples:
            h = lp_solve_eq(points_of(at_first, tup), scale)[2]
            if h is None:
                continue
            points = [at_then[ell] for ell, _ in tup]
            kept = [[max(h), solver._dual_directions(h, m), None]]
            for other, gap in zip(tuples, gaps):
                pieces = points_of(at_then, other)
                assert dual_bound(pieces, h, scale) <= gap
                lows = [min(sum(map(operator.mul, g, p)) for p in piece) for g, piece in zip(dual_directions(h, m), pieces)]
                for best in (None, gap + Fraction(1, 10**9), gap):
                    reaches = gap_reaches(lows, max(h), scale, best)
                    assert solver._kept_bounds(kept, [piece for _, piece in other], points, scale, best) == reaches
                    if reaches:
                        assert gap > 0 if best is None else gap >= best


@st.composite
def affinely_mapped_instances(draw):
    """(instance, matrix, shift): an invertible map of R^d, entries p/q with |p| <= 5, q <= 4."""
    inst = draw(rational_transversal_instances())
    d = inst.d
    entry = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    matrix = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)
                  .filter(lambda rows: linalg.det(rows) != 0))
    return inst, matrix, draw(st.lists(entry, min_size=d, max_size=d))


def found_partitions(cert):
    return (cert.partition,) if isinstance(cert, solver.TverbergCertificate) else cert.partitions


def sheared(inst):
    """inst with the map x -> (x_0 + x_1/2, -x_1/3, ...) + (1/4, ..., 1/4): det -1/3."""
    d = inst.d
    matrix = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    matrix[0][1], matrix[1][1] = Fraction(1, 2), Fraction(-1, 3)
    return inst, matrix, [Fraction(1, 4)] * d


@example(sheared(random_instance(3, 1, (2, 2), seed=1)))
@example(sheared(tightness_instance(2, 0, (4,), 0)))
@example(sheared(tightness_instance(2, 1, (3, 3), 0)))
@given(affinely_mapped_instances())
@settings(max_examples=40)
def test_solve_is_invariant_under_invertible_affine_maps(case):
    # whether hulls meet, or a plane meets them, survives an invertible
    # affine map, and no search's order reads coordinates: candidates
    # come from index subsets, so status, first hit and the counters of
    # tuples and directions tried stay; LP counts may move with the duals
    inst, matrix, shift = case
    image = affine_image(inst, matrix, shift)
    report, moved = solver.solve(inst), solver.solve(image)
    assert moved.status == report.status
    for key in ("partitions", "combos", "directions"):
        assert moved.stats.get(key) == report.stats.get(key)
    if report.certified:
        assert found_partitions(moved.certificate) == found_partitions(report.certificate)
        mapped = affine_certificate(report.certificate, matrix, shift)
        if inst.k == 0:
            assert solver.verify_tverberg(image.collections[0], image.rs[0], mapped)
        else:
            assert solver.verify_transversal(image, mapped)


@example((tightness_instance(2, 0, (4,), 0).collections[0], 4), 1)
@example((tightness_instance(3, 0, (3,), 0).collections[0], 3), 2)
@given(tverberg_cases(), st.integers(0, 2**32))
def test_tverberg_search_is_invariant_under_relabelling_points(case, seed):
    # renumbering the points changes which piece a representative puts
    # first, so the least gap, which weighs piece 0's coordinates apart
    # from the others', may move (two points at distance 1 in the plane
    # give 2 one way and 1 the other); whether the hulls meet may not
    cfg, r = case
    moved = relabelled(cfg, random.Random(seed).sample(range(cfg.size), cfg.size))
    report, other = solver.solve_tverberg(cfg, r), solver.solve_tverberg(moved, r)
    assert other.status == report.status
    if report.status == "infeasible-exhausted":
        assert other.stats["partitions"] == report.stats["partitions"]


@example(tightness_instance(2, 1, (3, 3), 0), 1)
# the points span a line, so one plane holds them all
@example(singleton_classes(2, [(0, 0), (1, 1), (2, 2)], [(3, 3), (-1, -1)]), 2)
@given(hyperplane_instances(), st.integers(0, 2**32))
@settings(max_examples=40)
def test_hyperplane_scan_is_invariant_under_relabelling_points(inst, seed):
    # the candidate planes are those through input points, kept once
    # each, and a piece's miss reads its points as a set, so renumbering
    # points within each collection keeps the answer, and on a refutation
    # the planes checked, the combinations covered and the least gap
    rng = random.Random(seed)
    moved = ProblemInstance(inst.d, inst.k, inst.rs, tuple(
        relabelled(cfg, rng.sample(range(cfg.size), cfg.size)) for cfg in inst.collections
    ))
    report, other = solver.solve_hyperplane_transversal_exact(inst), solver.solve_hyperplane_transversal_exact(moved)
    assert other.status == report.status
    if report.status == "infeasible-exhausted":
        assert (other.stats, other.gap) == (report.stats, report.gap)


@pytest.mark.parametrize("inst", [
    *(random_instance(3, 1, (2, 2), seed=seed) for seed in range(6)),
    tightness_instance(3, 1, (2, 2), 0),
    tightness_instance(3, 1, (2, 2), 1),
], ids=[*(f"random-{seed}" for seed in range(6)), "tightness-0", "tightness-1"])
def test_direction_scan_is_invariant_under_relabelling_points(inst):
    # the candidate directions are the row spaces through input points,
    # kept once each, and whether a direction has a hit reads each piece
    # as a point set; renumbering points reorders the list but keeps the
    # set, so the status, and on a scan that runs out the directions
    # tried; the gap can move, since the LP weighs piece 0 apart
    report = solver.solve_transversal(inst)
    for seed in range(3):
        rng = random.Random(seed)
        moved = ProblemInstance(inst.d, inst.k, inst.rs, tuple(
            relabelled(cfg, rng.sample(range(cfg.size), cfg.size)) for cfg in inst.collections
        ))
        other = solver.solve_transversal(moved)
        assert other.status == report.status
        if report.status == "budget-exhausted":
            assert other.stats["directions"] == report.stats["directions"]


@given(st.integers(2, 5), st.booleans(), st.data())
@settings(max_examples=80)
def test_walk_and_hyperplane_scan_agree_on_the_line(r, short, data):
    # at d = 1, k = 0 a common point is a hyperplane {x = v} meeting every
    # piece, so the partition walk and the complete hyperplane scan both apply
    n = 2 * r - 1 - short  # (r-1)(d+1)+1 points, or one short
    points = data.draw(st.lists(st.tuples(st.integers(0, 6)), min_size=n, max_size=n))
    classes, start = [], 0
    while start < n:
        size = data.draw(st.integers(1, min(r - 1, n - start)))
        classes.append(range(start, start + size))
        start += size
    cfg = ColoredConfig(dim=1, points=points, classes=classes)
    inst = ProblemInstance(d=1, k=0, rs=(r,), collections=(cfg,))
    assert solver.solve_tverberg(cfg, r).status == solver.solve_hyperplane_transversal_exact(inst).status

