"""Tests for the certificate searches, verification, and restriction."""
import dataclasses
import itertools
import operator
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from tverlab import geometry, kernels, solver
from tverlab.errors import CapExceeded, PreconditionError
from tverlab.geometry import CommonPointWitness
from tverlab.linalg import integer_points
from tverlab.model import (
    ColoredConfig,
    PartitionTuple,
    ProblemInstance,
    count_colorful_partitions,
    default_profile,
    enumerate_colorful_partitions,
    random_instance,
    tightness_instance,
    validate,
)
from tverlab.solver import (
    KPlane,
    SearchBudget,
    TransversalCertificate,
    TverbergCertificate,
    solve,
    solve_hyperplane_transversal_exact,
    solve_transversal,
    solve_tverberg,
    sweep,
    verify_transversal,
    verify_tverberg,
)

from oracles import (
    DegenerateIntersection,
    bound_step,
    first_met_flags,
    lift_instance,
    orbit_key,
    ordered_nonempty_partitions,
    pair_gap_reaches,
    pair_snap_quotients,
    restrict_solution,
    support_points,
    verify_common_point_witness,
)


def crossing_instance():
    """Two collections of crossing segments, all hulls through the origin.

    Every direction admits a transversal line, so the first candidate
    certifies; useful for exercising the search paths deterministically.
    """
    c0 = ColoredConfig(
        dim=2,
        points=[(-4, 0), (4, 0), (0, -4), (0, 4)],
        classes=[(0,), (1,), (2,), (3,)],
    )
    c1 = ColoredConfig(
        dim=2,
        points=[(-3, -3), (3, 3), (-3, 3), (3, -3)],
        classes=[(0,), (1,), (2,), (3,)],
    )
    return ProblemInstance(d=2, k=1, rs=(2, 2), collections=(c0, c1))


def singleton_transversal_instance(seed):
    return random_instance(2, 1, (2, 2), [(1, 1, 1), (1, 1, 1)], seed=seed)


def singleton_classes_instance(d, k, *point_lists):
    """One collection per point list, r = 2 each, one class per point."""
    collections = tuple(
        ColoredConfig(dim=d, points=pts, classes=[(i,) for i in range(len(pts))])
        for pts in point_lists
    )
    return ProblemInstance(d=d, k=k, rs=(2,) * len(collections), collections=collections)


def coplanar_line_instance():
    """Lines in space through two collections whose points all lie on z = 0."""
    return singleton_classes_instance(
        3, 1,
        [(0, 0, 0), (4, 0, 0), (0, 4, 0), (4, 4, 0)],
        [(1, 3, 0), (7, 2, 0), (2, 9, 0), (5, 5, 0)],
    )


# ---------------------------------------------------------------------------
# KPlane


def test_kplane_contains():
    plane = KPlane(base=(0, 1), directions=((1, 1),))
    assert plane.dim == 1 and plane.ambient_dim == 2
    assert plane.contains((2, 3))
    assert not plane.contains((2, 2))
    assert not plane.contains((2, 3, 0))


def test_kplane_point_case():
    plane = KPlane(base=(5, 7), directions=())
    assert plane.contains((5, 7))
    assert not plane.contains((5, 8))


def test_kplane_rejects_dependent_directions():
    with pytest.raises(ValueError):
        KPlane(base=(0, 0), directions=((1, 1), (2, 2)))
    with pytest.raises(ValueError):
        KPlane(base=(0, 0), directions=((1, 0, 0),))


# ---------------------------------------------------------------------------
# partitions up to relabelling pieces


def small_profile_configs(r):
    """One config per class profile of at most 6 points, classes up to r + 1."""
    profiles = [
        p
        for n in (1, 2, 3, 4)
        for p in itertools.product(range(1, r + 2), repeat=n)
        if sum(p) <= 6
    ]
    for profile in profiles:
        starts = [sum(profile[:c]) for c in range(len(profile))]
        yield ColoredConfig(
            dim=1,
            points=[(i,) for i in range(sum(profile))],
            classes=[range(a, a + size) for a, size in zip(starts, profile)],
        )


@pytest.mark.parametrize("r", [2, 3, 4])
def test_representatives_are_first_of_their_relabelling_orbits(r):
    for cfg in small_profile_configs(r):
        reps = list(enumerate_colorful_partitions(cfg, r))
        ordered = list(ordered_nonempty_partitions(cfg, r))
        assert len({orbit_key(cfg, p) for p in reps}) == len(reps)
        first = {}
        for part in ordered:
            first.setdefault(orbit_key(cfg, part), part)
        assert reps == list(first.values())
        assert len(reps) * factorial(r) == len(ordered)


@given(st.sampled_from((2, 3, 4)), st.data())
@settings(max_examples=200, deadline=None)
def test_first_met_matches_flag_reference(r, data):
    configs = [cfg for cfg in small_profile_configs(r) if count_colorful_partitions(cfg, r)]
    cfg = data.draw(st.sampled_from(configs))
    plist = list(enumerate_colorful_partitions(cfg, r))
    n = len(cfg.points)
    side = data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    assert solver._first_met(side, plist) == first_met_flags(side, plist)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_representative_count_matches_enumeration(r):
    counts = []
    for cfg in small_profile_configs(r):
        count = count_colorful_partitions(cfg, r)
        assert count == sum(1 for _ in enumerate_colorful_partitions(cfg, r))
        counts.append(count)
    assert 0 in counts and max(counts) > 1


# ---------------------------------------------------------------------------
# exhaustive common-point search


def test_solve_tverberg_extremal_instances_certify():
    for seed in range(6):
        inst = random_instance(2, 0, (3,), [default_profile(2, 0, 3)], seed=seed)
        cfg = inst.collections[0]
        report = solve_tverberg(cfg, 3)
        assert report.certified
        assert report.stats["lps"] + report.stats["pair_lps"] <= 648
        cert = report.certificate
        pieces = [[cfg.points[i] for i in piece] for piece in cert.partition.pieces]
        witness = CommonPointWitness(point=cert.point, weights=cert.weights)
        assert verify_common_point_witness(pieces, witness)


def test_solve_tverberg_five_pieces_by_piece_pairs():
    # the search covers 56,540 representatives; piece pairs that miss, by
    # their LP or a stored dual normal, rule out all but 86 of them before
    # their full LP
    inst = random_instance(2, 0, (5,), (default_profile(2, 0, 5),), seed=0)
    cfg = inst.collections[0]
    start = time.perf_counter()
    report = solve_tverberg(cfg, 5)
    elapsed = time.perf_counter() - start
    assert report.certified
    assert report.stats["partitions"] == 6784800
    assert report.certificate.partition.pieces == (
        (0, 5, 8), (1, 7, 11), (2, 6, 9), (3, 10, 12), (4,)
    )
    assert verify_tverberg(cfg, 5, report.certificate)
    assert elapsed < 15


def test_solve_tverberg_seven_pieces_in_the_plane():
    # the walk covers 168,130 representatives for 4 full and 98 pair
    # LPs; the pieces' recorded misses rule out most of the rest, and
    # stored full-LP duals 21 of the 25 that pass the pair tests
    cfg = random_instance(2, 0, (7,), seed=1).collections[0]
    report = solve_tverberg(cfg, 7)
    assert report.stats == {"partitions": 847375200, "lps": 4, "pair_lps": 98}
    assert verify_tverberg(cfg, 7, report.certificate)
    assert report.certificate.partition.pieces == (
        (0, 6, 12), (1, 7, 13), (2, 8, 15), (3, 9, 17), (4, 14), (5, 11, 18), (10, 16)
    )


def test_solve_tverberg_refutes_the_five_piece_set_one_point_short():
    # twelve points in general position, three classes of four, one short
    # of the r = 5 colorful Tverberg bound: the least gap is exact, and
    # every dual-bound skip in the refutation pass must leave it unchanged
    cfg = random_instance(2, 0, (5,), seed=0).collections[0]
    short = ColoredConfig(dim=2, points=cfg.points[:12], classes=cfg.classes[:3])
    report = solve_tverberg(short, 5)
    assert report.status == "infeasible-exhausted"
    assert report.gap == Fraction(99313, 112577)
    assert report.stats == {"partitions": 1658880, "lps": 263, "pair_lps": 491}


def test_stored_separators_strictly_separate_their_pieces(monkeypatch):
    seen = []
    bounds = []

    def recording(pieces, scale):
        out = geometry.lp_solve_eq(pieces, scale)
        if len(pieces) == 2:  # a pair LP: every case has r >= 3
            seen.append((*pieces, scale, *out))
        return out

    def recording_settled(separators, a, b, key, scale, best=None):
        # the stored normals a least-gap test saw, and whether one reached best
        normals = list(separators)
        reached = settled(separators, a, b, key, scale, best)
        if best is not None:
            bounds.append((cfg, a, b, best, normals, reached))
        return reached

    settled = solver._settled
    monkeypatch.setattr(solver, "lp_solve_eq", recording)
    monkeypatch.setattr(solver, "_settled", recording_settled)
    cases = [(tightness_instance(d, 0, (3,), 0).collections[0], 3) for d in (2, 3)]
    cases += [(random_instance(3, 0, (3,), seed=s).collections[0], 3) for s in range(8)]
    cases += [(random_instance(2, 0, (5,), seed=1).collections[0], 5)]
    pair_lps = 0
    for cfg, r in cases:
        pair_lps += solve_tverberg(cfg, r).stats["pair_lps"]
    assert len(seen) == pair_lps
    # every dual bound lies at or below its pair's gap, and a pair it
    # skips (bound at least the least gap) has a gap at least the least gap
    skips = 0
    for cfg, a, b, best, normals, reached in bounds:
        ints, scale = integer_points(cfg.points)
        gap = geometry.lp_solve_eq([[ints[i] for i in a], [ints[i] for i in b]], scale)[1]
        # recomputed from each normal's projections, with no cached extremes
        each = [([proj[i] for i in a], [proj[i] for i in b], hmax, hmin) for proj, _, hmax, hmin in normals]
        for h in each:
            assert not pair_gap_reaches(*h, scale, gap + bound_step(*h, scale, gap))
        assert reached == any(pair_gap_reaches(*h, scale, best) for h in each)
        if reached:
            skips += 1
            assert gap >= best
    assert skips > 100
    stored = 0
    for a, b, scale, x, gap, normal in seen:
        assert gap == geometry.lp_solve_eq([a, b], scale)[1]
        assert (normal is None) == (gap == 0) == (x is not None)
        if x is not None:
            # the points carrying weight already meet, on at most d + 2 points
            sa, sb = ([p for p, v in zip(piece, num) if v] for piece, num in zip((a, b), x[0]))
            assert len(sa) + len(sb) <= len(a[0]) + 2
            assert geometry.lp_solve_eq([sa, sb], scale)[1] == 0
        if normal is not None:
            stored += 1
            assert max(sum(map(operator.mul, normal, p)) for p in a) < min(
                sum(map(operator.mul, normal, q)) for q in b
            )
    assert stored > 100


def test_every_lp_is_read_by_lp_solve_eq(monkeypatch):
    # full and pair LPs alike reach the kernel through lp_solve_eq, once each
    calls = {"lp_solve_eq": 0, "phase1": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(solver, "lp_solve_eq", counting("lp_solve_eq", geometry.lp_solve_eq))
    monkeypatch.setattr(kernels, "phase1", counting("phase1", kernels.phase1))
    cases = [(tightness_instance(d, 0, (r,), 0).collections[0], r) for d, r in ((2, 4), (4, 3))]
    cfg = random_instance(2, 0, (5,), seed=0).collections[0]
    cases.append((ColoredConfig(dim=2, points=cfg.points[:12], classes=cfg.classes[:3]), 5))
    cases += [(random_instance(3, 0, (3,), seed=s).collections[0], 3) for s in range(5)]
    for cfg, r in cases:
        for name in calls:
            calls[name] = 0
        stats = solve_tverberg(cfg, r).stats
        assert stats["pair_lps"] > 0
        assert calls == {"lp_solve_eq": stats["lps"] + stats["pair_lps"], "phase1": calls["lp_solve_eq"]}


def test_no_lp_tests_run_on_every_pair_before_a_pair_lp():
    # the memo and stored normals try every pair of a partition before
    # any pair LP, and every (0, j) pair's memoised gap or dual bound
    # before a refutation's pair LPs: the same tuples pass the pair
    # tests, and fewer pair LPs run (1,900 and 191 when a pair LP could
    # come first); stored full-LP duals spare 35 and 8 of their full LPs
    reports = [solve_tverberg(random_instance(3, 0, (3,), seed=s).collections[0], 3) for s in range(40)]
    assert all(report.certified for report in reports)
    assert sum(report.stats["lps"] for report in reports) == 117
    assert sum(report.stats["pair_lps"] for report in reports) == 1016
    # eight points in general position in R^3 have no Tverberg 3-partition
    points = random_instance(3, 0, (3,), seed=0).collections[0].points[:8]
    cfg = ColoredConfig(dim=3, points=points, classes=[(i,) for i in range(8)])
    report = solve_tverberg(cfg, 3)
    assert report.status == "infeasible-exhausted"
    assert report.gap == Fraction(77787356454051190, 689811825741856777)
    assert report.stats == {"partitions": 5796, "lps": 12, "pair_lps": 81}


def test_solve_tverberg_segment_case():
    cfg = ColoredConfig(
        dim=1, points=[(0,), (10,), (4,)], classes=[(0,), (1,), (2,)]
    )
    report = solve_tverberg(cfg, 2)
    assert report.certified
    assert report.certificate.point == (Fraction(4),)


def test_solve_tverberg_exhausts_tight_configuration():
    inst = tightness_instance(2, 0, (3,), 0)
    report = solve_tverberg(inst.collections[0], 3)
    assert report.status == "infeasible-exhausted"
    assert report.stats["partitions"] == 486
    assert report.gap > 0


def test_solve_tverberg_refutes_in_one_walk(monkeypatch):
    # duplicate support tuples are decided at their first representative,
    # so a refutation revisits deferred tuples without enumerating again
    calls = []

    def counted(config, r):
        calls.append(r)
        return enumerate_colorful_partitions(config, r)

    monkeypatch.setattr(solver, "enumerate_colorful_partitions", counted)
    report = solve_tverberg(tightness_instance(2, 0, (3,), 0).collections[0], 3)
    assert report.status == "infeasible-exhausted"
    assert calls == [3]
    report = solve_tverberg(tightness_instance(2, 0, (4,), 0).collections[0], 4)
    assert report.status == "infeasible-exhausted"
    assert report.gap == Fraction(1, 3)
    assert report.stats == {"partitions": 98_304, "lps": 26, "pair_lps": 5}


def test_solve_tverberg_holds_no_representative(monkeypatch):
    # the search keys its state by support ids, and a refutation poses a
    # deferred tuple on the first pieces of its supports, so a walked
    # representative lives only until the next one is made
    class Held(tuple):
        live = most = 0

        def __new__(cls, pieces):
            Held.live += 1
            Held.most = max(Held.most, Held.live)
            return super().__new__(cls, pieces)

        def __del__(self):
            Held.live -= 1

    monkeypatch.setattr(
        solver, "enumerate_colorful_partitions",
        lambda config, r: map(Held, enumerate_colorful_partitions(config, r)),
    )
    cfg = random_instance(2, 0, (4,), seed=0).collections[0]
    short = ColoredConfig(dim=2, points=cfg.points[:-1], classes=cfg.classes[:-1])
    cases = [
        (tightness_instance(3, 0, (3,), 0).collections[0], 3, "infeasible-exhausted"),
        (short, 4, "infeasible-exhausted"),
        (random_instance(3, 0, (3,), seed=0).collections[0], 3, "certified"),
    ]
    for cfg, r, status in cases:
        Held.most = Held.live
        assert solve_tverberg(cfg, r).status == status
        assert Held.most <= 2


def test_witness_memo_spares_one_lp_per_decided_pair(monkeypatch):
    # a pair that contains a stored meeting support is decided with no LP;
    # every other decision is unchanged, so each such pair spares exactly
    # one of the 725 pair LPs the search solves without the memo
    cfg = tightness_instance(4, 0, (3,), 0).collections[0]
    decided = []

    def recording(witnesses, ca, cb):
        met = witnessed(witnesses, ca, cb)
        if met:
            decided.append((ca, cb))
        return met

    witnessed = solver._witnessed
    monkeypatch.setattr(solver, "_witnessed", lambda witnesses, ca, cb: False)
    report = solve_tverberg(cfg, 3)
    assert report.stats == {"partitions": 39_366, "lps": 227, "pair_lps": 725}
    monkeypatch.setattr(solver, "_witnessed", recording)
    report = solve_tverberg(cfg, 3)
    assert report.status == "infeasible-exhausted"
    assert report.gap == Fraction(1, 5)
    assert report.stats == {"partitions": 39_366, "lps": 227, "pair_lps": 13}
    assert len(decided) == 725 - 13
    # a piece's hull is the hull of the distinct points its code names
    ints, scale = integer_points(cfg.points)
    for ca, cb in decided:
        assert geometry.lp_solve_eq([support_points(ints, ca), support_points(ints, cb)], scale)[1] == 0


def test_solve_tverberg_no_valid_partition():
    cfg = ColoredConfig(
        dim=1, points=[(0,), (1,), (2,)], classes=[(0, 1, 2)]
    )
    report = solve_tverberg(cfg, 2)
    assert report.status == "no-valid-partition"


@pytest.mark.parametrize("k", [0, 1, 2])
def test_more_pieces_than_points_have_no_partition(k):
    # answered at once, with no walk over the pieces or sum over them
    cfg = ColoredConfig(dim=3, points=[(0, 0, 0), (1, 1, 1)], classes=[(0,), (1,)])
    inst = ProblemInstance(d=3, k=k, rs=(10**30,) * (k + 1), collections=(cfg,) * (k + 1))
    assert count_colorful_partitions(cfg, 10**30) == 0
    assert solve(inst).status == "no-valid-partition"


def test_solve_tverberg_rejects_bad_r():
    cfg = ColoredConfig(dim=1, points=[(0,)], classes=[(0,)])
    with pytest.raises(ValueError):
        solve_tverberg(cfg, 1)


def test_solve_tverberg_deterministic():
    inst = random_instance(2, 0, (3,), [default_profile(2, 0, 3)], seed=42)
    a = solve_tverberg(inst.collections[0], 3)
    b = solve_tverberg(inst.collections[0], 3)
    assert a.certificate == b.certificate
    assert a.stats == b.stats


# ---------------------------------------------------------------------------
# candidate-direction transversal search


def test_transversal_pinned_lines_found_by_snap_directions():
    # the normals through two input points land these pinned-line instances
    hits = 0
    for seed in range(8):
        inst = singleton_transversal_instance(seed)
        report = solve_transversal(inst)
        if report.certified:
            hits += 1
            assert verify_transversal(inst, report.certificate)
            assert report.stats["directions"] >= 1
    assert hits >= 7


def test_transversal_snaps_through_three_points_certify_planes_in_space():
    # these planes pass through one input point of every collection, a
    # pinned direction: the normal through three input points
    for seed in (0, 1):
        inst = random_instance(3, 2, (2, 2, 2), seed=seed)
        report = solve_transversal(inst)
        assert report.certified
        assert report.stats["directions"] >= 1
        assert verify_transversal(inst, report.certificate)


def test_planar_snaps_match_the_pair_formula():
    cohort = [singleton_transversal_instance(seed) for seed in range(12)]
    tight = [tightness_instance(2, 1, (2, 2), ell) for ell in (0, 1)]
    for inst in cohort + tight:
        assert list(solver._candidate_quotients(inst)) == pair_snap_quotients(inst)


def test_transversal_open_solution_set_via_snaps():
    inst = crossing_instance()
    report = solve_transversal(inst)
    assert report.certified
    assert verify_transversal(inst, report.certificate)


def test_transversal_lines_in_space_certify_on_candidate_flats():
    # d=3 k=1: lines through one input point that meet two segments, or
    # through two input points
    for seed in range(7):
        inst = random_instance(3, 1, (2, 2), seed=seed)
        report = solve(inst)
        assert report.certified
        assert verify_transversal(inst, report.certificate)


def test_transversal_irrational_line_exhausts_the_candidates():
    # seed 7's only transversal line is irrational, so no rational
    # candidate direction can certify it
    inst = random_instance(3, 1, (2, 2), seed=7)
    report = solve_transversal(inst)
    assert report.status == "budget-exhausted"
    assert report.gap > 0
    assert report.stats["directions"] == 868


def test_transversal_candidate_cap(monkeypatch):
    monkeypatch.setattr(solver, "_SNAP_CAP", 5)
    report = solve_transversal(random_instance(3, 1, (2, 2), seed=7))
    assert report.status == "budget-exhausted"
    assert report.stats["directions"] == 5


def test_transversal_budget_exhausted_on_tight_configuration():
    # one point short of extremal, so no line meets a piece hull of each
    # partition slot, and the scan tries all 528 candidates
    for ell in (0, 1):
        inst = tightness_instance(3, 1, (2, 2), ell)
        report = solve_transversal(inst)
        assert report.status == "budget-exhausted"
        assert report.gap is not None and report.gap > 0
        assert report.stats["directions"] == 528


def test_transversal_kept_duals_spare_lps_on_named_seeds(monkeypatch):
    # Farkas duals kept across directions skip LPs they prove missed;
    # with none kept (`_DUALS` = 0) only the projected-interval rule
    # spares LPs: tuples whose intervals miss on a row are deferred, and
    # on a line prefilter tuples whose intervals meet survive.  Missed
    # directions are measured only once every direction has missed, so
    # the certifying scans run no revisit LP (on the line, only the hit's
    # LP), while the tightness file's revisits, each against the least
    # gap of the directions before it, fill the duals in scan order
    cases = [
        (random_instance(2, 1, (3, 3), seed=0), 1, 1),
        (random_instance(3, 1, (2, 2), seed=1), 238, 388),
        (tightness_instance(3, 1, (2, 2), 0), 1258, 3890),
    ]
    for inst, kept, without in cases:
        report = solve_transversal(inst)
        monkeypatch.setattr(solver, "_DUALS", 0)
        plain = solve_transversal(inst)
        monkeypatch.undo()
        assert (report.stats["lps"], plain.stats["lps"]) == (kept, without)
        assert (report.status, report.gap, report.certificate) == (plain.status, plain.gap, plain.certificate)
        assert report.stats["directions"] == plain.stats["directions"]


def test_certifying_line_scan_solves_only_its_hit(monkeypatch):
    # on a line (d-k = 1) intervals decide every prefilter tuple and the
    # joint tuples whose intervals miss, so the first joint LP is the
    # hit, and no missed direction is ever revisited
    def no_revisit(*args):
        raise AssertionError("a certifying scan revisited a missed direction")

    monkeypatch.setattr(solver, "_least_deferred", no_revisit)
    cases = [random_instance(2, 1, (2, 2), [(1, 1, 1), (1, 1, 1)], seed=s) for s in range(12)]
    cases += [random_instance(2, 1, (3, 3), seed=s) for s in range(3)]
    cases += [random_instance(3, 2, (2, 2, 2), seed=s) for s in range(2)]
    for inst in cases:
        report = solve_transversal(inst)
        assert report.certified
        assert report.stats["lps"] == 1
        assert verify_transversal(inst, report.certificate)


def test_missed_direction_record_holds_only_small_values(monkeypatch):
    # a missed direction's record keeps bit masks and least gaps, never
    # the pieces it deferred: its rows, then only ints, Fractions, and
    # None where no LP missed
    records = []
    revisit = solver._revisit

    def recording(record, *args):
        records.append(record)
        return revisit(record, *args)

    monkeypatch.setattr(solver, "_revisit", recording)

    def leaves(value):
        if isinstance(value, tuple):
            for item in value:
                yield from leaves(item)
        else:
            yield value

    kinds = set()
    for inst in (tightness_instance(2, 1, (3, 3), 0), tightness_instance(3, 1, (2, 2), 0)):
        records.clear()
        rows = list(solver._candidate_quotients(inst))
        report = solve_transversal(inst)
        assert report.status == "budget-exhausted"
        assert [record[0] for record in records] == rows
        # both kinds: some collection with no survivor, and a joint miss
        assert {all(record[1]) for record in records} == {False, True}
        kinds |= {type(v) for record in records for v in leaves(record[1:])}
    assert kinds == {int, Fraction, type(None)}


def test_transversal_deterministic():
    inst = tightness_instance(2, 1, (2, 2), 0)
    a = solve_transversal(inst)
    b = solve_transversal(inst)
    assert (a.status, a.gap, a.stats) == (b.status, b.gap, b.stats)


def test_transversal_whole_space_plane():
    c0 = ColoredConfig(dim=1, points=[(0,), (1,)], classes=[(0,), (1,)])
    c1 = ColoredConfig(dim=1, points=[(5,), (9,)], classes=[(0,), (1,)])
    inst = ProblemInstance(d=1, k=1, rs=(2, 2), collections=(c0, c1))
    report = solve_transversal(inst)
    assert report.certified
    cert = report.certificate
    assert cert.plane.dim == 1
    assert verify_transversal(inst, cert)


def test_transversal_scans_lines_inside_the_plane_of_coplanar_points():
    # every three of these points span only their plane, so no two
    # distinct normals of R^3 pass through one base point; the candidates
    # pair the plane's normal with the normals, inside it, through two points
    inst = coplanar_line_instance()
    assert validate(inst).all_ok
    quotients = list(solver._candidate_quotients(inst))
    assert quotients and all(rows[0] == [0, 0, 1] and rows[1][2] == 0 for rows in quotients)
    report = solve_transversal(inst)
    assert report.certified
    assert verify_transversal(inst, report.certificate)
    assert (report.stats["directions"], report.stats["lps"]) == (1, 11)


@pytest.mark.parametrize("k", [1, 2])
def test_transversal_on_collinear_points_is_the_one_plane_holding_them(k):
    # points on one line: a k-plane holding the line meets every hull, and
    # it is the only candidate
    line = [(t, 2 * t, -t) for t in range(6)]
    inst = singleton_classes_instance(3, k, *[line[i:i + 3] for i in range(k + 1)])
    assert list(solver._candidate_quotients(inst)) == [[[2, -1, 0], [1, 0, 1]][:3 - k]]
    report = solve_transversal(inst)
    assert report.certified
    assert report.stats["directions"] == 1
    assert verify_transversal(inst, report.certificate)
    assert all(map(report.certificate.plane.contains, line))


def test_transversal_k0_matches_exhaustive():
    inst = random_instance(2, 0, (3,), [default_profile(2, 0, 3)], seed=9)
    cfg = inst.collections[0]
    sampled = solve_transversal(inst)
    exhaustive = solve_tverberg(cfg, 3)
    assert sampled.certified and exhaustive.certified
    cert = sampled.certificate
    assert cert.plane.dim == 0
    assert verify_transversal(inst, cert)


def test_transversal_no_valid_partition():
    cfg = ColoredConfig(dim=2, points=[(0, 0), (1, 0), (0, 1)], classes=[(0, 1, 2)])
    inst = ProblemInstance(d=2, k=0, rs=(2,), collections=(cfg,))
    report = solve_transversal(inst)
    assert report.status == "no-valid-partition"


# ---------------------------------------------------------------------------
# complete hyperplane search


def test_hyperplane_certifies_singleton_instances():
    for seed in range(5):
        inst = singleton_transversal_instance(seed)
        report = solve_hyperplane_transversal_exact(inst)
        assert report.certified
        assert verify_transversal(inst, report.certificate)


def test_hyperplane_refutes_tight_configuration():
    inst = tightness_instance(2, 1, (2, 2), 0)
    report = solve_hyperplane_transversal_exact(inst)
    assert report.status == "infeasible-exhausted"
    assert report.gap > 0


def test_hyperplane_agrees_with_sampling():
    inst = singleton_transversal_instance(21)
    sampled = solve_transversal(inst)
    exact = solve_hyperplane_transversal_exact(inst)
    assert exact.certified
    # the candidate scan may or may not land a certificate, but must never claim
    # one on an instance the complete search refutes
    if sampled.certified:
        assert verify_transversal(inst, sampled.certificate)


def test_hyperplane_requires_codimension_one():
    inst = random_instance(2, 0, (3,), [default_profile(2, 0, 3)], seed=0)
    with pytest.raises(PreconditionError):
        solve_hyperplane_transversal_exact(inst)


def test_hyperplane_choice_cap(monkeypatch):
    # the cap is read when the search runs, so assigning the constant reaches it
    inst = singleton_transversal_instance(3)
    monkeypatch.setattr(solver, "CHOICE_CAP", 10)
    with pytest.raises(CapExceeded, match="cap is 10"):
        solve_hyperplane_transversal_exact(inst)


def test_hyperplane_cap_fires_before_enumerating(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("partitions enumerated before the cap was read")

    monkeypatch.setattr(solver, "enumerate_colorful_partitions", no_enumeration)
    points = [(i, i * i) for i in range(10)]
    collection = ColoredConfig(dim=2, points=points, classes=[(i,) for i in range(10)])
    inst = ProblemInstance(d=2, k=1, rs=(5, 5), collections=(collection, collection))
    # C(20, 2) candidate planes times 42,525 representatives per collection
    with pytest.raises(CapExceeded, match="needs 16159500 plane checks"):
        solve_hyperplane_transversal_exact(inst)
    # a collection with no partition at all is reported before the cap
    one_class = ColoredConfig(dim=2, points=points[:3], classes=[(0, 1, 2)])
    inst = ProblemInstance(d=2, k=1, rs=(5, 2), collections=(collection, one_class))
    monkeypatch.setattr(solver, "CHOICE_CAP", 0)
    report = solve_hyperplane_transversal_exact(inst)
    assert report.status == "no-valid-partition"


def test_hyperplane_refutes_three_piece_tightness():
    inst = tightness_instance(2, 1, (3, 3), 0)
    report = solve_hyperplane_transversal_exact(inst)
    assert report.status == "infeasible-exhausted"
    assert report.stats["combos"] == 8100
    assert report.gap > 0


@pytest.mark.parametrize("seed", range(6))
def test_hyperplane_certifies_three_piece_instances(seed):
    inst = random_instance(2, 1, (3, 3), seed=seed)
    report = solve_hyperplane_transversal_exact(inst)
    assert report.certified
    assert verify_transversal(inst, report.certificate)


@pytest.mark.parametrize("d", (2, 3))
def test_hyperplane_through_points_that_do_not_span(d):
    # every point on one line: the one candidate plane holds them all
    def on_line(t):
        return (t, 2 * t + 1, -t)[:d]

    classes = [(0,), (1,), (2,)]
    collections = tuple(
        ColoredConfig(dim=d, points=[on_line(3 * ell + i) for i in range(3)], classes=classes)
        for ell in range(d)
    )
    inst = ProblemInstance(d=d, k=d - 1, rs=(2,) * d, collections=collections)
    report = solve_hyperplane_transversal_exact(inst)
    assert report.certified
    assert report.stats["planes"] == 1
    assert verify_transversal(inst, report.certificate)
    assert all(report.certificate.plane.contains(p) for cfg in collections for p in cfg.points)


def moved(inst, a=Fraction(9, 7), b=Fraction(-5, 3)):
    """The instance under x -> a x + b in every coordinate."""
    return dataclasses.replace(
        inst,
        collections=tuple(
            dataclasses.replace(cfg, points=[tuple(a * c + b for c in p) for p in cfg.points])
            for cfg in inst.collections
        ),
    )


def test_hyperplane_scan_on_rational_points():
    # the scan works on the points times one integer scale; a homothety
    # with fractional coefficients must move planes and gaps along with it
    instances = [tightness_instance(2, 1, rs, 0) for rs in ((2, 2), (3, 3))]
    instances += [singleton_transversal_instance(seed) for seed in range(6)]
    instances += [random_instance(2, 1, (3, 3), seed=seed) for seed in range(2)]
    instances += [random_instance(3, 2, (2, 2, 2), seed=seed) for seed in range(2)]
    statuses = set()
    for inst in instances:
        report = solve_hyperplane_transversal_exact(inst)
        inst2 = moved(inst)
        report2 = solve_hyperplane_transversal_exact(inst2)
        statuses.add(report.status)
        assert report2.status == report.status
        assert report2.stats == report.stats
        assert report2.gap == Fraction(9, 7) * report.gap
        if report.certified:
            assert report2.certificate.partitions == report.certificate.partitions
            assert verify_transversal(inst2, report2.certificate)
    assert statuses == {"certified", "infeasible-exhausted"}


def test_hyperplane_search_solves_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("the complete hyperplane search solved an LP")

    monkeypatch.setattr(geometry, "lp_solve_eq", no_lp)
    monkeypatch.setattr(solver, "lp_solve_eq", no_lp)
    monkeypatch.setattr(kernels, "phase1", no_lp)
    for seed in range(12):
        inst = singleton_transversal_instance(seed)
        report = solve_hyperplane_transversal_exact(inst)
        assert report.certified
        assert verify_transversal(inst, report.certificate)
    refuted = solve_hyperplane_transversal_exact(tightness_instance(2, 1, (2, 2), 0))
    assert refuted.status == "infeasible-exhausted"


# ---------------------------------------------------------------------------
# verification of tampered certificates


def good_cert():
    inst = singleton_transversal_instance(2)
    report = solve_hyperplane_transversal_exact(inst)
    assert report.certified
    return inst, report.certificate


def test_verify_rejects_shifted_plane():
    inst, cert = good_cert()
    shifted = KPlane(
        base=tuple(b + 1 for b in cert.plane.base),
        directions=cert.plane.directions,
    )
    bad = dataclasses.replace(cert, plane=shifted)
    verdict = verify_transversal(inst, bad)
    assert not verdict and verdict.reason == "witness-off-plane"


def test_verify_rejects_wrong_plane_dim():
    inst, cert = good_cert()
    bad = dataclasses.replace(
        cert, plane=KPlane(base=cert.plane.base, directions=())
    )
    assert verify_transversal(inst, bad).reason == "bad-plane"


def test_verify_rejects_bad_weights():
    inst, cert = good_cert()
    ws = [list(map(list, col)) for col in cert.weights]
    ws[0][0][0] += 1
    bad = dataclasses.replace(
        cert, weights=tuple(tuple(tuple(w) for w in col) for col in ws)
    )
    assert verify_transversal(inst, bad).reason in ("weight-sum", "point-mismatch")


def test_verify_rejects_negative_weight():
    inst, cert = good_cert()
    ws = [list(map(list, col)) for col in cert.weights]
    target = None
    for ci, col in enumerate(ws):
        for pi, w in enumerate(col):
            if len(w) >= 2:
                target = (ci, pi)
    if target is None:
        pytest.skip("certificate has only singleton pieces")
    ci, pi = target
    ws[ci][pi][0] += 1
    ws[ci][pi][1] -= 1
    if all(v >= 0 for v in ws[ci][pi]):
        ws[ci][pi][0] += 3
        ws[ci][pi][1] -= 3
    bad = dataclasses.replace(
        cert, weights=tuple(tuple(tuple(w) for w in col) for col in ws)
    )
    assert verify_transversal(inst, bad).reason in ("negative-weight", "point-mismatch")


def test_verify_rejects_moved_witness():
    inst, cert = good_cert()
    pts = [list(col) for col in cert.witness_points]
    moved = tuple(c + 1 for c in pts[0][0])
    pts[0] = [moved] + pts[0][1:]
    bad = dataclasses.replace(cert, witness_points=tuple(tuple(c) for c in pts))
    assert verify_transversal(inst, bad).reason == "point-mismatch"


def test_verify_rejects_invalid_partition():
    inst, cert = good_cert()
    parts = list(cert.partitions)
    merged = PartitionTuple((tuple(range(inst.collections[0].size)), ()))
    parts[0] = merged
    bad = dataclasses.replace(cert, partitions=tuple(parts))
    verdict = verify_transversal(inst, bad)
    assert verdict.reason in ("bad-partition", "empty-piece", "shape-mismatch")


def test_verify_rejects_non_certificate():
    inst, cert = good_cert()
    assert verify_transversal(inst, object()).reason == "malformed"
    for plane in (None, (0, 0), "plane"):  # a certificate whose plane is no KPlane
        assert verify_transversal(inst, dataclasses.replace(cert, plane=plane)).reason == "malformed"


def good_tverberg_cert():
    inst = random_instance(2, 0, (3,), seed=3)
    report = solve_tverberg(inst.collections[0], 3)
    assert report.certified
    return inst.collections[0], report.certificate


def test_verify_tverberg_accepts_and_rejects():
    replace = dataclasses.replace
    cfg, cert = good_tverberg_cert()
    assert verify_tverberg(cfg, 3, cert)
    moved = replace(cert, point=tuple(c + 1 for c in cert.point))
    assert verify_tverberg(cfg, 3, moved).reason == "point-mismatch"
    w = [list(piece) for piece in cert.weights]
    w[0][0] += Fraction(1, 7)
    assert verify_tverberg(cfg, 3, replace(cert, weights=tuple(tuple(p) for p in w)))\
        .reason == "weight-sum"
    assert verify_tverberg(cfg, 3, object()).reason == "malformed"
    assert verify_tverberg(cfg, 2, cert).reason == "bad-partition"


def test_verify_rejects_a_piece_with_two_points_of_one_class():
    # points 0 and 1 (at 0 and 2) share a class, so piece (0, 1) is not
    # colorful, though each piece's weights combine its points into 1
    cfg = ColoredConfig(dim=1, points=[(0,), (2,), (1,), (1,)], classes=[(0, 1), (2,), (3,)])
    partition = PartitionTuple(((0, 1), (2, 3)))
    half = Fraction(1, 2)
    weights = ((half, half), (half, half))
    point = (Fraction(1),)
    assert verify_tverberg(cfg, 2, TverbergCertificate(point, partition, weights)).reason == "bad-partition"
    inst = ProblemInstance(d=1, k=0, rs=(2,), collections=(cfg,))
    cert = TransversalCertificate(KPlane(base=point, directions=()), (partition,), (weights,), ((point, point),))
    assert verify_transversal(inst, cert).reason == "bad-partition"


# ---------------------------------------------------------------------------
# lift and restrict round trip


def test_lift_solve_restrict_round_trip():
    for seed in range(4):
        base = random_instance(1, 0, (2,), [default_profile(1, 0, 2)], seed=seed)
        lifted = lift_instance(base)
        report = solve_hyperplane_transversal_exact(lifted)
        assert report.certified
        assert verify_transversal(lifted, report.certificate)
        low = restrict_solution(lifted, report.certificate)
        assert isinstance(low, TverbergCertificate)
        cfg = base.collections[0]
        pieces = [[cfg.points[i] for i in piece] for piece in low.partition.pieces]
        witness = CommonPointWitness(point=low.point, weights=low.weights)
        assert verify_common_point_witness(pieces, witness)


def test_restrict_parallel_plane_degenerate():
    base = random_instance(1, 0, (2,), [default_profile(1, 0, 2)], seed=0)
    lifted = lift_instance(base)
    report = solve_hyperplane_transversal_exact(lifted)
    cert = report.certificate
    parallel = dataclasses.replace(
        cert, plane=KPlane(base=(0, 1), directions=((1, 0),))
    )
    with pytest.raises(DegenerateIntersection, match="misses"):
        restrict_solution(lifted, parallel)
    inside = dataclasses.replace(
        cert, plane=KPlane(base=(0, 0), directions=((1, 0),))
    )
    with pytest.raises(DegenerateIntersection, match="inside"):
        restrict_solution(lifted, inside)


def test_restrict_rejects_off_hyperplane_witness():
    base = random_instance(1, 0, (2,), [default_profile(1, 0, 2)], seed=1)
    lifted = lift_instance(base)
    cert = solve_hyperplane_transversal_exact(lifted).certificate
    pts = [list(col) for col in cert.witness_points]
    pts[0][0] = tuple(list(pts[0][0][:-1]) + [Fraction(1)])
    bad = dataclasses.replace(cert, witness_points=tuple(tuple(c) for c in pts))
    with pytest.raises(PreconditionError):
        restrict_solution(lifted, bad)


def test_restrict_requires_transversal_certificate():
    base = random_instance(1, 0, (2,), [default_profile(1, 0, 2)], seed=1)
    lifted = lift_instance(base)
    with pytest.raises(PreconditionError):
        restrict_solution(lifted, object())


def test_restrict_keeps_higher_k_planes():
    # a hand-built valid certificate: every point sits on the 2-plane
    # {x = 0} in R^3, so cutting with {z = 0} must leave a line
    c0 = ColoredConfig(dim=3, points=[(0, 0, 0), (0, 2, 0)], classes=[(0,), (1,)])
    c1 = ColoredConfig(dim=3, points=[(0, 1, 0), (0, 3, 0)], classes=[(0,), (1,)])
    c2 = ColoredConfig(dim=3, points=[(0, 0, 1), (0, 2, 1)], classes=[(0,), (1,)])
    inst = ProblemInstance(d=3, k=2, rs=(2, 2, 2), collections=(c0, c1, c2))
    plane = KPlane(base=(0, 0, 0), directions=((0, 1, 0), (0, 0, 1)))
    one = Fraction(1)
    cert = TransversalCertificate(
        plane=plane,
        partitions=tuple(PartitionTuple(((0,), (1,))) for _ in range(3)),
        weights=(((one,), (one,)),) * 3,
        witness_points=tuple(
            tuple(cfg.points[i] for i in (0, 1)) for cfg in (c0, c1, c2)
        ),
    )
    assert verify_transversal(inst, cert)
    low = restrict_solution(inst, cert)
    assert isinstance(low, TransversalCertificate)
    assert low.plane.ambient_dim == 2
    assert low.plane.dim == 1
    assert len(low.partitions) == 2
    for col in low.witness_points:
        for x in col:
            assert low.plane.contains(x)


# ---------------------------------------------------------------------------
# dispatch


@pytest.mark.parametrize(
    "inst, direct",
    [
        (
            random_instance(2, 0, (3,), seed=4),
            lambda inst: solve_tverberg(inst.collections[0], inst.rs[0]),
        ),
        (singleton_transversal_instance(2), solve_hyperplane_transversal_exact),
        (random_instance(3, 1, (2, 2), seed=0), solve_transversal),
        (random_instance(2, 2, (2, 2, 2), seed=3), solve_transversal),
    ],
    ids=["k=0", "k=d-1", "0<k<d-1", "k=d"],
)
def test_solve_picks_the_search_from_k(inst, direct):
    report = solve(inst)
    expected = direct(inst)
    assert report.status == expected.status
    assert report.gap == expected.gap
    assert report.stats == expected.stats
    assert report.certificate == expected.certificate


def test_transversal_ignores_the_search_budget():
    inst = random_instance(3, 2, (2, 2, 2), seed=0)
    a = solve_transversal(inst, SearchBudget(samples=16, refinement_depth=1, seed=0))
    b = solve_transversal(inst)
    assert (a.status, a.certificate, a.stats) == (b.status, b.certificate, b.stats)


@pytest.mark.parametrize("field", ["samples", "refinement_depth", "seed"])
def test_search_budget_rejects_negative_values(field):
    assert getattr(SearchBudget(**{field: 0}), field) == 0
    with pytest.raises(ValueError, match=field):
        SearchBudget(**{field: -1})


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_extremal_tverberg_all_certified():
    report = sweep(2, 0, (3,), [default_profile(2, 0, 3)], trials=5, seed=100)
    assert report.counts == {"certified": 5}
    assert report.certified == 5
    assert [o.seed for o in report.outcomes] == [100, 101, 102, 103, 104]


def test_sweep_exact_hyperplane_method():
    profiles = [(1, 1, 1), (1, 1, 1)]
    report = sweep(2, 1, (2, 2), profiles, trials=3, seed=7)
    assert report.counts.get("certified", 0) == 3
    for o in report.outcomes:
        inst = random_instance(2, 1, (2, 2), profiles, seed=o.seed)
        assert o.status == solve_hyperplane_transversal_exact(inst).status


def test_sweep_flags_beyond_theorem():
    # four pieces: the piece count is not prime, so the guarantee is off
    report = sweep(1, 0, (4,), [(3, 3, 1)], trials=1, seed=0)
    (label,) = report.counts
    assert label.endswith("-beyond-theorem")
