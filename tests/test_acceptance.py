"""Acceptance gate: eight checklist criteria, one printed line each.

Every test prints a single PASS/FAIL line outside pytest's capture, so a
full run reads as a checklist.  Expected values are exact and frozen
(goldens were computed once with independent oracles); the time limits
are asserted, not advisory.
"""

import random
import time
from fractions import Fraction
from math import factorial

import pytest

from oracles import caratheodory_feasible, lift_instance, restrict_solution, verify_common_point_witness
from tverlab.geometry import common_point_gap
from tverlab.model import random_instance, tightness_instance
from tverlab.solver import (
    TverbergCertificate,
    solve_hyperplane_transversal_exact,
    solve_transversal,
    solve_tverberg,
    verify_transversal,
    verify_tverberg,
)
from tverlab import topology as tp
from tverlab.topology import (
    chessboard_complex,
    homology_mod_p,
    is_pseudo_manifold,
    orient,
)


def _announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


# ---------------------------------------------------------------------------
# shared cohort: criteria 6 and 8 run on the same 50 seeded instances


@pytest.fixture(scope="module")
def transversal_cohort():
    start = time.perf_counter()
    instances = [
        random_instance(2, 1, (2, 2), [(1, 1, 1), (1, 1, 1)], seed=seed)
        for seed in range(50)
    ]
    reports = [solve_transversal(inst) for inst in instances]
    elapsed = time.perf_counter() - start
    return instances, reports, elapsed


def test_criterion_1_degree_magnitudes(capsys):
    start = time.perf_counter()
    failures = []
    for r, d in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        report = tp.test_map_degree(r, d)
        if abs(report.degree) != factorial(r - 1) ** (d + 1):
            failures.append((r, d, "magnitude"))
        if not report.residue_is_plus_minus_one:
            failures.append((r, d, "residue"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60
    _announce(
        capsys, 1, ok, f"5/5 (r,d) pairs exact, {elapsed:.1f}s (limit 60s)"
        if ok
        else f"failures={failures}, {elapsed:.1f}s",
    )
    assert not failures
    assert elapsed < 60


def test_criterion_2_pseudo_manifold_orientable(capsys):
    start = time.perf_counter()
    failures = []
    for r in (2, 3, 4, 5):
        complex_ = chessboard_complex(r, r - 1)
        if not is_pseudo_manifold(complex_).ok:
            failures.append((r, "pseudo-manifold"))
        elif orient(complex_) is None:
            failures.append((r, "orientation"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30
    _announce(
        capsys, 2, ok,
        f"boards r=2..5 all orientable pseudo-manifolds, {elapsed:.1f}s (limit 30s)"
        if ok
        else f"failures={failures}, {elapsed:.1f}s",
    )
    assert not failures
    assert elapsed < 30


def test_criterion_3_homology_goldens(capsys):
    start = time.perf_counter()
    failures = []
    cases = (
        (3, 2, (1, 1)),
        (4, 3, (1, 2, 1)),
    )
    for rows, cols, expected in cases:
        complex_ = chessboard_complex(rows, cols)
        for p in (2, 3):
            betti = homology_mod_p(complex_, p)
            if betti != expected:
                failures.append((rows, cols, p, betti))
            euler = sum((-1) ** i * b for i, b in enumerate(betti))
            if euler != complex_.euler_characteristic():
                failures.append((rows, cols, p, "euler"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30
    _announce(
        capsys, 3, ok,
        f"betti goldens and euler agree at p=2,3, {elapsed:.1f}s (limit 30s)"
        if ok
        else f"failures={failures}, {elapsed:.1f}s",
    )
    assert not failures
    assert elapsed < 30


def test_criterion_4_desk_scale_partition_sweep(capsys):
    start = time.perf_counter()
    wins = 0
    max_lps = 0
    for seed in range(100):
        inst = random_instance(2, 0, (3,), [(2, 2, 2, 1)], seed=seed)
        config = inst.collections[0]
        report = solve_tverberg(config, 3)
        # full and piece-pair LPs both count against the cap
        max_lps = max(max_lps, report.stats["lps"] + report.stats["pair_lps"])
        if report.certified and verify_tverberg(config, 3, report.certificate):
            wins += 1
    elapsed = time.perf_counter() - start
    ok = wins == 100 and max_lps <= 648 and elapsed < 300
    _announce(
        capsys, 4, ok,
        f"{wins}/100 certified, max {max_lps} LPs/trial (cap 648), "
        f"{elapsed:.1f}s (limit 300s)",
    )
    assert wins == 100
    assert max_lps <= 648
    assert elapsed < 300


def test_criterion_5_tightness_instances_refuted(capsys):
    start = time.perf_counter()
    flat = tightness_instance(2, 0, (3,), 0)
    report0 = solve_tverberg(flat.collections[0], 3)
    line = tightness_instance(2, 1, (2, 2), 0)
    report1 = solve_hyperplane_transversal_exact(line)
    elapsed = time.perf_counter() - start
    ok = (
        report0.status == "infeasible-exhausted"
        and report1.status == "infeasible-exhausted"
        and elapsed < 60
    )
    _announce(
        capsys, 5, ok,
        f"k=0 refuted over {report0.stats['partitions']} tuples, "
        f"k=1 refuted by complete solver, {elapsed:.1f}s (limit 60s)",
    )
    assert report0.status == "infeasible-exhausted"
    assert report1.status == "infeasible-exhausted"
    assert elapsed < 60


def test_criterion_6_transversal_existence(capsys, transversal_cohort):
    instances, reports, elapsed = transversal_cohort
    wins = 0
    for inst, report in zip(instances, reports):
        if report.certified and verify_transversal(inst, report.certificate):
            wins += 1
    ok = wins >= 45 and elapsed < 600
    _announce(
        capsys, 6, ok,
        f"{wins}/50 certified and verified (bar 45), {elapsed:.1f}s (limit 600s)",
    )
    assert wins >= 45
    assert elapsed < 600


def test_criterion_7_lift_restrict_round_trip(capsys):
    start = time.perf_counter()
    wins = 0
    for seed in range(20):
        low = random_instance(1, 0, (2,), seed=seed)
        lifted = lift_instance(low)
        report = solve_hyperplane_transversal_exact(lifted)
        if not report.certified:
            continue
        cut = restrict_solution(lifted, report.certificate)
        if isinstance(cut, TverbergCertificate) and verify_tverberg(
            low.collections[0], 2, cut
        ):
            wins += 1
    elapsed = time.perf_counter() - start
    ok = wins == 20 and elapsed < 120
    _announce(
        capsys, 7, ok,
        f"{wins}/20 lift-solve-restrict round trips verified, "
        f"{elapsed:.1f}s (limit 120s)",
    )
    assert wins == 20
    assert elapsed < 120


def _random_piece_system(rng):
    d = rng.randint(1, 3)
    n_pieces = rng.randint(1, 3)
    budget = 8
    pieces = []
    for j in range(n_pieces):
        remaining = n_pieces - j - 1
        size = rng.randint(1, max(1, min(4, budget - remaining)))
        budget -= size
        pieces.append(
            [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(size)]
        )
    return pieces


def test_criterion_8_oracle_equivalences(capsys, transversal_cohort):
    rng = random.Random(0)
    lp_disagreements = 0
    bad_witnesses = 0
    for _ in range(500):
        pieces = _random_piece_system(rng)
        witness = common_point_gap(pieces)[0]
        if witness is not None and not verify_common_point_witness(pieces, witness):
            bad_witnesses += 1
        if (witness is not None) != caratheodory_feasible(pieces):
            lp_disagreements += 1

    instances, sampled_reports, _ = transversal_cohort
    solver_contradictions = 0
    for inst, sampled in zip(instances, sampled_reports):
        exact = solve_hyperplane_transversal_exact(inst)
        # the sampler can only under-report: a certificate must imply exact
        # feasibility, and an exact refutation forbids a sampled certificate
        if sampled.certified and not exact.certified:
            solver_contradictions += 1
        if exact.status == "infeasible-exhausted" and sampled.certified:
            solver_contradictions += 1

    ok = lp_disagreements == 0 and bad_witnesses == 0 and solver_contradictions == 0
    _announce(
        capsys, 8, ok,
        f"500/500 LP-vs-support-enumeration agreements, "
        f"{len(instances)}/{len(instances)} sampled-vs-exact consistent "
        f"(zero tolerance)"
        if ok
        else f"lp_disagreements={lp_disagreements}, bad_witnesses={bad_witnesses}, "
        f"solver_contradictions={solver_contradictions}",
    )
    assert lp_disagreements == 0
    assert bad_witnesses == 0
    assert solver_contradictions == 0
