"""Seeded inputs and the fixed round of operations for each workload.

A round is a fixed list of operations; a run repeats whole rounds, so
every run attempts the same mix and the share of failed operations never
depends on the seed or on the run length.

Inputs come from the seed in two ways.  Where the amount of search is a
property of the point set alone (exhaustive refutations over all
partitions), the seed draws the points.  Where a search stops at its
first hit, the number of LPs it solves varies several-fold between
random instances, so a seeded draw of a few dozen instances would move
the figures more than any bound worth keeping.  Those pools are fixed,
and the seed applies a homothety x -> (p/q) x + t to every point: each
solver here enumerates in index order and every LP's feasibility is
invariant under a positive homothety, so the search visits the same
partitions and directions while the program computes with different
numbers.  The d=3 k=2 instances, which the sampled solver fails on, are
not transformed at all.
"""
from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

import checks

WORKLOADS = ("partition", "transversal", "topology")

PARTITION_POOL = 40  # extremal d=3 r=3 instances certified per round
SAMPLED_POOL = 3  # d=2 k=1 rs=(3,3) instances for the sampled solver
LINE_COHORT = 12  # d=2 k=1 rs=(2,2) instances for both transversal solvers
K2_SEEDS = (0, 1)  # fixed d=3 k=2 rs=(2,2,2) instances


@dataclass
class Op:
    """One timed call into tverlab and the check of what it returned.

    check(outcome) gives None when the answer is right and a reason
    otherwise.  known_fault marks the d=3 k=2 sampled searches: when
    they end budget-exhausted the operation counts as failed, not as a
    wrong answer.
    """

    kind: str
    label: str
    run: Callable
    check: Callable
    known_fault: bool = False


def load():
    """Import the package; returns the modules the operations call through.

    Operations look functions up on these modules at call time, so the
    traced run's wrappers are the ones called.
    """
    import tverlab.model
    import tverlab.serialize
    import tverlab.solver
    import tverlab.topology

    return SimpleNamespace(
        model=tverlab.model,
        serialize=tverlab.serialize,
        solver=tverlab.solver,
        topology=tverlab.topology,
    )


# ---------------------------------------------------------------------------
# seeded inputs


def _homothety(rng):
    # a fixed denominator and numerators of one bit length keep the cost
    # of the arithmetic alike across seeds
    return Fraction(rng.randint(8, 13), 7), rng.randint(-500, 500)


def _moved(tv, instance, scale, shift):
    cols = [
        tv.model.ColoredConfig(
            dim=cfg.dim,
            points=tuple(tuple(scale * c + shift for c in pt) for pt in cfg.points),
            classes=cfg.classes,
        )
        for cfg in instance.collections
    ]
    return tv.model.ProblemInstance(
        d=instance.d, k=instance.k, rs=instance.rs, collections=tuple(cols)
    )


def _plain(config):
    return (config.points, config.classes)


# ---------------------------------------------------------------------------
# operations: each returns a plain outcome dict


def _round_trip(tv, cert):
    """Canonical JSON out and back, as `--out --verify` does."""
    ser = tv.serialize
    blob = ser.canonical_bytes(ser.certificate_to_json(cert))
    return ser.certificate_from_json(json.loads(blob))


def _tverberg_op(tv, config, r):
    report = tv.solver.solve_tverberg(config, r)
    out = {"status": report.status, "stats": dict(report.stats)}
    if report.certified:
        cert = _round_trip(tv, report.certificate)
        out["same"] = cert == report.certificate
        out["verdict"] = bool(tv.solver.verify_tverberg(config, r, cert))
        out["cert"] = cert
    return out


def _transversal_op(tv, instance, exact, budget=None):
    solver = tv.solver
    if exact:
        report = solver.solve_hyperplane_transversal_exact(instance)
    else:
        report = solver.solve_transversal(instance, budget)
    out = {"status": report.status, "stats": dict(report.stats)}
    if report.certified:
        cert = _round_trip(tv, report.certificate)
        out["same"] = cert == report.certificate
        out["verdict"] = bool(solver.verify_transversal(instance, cert))
        out["cert"] = cert
    return out


def _check_tverberg_cert(points, classes, r):
    def check(out):
        if out["status"] != "certified":
            return f"status {out['status']}"
        if not (out["same"] and out["verdict"]):
            return "round trip or program verify failed"
        c = out["cert"]
        return checks.tverberg_problem(points, classes, r, c.partition.pieces, c.weights, c.point)

    return check


def _check_transversal_cert(instance):
    cols = [_plain(cfg) for cfg in instance.collections]

    def check(out):
        if out["status"] != "certified":
            return f"status {out['status']}"
        if not (out["same"] and out["verdict"]):
            return "round trip or program verify failed"
        c = out["cert"]
        plain = {
            "base": c.plane.base,
            "directions": c.plane.directions,
            "partitions": [p.pieces for p in c.partitions],
            "weights": c.weights,
            "witness_points": c.witness_points,
        }
        return checks.transversal_problem(cols, instance.rs, instance.k, plain)

    return check


def _check_refutation(collections, rs, key, justified):
    """A complete search ended infeasible after covering every ordered
    partition (k = 0) or every combination of them (k = 1), on an input
    that `justified` shows cannot have a certificate."""
    counts = [
        checks.colorful_partition_count([len(c) for c in cls], r)
        for (_, cls), r in zip(collections, rs)
    ]
    want = 1
    for n in counts:
        want *= n
    verdict = {}

    def check(out):
        if out["status"] != "infeasible-exhausted":
            return f"status {out['status']}"
        if out["stats"].get(key) != want:
            return f"{key} {out['stats'].get(key)} != {want}"
        if "ok" not in verdict:
            verdict["ok"] = justified()
        return None if verdict["ok"] else "input not ruled out by theorem or construction"

    return check


def _partition_ops(tv, seed):
    rng = random.Random(seed)
    scale, shift = _homothety(rng)
    ops = []
    for i in range(PARTITION_POOL):
        inst = _moved(tv, tv.model.random_instance(3, 0, (3,), seed=i), scale, shift)
        cfg = inst.collections[0]
        ops.append(Op("certify", f"d3r3-{i}", lambda c=cfg: _tverberg_op(tv, c, 3),
                      _check_tverberg_cert(cfg.points, cfg.classes, 3)))
    gp_points = tuple(tuple(rng.randint(-1000, 1000) for _ in range(3)) for _ in range(8))
    gp = tv.model.ColoredConfig(dim=3, points=gp_points, classes=tuple((i,) for i in range(8)))
    ops.append(Op("refute", "general-position-d3r3-8pts", lambda: _tverberg_op(tv, gp, 3),
                  _check_refutation([_plain(gp)], (3,), "partitions",
                                    lambda: checks.affine_hulls_disjoint(gp_points, 3))))
    for d in (2, 3):
        inst = _moved(tv, tv.model.tightness_instance(d, 0, (3,), 0), scale, shift)
        cols = [_plain(cfg) for cfg in inst.collections]
        cfg = inst.collections[0]
        ops.append(Op("refute", f"tightness-d{d}r3", lambda c=cfg: _tverberg_op(tv, c, 3),
                      _check_refutation(cols, (3,), "partitions", lambda d=d, cols=cols:
                                        checks.tightness_rules_out(d, 0, cols, (3,)) is not None)))
    return ops


def _transversal_ops(tv, seed):
    rng = random.Random(seed)
    scale, shift = _homothety(rng)
    solver = tv.solver
    ops = []
    budget = solver.SearchBudget(samples=2000, seed=0)
    for i in range(SAMPLED_POOL):
        inst = _moved(tv, tv.model.random_instance(2, 1, (3, 3), seed=i), scale, shift)
        ops.append(Op("certify", f"sampled-d2k1-33-{i}",
                      lambda x=inst: _transversal_op(tv, x, False, budget),
                      _check_transversal_cert(inst)))
    for i in range(LINE_COHORT):
        base = tv.model.random_instance(2, 1, (2, 2), [(1, 1, 1), (1, 1, 1)], seed=i)
        inst = _moved(tv, base, scale, shift)
        exact_check = _check_transversal_cert(inst)
        ops.append(Op("certify", f"sampled-line-{i}", lambda x=inst: _transversal_op(tv, x, False),
                      exact_check))
        ops.append(Op("certify", f"exact-line-{i}", lambda x=inst: _transversal_op(tv, x, True),
                      exact_check))
    for ell_star in (0, 1):
        inst = _moved(tv, tv.model.tightness_instance(2, 1, (2, 2), ell_star), scale, shift)
        cols = [_plain(cfg) for cfg in inst.collections]
        ops.append(Op("refute", f"tightness-line-{ell_star}", lambda x=inst: _transversal_op(tv, x, True),
                      _check_refutation(cols, (2, 2), "combos", lambda cols=cols:
                                        checks.tightness_rules_out(2, 1, cols, (2, 2)) is not None)))
    small = solver.SearchBudget(samples=16, refinement_depth=1, seed=0)
    for s in K2_SEEDS:
        inst = tv.model.random_instance(3, 2, (2, 2, 2), seed=s)
        cert_check = _check_transversal_cert(inst)
        ops.append(Op("certify", f"sampled-d3k2-{s}", lambda x=inst: _transversal_op(tv, x, False, small),
                      cert_check, known_fault=True))
        ops.append(Op("certify", f"exact-d3k2-{s}", lambda x=inst: _transversal_op(tv, x, True),
                      cert_check))
    return ops


def board_facets(m: int, n: int, relabel):
    """Facets of the m x n chessboard complex (n <= m), vertex v renamed relabel[v]."""
    return [
        tuple(sorted(relabel[rows[j] * n + j] for j in range(n)))
        for rows in itertools.permutations(range(m), n)
    ]


COMPLEX_BOARDS = ((5, 4), (6, 5), (7, 6))
HOMOLOGY_BOARDS = ((4, 4), (5, 3), (6, 3), (5, 4), (6, 4))
DEGREE_PAIRS = ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))


def _complex_op(tv, n_vertices, facets):
    top = tv.topology
    cx = top.SimplicialComplex(n_vertices, facets)
    pm = top.is_pseudo_manifold(cx)
    ori = top.orient(cx)
    return {"facets": cx.facets, "pm": pm.ok, "signs": ori.signs if ori else None}


def _homology_op(tv, n_vertices, facets, p):
    top = tv.topology
    cx = top.SimplicialComplex(n_vertices, facets)
    betti = top.homology_mod_p(cx, p)
    return {"betti": betti, "f_vector": cx.f_vector()}


def _topology_ops(tv, seed):
    rng = random.Random(seed)
    ops = []
    for m, n in COMPLEX_BOARDS:
        relabel = list(range(m * n))
        rng.shuffle(relabel)
        facets = board_facets(m, n, relabel)

        def check(out, m=m, n=n, facets=facets):
            if set(out["facets"]) != set(facets):
                return "facets changed"
            if len(facets) != checks.board_f_vector(m, n)[-1]:
                return "facet count"
            if not out["pm"] or out["signs"] is None:
                return "not an oriented pseudo-manifold"
            return checks.orientation_problem(out["facets"], out["signs"])

        ops.append(Op("complex", f"board-{m}x{n}", lambda nv=m * n, f=facets: _complex_op(tv, nv, f), check))
    for m, n in HOMOLOGY_BOARDS:
        relabel = list(range(m * n))
        rng.shuffle(relabel)
        facets = board_facets(m, n, relabel)
        for p in (2, 3):
            expected = {}

            def check(out, m=m, n=n, facets=facets, p=p, expected=expected):
                if tuple(out["f_vector"]) != checks.board_f_vector(m, n):
                    return "f-vector"
                if "betti" not in expected:
                    expected["betti"] = checks.betti_mod_p(facets, p)
                if tuple(out["betti"]) != expected["betti"]:
                    return f"betti {out['betti']} != {expected['betti']}"
                return checks.board_betti_problem(m, n, out["betti"])

            ops.append(Op("homology", f"board-{m}x{n}-p{p}",
                          lambda nv=m * n, f=facets, p=p: _homology_op(tv, nv, f, p), check))
    for r, d in DEGREE_PAIRS:
        ops.append(Op("degree", f"degree-r{r}-d{d}",
                      lambda r=r, d=d: {"degree": tv.topology.test_map_degree(r, d).degree},
                      lambda out, r=r, d=d: checks.degree_problem(r, d, out["degree"])))
    return ops


def build(tv, workload: str, seed: int):
    """The round of operations for a workload, with inputs drawn from seed."""
    return {
        "partition": _partition_ops,
        "transversal": _transversal_ops,
        "topology": _topology_ops,
    }[workload](tv, seed)
