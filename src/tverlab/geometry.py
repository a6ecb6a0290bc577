"""Exact convex-position primitives.

Points are tuples of Fraction; nothing in this module ever touches a
float.  The workhorse is the common-point LP: given finitely many point
sets ("pieces"), decide whether their convex hulls share a point and
produce either an exact convex-combination witness or the exact
phase-1 violation gap.  Feasibility runs on the fraction-free integer
simplex kernel after clearing denominators.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import kernels, linalg

Point = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_point(coords) -> Point:
    return tuple(Fraction(c) for c in coords)


@dataclass(frozen=True)
class Verdict:
    """Boolean with a reason code; false verdicts always carry one."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class CommonPointWitness:
    """Convex weights per piece, all combining to the same point."""

    point: Point
    weights: tuple[tuple[Fraction, ...], ...]


def affine_dim(points) -> int:
    """Dimension of the affine hull; -1 for no points, 0 for a single one."""
    pts = [as_point(p) for p in points]
    if not pts:
        return -1
    diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    return linalg.rank(diffs) if diffs else 0


def lp_solve_eq(rows, rhs):
    """Exact feasibility of {x >= 0 : rows . x = rhs}.

    Returns (x, gap): on success x is the rational solution and gap is 0;
    otherwise x is None and gap is the minimum total constraint violation
    measured in the original (unscaled) row units.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    idata, irhs, scales = [], [], []
    for row, b in zip(rows, rhs):
        s = lcm(*(v.denominator for v in itertools.chain(row, [b])), 1)
        srow = [int(v * s) for v in row]
        sb = int(b * s)
        if sb < 0:
            srow = [-v for v in srow]
            sb = -sb
        idata.append(srow)
        irhs.append(sb)
        scales.append(s)
    total = lcm(*scales, 1)
    costs = [total // s for s in scales]
    feasible, xnum, xden, gapnum, gapden, _ = kernels.phase1(nrows, ncols, idata, irhs, costs)
    if feasible:
        return [Fraction(n, xden) for n in xnum], ZERO
    return None, Fraction(gapnum, gapden * total)


def _common_point_rows(pieces):
    """Equality system for 'all pieces' hulls share a point'.

    Variables are the concatenated per-piece weights; the shared point is
    eliminated by equating piece 0's combination with every other one.
    """
    dim = len(pieces[0][0])
    sizes = [len(p) for p in pieces]
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)
    nvars = offs[-1]
    rows, rhs = [], []
    for j in range(len(pieces)):
        row = [ZERO] * nvars
        for i in range(sizes[j]):
            row[offs[j] + i] = ONE
        rows.append(row)
        rhs.append(ONE)
    for j in range(1, len(pieces)):
        for c in range(dim):
            row = [ZERO] * nvars
            for i, p in enumerate(pieces[0]):
                row[offs[0] + i] = p[c]
            for i, p in enumerate(pieces[j]):
                row[offs[j] + i] = -p[c]
            rows.append(row)
            rhs.append(ZERO)
    return rows, rhs, offs


def common_point_gap(pieces):
    """(witness or None, exact violation gap) for the common-point LP."""
    pcs = [[as_point(p) for p in piece] for piece in pieces]
    if not pcs or any(not piece for piece in pcs):
        raise ValueError("every piece must contain at least one point")
    dim = len(pcs[0][0])
    if any(len(p) != dim for piece in pcs for p in piece):
        raise ValueError("mismatched point dimensions")
    rows, rhs, offs = _common_point_rows(pcs)
    x, gap = lp_solve_eq(rows, rhs)
    if x is None:
        return None, gap
    weights = tuple(tuple(x[offs[j]:offs[j + 1]]) for j in range(len(pcs)))
    point = convex_combination(weights[0], pcs[0])
    return CommonPointWitness(point=point, weights=weights), ZERO


def lp_feasible_common_point(pieces):
    """Exact witness that all pieces' hulls share a point, or None."""
    witness, _ = common_point_gap(pieces)
    return witness


def convex_combination(weights, points) -> Point:
    """The point sum(w_i * p_i), each coordinate summed in order from 0."""
    return tuple(
        sum((w * p[c] for w, p in zip(weights, points)), ZERO) for c in range(len(points[0]))
    )


def convex_combination_fault(weights, points, target=None) -> str:
    """Why `weights` fail to combine `points` convexly into `target`; "" if they do.

    Checks, in order: one weight per point ("shape-mismatch"), no
    negative weight ("negative-weight"), weights summing to one
    ("weight-sum"), and the combination equalling `target` exactly
    ("point-mismatch").  With no target only the weights are checked.
    """
    if len(weights) != len(points):
        return "shape-mismatch"
    if any(w < 0 for w in weights):
        return "negative-weight"
    if sum(weights) != 1:
        return "weight-sum"
    if target is None:
        return ""
    if convex_combination(weights, points) != tuple(target):
        return "point-mismatch"
    return ""


def verify_common_point_witness(pieces, witness) -> Verdict:
    """Re-check a witness from scratch; malformed input yields a reason code."""
    try:
        pcs = [[as_point(p) for p in piece] for piece in pieces]
        point = as_point(witness.point)
        weights = [[Fraction(w) for w in ws] for ws in witness.weights]
    except (TypeError, ValueError, AttributeError):
        return Verdict(False, "malformed")
    if len(weights) != len(pcs) or any(len(w) != len(p) for w, p in zip(weights, pcs)):
        return Verdict(False, "shape-mismatch")
    if any(len(p) != len(point) for piece in pcs for p in piece):
        return Verdict(False, "shape-mismatch")
    # every piece's weights are checked before any piece's combination
    for target in (None, point):
        for ws, piece in zip(weights, pcs):
            fault = convex_combination_fault(ws, piece, target)
            if fault:
                return Verdict(False, fault)
    return Verdict(True)
