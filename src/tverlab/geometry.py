"""Exact convex-position primitives.

Points are tuples of Fraction at the API; nothing in this module ever
touches a float.  The workhorse is the common-point LP: given finitely
many point sets ("pieces"), decide whether their convex hulls share a
point and produce either an exact convex-combination witness or the
exact phase-1 violation gap.  For two pieces that miss, the LP's dual
also gives the integer normal of a hyperplane strictly between them
(`pair_gap_normal`); for two that meet, the support of its solution
is a witness for every pair that contains it.  Any stored normal,
scaled into a feasible dual point, decides in integers with no LP
whether another pair's gap reaches a bound (`pair_gap_reaches`).  A
search scales its points to integers once (`linalg.integer_points`),
builds each LP's rows as plain ints (`_common_point_lp`) for the
fraction-free integer simplex kernel, and makes Fractions only for the
returned weights and gap.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import kernels, linalg
from .linalg import integer_point_lists

Point = tuple[Fraction, ...]

ZERO = Fraction(0)


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


def _common_point_lp(pieces, scale):
    """`kernels.phase1` on the common-point LP of integer pieces.

    The variables are the concatenated per-piece weights, and the shared
    point is eliminated: each piece's weights sum to 1 (one row per
    piece, first), and piece 0's combination equals every other piece's,
    coordinate by coordinate (d rows per further piece).  Weight rows
    cost `scale` and coordinate rows 1, so the phase-1 optimum is
    `scale` times the total violation in the original units.
    """
    dim = len(pieces[0][0])
    sizes = [len(piece) for piece in pieces]
    nvars = sum(sizes)
    rows = []
    off = 0
    for size in sizes:
        row = [0] * nvars
        row[off:off + size] = [1] * size
        rows.append(row)
        off += size
    first, n0 = pieces[0], sizes[0]
    off = n0
    for piece in pieces[1:]:
        for c in range(dim):
            row = [0] * nvars
            row[:n0] = [p[c] for p in first]
            row[off:off + len(piece)] = [-p[c] for p in piece]
            rows.append(row)
        off += len(piece)
    ncoord = len(rows) - len(pieces)
    rhs = [1] * len(pieces) + [0] * ncoord
    costs = [scale] * len(pieces) + [1] * ncoord
    return kernels.phase1(len(rows), nvars, rows, rhs, costs)


def lp_solve_eq(pieces, scale):
    """Common-point LP on integer pieces: (weights per piece, 0) or (None, gap).

    `pieces` hold points of `integer_points` with their `scale`; the
    rows (`_common_point_lp`) go to the kernel as ints, and gap is in
    the original units.  A positive scale on a row changes no Bland
    choice, so weights and gap equal those of the rational system.
    """
    feasible, xnum, xden, gapnum, gapden, _ = _common_point_lp(pieces, scale)
    if not feasible:
        return None, Fraction(gapnum, gapden * scale)
    weights = []
    off = 0
    for piece in pieces:
        weights.append(tuple(Fraction(v, xden) for v in xnum[off:off + len(piece)]))
        off += len(piece)
    return tuple(weights), ZERO


def pair_gap_normal(a, b, scale):
    """Two-piece common-point LP: (0, None, support) if the hulls meet, else (gap, h, None).

    On a meet, support = (sa, sb) holds the positions in `a` and in `b`
    of the points with a nonzero weight in the LP's basic solution: at
    most d+2 in all (Caratheodory), and any two point sets that contain
    them have hulls meeting at the same point.  On a miss, h is the
    coordinate-row part of the LP's Farkas dual, an integer normal with
    max h.p over `a` < min h.q over `b`: with y_a, y_b the dual of the
    two weight rows, its column inequalities give h.p <= -y_a and
    h.q >= y_b, and y_a + y_b is the positive optimum.  h is divided by
    the gcd of its entries.  The LP, its pivots and its gap are those of
    `lp_solve_eq([a, b], scale)`.
    """
    feasible, x, _, gapnum, gapden, _ = _common_point_lp([a, b], scale)
    if feasible:
        n = len(a)
        sa = tuple(i for i in range(n) if x[i])
        sb = tuple(i - n for i in range(n, len(x)) if x[i])
        return ZERO, None, (sa, sb)
    # a coordinate row costs 1, so gapden * y_c = gapden - its reduced cost
    first = len(a) + len(b) + 2
    h = [gapden - v for v in x[first:first + len(a[0])]]
    g = gcd(*h)
    return Fraction(gapnum, gapden * scale), tuple(v // g for v in h), None


def pair_gap_reaches(ha, hb, hmax, hmin, scale, best):
    """Whether a normal h puts `lp_solve_eq([a, b], scale)`'s gap at or above best > 0.

    ha and hb hold h.p for the points of a and of b, and hmax, hmin are
    h's largest and smallest entries.  The two-piece LP of
    `_common_point_lp([a, b], scale)` has the dual: maximise y_a + y_b
    subject to y_a <= scale, y_b <= scale, y_c <= 1 on each coordinate
    row, y_a + y_c.p <= 0 for p in a and y_b - y_c.q <= 0 for q in b.
    For an orientation s = +-1 let A = max s*h.p over a and B = min
    s*h.q over b.  For t >= 0 with t * max(s*h) <= 1, y_c = t*s*h,
    y_a = min(scale, -t*A) and y_b = min(scale, t*B) are dual feasible,
    so by weak duality (Schrijver 1986, ch. 7) (y_a + y_b)/scale is at
    most the gap.  Some t makes it positive exactly when B > A, that is
    when h strictly separates a and b.  It is concave in t, so it peaks
    at one of the breakpoints t = p/q in 1/max(s*h), scale/(-A) and
    scale/B that lie in range, where it is value/(q*scale) with int
    value and q > 0: each is compared with best by cross-multiplying.
    For the normal `pair_gap_normal(a, b, scale)` returns, it is the gap.
    """
    for big, low, top in ((max(ha), min(hb), hmax), (-min(ha), -max(hb), -hmin)):
        if low <= big:
            continue
        # breakpoints t = p/q, kept when t * top <= 1
        for p, q in ((1, top), (scale, -big), (scale, low)):
            if q > 0 and p * top <= q:
                value = min(scale * q, -p * big) + min(scale * q, p * low)
                if value * best.denominator >= best.numerator * q * scale:
                    return True
    return False


def common_point_gap(pieces):
    """(witness or None, exact violation gap) for the common-point LP."""
    pcs = [[as_point(p) for p in piece] for piece in pieces]
    if not pcs or any(not piece for piece in pcs):
        raise ValueError("every piece must contain at least one point")
    dim = len(pcs[0][0])
    if any(len(p) != dim for piece in pcs for p in piece):
        raise ValueError("mismatched point dimensions")
    weights, gap = lp_solve_eq(*integer_point_lists(pcs))
    if weights is None:
        return None, gap
    point = convex_combination(weights[0], pcs[0])
    return CommonPointWitness(point=point, weights=weights), ZERO


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

