"""Exact convex-position primitives.

Points are tuples of Fraction at the API; nothing in this module ever
touches a float.  The workhorse is the common-point LP: given finitely
many point sets ("pieces"), decide whether their convex hulls share a
point and produce either an exact convex-combination witness or the
exact phase-1 violation gap.  `lp_solve_eq` is the one reader of that
LP's result, for full, pair and projected LPs.  An LP that misses also
returns the coordinate part of its Farkas dual; for two pieces it
is the integer normal of a hyperplane strictly between them, and for
two that meet, the support of the solution is a witness for every pair
that contains it.  Any stored dual, scaled into a feasible dual point
of another tuple's LP, decides in integers with no LP whether that gap
exceeds 0 or reaches a bound (`gap_reaches`).  A search scales its
points to integers once (`linalg.integer_points`), builds each LP's
rows as plain ints (`_common_point_lp`) for the fraction-free integer
simplex kernel, and makes Fractions only for gaps and, by `weights_of`,
for the weights a certificate needs.
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


def _coordinate_dual(obj, gapden, first):
    """The coordinate-row part of a missed LP's Farkas dual, as ints over their gcd.

    obj is the final objective row that `kernels.phase1` returns on a
    miss, and the coordinate rows' artificial columns run from `first`
    to the rhs, its last entry.  A coordinate row costs 1, so
    gapden * y_c = gapden - its reduced cost.  Not every entry is 0: with
    no coordinate part the column inequalities would put every
    weight-row dual at or below 0, but those sum to the positive gap.
    """
    h = [gapden - v for v in obj[first:-1]]
    g = gcd(*h)
    return tuple(v // g for v in h)


def lp_solve_eq(pieces, scale):
    """Common-point LP on integer pieces: (x, 0, None) on a hit, else (None, gap, h).

    `pieces` hold points of `integer_points` with their `scale`; the
    rows (`_common_point_lp`) go to the kernel as ints, and gap is in
    the original units.  A positive scale on a row changes no Bland
    choice, so weights and gap equal those of the rational system.  On
    a hit, x = (nums, den): one list of weight numerators per piece,
    over one den > 0, left as ints until a certificate needs them
    (`weights_of`).  On a miss, h is the coordinate-row part of the LP's
    Farkas dual (`_coordinate_dual`), d ints for each piece after the
    first, in row order, the normal h_j paired with piece j.
    `gap_reaches` bounds another tuple's gap with it.

    Two pieces a and b are the case r = 2.  On a hit, the points with a
    nonzero numerator number at most d+2 (Caratheodory: a basic
    solution), and any two point sets that contain them have hulls
    meeting at the same point.  On a miss, h is an integer normal with
    max h.p over a < min h.q over b: with y_a, y_b the dual of the two
    weight rows, its column inequalities give h.p <= -y_a and
    h.q >= y_b, and y_a + y_b is the positive optimum.
    """
    feasible, xnum, xden, gapnum, gapden, _ = _common_point_lp(pieces, scale)
    if feasible:
        nums = []
        off = 0
        for piece in pieces:
            nums.append(xnum[off:off + len(piece)])
            off += len(piece)
        return (nums, xden), ZERO, None
    first = sum(map(len, pieces)) + len(pieces)  # the first coordinate row's artificial
    return None, Fraction(gapnum, gapden * scale), _coordinate_dual(xnum, gapden, first)


def weights_of(x):
    """The convex weights of a hit's x = (nums, den), as Fractions, one tuple per piece."""
    nums, den = x
    return tuple(tuple(Fraction(v, den) for v in num) for num in nums)


def gap_reaches(lows, top, scale, best=None):
    """Whether a dual direction bounds a common-point LP's gap at or above best > 0.

    With best None, whether it bounds the gap above 0.  The LP of
    `_common_point_lp(pieces, scale)` on pieces P_0..P_{r-1} has the
    dual: maximise y_0 + ... + y_{r-1} subject to y_j <= scale on each
    weight row, y_c <= 1 on each coordinate row, y_0 + sum_j h_j.p <= 0
    for p in P_0 and y_j - h_j.q <= 0 for q in P_j, j >= 1, where h_j
    holds the coordinate-row duals of piece j's rows.  Fix normals h_j,
    let g_0 = -(h_1 + ... + h_{r-1}) and g_j = h_j, and let lows[j] be
    the least g_j.p over P_j.  For t >= 0 with t * top <= 1, top the
    largest entry of the h_j, y_c = t*h_j and y_j = min(scale,
    t*lows[j]) are dual feasible, so by weak duality (Schrijver 1986,
    ch. 7) their sum over scale is at most the gap.  The bound is
    concave in t and 0 at t = 0, so it is positive for some t exactly
    when its slope sum(lows) is.  It peaks at a breakpoint in range:
    at t = 1/top it is sum(min(scale*top, low))/(scale*top), and at
    t = scale/lows[k] it is sum(min(lows[k], low))/lows[k].  Each is
    compared with best by cross-multiplying ints.  For the h of a
    missed `lp_solve_eq` on the same pieces it is the gap.  A pair's
    normal h bounds its gap with r = 2, as h_1 = h or as h_1 = -h.
    """
    if sum(lows) <= 0:
        return False
    if best is None:
        return True
    num, den = best.numerator, best.denominator
    cap = scale * top
    if top > 0 and sum(min(cap, low) for low in lows) * den >= num * cap:
        return True
    return any(
        cap <= low and sum(min(low, m) for m in lows) * den >= num * low
        for low in lows
        if low > 0
    )


def common_point_gap(pieces):
    """(witness or None, exact violation gap) for the common-point LP."""
    pcs = [[as_point(p) for p in piece] for piece in pieces]
    if not pcs or any(not piece for piece in pcs):
        raise ValueError("every piece must contain at least one point")
    dim = len(pcs[0][0])
    if any(len(p) != dim for piece in pcs for p in piece):
        raise ValueError("mismatched point dimensions")
    x, gap, _ = lp_solve_eq(*integer_point_lists(pcs))
    if x is None:
        return None, gap
    weights = weights_of(x)
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

