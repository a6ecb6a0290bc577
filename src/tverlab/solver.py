"""Searches for common points and transversal planes, with exact certificates.

Three search modes, all exact; `solve` picks one from the plane dimension:

* `solve_tverberg` — exhaustive over colorful partitions of one collection,
  up to relabelling pieces; complete.  LPs and state are keyed by piece
  supports (sets of distinct points), so coincident points pose each LP once.
  Two-piece LPs rule partitions out before their full integer LP.  One
  pair test decides whether a piece pair misses, in the walk, and
  whether its gap reaches the least gap, once no hit is left: by its
  memo, then by the kept dual normals of missed pair LPs (`_settled`),
  and only then by pair LPs.  The solution support of a two-piece LP
  that met decides every later pair that contains it, with no LP.
  After the pair tests, the kept Farkas duals of missed full LPs bound
  a partition's gap by weak duality (`_kept_bounds`), and a bound above
  0, or at or above the least gap, spares its full LP.  They only ever
  skip full LPs, and with no hit the tuples they deferred are revisited
  first (`_least_deferred`), so the pair pass sees the same least gap
  at every step: the first hit, the least gap and the pair LPs are
  those of the search without them.  Every kept pair normal caches its
  projections' extremes per support id.
* `solve_transversal` — scans a finite list of exact candidate direction
  subspaces for a k-plane (each the intersection of d-k hyperplanes
  through one k-subset of the input points), then certifies membership
  per direction with one joint LP per partition combination.
  Incomplete, but every returned certificate is exact.  A tuple is
  first read off its pieces' projected intervals, one per quotient
  row: intervals that share no point on some row prove a miss, and on
  a line (d-k = 1) intervals that meet prove a prefilter hit, both
  with no LP.  Each collection's prefilter and the joint loop keep the
  Farkas duals of their last missed LPs for the whole scan, kept,
  tested and revisited as the walk's full-LP duals are (`_kept_lp`,
  `_kept_bounds`, `_least_deferred`): a dual's normals bound a tuple's
  gap at any direction, so a tuple whose bound is above 0 is deferred
  with no LP.  The survivors, the first hit and
  its weights are those of the scan without either rule; with no hit,
  deferred tuples are revisited against the least gap of the whole
  scan so far, so the scan's least gap stays exact while a direction's
  own may not.
* `solve_hyperplane_transversal_exact` — complete search when the plane
  has codimension one: a scan of the hyperplanes through d input points
  (the arrangement vertices), each checked per collection with no LP.

Whether piece hulls share a point or meet a plane does not depend on how
the pieces are numbered, so every search runs over one partition per
S_r orbit (`model.enumerate_colorful_partitions`); counts of ordered
partitions and combinations covered still include the whole orbit.
The searches work on the walk's bare tuples of piece tuples, each
piece's points in class order, and wrap one in a `PartitionTuple`,
which keeps its pieces as given, only to build a certificate.

Certificates carry convex weights and witness points so verification never
repeats the search.
"""
from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
from math import comb, factorial, gcd, prod

from . import linalg
from .errors import CapExceeded, PreconditionError
from .geometry import (
    Point,
    Verdict,
    as_point,
    convex_combination,
    convex_combination_fault,
    gap_reaches,
    lp_solve_eq,
    weights_of,
)
from .linalg import integer_point_lists, integer_points
from .model import (
    ColoredConfig,
    PartitionTuple,
    ProblemInstance,
    count_colorful_partitions,
    enumerate_colorful_partitions,
    partition_is_valid,
    random_instance,
    validate,
)

ZERO = Fraction(0)

_SNAP_CAP = 4096  # candidate directions `solve_transversal` may try
CHOICE_CAP = 5_000_000  # plane checks the complete hyperplane scan may make
_SEPARATORS = 8  # pair-LP dual normals `solve_tverberg` keeps
_DUALS = 8  # Farkas duals of missed LPs kept per store: full LPs, and each direction-scan loop


@dataclass(frozen=True)
class KPlane:
    """Affine plane: base point plus the span of `directions`."""

    base: Point
    directions: tuple[Point, ...]

    def __post_init__(self):
        object.__setattr__(self, "base", as_point(self.base))
        object.__setattr__(
            self, "directions", tuple(as_point(v) for v in self.directions)
        )
        d = len(self.base)
        if any(len(v) != d for v in self.directions):
            raise ValueError("direction dimension mismatch")
        if self.directions and linalg.rank([list(v) for v in self.directions]) != len(
            self.directions
        ):
            raise ValueError("directions must be linearly independent")

    @property
    def ambient_dim(self) -> int:
        return len(self.base)

    @property
    def dim(self) -> int:
        return len(self.directions)

    def contains(self, point) -> bool:
        p = as_point(point)
        if len(p) != self.ambient_dim:
            return False
        delta = [a - b for a, b in zip(p, self.base)]
        if not self.directions:
            return all(v == 0 for v in delta)
        matrix = [[v[c] for v in self.directions] for c in range(self.ambient_dim)]
        return linalg.solve(matrix, delta) is not None


@dataclass(frozen=True)
class TverbergCertificate:
    """A colorful partition whose piece hulls share `point`."""

    point: Point
    partition: PartitionTuple
    weights: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class TransversalCertificate:
    """One partition per collection and a k-plane meeting every piece hull."""

    plane: KPlane
    partitions: tuple[PartitionTuple, ...]
    weights: tuple[tuple[tuple[Fraction, ...], ...], ...]
    witness_points: tuple[tuple[Point, ...], ...]


@dataclass(frozen=True)
class SearchBudget:
    """Former knobs of the sampling search, still accepted and validated.

    No search reads them: `solve_transversal` takes one as its second
    argument and ignores it, so callers that still pass one keep working.
    """

    samples: int = 10_000
    refinement_depth: int = 6
    seed: int = 0

    def __post_init__(self):
        for name in ("samples", "refinement_depth", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be at least 0")


@dataclass
class SolveReport:
    """Outcome of one search: status, certificate if any, best gap, stats.

    status is one of "certified", "infeasible-exhausted" (complete search
    ruled a certificate out), "budget-exhausted" (`solve_transversal`
    tried every candidate direction; not a proof that none exists), or
    "no-valid-partition" (some collection has no nonempty colorful
    partition at all).  gap is the smallest constraint violation seen,
    zero when certified.
    """

    status: str
    certificate: object | None = None
    gap: Fraction | None = None
    stats: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.status == "certified"


# ---------------------------------------------------------------------------
# exhaustive common-point search (0-dimensional planes)


def _least(best, gap):
    """The smaller of two gaps, where None on either side means none seen."""
    return best if gap is None or best is not None and best <= gap else gap


def _witnessed(witnesses, ca, cb):
    """Whether some stored meeting support (sa, sb) lies in the pieces coded ca and cb.

    Supports and codes are bitmasks of distinct points.  The pair with
    codes (ca, cb) contains the support if sa is in ca and sb in cb, or
    the other way round: meeting is symmetric.
    """
    return any(
        sa & ca == sa and sb & cb == sb or sa & cb == sa and sb & ca == sb
        for sa, sb in witnesses
    )


def _extremes(proj, cache, sid, piece):
    """(min, max) of a stored direction's g.p over a piece, kept in cache by support id.

    proj holds g.p for every point p.  Coincident points share g.p, so
    the extremes depend on the support alone: callers read
    `cache.get(sid)` first and call this only on an id's first use.
    """
    vals = [proj[i] for i in piece]
    ext = cache[sid] = (min(vals), max(vals))
    return ext


def _settled(separators, a, b, key, scale, best=None):
    """Whether a stored normal rules pieces a and b out; moves it to the front.

    key holds the pieces' support ids.  A normal h rules them out if it
    strictly separates them and, given a least gap best > 0, if its
    dual bound also reaches best (`gap_reaches` at r = 2, with h or -h,
    whichever puts b above a): the bound is positive exactly on
    separation.  Separation is tested inline first even then: most
    normals fail it, and skipping the dual-bound call for them keeps
    this test cheap.
    """
    sa, sb = key
    for k, (proj, cache, hmax, hmin) in enumerate(separators):
        lo_a, hi_a = cache.get(sa) or _extremes(proj, cache, sa, a)
        lo_b, hi_b = cache.get(sb) or _extremes(proj, cache, sb, b)
        if hi_a < lo_b:
            lows, top = (-hi_a, lo_b), hmax
        elif hi_b < lo_a:
            lows, top = (lo_a, -hi_b), -hmin
        else:
            continue
        if best is None or gap_reaches(lows, top, scale, best):
            separators.insert(0, separators.pop(k))
            return True
    return False


def _dual_directions(h, m):
    """The directions g_0..g_{r-1} of `gap_reaches` for a Farkas dual h, m entries per normal."""
    normals = [h[j:j + m] for j in range(0, len(h), m)]
    return [[-sum(c) for c in zip(*normals)], *normals]


def _kept_bounds(duals, pieces, points, scale, best=None):
    """Whether a kept dual bounds the gap of pieces above 0, or at or above best; moves it to the front.

    Each dual is [top, directions, projections]: its largest coordinate
    dual, the directions g_j of `gap_reaches` per piece position, and
    g_j.p for every point p of points[j], made on the dual's first use
    and None before it.  The partition walk's points never change, so
    its projections are made once; the direction scan resets them at
    each direction.
    """
    for k, dual in enumerate(duals):
        top, directions, projs = dual
        if projs is None:
            projs = dual[2] = [[sum(map(operator.mul, g, p)) for p in pts] for g, pts in zip(directions, points)]
        lows = [min(map(proj.__getitem__, piece)) for proj, piece in zip(projs, pieces)]
        if gap_reaches(lows, top, scale, best):
            duals.insert(0, duals.pop(k))
            return True
    return False


def _kept_lp(pieces, points, duals, scale, stats):
    """(x, gap) of the LP on pieces, piece j drawn from points[j]; a miss's dual is kept."""
    stats["lps"] += 1
    x, gap, h = lp_solve_eq([[pts[i] for i in piece] for pts, piece in zip(points, pieces)], scale, dual=True)
    if h is not None:
        duals.insert(0, [max(h), _dual_directions(h, len(points[0][0])), None])
        del duals[_DUALS:]
    return x, gap


def _least_deferred(deferred, best, points, duals, scale, stats):
    """The least of best and the deferred tuples' gaps: an LP only where no dual reaches best."""
    for pieces in deferred:
        if best is None or not _kept_bounds(duals, pieces, points, scale, best):
            best = _least(best, _kept_lp(pieces, points, duals, scale, stats)[1])
    return best


def _partition_lists(instance: ProblemInstance):
    """Partition representatives per collection; None if one has none."""
    lists = [
        list(enumerate_colorful_partitions(cfg, r))
        for cfg, r in zip(instance.collections, instance.rs)
    ]
    return lists if all(lists) else None


def solve_tverberg(config: ColoredConfig, r: int) -> SolveReport:
    """Try every nonempty colorful partition; complete, deterministic.

    Each distinct point gets one bit, so a piece's code, the OR of its
    points' bits, is its support: the set of its distinct points, whose
    hull is the piece's hull.  `supports` maps each code to a dense id
    and its first piece.  Representatives with one ordered tuple of ids
    pose the same LP up to repeated and reordered columns, which change
    neither feasibility nor the unique phase-1 optimum: a full LP that
    missed is memoised by that tuple, and one that hit ends the search.

    For r >= 3, two pieces whose hulls miss rule a partition out, so
    two-piece LPs, memoised by the pair's ids, defer its full LP.  One
    that misses also yields an integer normal strictly separating its
    pieces (`lp_solve_eq`'s Farkas dual at r = 2); the last
    `_SEPARATORS` of them, most recently useful first, are kept.  One
    that meets instead yields the supports of its basic solution, at
    most d+2 points, kept once as a pair of bitmasks; a later pair whose
    pieces contain them, either way round, meets at the same point, so
    its gap is 0 with no LP.  Each id a keeps a miss mask, an int with
    bit b set once the ordered pair (a, b) is known to miss.  The walk
    ANDs each piece's mask with the ids of the later pieces, then hands
    all its pairs, fewest points first (the cheapest pair LPs, and the
    likeliest to miss), to the one pair test `apart`.  It tries every
    pair on its memo, else on the stored normals (`_settled`), and only
    if none is ruled out decides them in the same order, each by a
    stored support or else by its LP, until one misses.  Every test is
    exact and only ever proves a miss or a meet, so the same partitions
    pass the pair tests as with pair LPs alone.

    A full LP that misses yields its Farkas dual (`lp_solve_eq`); the
    last `_DUALS` of them, most recently useful first, are kept in the
    direction scan's store: `_kept_lp` solves and keeps, `_kept_bounds`
    tests.  Every piece draws from the one point list, so a dual's
    projections are made on its first use and kept.  On a tuple that
    passes the pair tests, a dual whose weak-duality bound
    (`gap_reaches`, same piece labels) is positive proves a miss with
    no LP, so the walk defers the tuple, as a pair miss does.  The
    dual test comes after every pair test, so the walk runs the same
    pair LPs and meets the same first hit, with the same weights.
    Every stored pair normal caches the extremes of its projections
    per support id (`_extremes`).

    One walk decides each tuple at its first representative, and `seen`
    keeps, per tuple, None if its full LP ran, else what deferred it.
    With no hit, each deferred tuple is revisited in first-seen order on
    its supports' first pieces, so no representative is held.  Every
    answer depends on supports alone: LP optima as above, separation and
    dual bounds read projections that coincident points share, and
    `_witnessed` reads codes; only stored normals and meeting supports,
    and so later pair-LP counts, could differ.  The full LP runs only
    if every (piece 0, piece j) gap, a lower bound, is below the least
    gap, and no stored dual bounds its gap at or above it: `apart` takes
    those pairs with that best, where a memoised gap counts if it
    reaches best and a stored normal if its dual bound does; then
    `_kept_bounds` takes the tuple.  Dual-deferred tuples are revisited
    first, by `_least_deferred`, as the direction scan revisits its
    own.  Each of their pairs met in the walk, so they need no pair
    test, and once they are done best is the least gap over every tuple
    that passed the pair tests, as when all their full LPs ran.  The
    pair-deferred tuples then see the same best at every step as with
    no stored duals, since a skipped LP's gap is at or above it: the
    same pair LPs run, and the least gap is the same.

    stats: "lps" full LPs, "pair_lps" two-piece LPs, "partitions"
    ordered tuples covered.
    """
    if r < 2:
        raise ValueError("need at least two pieces")
    stats = {"partitions": 0, "lps": 0, "pair_lps": 0}
    if r > config.size:  # the walk yields nothing, but the pair list and r! below grow with r
        return SolveReport("no-valid-partition", None, None, stats)
    ints, scale = integer_points(config.points)
    # one bit per distinct point, in first-index order
    bit = {}
    unit = [1 << bit.setdefault(p, len(bit)) for p in ints]
    code = lambda piece: reduce(operator.or_, map(unit.__getitem__, piece))
    supports = {}  # code(piece) -> (dense support id, first piece seen with it)
    pid = cache(lambda piece: supports.setdefault(code(piece), (len(supports), piece))[0])
    pair_gaps = {}  # (pid(a), pid(b)) -> gap of the LP on pieces (a, b)
    misses = defaultdict(int)  # pid(a) -> OR of 1 << pid(b) over pairs (a, b) known to miss
    witnesses = []  # (code(sa), code(sb)) per meeting pair LP's solution support
    separators = []  # (h.p for every point p, extremes cache, max(h), min(h)) per stored normal h
    duals = []  # kept full-LP duals, as `_kept_bounds` reads them
    points = [ints] * r  # every piece draws from the one point list
    index_pairs = list(itertools.combinations(range(r), 2))  # (0, j) first

    def pair_gap(a, b, key):
        if key not in pair_gaps:
            if _witnessed(witnesses, code(a), code(b)):
                pair_gaps[key] = ZERO
                return ZERO
            stats["pair_lps"] += 1
            x, pair_gaps[key], h = lp_solve_eq([[ints[i] for i in piece] for piece in (a, b)], scale, dual=True)
            if h is not None:
                misses[key[0]] |= 1 << key[1]
                separators.insert(0, ([sum(map(operator.mul, h, p)) for p in ints], {}, max(h), min(h)))
                del separators[_SEPARATORS:]
            else:
                # the solution's support: at most d+2 points
                witnesses.append(tuple(code(i for i, v in zip(p, num) if v) for p, num in zip((a, b), x[0])))
        return pair_gaps[key]

    def apart(pairs, best=None):
        """Whether a pair (a, b, key) misses, or has a gap >= best: memo and normals, then LPs."""
        # with no best, any nonzero gap is a miss: gaps are >= 0
        reached = bool if best is None else (lambda gap: gap >= best)
        for a, b, key in pairs:
            if reached(pair_gaps[key]) if key in pair_gaps else _settled(separators, a, b, key, scale, best):
                misses[key[0]] |= 1 << key[1]
                return True
        return any(reached(pair_gap(*abk)) for abk in pairs)

    def ruled_out(pieces, pids):
        """Whether two pieces miss: by the miss masks, else by `apart`."""
        later = 0  # one bit per id of the pieces after the current one
        for a in reversed(pids):
            if misses[a] & later:
                return True
            later |= 1 << a
        # fewest points first: the cheapest pair LPs, and the likeliest to miss
        order = sorted(index_pairs, key=lambda ij: len(pieces[ij[0]]) + len(pieces[ij[1]]))
        return apart([(pieces[i], pieces[j], (pids[i], pids[j])) for i, j in order])

    seen = {}  # pids -> None if its full LP ran, else "pair" or "dual": what deferred it
    best = None
    n = 0
    for n, pieces in enumerate(enumerate_colorful_partitions(config, r), 1):
        pids = tuple(map(pid, pieces))
        if pids in seen:
            continue
        if r > 2 and ruled_out(pieces, pids):
            seen[pids] = "pair"
            continue
        if _kept_bounds(duals, pieces, points, scale):
            seen[pids] = "dual"
            continue
        seen[pids] = None
        x, gap = _kept_lp(pieces, points, duals, scale, stats)
        if x is not None:
            # each representative decides its r! ordered tuples
            stats["partitions"] = n * factorial(r)
            weights = weights_of(x)
            point = convex_combination(weights[0], [config.points[i] for i in pieces[0]])
            cert = TverbergCertificate(point, PartitionTuple(pieces), weights)
            return SolveReport("certified", cert, ZERO, stats)
        best = _least(best, gap)
    first = [piece for _, piece in supports.values()]  # support id -> its first piece
    # dual-deferred tuples first: then the pair tests see the best they
    # would see with no stored duals, and run the same pair LPs
    dual_deferred = ([first[i] for i in pids] for pids, why in seen.items() if why == "dual")
    best = _least_deferred(dual_deferred, best, points, duals, scale, stats)
    for pids, why in seen.items():
        if why != "pair":
            continue
        pieces = [first[i] for i in pids]
        if best is None or not (
            apart([(pieces[0], pieces[j], (pids[0], pids[j])) for j in range(1, r)], best)
            or _kept_bounds(duals, pieces, points, scale, best)
        ):
            best = _least(best, _kept_lp(pieces, points, duals, scale, stats)[1])
    stats["partitions"] = n * factorial(r)
    if best is None:
        return SolveReport("no-valid-partition", None, None, stats)
    return SolveReport("infeasible-exhausted", None, best, stats)


# ---------------------------------------------------------------------------
# candidate direction scan


def _dot(normal, point):
    return sum(a * c for a, c in zip(normal, point))


def _primitive(ints):
    """ints divided by their gcd, signed so that the first nonzero entry is positive."""
    g = gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


def _kernel_normals(rows, width):
    """Primitive integer basis of the nullspace of integer rows, one vector per free column in column order.

    `linalg._echelon` eliminates fraction-free (Bareiss 1968): rows/D is
    the reduced echelon form, so D on a free column, 0 on the other free
    columns and -rows[r][free] on each pivot (r, c) solve rows x = 0 in
    integers.
    """
    ech, pivots, D, _ = linalg._echelon(rows, width)
    cols = {c for _, c in pivots}
    normals = []
    for free in (c for c in range(width) if c not in cols):
        normal = [0] * width
        normal[free] = D
        for r, c in pivots:
            normal[c] = -ech[r][free]
        normals.append(_primitive(normal))
    return normals


def _flat_normal(points, subset, hull=()):
    """Primitive normal of the hyperplane through integer points, picked by index, inside a flat; None if they span less.

    hull holds normals of a flat that holds the points, and the subset
    has as many points as the flat has dimensions: with no hull, d
    points and a hyperplane of R^d.  The normal is orthogonal to the
    hull's normals, so with them it cuts out the subset's flat.
    """
    first, *rest = (points[i] for i in subset)
    normals = _kernel_normals([[a - b for a, b in zip(p, first)] for p in rest] + list(hull), len(first))
    return normals[0] if len(normals) == 1 else None


def _candidate_quotients(instance: ProblemInstance):
    """Integer quotient rows of every candidate direction subspace, in scan order.

    A k-plane's direction subspace is the nullspace of its d-k quotient
    rows.  k = 0 has the one candidate with the identity rows, and k = d
    the one with no rows.  Otherwise the pooled points span an m-flat,
    cut out by the d-m primitive integer normals of their affine hull
    (`_kernel_normals`); in general position m = d and there are none.
    If k >= m, the one candidate is the first d-k hull normals: that
    k-plane holds every point.  Otherwise, for each k-subset A of the
    pooled points (in `combinations` order), the candidates are the
    planes through A cut out by the hull normals and m-k independent
    hyperplanes of the hull, each through A and m-k further input
    points: the hull normals, then every (m-k)-combination of rank m-k
    of the distinct normals through A, in subset order.  Each row space
    is kept once, at most _SNAP_CAP in all.  At k = d-1 = m-1 these are
    the distinct normals through d input points.  Extremal transversals
    are pinned by input points, so their directions have measure zero; a
    pinned one with an irrational direction is not on the list.

    The normals are integer (`_flat_normal`, on the points scaled to
    integers) and made lazily: each m-subset's once, when the first base
    inside it comes up, so a scan that hits early builds few.  A row
    space is keyed by its reduced echelon form, each row made primitive;
    at d-k = 1 that is the normal itself.
    """
    d, k = instance.d, instance.k
    if k == 0:
        yield [[int(i == j) for j in range(d)] for i in range(d)]
        return
    if k == d:
        yield []
        return
    pts, _ = integer_points([p for cfg in instance.collections for p in cfg.points])
    hull = _kernel_normals([[a - b for a, b in zip(p, pts[0])] for p in pts], d)
    m = d - len(hull)  # the dimension of the points' affine hull
    if k >= m:  # one k-plane holds every point
        yield [list(row) for row in hull[:d - k]]
        return
    normal = cache(lambda subset: _flat_normal(pts, subset, hull))
    seen = set()
    for base in itertools.combinations(range(len(pts)), k):
        rest = [i for i in range(len(pts)) if i not in base]
        subsets = (tuple(sorted(base + extra)) for extra in itertools.combinations(rest, m - k))
        through = dict.fromkeys(filter(None, map(normal, subsets)))
        for rows in itertools.combinations(through, m - k):
            q_rows = [list(row) for row in (*hull, *rows)]
            ech, pivots, _, _ = linalg._echelon(q_rows, d)
            key = tuple(_primitive(ech[r]) for r, _ in pivots)
            if len(key) != d - k or key in seen:
                continue
            seen.add(key)
            yield q_rows
            if len(seen) >= _SNAP_CAP:
                return


def _combo_pieces(point_lists, combo):
    """The point list of every piece of `combo`, collection by collection."""
    return [
        [pts[i] for i in piece]
        for pts, pieces in zip(point_lists, combo)
        for piece in pieces
    ]


def _spans(pts, piece):
    """Per quotient row, (min, max) of a piece's projected points: its hull's interval on that row."""
    return [(min(c), max(c)) for c in zip(*map(pts.__getitem__, piece))]


def _common(spans):
    """Per quotient row, (max low, min high) of intervals given as spans per piece; None if some row's is empty.

    The common part of common parts is the common part of all, so this
    also combines the results of earlier calls.
    """
    common = []
    for row in zip(*spans):
        lows, highs = zip(*row)
        lo, hi = max(lows), min(highs)
        if lo > hi:
            return None
        common.append((lo, hi))
    return common


def _evaluate_direction(q_rows, int_points, scale, partitions_per_col, stats, duals, bound=None):
    """((combination, weights per piece), 0) for one quotient, else (None, gap).

    Projects the search's integer points, one list per collection, by
    the integer quotient rows, and gives every LP the search's `scale`,
    so gaps are in the input's units.  Prefilters each collection alone,
    then runs one joint LP per combination of surviving partitions.  The
    direction's gap is the sum of per-collection minima when the
    prefilter rules it out, else the smallest joint violation.  With
    bound None the returned gap is that gap, exactly; otherwise it is
    the least of that gap and bound, which is all a scan keeping its
    least gap needs: each revisit below starts from bound, and a
    per-collection minimum at or above bound puts the sum there too.

    duals holds one store per collection, for its prefilter, and one
    for the joint loop; they live for a whole scan.  Each keeps the
    Farkas duals of its last `_DUALS` missed LPs, most recently useful
    first.  A dual's normals are fixed vectors in the quotient space,
    and `gap_reaches` holds for any fixed normals, so a dual found at
    one direction bounds gaps at every later one: only its projections
    change, and they are made on the dual's first use at a direction
    (`_kept_bounds`).  A tuple that a kept dual bounds above 0, with
    the same piece positions, is a proven miss: it gets no LP and is
    deferred.  So the prefilter keeps the same survivors in the same
    order, and the joint loop meets the same first hit with the same LP
    and weights.  When a collection has no survivor, or no combination
    hits, the deferred tuples are revisited in order with the least gap
    so far as best, and an LP runs only where no dual bounds the gap at
    or above best.  Every skipped gap is then at or above the best of
    its step, and best only falls, so the least gap is that of running
    every LP, as in `solve_tverberg`'s revisit.  A bound lowers each
    revisit's first best and so spares more LPs; the survivors and the
    first hit do not depend on it.

    Before any kept dual or LP, each tuple is read off its pieces'
    projected intervals, one per quotient row (`_spans`, `_common`).  A
    hull's projection on a row is its interval [min, max] there, so
    hulls that meet have intervals with a common point on every row: a
    row where they share none proves a miss, which is deferred with no
    LP, as a kept dual's bound defers it.  On a line (d-k = 1) the
    projected hulls are the intervals themselves, and intervals meet
    exactly when the greatest low is at most the least high (Helly on
    the line), so a prefilter tuple whose intervals meet survives with
    no LP.  A joint tuple still gets its LP when its intervals meet, so
    a hit keeps the LP's weights.  The rule is exact where it decides:
    the survivors, their order and the first hit are those of running
    every LP, and deferred tuples are revisited as above, so the least
    gap stays exact.  Only which duals are kept, and so how many LPs
    run, can change.
    """
    iproj = [[tuple(_dot(row, p) for row in q_rows) for p in pts] for pts in int_points]
    for store in duals:
        for dual in store:
            dual[2] = None  # projections of the last direction
    *stores, joint = duals
    line = len(q_rows) == 1
    survivors = []  # per collection, each surviving partition's common part
    misses = []  # least gap of each collection with no surviving partition
    for pts, plist, store in zip(iproj, partitions_per_col, stores):
        points = [pts] * len(plist[0])
        spans = {}
        good, deferred = {}, []
        gmin = None
        for pieces in plist:
            common = _common([spans.get(p) or spans.setdefault(p, _spans(pts, p)) for p in pieces])
            if common is None:
                deferred.append(pieces)  # the intervals miss on a row
            elif line:
                good[pieces] = common  # the intervals meet on the line
            elif _kept_bounds(store, pieces, points, scale):
                deferred.append(pieces)
            else:
                x, gap = _kept_lp(pieces, points, store, scale, stats)
                if x is not None:
                    good[pieces] = common
                else:
                    gmin = _least(gmin, gap)
        survivors.append(good)
        if not good:
            misses.append(_least_deferred(deferred, _least(gmin, bound), points, store, scale, stats))
    if misses:
        return None, _least(bound, sum(misses, ZERO))
    points = [pts for pts, plist in zip(iproj, partitions_per_col) for _ in plist[0]]
    best = None
    deferred = []
    for combo in itertools.product(*survivors):
        pieces = [piece for part in combo for piece in part]
        common = _common([good[part] for good, part in zip(survivors, combo)])
        if common is None or _kept_bounds(joint, pieces, points, scale):
            deferred.append(pieces)
            continue
        x, gap = _kept_lp(pieces, points, joint, scale, stats)
        if x is not None:
            return (combo, weights_of(x)), ZERO
        best = _least(best, gap)
    return None, _least_deferred(deferred, _least(best, bound), points, joint, scale, stats)


def _build_certificate(instance, q_rows, combo, piece_weights) -> TransversalCertificate:
    """Certificate for a hit on quotient `q_rows`: one weight vector per piece of `combo`.

    piece_weights runs over the pieces collection by collection; each
    witness point is the convex combination of its piece's points.  The
    plane is {x : q_rows x = q_rows w}, w piece 0's witness (all of R^d
    at k = d).  Both the direction scan and the hyperplane scan build
    their plane here.
    """
    point_lists = [cfg.points for cfg in instance.collections]
    flat = iter(zip(piece_weights, _combo_pieces(point_lists, combo)))
    weights = []
    points = []
    for pieces in combo:
        col = [next(flat) for _ in pieces]
        weights.append(tuple(tuple(w) for w, _ in col))
        points.append(tuple(convex_combination(w, pts) for w, pts in col))
    d = instance.d
    if instance.k == d:
        base, dirs = (ZERO,) * d, [[int(i == j) for j in range(d)] for i in range(d)]
    else:
        base, dirs = linalg.solve(q_rows, [_dot(row, points[0][0]) for row in q_rows])
    return TransversalCertificate(
        plane=KPlane(base=base, directions=dirs),
        partitions=tuple(map(PartitionTuple, combo)),
        weights=tuple(weights),
        witness_points=tuple(points),
    )


def solve_transversal(
    instance: ProblemInstance, budget: SearchBudget | None = None
) -> SolveReport:
    """Scan candidate directions for a k-plane meeting one piece hull per slot.

    The candidates are `_candidate_quotients`, a finite, deterministic
    list of integer quotient rows.  The points of all collections are
    scaled to integers once, with one scale, and each direction projects
    those (`_evaluate_direction`), with the least gap of the earlier
    directions as its bound: a direction's gap is only read when it is
    below that, so the least gap reported is the exact least over all
    directions.  A returned certificate is exact;
    "budget-exhausted" means the list ran out, not that no plane exists.
    budget is ignored: it is kept so that callers passing a
    `SearchBudget` still work.
    """
    stats = {"lps": 0, "directions": 0}
    partitions_per_col = _partition_lists(instance)
    if partitions_per_col is None:
        return SolveReport("no-valid-partition", None, None, stats)
    # one scale for all collections: joint LPs pool their pieces
    int_points, scale = integer_point_lists([cfg.points for cfg in instance.collections])

    duals = [[] for _ in range(len(partitions_per_col) + 1)]  # per collection, then joint
    best_gap = None
    for q_rows in _candidate_quotients(instance):
        stats["directions"] += 1
        hit, gap = _evaluate_direction(q_rows, int_points, scale, partitions_per_col, stats, duals, best_gap)
        if hit is not None:
            cert = _build_certificate(instance, q_rows, *hit)
            return SolveReport("certified", cert, ZERO, stats)
        best_gap = _least(best_gap, gap)
    return SolveReport("budget-exhausted", None, best_gap, stats)


# ---------------------------------------------------------------------------
# complete search for codimension-one planes


def solve_hyperplane_transversal_exact(instance: ProblemInstance) -> SolveReport:
    """Complete hyperplane-transversal search over arrangement vertices.

    {a.x = b} meets a hull iff a.v - b over its points is not all of one
    strict sign.  As points (a, b), the feasible hyperplanes are closed
    cells of the arrangement of the planes {b = a.v}, one per input
    point v, and zeroing signs keeps pieces met, so if any hyperplane
    works, a cell vertex does: a plane through d affinely independent
    input points, or one holding them all when they do not span R^d.
    Each candidate is checked with no LP: per collection, the first
    representative whose pieces all have points on both closed sides.
    Raises CapExceeded when the C(N, d) candidates through N input
    points times the representatives of all collections would pass
    `CHOICE_CAP`, read at call time.  The refutation gap is the least
    total miss over candidates, normals scaled to max |a_i| = 1.
    """
    d, k = instance.d, instance.k
    if k != d - 1:
        raise PreconditionError("complete search needs plane codimension one")
    stats = {"planes": 0, "combos": 0}
    counts = [
        count_colorful_partitions(cfg, r) for cfg, r in zip(instance.collections, instance.rs)
    ]
    if not all(counts):
        return SolveReport("no-valid-partition", None, None, stats)
    points = [cfg.points for cfg in instance.collections]
    # each candidate plane may check every representative of every collection
    total = comb(sum(map(len, points)), d) * sum(counts)
    if total > CHOICE_CAP:
        raise CapExceeded(
            f"hyperplane search needs {total} plane checks, cap is {CHOICE_CAP}"
        )
    partitions_per_col = _partition_lists(instance)
    # in units of 1/scale, sides a.v - b and misses are ints
    int_points, scale = integer_point_lists(points)

    best_gap = None
    for normal, offset in _candidate_planes([p for pts in int_points for p in pts], d):
        stats["planes"] += 1
        sides = [[_dot(normal, v) - offset for v in pts] for pts in int_points]
        found = [_first_met(s, plist) for s, plist in zip(sides, partitions_per_col)]
        combo = [pieces for pieces, _ in found]
        if None not in combo:
            cert = _hyperplane_certificate(instance, combo, sides, normal)
            return SolveReport("certified", cert, ZERO, stats)
        miss = Fraction(sum(m for _, m in found), scale * max(map(abs, normal)))
        best_gap = _least(best_gap, miss)
    # each representative combination ruled out stands for its whole orbit
    stats["combos"] = prod(n * factorial(r) for n, r in zip(counts, instance.rs))
    return SolveReport("infeasible-exhausted", None, best_gap, stats)


def _candidate_planes(points, d):
    """(primitive normal, offset) of each distinct candidate hyperplane through integer points."""
    hull = _kernel_normals([[a - b for a, b in zip(p, points[0])] for p in points], d)
    if hull:  # the points do not span R^d: one plane holds them all
        yield hull[0], _dot(hull[0], points[0])
        return
    seen = set()
    for subset in itertools.combinations(range(len(points)), d):
        normal = _flat_normal(points, subset)
        if normal is None:
            continue
        plane = (normal, _dot(normal, points[subset[0]]))
        if plane not in seen:
            seen.add(plane)
            yield plane


def _first_met(side, plist):
    """(first partition whose pieces all meet the plane, 0), else (None, least miss).

    side[i] is a.v_i - b.  A piece misses the plane by max(min side,
    -max side, 0), its least |a.v - b| when all its points lie strictly
    on one side, and meets it iff that is 0.  Each distinct piece's miss
    is computed once per plane.
    """
    misses = {}

    def miss(piece):
        if piece not in misses:
            vals = [side[i] for i in piece]
            misses[piece] = max(min(vals), -max(vals), 0)
        return misses[piece]

    for pieces in plist:
        if not any(map(miss, pieces)):
            return pieces, 0
    return None, min(sum(map(miss, pieces)) for pieces in plist)


def _hyperplane_certificate(instance, combo, sides, normal):
    """Each witness mixes its piece's first points on the two closed sides, so lies on the plane."""
    piece_weights = []
    for side, pieces in zip(sides, combo):
        for piece in pieces:
            vals = [side[i] for i in piece]
            lo = next(j for j, s in enumerate(vals) if s <= 0)
            hi = next(j for j, s in enumerate(vals) if s >= 0)
            t = ZERO if lo == hi else Fraction(vals[lo], vals[lo] - vals[hi])
            w = [ZERO] * len(piece)
            w[lo] += 1 - t
            w[hi] += t
            piece_weights.append(w)
    return _build_certificate(instance, [list(normal)], combo, piece_weights)


def solve(instance: ProblemInstance) -> SolveReport:
    """The search for the instance's k: complete for k = 0 and k = d-1.

    k = 0 runs `solve_tverberg`, k = d-1 the arrangement scan (capped by
    `CHOICE_CAP`), and any other k the candidate-direction scan.
    """
    if instance.k == 0:
        return solve_tverberg(instance.collections[0], instance.rs[0])
    if instance.k == instance.d - 1:
        return solve_hyperplane_transversal_exact(instance)
    return solve_transversal(instance)


# ---------------------------------------------------------------------------
# verification


def _collection_fault(config: ColoredConfig, r: int, part, weights, points) -> str:
    """Why one collection's part of a certificate fails; "" if it holds.

    Checks, in order: a valid colorful r-partition ("bad-partition"), no
    empty piece ("empty-piece"), one weight vector and one witness point
    per piece and witnesses in R^d ("shape-mismatch"), then each piece's
    weights combining its points into its witness, piece by piece
    (`convex_combination_fault`).
    """
    if not partition_is_valid(config, part, r):
        return "bad-partition"
    if not all(part.pieces):
        return "empty-piece"
    if len(weights) != len(part.pieces) or len(points) != len(part.pieces):
        return "shape-mismatch"
    points = [as_point(x) for x in points]
    if any(len(x) != config.dim for x in points):
        return "shape-mismatch"
    for piece, w, x in zip(part.pieces, weights, points):
        fault = convex_combination_fault(w, [config.points[i] for i in piece], x)
        if fault:
            return fault
    return ""


def verify_tverberg(config: ColoredConfig, r: int, cert) -> Verdict:
    """Re-check a common-point certificate from scratch, exactly."""
    if not isinstance(cert, TverbergCertificate):
        return Verdict(False, "malformed")
    part = cert.partition
    fault = _collection_fault(config, r, part, cert.weights, [cert.point] * len(part.pieces))
    return Verdict(not fault, fault)


def verify_transversal(instance: ProblemInstance, cert) -> Verdict:
    """Re-check a transversal certificate from scratch, exactly.

    Each collection passes `_collection_fault`, and then its witness
    points must lie on the plane ("witness-off-plane").
    """
    d, k = instance.d, instance.k
    if not isinstance(cert, TransversalCertificate):
        return Verdict(False, "malformed")
    try:
        plane = cert.plane
        if plane.ambient_dim != d or plane.dim != k:
            return Verdict(False, "bad-plane")
    except (TypeError, ValueError, AttributeError):
        return Verdict(False, "malformed")
    if not len(cert.partitions) == len(cert.weights) == len(cert.witness_points) == k + 1:
        return Verdict(False, "shape-mismatch")
    for cfg, r, part, ws, pts in zip(
        instance.collections, instance.rs, cert.partitions, cert.weights, cert.witness_points
    ):
        fault = _collection_fault(cfg, r, part, ws, pts)
        if fault:
            return Verdict(False, fault)
        if not all(map(plane.contains, pts)):
            return Verdict(False, "witness-off-plane")
    return Verdict(True)


# ---------------------------------------------------------------------------
# batch runs


@dataclass(frozen=True)
class SweepOutcome:
    seed: int
    status: str
    label: str
    hypotheses_ok: bool
    gap: Fraction | None


@dataclass
class SweepReport:
    outcomes: tuple[SweepOutcome, ...]
    counts: dict[str, int]

    @property
    def certified(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "certified")


def sweep(
    d: int,
    k: int,
    rs,
    profiles,
    trials: int,
    seed: int = 0,
    jitter_q: int | None = None,
) -> SweepReport:
    """Solve `trials` seeded random instances and tally labeled outcomes.

    Each trial runs `solve` on the instance of seed seed+i, so a sweep is
    reproducible and individual trials can be re-run alone.  A
    "budget-exhausted" trial (candidate directions ran out) is labeled
    "undetermined".  Labels append "-beyond-theorem" when an instance
    violates the guarantee hypotheses, since a miss there is expected
    rather than diagnostic.
    """
    outcomes = []
    counts: dict[str, int] = {}
    for i in range(trials):
        inst = random_instance(d, k, rs, profiles, seed=seed + i, jitter_q=jitter_q)
        hyp_ok = validate(inst).all_ok
        report = solve(inst)
        label = {
            "certified": "certified",
            "infeasible-exhausted": "refuted",
            "budget-exhausted": "undetermined",
            "no-valid-partition": "refuted",
        }[report.status]
        if not hyp_ok:
            label += "-beyond-theorem"
        counts[label] = counts.get(label, 0) + 1
        outcomes.append(
            SweepOutcome(
                seed=seed + i,
                status=report.status,
                label=label,
                hypotheses_ok=hyp_ok,
                gap=report.gap,
            )
        )
    return SweepReport(outcomes=tuple(outcomes), counts=counts)
