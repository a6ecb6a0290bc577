"""Independent reference implementations used only to validate the package.

Nothing here imports the kernel or geometry internals, with the
exceptions named below: the simplex reference keeps a plain Fraction
tableau, and the hull-intersection oracle enumerates simplex supports
and solves square-ish linear systems with `rational_solve`.
`rational_echelon`/`rational_solve` (Fraction Gauss-Jordan) and
`rational_det` (Fraction Bareiss) are the eliminations `linalg` replaced
with integer pivoting, and its property test compares the two.
`trial_division_is_prime` is the primality test `linalg.is_prime`
replaced with Miller-Rabin.  The
facet-maximality reference compares every pair of facets.  The mod-p
chain complex is the one check built on package functions: it composes
the sparse columns of `topology.boundary_matrix` to confirm that the
boundary of a boundary vanishes, and takes its primality test from
`linalg`.  `pseudo_manifold_reference` and `orient_reference` are the
pseudo-manifold check and orientation before they shared one facet
walk: a ridge map and DFS each, with orientation checking the complex
first and stopping at the first sign conflict.
`free_action_reference` is `topology.is_free_action` before it decided
from vertex orbits: every nontrivial element against every face.
`chessboard_join` is the package's former `test_map_complex`: it builds
the whole (d+1)-fold chessboard join that `topology.test_map_degree`
once counted on, and `PLMap`, `weight_map` and `weight_images` the
weight map on it.  `signed_crossings_reference` is that count before it was
factored into board blocks: one `linalg.solve` of each join facet's full
matrix, and `linalg.det` on each crossing facet.
`join_signed_crossings` is the count factored into board blocks but
still read facet by facet over the join, at any value, with its check
that the map is the weight map; `topology.test_map_degree` reads the
same blocks off one board, at the clean value only, so the factor
vectors c_ell (`factor_vector`) and the Kronecker solve for the factor
weights live here alone.
`ordered_colorful_partitions` is the product-order
enumeration of every ordered colorful tuple, empty pieces included, that
the searches ran over before they were quotiented by relabelling
pieces; `ordered_nonempty_partitions` filters it, and
`model.enumerate_colorful_partitions` is checked against that.
`recursive_colorful_partitions` is that enumeration as it was before
its walk was flattened: one recursive generator frame per class.  Like
the walk, all three yield bare tuples of piece tuples, each piece's
points in class order, and `orbit_key` and `hyperplane_disjunct_search`
take such tuples; only a certificate wraps one in a `PartitionTuple`.
`support_points` decodes a support code of the partition search, and
`bound_step` is the least amount by which a pair dual bound can exceed
a gap, `pair_gap_reaches` is that bound before `geometry.gap_reaches`
took r pieces, and `dual_bound` is the r-piece bound's value as a
Fraction.
`verify_common_point_witness` re-checks a bare common-point witness
with `geometry.convex_combination_fault`, the package's one
convex-combination check.
The rational LP path (`rational_lp_solve_eq`, `common_point_rows`) is
the row assembly the integer common-point LP replaced: Fraction rows,
each cleared of denominators by its own lcm, on `kernels.phase1`, so a
comparison with it checks assembly and gap units, while
`phase1_reference` checks the pivoting.  The disjunctive hyperplane search is the LP search the
complete hyperplane solver replaced, and solves its LPs on that rational
path; `first_met_flags` is the per-point side-flag test and miss sum
that the scan's memoised piece misses replaced.  `unfiltered_tverberg`
is the partition search before its piece-pair filter: one full LP per
representative, on the solver's own enumeration and LP, so a comparison
with it checks the filter alone.  `pair_filtered_tverberg` is the
search with that filter but before stored dual normals could rule a
pair out or bound its gap, and before its memos were keyed by
supports: every pair it rules out costs a pair LP memoised by piece
bitmasks, and every representative that reaches a full LP solves it, so
a comparison with it checks the separator test, the dual bounds and
the support memos.  Both list the pieces of every full LP they
solve, so a comparison can count the distinct support tuples among
them.  `fraction_flat_normal` is the hyperplane
normal both candidate scans took before `solver._flat_normal` read it
off fraction-free elimination: a Fraction nullspace by
`rational_solve`, scaled to coprime integers.  `snap_quotients` is the
codimension-one direction list the candidate scan generalised: the
distinct normals through d input points, from `fraction_flat_normal`,
or the first normal of their affine hull when the points span less
than a hyperplane, so a comparison with it checks the scan's normals,
order and deduplication.
`fraction_projected_transversal` is the candidate scan before it scaled
its points once per search: a Fraction projection and a fresh integer
scale per direction, and the witness and plane base taken from the
projected points.
`affine_image`, `affine_certificate` and `relabelled` are the maps the
equivariance tests apply: an invertible affine map of every point, of
a certificate's witness points and plane with its weights kept, and a
renumbering of one configuration's points.
`lift_instance` and `restrict_solution` embed an instance one dimension
up and cut a certified plane back down; acceptance criterion 7 and the
solver tests use them, and nothing in the package does.
"""
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from tverlab import kernels, linalg, model, solver, topology
from tverlab.errors import PreconditionError
from tverlab.geometry import (
    CommonPointWitness,
    Verdict,
    as_point,
    convex_combination,
    convex_combination_fault,
    lp_solve_eq,
    weights_of,
)
from tverlab.linalg import integer_points, is_prime
from tverlab.model import PartitionTuple, enumerate_colorful_partitions

ZERO = Fraction(0)
ONE = Fraction(1)


def phase1_reference(nrows, ncols, data, rhs, costs=None):
    """Fraction-tableau phase-1 simplex with the same Bland pivot rules.

    Returns (feasible, x or None, gap, pivots, objective row): every
    entry is a Fraction, and the row is the final objective row, the
    one `tverlab.kernels.phase1` returns over gapden on failure.  Used
    to cross-check the fraction-free integer pivoting exactly, including
    the pivot count and the reduced costs.
    """
    if costs is None:
        costs = [1] * nrows
    width = ncols + nrows + 1
    rc = ncols + nrows
    M = []
    for i in range(nrows):
        row = [ZERO] * width
        for j in range(ncols):
            row[j] = Fraction(data[i][j])
        row[ncols + i] = ONE
        row[rc] = Fraction(rhs[i])
        M.append(row)
    obj = [ZERO] * width
    for j in range(ncols):
        obj[j] = -sum(costs[i] * M[i][j] for i in range(nrows))
    obj[rc] = -sum(costs[i] * Fraction(rhs[i]) for i in range(nrows))
    M.append(obj)
    basis = [ncols + i for i in range(nrows)]
    pivots = 0
    while True:
        q = next((j for j in range(rc) if M[nrows][j] < 0), -1)
        if q < 0:
            break
        p = -1
        best = None
        for i in range(nrows):
            if M[i][q] > 0:
                ratio = M[i][rc] / M[i][q]
                if p < 0 or ratio < best or (ratio == best and basis[i] < basis[p]):
                    p, best = i, ratio
        if p < 0:
            raise ArithmeticError("unbounded")
        piv = M[p][q]
        M[p] = [v / piv for v in M[p]]
        for i in range(nrows + 1):
            if i != p and M[i][q] != 0:
                f = M[i][q]
                M[i] = [a - f * b for a, b in zip(M[i], M[p])]
        basis[p] = q
        pivots += 1
    w = -M[nrows][rc]
    if w == 0:
        x = [ZERO] * ncols
        for i in range(nrows):
            if basis[i] < ncols:
                x[basis[i]] = M[i][rc]
        return True, x, ZERO, pivots, M[nrows]
    return False, None, w, pivots, M[nrows]


def rational_lp_solve_eq(rows, rhs):
    """Exact feasibility of {x >= 0 : rows . x = rhs} for Fraction rows.

    Returns (x, gap): on success x is the rational solution and gap is 0;
    otherwise x is None and gap is the minimum total constraint violation
    measured in the original (unscaled) row units.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    idata, irhs, scales = [], [], []
    for row, b in zip(rows, rhs):
        s = math.lcm(*(v.denominator for v in itertools.chain(row, [b])), 1)
        srow = [int(v * s) for v in row]
        sb = int(b * s)
        if sb < 0:
            srow = [-v for v in srow]
            sb = -sb
        idata.append(srow)
        irhs.append(sb)
        scales.append(s)
    total = math.lcm(*scales, 1)
    costs = [total // s for s in scales]
    feasible, xnum, xden, gapnum, gapden, _ = kernels.phase1(nrows, ncols, idata, irhs, costs)
    if feasible:
        return [Fraction(n, xden) for n in xnum], ZERO
    return None, Fraction(gapnum, gapden * total)


def common_point_rows(pieces):
    """Equality system for 'all pieces' hulls share a point', in Fractions.

    Variables are the concatenated per-piece weights; the shared point is
    eliminated by equating piece 0's combination with every other one.
    Returns (rows, rhs, offsets of each piece's weights).
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


def rational_echelon(rows, width):
    """Fraction Gauss-Jordan in place; returns list of (row_index, pivot_col)."""
    pivots = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == len(rows):
            break
    return pivots


def rational_solve(matrix, rhs):
    """Solve M x = rhs over Fraction: (particular, nullspace_basis) or None."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    rows = [[Fraction(v) for v in matrix[i]] + [Fraction(rhs[i])] for i in range(m)]
    pivots = rational_echelon(rows, n)
    for i in range(len(pivots), m):
        if rows[i][n] != 0:
            return None
    pivot_cols = {c for _, c in pivots}
    x = [ZERO] * n
    for r, c in pivots:
        x[c] = rows[r][n]
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        v = [ZERO] * n
        v[free] = ONE
        for r, c in pivots:
            v[c] = -rows[r][free]
        basis.append(v)
    return x, basis


def rational_det(matrix):
    """Determinant of a square matrix by Fraction Bareiss elimination."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] for row in matrix]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if a[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pr is None:
                return ZERO
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) / prev
            a[i][k] = ZERO
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else ONE


def caratheodory_feasible(pieces):
    """Decide whether all pieces' convex hulls share a point, by brute force.

    Enumerates per piece every support of at most d+1 points, solves the
    resulting linear system for the combined weights, and accepts when the
    solution is unique and nonnegative.  If the hulls intersect, some
    extreme point of the intersection has minimal supports that make the
    system uniquely solvable, so the enumeration is complete.
    """
    pieces = [[tuple(Fraction(c) for c in p) for p in piece] for piece in pieces]
    d = len(pieces[0][0])
    supports_per_piece = []
    for piece in pieces:
        supports = []
        for size in range(1, min(len(piece), d + 1) + 1):
            supports.extend(itertools.combinations(range(len(piece)), size))
        supports_per_piece.append(supports)
    for choice in itertools.product(*supports_per_piece):
        sizes = [len(s) for s in choice]
        offs = [0]
        for s in sizes:
            offs.append(offs[-1] + s)
        nvars = offs[-1]
        rows, rhs = [], []
        for j in range(len(pieces)):
            row = [ZERO] * nvars
            for t in range(sizes[j]):
                row[offs[j] + t] = ONE
            rows.append(row)
            rhs.append(ONE)
        for j in range(1, len(pieces)):
            for c in range(d):
                row = [ZERO] * nvars
                for t, idx in enumerate(choice[0]):
                    row[offs[0] + t] = pieces[0][idx][c]
                for t, idx in enumerate(choice[j]):
                    row[offs[j] + t] = -pieces[j][idx][c]
                rows.append(row)
                rhs.append(ZERO)
        sol = rational_solve(rows, rhs)
        if sol is None:
            continue
        x, null = sol
        if not null and all(v >= 0 for v in x):
            return True
    return False


def verify_common_point_witness(pieces, witness) -> Verdict:
    """Re-check a common-point witness from scratch; malformed input yields a reason code."""
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


def trial_division_is_prime(n: int) -> bool:
    """Primality by trial division up to sqrt(n)."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def inclusion_maximal(facets) -> bool:
    """True iff no facet is a proper subset of another, by comparing all pairs."""
    sets = [frozenset(f) for f in {tuple(sorted(f)) for f in facets}]
    for i, fi in enumerate(sets):
        for j, fj in enumerate(sets):
            if i != j and fi < fj:
                return False
    return True


@dataclass(frozen=True)
class ChainComplexModP:
    """Sparse boundary columns over GF(p), with the composite checked to be zero."""

    p: int
    face_counts: tuple[int, ...]
    boundaries: tuple  # boundaries[i]: one {(i-1)-face index: sign} per i-face, i >= 1

    def __post_init__(self):
        for d in range(2, len(self.face_counts)):
            a = self.boundaries[d - 1]
            for column in self.boundaries[d]:
                total = {}
                for t, sign in column.items():
                    for i, v in a[t].items():
                        total[i] = total.get(i, 0) + sign * v
                if any(v % self.p for v in total.values()):
                    raise AssertionError("boundary of boundary is nonzero")


def chain_complex_mod_p(complex_, p: int) -> ChainComplexModP:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    counts = complex_.f_vector()
    boundaries = [None]
    for d in range(1, complex_.dim + 1):
        boundaries.append(topology.boundary_matrix(complex_, d))
    return ChainComplexModP(p, counts, tuple(boundaries))


def pseudo_manifold_reference(complex_) -> topology.PseudoManifoldReport:
    """Pure, every ridge in exactly two facets, facet graph connected, by its own DFS."""
    if not complex_.is_pure():
        return topology.PseudoManifoldReport(ok=False, pure=False, connected=False)
    ridge_map = {}
    for fi, facet in enumerate(complex_.facets):
        for pos in range(len(facet)):
            ridge_map.setdefault(facet[:pos] + facet[pos + 1 :], []).append(fi)
    bad = tuple(sorted(r for r, fs in ridge_map.items() if len(fs) != 2))
    adj = {i: set() for i in range(len(complex_.facets))}
    for fs in ridge_map.values():
        if len(fs) == 2:
            adj[fs[0]].add(fs[1])
            adj[fs[1]].add(fs[0])
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    connected = len(seen) == len(complex_.facets)
    return topology.PseudoManifoldReport(
        ok=not bad and connected, pure=True, connected=connected, bad_ridges=bad
    )


def orient_reference(complex_):
    """Coherent facet signs by DFS from facet 0, None at the first conflict.

    Raises PreconditionError unless `pseudo_manifold_reference` accepts
    the complex, checked before any sign is propagated.
    """
    if not pseudo_manifold_reference(complex_):
        raise PreconditionError("orientation needs a pseudo-manifold")
    ridge_map = {}
    for fi, facet in enumerate(complex_.facets):
        for pos in range(len(facet)):
            ridge_map.setdefault(facet[:pos] + facet[pos + 1 :], []).append((fi, (-1) ** pos))
    signs = [0] * len(complex_.facets)
    signs[0] = 1
    stack = [0]
    while stack:
        fi = stack.pop()
        facet = complex_.facets[fi]
        for pos in range(len(facet)):
            (a, sa), (b, sb) = ridge_map[facet[:pos] + facet[pos + 1 :]]
            other, inc_self, inc_other = (b, sa, sb) if a == fi else (a, sb, sa)
            want = -signs[fi] * inc_self * inc_other
            if signs[other] == 0:
                signs[other] = want
                stack.append(other)
            elif signs[other] != want:
                return None
    return topology.Orientation(signs=tuple(signs))


def free_action_reference(complex_, action) -> bool:
    """Whether no nontrivial element fixes a nonempty face setwise, face by face.

    Assumes the action preserves the complex; `is_free_action` checks that.
    """
    ident = tuple(range(action.n_vertices))
    faces = [f for by_dim in complex_.faces_by_dim().values() for f in by_dim]
    return not any(
        tuple(sorted(g[v] for v in f)) == f for g in action.elements() if g != ident for f in faces
    )


@dataclass(frozen=True)
class PLMap:
    """Piecewise-linear map: one rational image point per vertex."""

    complex_: topology.SimplicialComplex
    images: tuple[tuple[Fraction, ...], ...]
    target_dim: int

    def __post_init__(self):
        if len(self.images) != self.complex_.n_vertices:
            raise ValueError("need one image point per vertex")
        if any(len(p) != self.target_dim for p in self.images):
            raise ValueError("image point dimension mismatch")


def chessboard_join(r: int, d: int):
    """(d+1)-fold join of the r x (r-1) chessboard complex, with vertex info.

    Returns (complex, info) where info[v] = (factor, row, col).  Vertex
    ids are factor-major, then row-major.
    """
    complex_ = board = topology.chessboard_complex(r, r - 1)
    for _ in range(d):
        complex_ = topology.join(complex_, board)
    return complex_, vertex_info(r, d)


def vertex_info(r: int, d: int):
    return tuple(itertools.product(range(d + 1), range(r), range(r - 1)))


def factor_vector(d: int, ell: int):
    """c_ell = (1, f_ell), with f_0 = -(e_1+...+e_d) and f_ell = e_ell."""
    return [Fraction(1)] + [Fraction(-1 if ell == 0 else int(c == ell - 1)) for c in range(d)]


def weight_images(r: int, d: int):
    """c_ell (x) b_i for each vertex (ell, i, j): block c is c_ell[c] b_i,
    where b_i = topology._weight_coords(r, i)."""
    return tuple(
        tuple(c * b for c in factor_vector(d, ell) for b in topology._weight_coords(r, i))
        for ell, i, _j in vertex_info(r, d)
    )


def weight_map(r: int, d: int) -> PLMap:
    """The weight map on the (d+1)-fold chessboard join, built in full."""
    complex_, _info = chessboard_join(r, d)
    return PLMap(complex_=complex_, images=weight_images(r, d), target_dim=(r - 1) * (d + 1))


def join_signed_crossings(plm, signs, value):
    """(degree, crossings) of plm at value, or None if value is not regular.

    plm must be the weight map, vertex (ell, i, j) to c_ell (x) b_i, and
    each facet must take r-1 vertices from each factor, or
    PreconditionError is raised.  A facet's matrix is then M = (C (x) I)
    blockdiag(B_0, ..., B_d), so with (C (x) I) w = value each (factor,
    board) block is solved once and each join facet reads its blocks'
    outcomes in the order a solve of M meets them.
    """
    n = plm.target_dim
    r = plm.complex_.n_vertices // n if n else 0
    d = n // (r - 1) - 1 if r > 1 else -1
    if d < 0 or plm.images != weight_images(r, d):
        raise PreconditionError("the factored count needs the weight map's images")
    m, info = r - 1, vertex_info(r, d)
    cs = [factor_vector(d, ell) for ell in range(d + 1)]
    kron = [[cs[ell][c] * (k == k2) for ell in range(d + 1) for k2 in range(m)]
            for c in range(d + 1) for k in range(m)]
    w = linalg.solve(kron, value)[0]
    outcomes = {}
    degree = crossings = 0
    for sign, facet in zip(signs, plm.complex_.facets):
        if len(facet) != n:
            raise PreconditionError("a facet must take r-1 vertices from each factor")
        outs = []
        for ell in range(d + 1):
            board = facet[ell * m:ell * m + m]
            if (ell, board) not in outcomes:
                if any(info[v][0] != ell for v in board):
                    raise PreconditionError("a facet must take r-1 vertices from each factor")
                cols = [topology._weight_coords(r, info[v][1]) for v in board]
                block = [[col[k] for col in cols] for k in range(m)]
                outcomes[ell, board] = topology._board_outcome(block, w[ell * m:ell * m + m])
            outs.append(outcomes[ell, board])
        if "inconsistent" in outs:
            continue
        if "singular" in outs:
            return None
        if "negative" in outs:
            continue
        if "zero" in outs:
            return None
        degree += sign * math.prod(outs)
        crossings += 1
    return degree, crossings


def signed_crossings_reference(plm, signs, value):
    """(degree, crossings) of plm at value, or None if value is not regular.

    A facet whose image cone holds value with positive weights counts as
    its sign times its image determinant's sign; `det` runs on no other.
    """
    n = plm.target_dim
    degree = 0
    crossings = 0
    for sign, facet in zip(signs, plm.complex_.facets):
        cols = [plm.images[v] for v in facet]
        matrix = [[cols[j][i] for j in range(n)] for i in range(n)]
        sol = linalg.solve(matrix, value)
        if sol is None:
            continue  # value is outside this image's span entirely
        mu, null = sol
        if null:
            return None  # value meets the span of a degenerate image
        if any(v < 0 for v in mu):
            continue  # the ray misses this image cone
        if any(v == 0 for v in mu):
            return None  # the ray grazes the image boundary
        degree += sign * (1 if linalg.det(matrix) > 0 else -1)
        crossings += 1
    return degree, crossings


def ordered_colorful_partitions(config, r):
    """Every ordered colorful r-partition tuple, lazily, in product order.

    Per class, the injections of its points into the pieces in
    lexicographic order; classes combined in index order, the last
    varying fastest.  Each is a tuple of piece tuples, each piece's
    points in class order.  Pieces may come out empty.
    """
    if any(len(c) > r for c in config.classes):
        return
    injections = [list(itertools.permutations(range(r), len(c))) for c in config.classes]
    for combo in itertools.product(*injections):
        pieces = [[] for _ in range(r)]
        for cls, assign in zip(config.classes, combo):
            for point_idx, piece_idx in zip(cls, assign):
                pieces[piece_idx].append(point_idx)
        yield tuple(map(tuple, pieces))


def ordered_colorful_count(config, r):
    """How many tuples `ordered_colorful_partitions` yields: prod r!/(r-|class|)!."""
    return math.prod(math.perm(r, len(c)) for c in config.classes)


def ordered_nonempty_partitions(config, r):
    """Every ordered colorful r-partition with no empty piece, in product order.

    The partitions the searches ran over before they were quotiented by
    relabelling pieces; `model.enumerate_colorful_partitions` is checked
    against it.
    """
    return (p for p in ordered_colorful_partitions(config, r) if all(p))


def unfiltered_tverberg(config, r):
    """`solver.solve_tverberg` with one full common-point LP per representative.

    Same first hit, certificate, gap and "partitions" count as the
    filtered search; its "lps" counts every representative it tried, and
    "lp_pieces" lists the pieces of each, in order.
    """
    ints, scale = integer_points(config.points)
    lps, best = 0, None
    lp_pieces = []
    for pieces in enumerate_colorful_partitions(config, r):
        lps += 1
        lp_pieces.append(pieces)
        x, gap, _ = lp_solve_eq([[ints[i] for i in piece] for piece in pieces], scale)
        if x is not None:
            break
        best = gap if best is None or gap < best else best
    stats = {"partitions": lps * math.factorial(r), "lps": lps, "lp_pieces": lp_pieces}
    if lps == 0:
        return solver.SolveReport("no-valid-partition", None, None, stats)
    if x is None:
        return solver.SolveReport("infeasible-exhausted", None, best, stats)
    weights = weights_of(x)
    point = convex_combination(weights[0], [config.points[i] for i in pieces[0]])
    cert = solver.TverbergCertificate(point, PartitionTuple(pieces), weights)
    return solver.SolveReport("certified", cert, ZERO, stats)


def pair_filtered_tverberg(config, r):
    """`solver.solve_tverberg` with every piece pair decided by its own LP.

    Pair LPs are memoised by piece bitmasks and full LPs not at all.
    Same first hit, certificate, gap and "partitions" as the search with
    stored separators and dual bounds; "pair_lps" counts every pair LP,
    and "lp_pieces" lists the pieces of every full LP, in order.
    """
    stats = {"partitions": 0, "lps": 0, "pair_lps": 0, "lp_pieces": []}
    ints, scale = integer_points(config.points)
    n = config.size
    bit = [1 << i for i in range(n)]
    pair_gaps = {}
    pairs = list(itertools.combinations(range(r), 2))

    def lp(pieces):
        return lp_solve_eq([[ints[i] for i in piece] for piece in pieces], scale)

    def full_lp(pieces):
        stats["lps"] += 1
        stats["lp_pieces"].append(pieces)
        return lp(pieces)

    def keys_of(pieces):
        masks = [sum(map(bit.__getitem__, piece)) for piece in pieces]
        return [masks[i] << n | masks[j] for i, j in pairs]

    def pair_gap(pieces, key, pair):
        if key not in pair_gaps:
            stats["pair_lps"] += 1
            pair_gaps[key] = lp([pieces[i] for i in pair])[1]
        return pair_gaps[key]

    hit = best = None
    covered = deferred = 0
    for part in enumerate_colorful_partitions(config, r):
        covered += 1
        if r > 2:
            keys = keys_of(part)
            by_size = sorted(zip(keys, pairs), key=lambda kp: kp[0].bit_count())
            if any(map(pair_gaps.get, keys)) or any(pair_gap(part, *kp) for kp in by_size):
                deferred += 1
                continue
        x, gap, _ = full_lp(part)
        if x is not None:
            hit = part, weights_of(x)
            break
        best = gap if best is None or gap < best else best
    if hit is None and deferred:
        for part in enumerate_colorful_partitions(config, r):
            keys = keys_of(part)
            if not any(map(pair_gaps.get, keys)):
                continue
            if best is None or all(pair_gap(part, *kp) < best for kp in zip(keys, pairs[:r - 1])):
                gap = full_lp(part)[1]
                best = gap if best is None or gap < best else best
    stats["partitions"] = covered * math.factorial(r)
    if hit is not None:
        part, weights = hit
        point = convex_combination(weights[0], [config.points[i] for i in part[0]])
        cert = solver.TverbergCertificate(point, PartitionTuple(part), weights)
        return solver.SolveReport("certified", cert, ZERO, stats)
    if best is None:
        return solver.SolveReport("no-valid-partition", None, None, stats)
    return solver.SolveReport("infeasible-exhausted", None, best, stats)


def recursive_colorful_partitions(config, r):
    """`model.enumerate_colorful_partitions` as a recursive generator.

    One frame per class: each tries the class's injections into the
    pieces in lexicographic order, keeps those with restricted-growth
    labels, and recurses; a leaf assembles the pieces from the labels,
    reading the points in class order.  The flat walk that replaced it
    must yield the same tuples in the same order.
    """
    classes = config.classes
    left = [sum(len(cls) for cls in classes[c:]) for c in range(len(classes) + 1)]
    label = [0] * config.size

    def extend(c, opened):
        if opened + left[c] < r:
            return
        if c == len(classes):
            pieces = [[] for _ in range(r)]
            for i in itertools.chain(*classes):
                pieces[label[i]].append(i)
            yield tuple(map(tuple, pieces))
            return
        cls = classes[c]
        for assign in itertools.permutations(range(min(r, opened + len(cls))), len(cls)):
            now = opened
            for j in assign:
                if j > now:
                    break
                now += j == now
            else:
                for i, j in zip(cls, assign):
                    label[i] = j
                yield from extend(c + 1, now)

    return extend(0, 0)


def support_points(ints, code):
    """The distinct points of `ints` that a piece's support code names.

    As in `solver.solve_tverberg`, bit b stands for the b-th distinct
    point in first-index order; the piece's hull is their hull.
    """
    distinct = list(dict.fromkeys(ints))
    return [p for b, p in enumerate(distinct) if code >> b & 1]


def bound_step(ha, hb, hmax, hmin, scale, gap):
    """The least amount by which a normal's dual bound on a pair can exceed its gap.

    Every breakpoint bound of `pair_gap_reaches` is
    value/(q*scale) with 0 < q <= Q, Q the largest of 1, |hmax|, |hmin|
    and every |h.p|, so one above gap exceeds it by at least
    1/(Q*scale*gap.denominator): it would reach gap plus that step.
    """
    q = max(1, abs(hmax), abs(hmin), *map(abs, ha + hb))
    return Fraction(1, q * scale * gap.denominator)


def pair_gap_reaches(ha, hb, hmax, hmin, scale, best):
    """The pair dual bound before `geometry.gap_reaches` took r pieces.

    Whether a normal h puts the gap of `lp_solve_eq([a, b], scale)` at
    or above best > 0, given h.p over a (ha) and over b (hb) and h's
    largest and smallest entries: for each orientation s = +-1, with
    A = max s*h.p over a and B = min s*h.q over b, y_c = t*s*h,
    y_a = min(scale, -t*A) and y_b = min(scale, t*B) are dual feasible
    for t * max(s*h) <= 1, and each breakpoint t = p/q of their sum is
    compared with best by cross-multiplying.
    """
    for big, low, top in ((max(ha), min(hb), hmax), (-min(ha), -max(hb), -hmin)):
        if low <= big:
            continue
        for p, q in ((1, top), (scale, -big), (scale, low)):
            if q > 0 and p * top <= q:
                value = min(scale * q, -p * big) + min(scale * q, p * low)
                if value * best.denominator >= best.numerator * q * scale:
                    return True
    return False


def dual_bound(pieces, h, scale):
    """The best weak-duality bound on the gap of `lp_solve_eq(pieces, scale)` from h.

    h is a coordinate dual as `lp_solve_eq` returns it on a miss:
    d ints per piece after the first.  With y_c = t*h, the weight duals
    y_0 = min(scale, -t * max (h_1 + ... + h_{r-1}).p over piece 0) and
    y_j = min(scale, t * min h_j.q over piece j) are dual feasible while
    t * max(h) <= 1, and (sum y)/scale is at most the gap.  This takes
    the largest value over every breakpoint t of each y and t = 1/max(h),
    as Fractions: the bound is piecewise linear in t, so its maximum is
    at 0 or at one of them.
    """
    d = len(pieces[0][0])
    hs = [h[j:j + d] for j in range(0, len(h), d)]
    dot = lambda g, p: sum(a * b for a, b in zip(g, p))
    lows = [-max(sum(dot(g, p) for g in hs) for p in pieces[0])]
    lows += [min(dot(g, q) for q in piece) for g, piece in zip(hs, pieces[1:])]
    top = max(h)
    ts = [Fraction(scale, low) for low in lows if low > 0]
    if top > 0:
        ts.append(Fraction(1, top))
    bound = ZERO
    for t in ts:
        if top <= 0 or t * top <= 1:
            bound = max(bound, sum(min(scale, t * low) for low in lows) / scale)
    return bound


def orbit_key(config, pieces):
    """Piece labels of the points read class by class, renumbered by first use.

    Two partitions get the same key iff they differ only by relabelling
    their pieces.
    """
    label = {i: j for j, piece in enumerate(pieces) for i in piece}
    first = {}
    return tuple(first.setdefault(label[i], len(first)) for cls in config.classes for i in cls)


def fraction_flat_normal(points, subset):
    """Primitive normal of the hyperplane through the points of an index subset of size d.

    The one basis vector of the Fraction nullspace of the differences to
    the subset's first point, times the lcm of its denominators, divided
    by the gcd and signed so that its first nonzero entry is positive;
    None unless that nullspace is a line.  At d = 1 the subset is one
    point v and the plane {x = v}.
    """
    first, *rest = (points[i] for i in subset)
    d = len(first)
    diffs = [[a - b for a, b in zip(p, first)] for p in rest] or [[ZERO] * d]
    null = rational_solve(diffs, [0] * len(diffs))[1]
    return coprime_normal(null[0]) if len(null) == 1 else None


def coprime_normal(normal):
    """A Fraction vector times the lcm of its denominators, divided by the gcd, first nonzero entry positive."""
    scale = math.lcm(*(c.denominator for c in normal))
    ints = [int(c * scale) for c in normal]
    g = math.gcd(*ints) * (1 if next(v for v in ints if v) > 0 else -1)
    return tuple(v // g for v in ints)


def snap_quotients(instance):
    """Exact hyperplane normals through d input points (codimension one).

    Only for k = d-1 >= 1: each distinct normal once, in d-subset order,
    as the one quotient row, at most `solver._SNAP_CAP` of them.  Points
    that span less than a hyperplane have no d that cut one out; every
    hyperplane holding their affine hull is then a transversal, and the
    list is the hull's first normal: the Fraction nullspace vector of
    their differences at its first free column.
    """
    d = instance.d
    if d < 2 or instance.k != d - 1:
        return []
    pts = [p for cfg in instance.collections for p in cfg.points]
    null = rational_solve([[a - b for a, b in zip(p, pts[0])] for p in pts], [0] * len(pts))[1]
    if len(null) > 1:
        return [[[Fraction(v) for v in coprime_normal(null[0])]]]
    seen = set()
    out = []
    for subset in itertools.combinations(range(len(pts)), d):
        key = fraction_flat_normal(pts, subset)
        if key is None or key in seen:
            continue
        seen.add(key)
        out.append([[Fraction(v) for v in key]])
        if len(out) >= solver._SNAP_CAP:
            break
    return out


def pair_snap_quotients(instance):
    """Planar snap rows: the normal of every segment between two input points.

    Primitive integer normals with first nonzero entry positive, in pair
    order, first occurrence kept.
    """
    pts = [p for cfg in instance.collections for p in cfg.points]
    seen = []
    for a, b in itertools.combinations(pts, 2):
        ux, uy = a[0] - b[0], a[1] - b[1]
        if ux == 0 and uy == 0:
            continue
        scale = math.lcm(ux.denominator, uy.denominator)
        row = (-uy * scale, ux * scale)
        g = math.gcd(int(row[0]), int(row[1]))
        row = tuple(int(v) // g for v in row)
        if row[0] < 0 or (row[0] == 0 and row[1] < 0):
            row = (-row[0], -row[1])
        if row not in seen:
            seen.append(row)
    return [[[Fraction(v) for v in row]] for row in seen]


def fraction_projected_transversal(instance):
    """`solver.solve_transversal` with every direction projected in Fractions.

    The scan before the search scaled its points once: per candidate,
    each input point is projected by Fraction quotient rows, the
    projections are scaled to integers afresh with their own scale, and
    piece 0's witness and the plane's base come from the projected
    points.  Same candidates, partitions, LP order and certificate
    assembly as the solver, so a comparison checks the projection and
    its scaling alone.
    """
    stats = {"lps": 0, "directions": 0}
    plists = solver._partition_lists(instance)
    if plists is None:
        return solver.SolveReport("no-valid-partition", None, None, stats)
    best = None
    for rows in solver._candidate_quotients(instance):
        stats["directions"] += 1
        q_rows = [[Fraction(v) for v in row] for row in rows]
        hit, gap = fraction_projected_direction(q_rows, instance.collections, plists, stats)
        if hit is not None:
            combo, witness = hit
            if instance.d == instance.k:
                base = (ZERO,) * instance.d
                dirs = [[ONE if i == j else ZERO for j in range(instance.d)] for i in range(instance.d)]
            else:
                base, dirs = linalg.solve(q_rows, list(witness.point))
            plane = solver.KPlane(base=base, directions=dirs)
            # the solver's certificate, on the plane through the projected witness
            cert = replace(solver._build_certificate(instance, q_rows, combo, witness.weights), plane=plane)
            return solver.SolveReport("certified", cert, ZERO, stats)
        best = gap if best is None or gap < best else best
    return solver.SolveReport("budget-exhausted", None, best, stats)


def _project(q_rows, point):
    return tuple(sum((r[c] * point[c] for c in range(len(point))), ZERO) for r in q_rows)


def fraction_projected_direction(q_rows, collections, plists, stats):
    """The parent of `solver._evaluate_direction`: ((combo, witness), 0) or (None, gap)."""
    proj = [[_project(q_rows, p) for p in cfg.points] for cfg in collections]
    ints, scale = integer_points([p for pts in proj for p in pts])
    flat = iter(ints)
    iproj = [[next(flat) for _ in pts] for pts in proj]
    survivors, misses = [], []
    for ell, plist in enumerate(plists):
        good, gmin = [], None
        for part in plist:
            x, gap, _ = lp_solve_eq([[iproj[ell][i] for i in piece] for piece in part], scale)
            stats["lps"] += 1
            if x is not None:
                good.append(part)
            else:
                gmin = gap if gmin is None or gap < gmin else gmin
        survivors.append(good)
        if not good:
            misses.append(gmin)
    if misses:
        return None, sum(misses, ZERO)
    best = None
    for combo in itertools.product(*survivors):
        x, gap, _ = lp_solve_eq(solver._combo_pieces(iproj, combo), scale)
        stats["lps"] += 1
        if x is not None:
            weights = weights_of(x)
            point = convex_combination(weights[0], solver._combo_pieces(proj, combo)[0])
            return (combo, CommonPointWitness(point=point, weights=weights)), ZERO
        best = gap if best is None or gap < best else best
    return None, best


def first_met_flags(side, plist):
    """(first partition whose pieces all meet the plane, 0), else (None, least miss).

    Side flags per point: a piece meets the plane when one of its points
    has side <= 0 and one has side >= 0.  When no partition meets it, each
    partition's pieces' misses are summed afresh and the least sum taken.
    """
    below = [s <= 0 for s in side]
    above = [s >= 0 for s in side]
    for part in plist:
        if all(
            any(below[i] for i in piece) and any(above[i] for i in piece)
            for piece in part
        ):
            return part, 0
    return None, min(
        sum(
            max(min(side[i] for i in piece), -max(side[i] for i in piece), 0)
            for piece in part
        )
        for part in plist
    )


def hyperplane_disjunct_search(instance):
    """Whether some hyperplane meets every piece hull of one partition per collection.

    A hyperplane {a.x = b} meets a hull iff some ordered vertex pair
    (v-, v+) has a.v- <= b <= a.v+, and a can be scaled so one unit
    coordinate is +1 and the rest lie in [-1, 1] (ordered pairs absorb
    the sign flip).  One LP per ordered partition combination, vertex
    pair per piece and unit coordinate.  Returns (found, ordered
    combinations tried).
    """
    lists = [
        list(ordered_nonempty_partitions(cfg, r))
        for cfg, r in zip(instance.collections, instance.rs)
    ]
    tried = 0
    for combo in itertools.product(*lists):
        tried += 1
        pieces = [
            [cfg.points[i] for i in piece]
            for cfg, part in zip(instance.collections, combo)
            for piece in part
        ]
        pair_ranges = [itertools.product(range(len(p)), repeat=2) for p in pieces]
        for pairs in itertools.product(*pair_ranges):
            for unit in range(instance.d):
                if _hyperplane_disjunct_feasible(pieces, pairs, unit):
                    return True, tried
    return False, tried


def _hyperplane_disjunct_feasible(pieces, pairs, unit):
    d = len(pieces[0][0])
    other = [c for c in range(d) if c != unit]
    m = len(pieces)
    # variables: u_c (shifted normal coords), s_c (their upper-bound
    # slacks), beta+, beta-, then lower/upper slacks per piece
    width = 2 * len(other) + 2 + 2 * m
    rows, rhs = [], []
    for ci in range(len(other)):
        row = [ZERO] * width
        row[ci] = ONE
        row[len(other) + ci] = ONE
        rows.append(row)
        rhs.append(Fraction(2))
    bp = 2 * len(other)
    bm = bp + 1
    for j, (lo, hi) in enumerate(pairs):
        vlo, vhi = pieces[j][lo], pieces[j][hi]
        row = [ZERO] * width
        for ci, c in enumerate(other):
            row[ci] = vlo[c]
        row[bp], row[bm], row[bp + 2 + 2 * j] = -ONE, ONE, ONE
        rows.append(row)
        rhs.append(sum(vlo[c] for c in other) - vlo[unit])
        row = [ZERO] * width
        for ci, c in enumerate(other):
            row[ci] = -vhi[c]
        row[bp], row[bm], row[bp + 2 + 2 * j + 1] = ONE, -ONE, ONE
        rows.append(row)
        rhs.append(vhi[unit] - sum(vhi[c] for c in other))
    return rational_lp_solve_eq(rows, rhs)[0] is not None


class DegenerateIntersection(ValueError):
    """A restriction produced a lower-dimensional or empty intersection."""


def lift_instance(instance, r_new=None):
    """Embed a (d-1, k-1)-instance into (d, k) by adding a clustered collection.

    Existing points gain a trailing 0 coordinate.  The new collection
    sits near (0,...,0,1): point i is offset by (i*eps, 0,...,0, i^2*eps^2)
    with eps = 1/1000, every point its own color, so its hull misses the
    hyperplane x_d = 0 and any produced plane restricts to a solution of
    the input (see `restrict_solution`).
    """
    if r_new is None:
        r_new = instance.rs[-1]
    if r_new < 2:
        raise ValueError("piece count must be at least 2")
    d = instance.d + 1
    k = instance.k + 1
    eps = Fraction(1, 1000)
    lifted = []
    for cfg in instance.collections:
        pts = tuple(p + (ZERO,) for p in cfg.points)
        lifted.append(model.ColoredConfig(dim=d, points=pts, classes=cfg.classes))
    size = model.required_size(d, k, r_new)
    cluster = []
    for i in range(size):
        p = [ZERO] * d
        p[0] = i * eps
        p[-1] = 1 + i * i * eps * eps
        cluster.append(tuple(p))
    new_cfg = model.ColoredConfig(
        dim=d,
        points=tuple(cluster),
        classes=tuple((i,) for i in range(size)),
    )
    return model.ProblemInstance(
        d=d, k=k, rs=instance.rs + (r_new,), collections=tuple(lifted) + (new_cfg,)
    )


def restrict_solution(instance, cert):
    """Intersect a certified plane with {last coordinate = 0}.

    The input certifies a lifted instance whose final collection is the
    off-hyperplane cluster; dropping that collection and cutting the
    plane yields a certificate one dimension down: a TverbergCertificate
    when the cut plane is a single point, else a TransversalCertificate.
    Raises DegenerateIntersection when the plane misses the hyperplane
    or lies inside it.
    """
    if not isinstance(cert, solver.TransversalCertificate):
        raise PreconditionError("restriction needs a transversal certificate")
    d, k = instance.d, instance.k
    plane = cert.plane
    last = [v[d - 1] for v in plane.directions]
    if all(v == 0 for v in last):
        if plane.base[d - 1] == 0:
            raise DegenerateIntersection("plane lies inside the hyperplane")
        raise DegenerateIntersection("plane misses the hyperplane")
    sol = linalg.solve([last], [-plane.base[d - 1]])
    t0, null = sol
    new_base = tuple(
        plane.base[c] + sum(t * v[c] for t, v in zip(t0, plane.directions))
        for c in range(d - 1)
    )
    new_dirs = tuple(
        tuple(
            sum(n[a] * plane.directions[a][c] for a in range(len(t0)))
            for c in range(d - 1)
        )
        for n in null
    )
    kept = len(cert.partitions) - 1
    for ell in range(kept):
        for x in cert.witness_points[ell]:
            if x[d - 1] != 0:
                raise PreconditionError(
                    "witness of a kept collection is off the hyperplane"
                )
    dropped_pts = tuple(
        tuple(tuple(x[:-1]) for x in col) for col in cert.witness_points[:kept]
    )
    if kept == 1 and k - 1 == 0:
        points = {p for col in dropped_pts for p in col}
        if len(points) != 1:
            raise DegenerateIntersection(
                "witnesses do not meet in a single point"
            )
        return solver.TverbergCertificate(
            point=next(iter(points)),
            partition=cert.partitions[0],
            weights=cert.weights[0],
        )
    return solver.TransversalCertificate(
        plane=solver.KPlane(base=new_base, directions=new_dirs),
        partitions=cert.partitions[:kept],
        weights=cert.weights[:kept],
        witness_points=dropped_pts,
    )


def _affine(matrix, shift, point):
    return tuple(sum((a * c for a, c in zip(row, point)), b) for row, b in zip(matrix, shift))


def affine_image(instance, matrix, shift):
    """The instance under x -> matrix x + shift, every class and piece count kept."""
    collections = tuple(
        model.ColoredConfig(cfg.dim, [_affine(matrix, shift, p) for p in cfg.points], cfg.classes)
        for cfg in instance.collections
    )
    return model.ProblemInstance(instance.d, instance.k, instance.rs, collections)


def affine_certificate(cert, matrix, shift):
    """A certificate's image under x -> matrix x + shift: points and plane mapped, weights kept."""
    if isinstance(cert, solver.TverbergCertificate):
        return replace(cert, point=_affine(matrix, shift, cert.point))
    zero = (ZERO,) * len(shift)
    plane = solver.KPlane(
        base=_affine(matrix, shift, cert.plane.base),
        directions=[_affine(matrix, zero, v) for v in cert.plane.directions],
    )
    points = tuple(tuple(_affine(matrix, shift, x) for x in col) for col in cert.witness_points)
    return replace(cert, plane=plane, witness_points=points)


def relabelled(config, order):
    """config with point i renumbered order[i]; classes carried along, listed by least point."""
    points = [None] * config.size
    for i, p in enumerate(config.points):
        points[order[i]] = p
    classes = sorted(sorted(order[i] for i in cls) for cls in config.classes)
    return model.ColoredConfig(config.dim, points, classes)

