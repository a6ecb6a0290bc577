"""Independent checks of tverlab's answers.

Nothing here imports tverlab.  Every check takes plain data (tuples of
Fractions and index tuples) and returns None when the answer holds, or a
short reason string when it does not.  The linear algebra, the partition
counts, the structure tests that justify a refutation and the mod-p
homology are all written out here, so a fault in the package cannot
vouch for itself.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, gcd

# ---------------------------------------------------------------------------
# exact linear algebra


def rank(rows) -> int:
    """Rank of a rational matrix by Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def _int_pivot_columns(rows):
    """Pivot columns of an integer matrix by fraction-free elimination,
    rows kept primitive."""
    m = [list(row) for row in rows]
    pivots = []
    if not m:
        return pivots
    r = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        p = m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if f:
                row = [p[c] * a - f * b for a, b in zip(m[i], p)]
                g = gcd(*row)
                m[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return pivots


def plane_equations(base, directions):
    """(normal, offset) pairs whose common zero set is base + span(directions)."""
    d = len(base)
    # normals span the null space of the direction matrix
    rows = [[Fraction(v) for v in u] for u in directions]
    pivots = []
    r = 0
    for c in range(d):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    normals = []
    for free in range(d):
        if free in pivots:
            continue
        n = [Fraction(0)] * d
        n[free] = Fraction(1)
        for i, c in enumerate(pivots):
            n[c] = -rows[i][free]
        normals.append(n)
    return [(n, sum(a * b for a, b in zip(n, base))) for n in normals]


# ---------------------------------------------------------------------------
# partitions and certificates


def colorful_partition_count(class_sizes, r: int) -> int:
    """Ordered colorful partitions into r pieces, none empty.

    Inclusion-exclusion over the set of pieces forced empty: with j
    pieces banned, class c has (r-j)!/(r-j-|c|)! injective placements.
    """
    total = 0
    for j in range(r + 1):
        placements = 1
        for size in class_sizes:
            free = r - j
            placements *= factorial(free) // factorial(free - size) if size <= free else 0
        total += (-1) ** j * comb(r, j) * placements
    return total


def partition_problem(n_points: int, classes, r: int, pieces):
    """Reason the pieces are not a colorful r-partition of 0..n-1, or None."""
    if len(pieces) != r:
        return "piece-count"
    if any(not piece for piece in pieces):
        return "empty-piece"
    flat = [i for piece in pieces for i in piece]
    if sorted(flat) != list(range(n_points)):
        return "not-a-partition"
    color = {i: c for c, cls in enumerate(classes) for i in cls}
    for piece in pieces:
        colors = [color[i] for i in piece]
        if len(colors) != len(set(colors)):
            return "not-colorful"
    return None


def _combination(points, weights):
    dim = len(points[0])
    return tuple(sum((w * p[c] for w, p in zip(weights, points)), Fraction(0)) for c in range(dim))


def _weights_problem(weights, size: int):
    if len(weights) != size:
        return "weight-shape"
    if any(w < 0 for w in weights):
        return "negative-weight"
    if sum(weights) != 1:
        return "weight-sum"
    return None


def tverberg_problem(points, classes, r: int, pieces, weights, point):
    """Check a common-point certificate against its input."""
    bad = partition_problem(len(points), classes, r, pieces)
    if bad:
        return bad
    if len(weights) != r:
        return "weight-shape"
    for piece, ws in zip(pieces, weights):
        bad = _weights_problem(ws, len(piece))
        if bad:
            return bad
        if _combination([points[i] for i in piece], ws) != tuple(point):
            return "point-mismatch"
    return None


def transversal_problem(collections, rs, k: int, cert):
    """Check a k-plane certificate.

    collections is a list of (points, classes); cert is a dict with
    base, directions, partitions, weights and witness_points.  Each
    piece's combination must equal its witness and satisfy every plane
    equation computed here.
    """
    base, directions = cert["base"], cert["directions"]
    d = len(base)
    if len(directions) != k or (directions and rank(directions) != k):
        return "bad-plane"
    equations = plane_equations(base, directions)
    if len(cert["partitions"]) != len(collections):
        return "shape-mismatch"
    for ell, (points, classes) in enumerate(collections):
        pieces = cert["partitions"][ell]
        bad = partition_problem(len(points), classes, rs[ell], pieces)
        if bad:
            return bad
        for piece, ws, x in zip(pieces, cert["weights"][ell], cert["witness_points"][ell]):
            bad = _weights_problem(ws, len(piece))
            if bad:
                return bad
            combo = _combination([points[i] for i in piece], ws)
            if combo != tuple(x):
                return "point-mismatch"
            if len(combo) != d or any(
                sum(a * b for a, b in zip(n, combo)) != off for n, off in equations
            ):
                return "off-plane"
    return None


# ---------------------------------------------------------------------------
# inputs on which a refutation is a theorem


def _set_partitions(n: int, r: int):
    """Unordered partitions of range(n) into r nonempty blocks."""

    def grow(i, labels, used):
        if n - i < r - used:
            return
        if i == n:
            yield labels
            return
        for b in range(min(used + 1, r)):
            yield from grow(i + 1, labels + (b,), max(used, b + 1))

    for labels in grow(0, (), 0):
        yield [[i for i in range(n) if labels[i] == b] for b in range(r)]


def affine_hulls_disjoint(points, r: int) -> bool:
    """True iff no r-partition of the points has affine hulls with a common point.

    This is the general position the dimension count needs: with
    (r-1)(d+1) points the system for a common point of the affine hulls
    has one more equation than unknowns, so for points in general
    position it is inconsistent for every partition, and then the convex
    hulls cannot meet either.  Points must have integer coordinates.
    """
    n, d = len(points), len(points[0])
    pts = [[int(c) for c in p] for p in points]
    for blocks in _set_partitions(n, r):
        rows = []
        for block in blocks:
            row = [0] * (n + 1)
            for i in block:
                row[i] = 1
            row[n] = 1
            rows.append(row)
        for block in blocks[1:]:
            for c in range(d):
                row = [0] * (n + 1)
                for i in blocks[0]:
                    row[i] = pts[i][c]
                for i in block:
                    row[i] = -pts[i][c]
                rows.append(row)
        if n not in _int_pivot_columns(rows):
            return False
    return True


def _tightness_configuration(points, classes, r: int, m: int) -> bool:
    """r-1 copies of each vertex of an m-simplex, its barycenter once, and a
    class of r points that avoids the barycenter.

    Any point common to r piece hulls must be the barycenter, with one
    piece {barycenter} and one copy of every vertex in each other piece,
    so the r points of that class would share r-1 pieces.
    """
    mult: dict = {}
    for p in points:
        mult[tuple(p)] = mult.get(tuple(p), 0) + 1
    if len(mult) != m + 2:
        return False
    for center in [p for p, c in mult.items() if c == 1]:
        verts = [p for p in mult if p != center]
        if any(mult[v] != r - 1 for v in verts):
            continue
        if rank([[a - b for a, b in zip(v, verts[0])] for v in verts[1:]]) != m:
            continue
        bary = tuple(sum(v[c] for v in verts) / (m + 1) for c in range(len(center)))
        if bary != center:
            continue
        return any(
            len(cls) == r and all(tuple(points[i]) != center for i in cls)
            for cls in classes
        )
    return False


def tightness_rules_out(d: int, k: int, collections, rs):
    """Index of the collection that makes a k-plane transversal impossible, or None.

    The collections must lie on parallel (d-k)-flats whose offsets are
    affinely independent modulo the flats, so a k-plane meeting all of
    them meets each in one point; that point would then be a colorful
    common point of one collection inside its flat, which the tightness
    configuration forbids.
    """
    m = d - k
    diffs = [
        [a - b for a, b in zip(p, pts[0])] for pts, _ in collections for p in pts[1:]
    ]
    if rank(diffs) != m:
        return None
    for pts, _ in collections:
        if rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) != m:
            return None
    anchors = [pts[0] for pts, _ in collections]
    offsets = [[a - b for a, b in zip(o, anchors[0])] for o in anchors[1:]]
    if rank(diffs + offsets) != d:
        return None
    for ell, ((pts, classes), r) in enumerate(zip(collections, rs)):
        if _tightness_configuration(pts, classes, r, m):
            return ell
    return None


# ---------------------------------------------------------------------------
# topology


def board_f_vector(m: int, n: int):
    """f-vector of the m x n chessboard complex: C(m,k) C(n,k) k! faces of size k."""
    return tuple(comb(m, s) * comb(n, s) * factorial(s) for s in range(1, min(m, n) + 1))


def orientation_problem(facets, signs):
    """Every ridge lies in two facets whose incidences cancel."""
    if len(signs) != len(facets) or any(s not in (1, -1) for s in signs):
        return "bad-signs"
    ridges: dict = {}
    for facet, s in zip(facets, signs):
        f = sorted(facet)
        for pos in range(len(f)):
            ridge = tuple(f[:pos] + f[pos + 1:])
            ridges.setdefault(ridge, []).append(s * (-1) ** pos)
    for incidences in ridges.values():
        if len(incidences) != 2:
            return "not-a-pseudo-manifold"
        if sum(incidences) != 0:
            return "incidences-do-not-cancel"
    return None


def betti_mod_p(facets, p: int):
    """Betti numbers over GF(p) by sparse column reduction of the boundary maps."""
    faces: dict = {}
    for facet in facets:
        f = tuple(sorted(facet))
        for size in range(1, len(f) + 1):
            faces.setdefault(size - 1, set()).update(itertools.combinations(f, size))
    top = max(faces)
    ranks = [0] * (top + 2)
    for dim in range(1, top + 1):
        index = {f: i for i, f in enumerate(sorted(faces[dim - 1]))}
        pivot_cols: dict = {}
        for face in sorted(faces[dim]):
            col = {}
            for pos in range(len(face)):
                col[index[face[:pos] + face[pos + 1:]]] = (-1) ** pos % p
            while col:
                low = max(col)
                if low not in pivot_cols:
                    pivot_cols[low] = col
                    break
                other = pivot_cols[low]
                f = col[low] * pow(other[low], -1, p) % p
                for row, v in other.items():
                    nv = (col.get(row, 0) - f * v) % p
                    if nv:
                        col[row] = nv
                    else:
                        col.pop(row, None)
        ranks[dim] = len(pivot_cols)
    return tuple(len(faces[i]) - ranks[i] - ranks[i + 1] for i in range(top + 1))


def board_betti_problem(m: int, n: int, betti):
    """beta_0 = 1 and beta_i = 0 for 1 <= i <= nu-2 (Bjorner-Lovasz-Vrecica-Zivaljevic)."""
    nu = min(m, n, (m + n + 1) // 3)
    if not betti or betti[0] != 1:
        return "not-connected"
    if any(betti[i] for i in range(1, nu - 1)):
        return "connectivity-violated"
    return None


def degree_problem(r: int, d: int, degree: int):
    """|degree| = (r-1)!^(d+1) and degree = +-1 mod r."""
    if abs(degree) != factorial(r - 1) ** (d + 1):
        return "degree-magnitude"
    if degree % r not in (1 % r, (r - 1) % r):
        return "degree-residue"
    return None
