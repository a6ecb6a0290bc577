"""Chessboard complexes, joins, mod-p homology, and the weight-map degree.

The combinatorial objects here are small and explicit: a complex is its
facet list, faces are sorted vertex tuples, boundary maps use the
alternating-sign convention on sorted vertices.  The degree computation
at the end certifies the piecewise-linear weight map from the (d+1)-fold
join of the r x (r-1) chessboard complex onto a sphere by exact signed
counting of the preimages of one regular value.  It is counted on one
oriented board: the join is never built, and its degree is the (d+1)-th
power of the board degree.  Whether the cyclic row action on such a
join is free is likewise decided on one board (see `is_free_action`).
No floating point, no normalisation.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import CapExceeded, PreconditionError

FACET_CAP = 10**7
GROUP_CAP = 10**6


def _check_cap(count: int) -> None:
    """CapExceeded past `FACET_CAP`, read at call time so that assigning it takes effect."""
    if count > FACET_CAP:
        raise CapExceeded(f"facet count {count} exceeds cap {FACET_CAP}")


def _is_inclusion_maximal(canon) -> bool:
    """No facet of canon (distinct sorted tuples) is a face of another.

    Distinct facets of one size never nest, so only facets below the top
    size are checked (none, for a pure list), each against the larger
    facets through its rarest vertex, which any facet containing it has.
    """
    top = max(len(f) for f in canon)
    smaller = [g for g in canon if len(g) < top]
    if not smaller:
        return True
    by_vertex: dict[int, list] = {}
    for f in canon:
        for v in f:
            by_vertex.setdefault(v, []).append(f)
    for g in smaller:
        if not g:
            return False  # the empty face lies in every other facet
        rarest = min(g, key=lambda v: len(by_vertex[v]))
        members = set(g)
        if any(len(f) > len(g) and members.issubset(f) for f in by_vertex[rarest]):
            return False
    return True


class SimplicialComplex:
    """Finite abstract simplicial complex given by its facets.

    Vertices are 0..n_vertices-1.  Facets must be inclusion-maximal;
    faces of every dimension are derived on demand and cached.
    """

    def __init__(self, n_vertices: int, facets):
        self.n_vertices = n_vertices
        canon = sorted({tuple(sorted(f)) for f in facets})
        if not canon:
            raise ValueError("a complex needs at least one facet")
        for f in canon:
            if any(v < 0 or v >= n_vertices for v in f):
                raise ValueError("facet vertex out of range")
            if len(set(f)) != len(f):
                raise ValueError("facet repeats a vertex")
        if not _is_inclusion_maximal(canon):
            raise ValueError("facet list is not inclusion-maximal")
        self.facets = tuple(canon)
        self._faces: dict[int, tuple] | None = None
        self._walk: tuple | None = None

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) == 1

    def faces_by_dim(self):
        """dict: dimension -> sorted tuple of faces (nonempty only)."""
        if self._faces is None:
            table: dict[int, set] = {}
            for f in self.facets:
                for size in range(1, len(f) + 1):
                    bucket = table.setdefault(size - 1, set())
                    bucket.update(itertools.combinations(f, size))
            self._faces = {d: tuple(sorted(s)) for d, s in table.items()}
        return self._faces

    def f_vector(self) -> tuple[int, ...]:
        faces = self.faces_by_dim()
        return tuple(len(faces[d]) for d in range(self.dim + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * n for d, n in enumerate(self.f_vector()))

    def __repr__(self):
        return f"SimplicialComplex(n={self.n_vertices}, facets={len(self.facets)}, dim={self.dim})"


def chessboard_complex(rows: int, cols: int) -> SimplicialComplex:
    """Complex of non-attacking rook placements on a rows x cols board.

    Vertex (i, j) gets id i*cols + j.  Faces are partial matchings; the
    facets are the placements of min(rows, cols) rooks.  The facet count
    is checked against `FACET_CAP` before any facet is generated.
    """
    if rows < 1 or cols < 1:
        raise ValueError("board sides must be positive")
    _check_cap(math.perm(max(rows, cols), min(rows, cols)))
    facets = []
    if cols <= rows:
        for perm in itertools.permutations(range(rows), cols):
            facets.append(tuple(sorted(perm[j] * cols + j for j in range(cols))))
    else:
        for perm in itertools.permutations(range(cols), rows):
            facets.append(tuple(sorted(i * cols + perm[i] for i in range(rows))))
    return SimplicialComplex(rows * cols, facets)


def join(a: SimplicialComplex, b: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; b's vertices are shifted past a's, after a `FACET_CAP` check."""
    _check_cap(len(a.facets) * len(b.facets))
    off = a.n_vertices
    facets = [
        fa + tuple(v + off for v in fb)
        for fa in a.facets
        for fb in b.facets
    ]
    return SimplicialComplex(a.n_vertices + b.n_vertices, facets)


# ---------------------------------------------------------------------------
# homology mod p


def _ridges_of(facet):
    for pos in range(len(facet)):
        yield facet[:pos] + facet[pos + 1 :]


def _rank_mod_p(columns, p):
    """Pivot rows over GF(p) of sparse columns {row: value}; the rank is their number.

    A column is reduced by the stored one with the same lowest row until
    it is zero or its lowest row is new, then stored with that entry 1.
    Entries are updated in place: a stored entry is nonzero, so one that
    cancels was already in the column.  `homology_mod_p` runs this
    top-down with clearing (Chen and Kerber): the rows returned for one
    boundary matrix are the columns the next one never builds.
    """
    stored: dict[int, dict[int, int]] = {}
    for column in columns:
        col = {i: v % p for i, v in column.items() if v % p}
        while col:
            low = max(col)
            pivot = stored.get(low)
            if pivot is None:
                inv = pow(col[low], -1, p)
                stored[low] = {i: v * inv % p for i, v in col.items()}
                break
            f = col[low]
            for i, v in pivot.items():
                w = (col.get(i, 0) - f * v) % p
                if w:
                    col[i] = w
                else:
                    del col[i]
    return set(stored)


def boundary_matrix(complex_: SimplicialComplex, d: int, cleared=()):
    """Sparse boundary columns, one per d-face in faces_by_dim()[d] order
    whose index is not in `cleared`: {index in faces_by_dim()[d-1] of the
    face without vertex pos: (-1)^pos}."""
    faces = complex_.faces_by_dim()
    lower = {f: i for i, f in enumerate(faces[d - 1])}
    return [
        {lower[ridge]: (-1) ** pos for pos, ridge in enumerate(_ridges_of(face))}
        for j, face in enumerate(faces[d])
        if j not in cleared
    ]


def homology_mod_p(complex_: SimplicialComplex, p: int) -> tuple[int, ...]:
    """Unreduced Betti numbers over GF(p), dimensions 0..dim.

    The boundary matrices are reduced top-down with clearing (Chen and
    Kerber, "Persistent homology computation with a twist", EuroCG 2011).
    A pivot row sigma of the reduced boundary of dimension d+1 is the
    highest face of a d-cycle, so the boundary of sigma lies in the span
    of the columns of earlier d-faces, and the column of sigma is never
    built: the rank of dimension d does not change without it.
    """
    if not linalg.is_prime(p):
        raise ValueError(f"{p} is not prime")
    counts = complex_.f_vector()
    ranks = [0] * (complex_.dim + 2)
    pivots = set()
    for d in range(complex_.dim, 0, -1):
        pivots = _rank_mod_p(boundary_matrix(complex_, d, pivots), p)
        ranks[d] = len(pivots)
    return tuple(
        counts[d] - ranks[d] - ranks[d + 1] for d in range(complex_.dim + 1)
    )


# ---------------------------------------------------------------------------
# pseudo-manifold structure and orientation


@dataclass(frozen=True)
class PseudoManifoldReport:
    ok: bool
    pure: bool
    connected: bool
    bad_ridges: tuple = ()

    def __bool__(self):
        return self.ok


def _facet_walk(complex_: SimplicialComplex):
    """(bad_ridges, connected, signs) of a pure complex, made once and cached.

    One pass over (facet, position) keeps a ridge's first incidence as fi,
    or ~fi at an odd position, its second as the pair and a third as ();
    ridges left without a pair are bad.  A pair's incidences (-1)^pos
    cancel iff its facets' signs differ exactly when the positions'
    parities agree.  A parity union-find joins each pair's facets, the
    larger root under the smaller, so facet 0 roots its part.  signs,
    +1 on facet 0, is None unless the complex is connected and coherent,
    where it is the only such orientation.
    """
    if complex_._walk is not None:
        return complex_._walk
    facets = complex_.facets
    size = len(facets[0])
    # the i-th of combinations() drops position size-1-i
    odd = [(size - 1 - i) & 1 for i in range(size)]
    incidences: dict[tuple, int | tuple] = {}
    for fi, facet in enumerate(facets):
        for ridge, o in zip(itertools.combinations(facet, max(size - 1, 0)), odd):
            inc = ~fi if o else fi
            seen = incidences.get(ridge)
            if seen is None:
                incidences[ridge] = inc
            elif type(seen) is int:
                incidences[ridge] = (seen, inc)
            else:
                incidences[ridge] = ()
    parent = list(range(len(facets)))
    parity = [0] * len(facets)  # 1: opposite sign to parent[i]

    def root(x):
        """(root, parity to it) of facet x, halving the path on the way."""
        p = 0
        while parent[x] != x:
            up = parent[x]
            parity[x] ^= parity[up]
            parent[x] = parent[up]
            p ^= parity[x]
            x = parent[x]
        return x, p

    coherent = True
    for pair in incidences.values():
        if type(pair) is not tuple or not pair:
            continue
        a, b = pair
        (ra, pa), (rb, pb) = root(a if a >= 0 else ~a), root(b if b >= 0 else ~b)
        rel = pa ^ pb ^ ((a < 0) == (b < 0))  # asked of ra and rb
        if ra == rb:
            coherent = coherent and not rel
        elif ra < rb:
            parent[rb], parity[rb] = ra, rel
        else:
            parent[ra], parity[ra] = rb, rel
    for i, up in enumerate(parent):
        if up != i:
            parity[i] ^= parity[up]
            parent[i] = parent[up]
    connected = not any(parent)
    bad = tuple(sorted(r for r, pair in incidences.items() if not (type(pair) is tuple and pair)))
    signs = tuple(-1 if p else 1 for p in parity) if connected and coherent else None
    complex_._walk = bad, connected, signs
    return complex_._walk


def is_pseudo_manifold(complex_: SimplicialComplex) -> PseudoManifoldReport:
    """Pure, every ridge in exactly two facets, facet-ridge graph connected.

    The report lists the offending ridges when the middle condition
    fails, which doubles as a boundary detector.
    """
    if not complex_.is_pure():
        return PseudoManifoldReport(ok=False, pure=False, connected=False)
    bad, connected, _signs = _facet_walk(complex_)
    return PseudoManifoldReport(ok=not bad and connected, pure=True, connected=connected, bad_ridges=bad)


@dataclass(frozen=True)
class Orientation:
    """Signs per facet (aligned with complex_.facets) cancelling on ridges."""

    signs: tuple[int, ...]


def orient(complex_: SimplicialComplex):
    """The coherent facet orientation with facet 0 = +1, or None.

    Raises PreconditionError unless the complex is a pseudo-manifold,
    even one a sign conflict has already shown non-orientable.  The
    incidence sign of a ridge in a facet is (-1)^position on the sorted
    vertex list; coherence means the two incidences cancel.  Both this
    and `is_pseudo_manifold` read the complex's one facet walk.
    """
    if not is_pseudo_manifold(complex_):
        raise PreconditionError("orientation needs a pseudo-manifold")
    signs = _facet_walk(complex_)[2]
    return None if signs is None else Orientation(signs=signs)


# ---------------------------------------------------------------------------
# group actions


@dataclass(frozen=True)
class PermutationAction:
    """Vertex permutations generating a finite group (closure computed)."""

    n_vertices: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for g in self.generators:
            if sorted(g) != list(range(self.n_vertices)):
                raise ValueError("generator is not a permutation of the vertices")

    def elements(self):
        """All group elements as permutation tuples (identity included);
        CapExceeded past `GROUP_CAP` elements."""
        ident = tuple(range(self.n_vertices))
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for g in frontier:
                for h in self.generators:
                    gh = tuple(h[v] for v in g)
                    if gh not in seen:
                        seen.add(gh)
                        nxt.append(gh)
                        if len(seen) > GROUP_CAP:
                            raise CapExceeded(f"group closure exceeds cap {GROUP_CAP}")
            frontier = nxt
        return sorted(seen)


def cyclic_row_action(rows: int, cols: int, copies: int = 1) -> PermutationAction:
    """Simultaneous row shift on `copies` disjoint rows x cols boards."""
    n = copies * rows * cols
    perm = [0] * n
    for c in range(copies):
        base = c * rows * cols
        for i in range(rows):
            for j in range(cols):
                perm[base + i * cols + j] = base + ((i + 1) % rows) * cols + j
    return PermutationAction(n_vertices=n, generators=(tuple(perm),))


def is_free_action(complex_: SimplicialComplex, action: PermutationAction) -> bool:
    """True iff no nonempty face is fixed setwise by a nontrivial element.

    g fixes a nonempty face s iff s is a union of <g>-orbits.  So if g
    fixes s, the orbit of any vertex of s lies in s, hence in a facet,
    and an orbit inside a facet is a face that g fixes.  The action is
    thus free iff no orbit <g>.v with g != e lies in a facet: no face is
    listed.

    On a join of copies of one complex, with the same permutation on
    every copy, a face is one face per copy and g fixes it iff g fixes
    every part, so the join is free iff one copy is: a join question is
    answered on one board, and `topology free` builds no join.

    Raises PreconditionError if some generator fails to map facets to
    facets (i.e. does not act simplicially on the complex).
    """
    if action.n_vertices != complex_.n_vertices:
        raise PreconditionError("action is on a different vertex set")
    facet_set = set(complex_.facets)
    for g in action.generators:
        for f in complex_.facets:
            if tuple(sorted(g[v] for v in f)) not in facet_set:
                raise PreconditionError("generator does not preserve the complex")
    ident = tuple(range(action.n_vertices))
    for g in action.elements():
        if g == ident:
            continue
        powers = [g]  # g, g^2, ..., e
        while powers[-1] != ident:
            powers.append(tuple(g[v] for v in powers[-1]))
        orbits = [frozenset(p[v] for p in powers) for v in ident]
        for f in complex_.facets:
            members = set(f)
            if any(orbits[v] <= members for v in f):
                return False
    return True


# ---------------------------------------------------------------------------
# the weight map and its degree


def _weight_coords(r: int, row: int):
    """Coordinates of the projected basis vector e_row in the sum-zero
    hyperplane of R^r, written in the drop-last-coordinate chart."""
    return [
        Fraction(int(row == c) * r - 1, r) for c in range(r - 1)
    ]


@dataclass(frozen=True)
class DegreeReport:
    degree: int
    modulus: int
    crossings: int
    facets: int

    @property
    def residue(self) -> int:
        return self.degree % self.modulus

    @property
    def residue_is_plus_minus_one(self) -> bool:
        return self.residue in (1 % self.modulus, (-1) % self.modulus)


def _board_outcome(block, w):
    """Why block mu = w skips a facet or is not regular, or sign det block."""
    sol = linalg.solve(block, w)
    if sol is None:
        return "inconsistent"
    if sol[1]:
        return "singular"
    if any(v < 0 for v in sol[0]):
        return "negative"
    if 0 in sol[0]:
        return "zero"
    return 1 if linalg.det(block) > 0 else -1


def test_map_degree(r: int, d: int) -> DegreeReport:
    """Exact degree of the weight map on the (d+1)-fold join of the r x (r-1)
    chessboard complex, counted on one oriented board; no join is built.

    Vertex (ell, i, j) maps to c_ell (x) b_i, with b_i from `_weight_coords`,
    c_ell = (1, f_ell), f_0 = -(e_1+...+e_d) and f_ell = e_ell.  A join
    ridge through factor ell's part keeps the board's two incidence signs
    times one common (-1)^(ell(r-1)), so the product of the board signs is
    coherent, and it is `orient`'s own choice on the join, whose facet 0 is
    (beta_0, ..., beta_0).  A join facet's matrix is M = (C (x) I)
    blockdiag(B_0, ..., B_d), C with columns c_ell and det C = d+1 > 0, so
    with (C (x) I) w = value, M mu = value splits into B_ell mu_ell = w_ell
    and sign det M = prod sign det B_ell.  The join map is thus the join of
    the board maps composed with an orientation-preserving isomorphism, and
    its degree is the product of the board degrees.

    It is counted once, at the clean value v = (1, ..., 1, 0, ..., 0) with
    r-1 ones, which is regular for every r >= 2 and d >= 0:
      1. Row 0 of C is all ones and row c >= 1 says w_c = w_0, so
         (C (x) I) w = v gives w_ell = 1/(d+1) for every factor ell.  All
         factors thus read the same r row-set blocks against one w, and
         each block is solved once.
      2. Every board block is invertible: the r weight vectors span the
         sum-zero hyperplane and sum to 0, so any r-1 of them are
         independent.
      3. The row set without row r-1 solves at mu = (r/(d+1), ..., r/(d+1))
         > 0, so it crosses.
      4. A row set without a row x < r-1 has mu's last entry equal to
         -r/(d+1) and its other entries 0, which `_board_outcome` reads as
         "negative" before "zero".
      5. So no block is singular or zero, and v is regular.  With identical
         factors that is also the test: the join facet taking one board in
         every factor reads that board's outcome alone, so any singular or
         zero block would make v non-regular, and raises AssertionError.
    The degree and the crossings are the (d+1)-th powers of the board's
    signed sum and crossing count; `facets` is the join's r!^(d+1).
    """
    if r < 2 or d < 0:
        raise ValueError("need r >= 2 and d >= 0")
    board, m = chessboard_complex(r, r - 1), r - 1
    tallies: dict[tuple, list[int]] = {}  # row set -> [sum of board signs, board count]
    for sign, facet in zip(orient(board).signs, board.facets):
        tally = tallies.setdefault(tuple(v // m for v in facet), [0, 0])
        tally[0] += sign
        tally[1] += 1
    coords = [_weight_coords(r, i) for i in range(r)]
    w = [Fraction(1, d + 1)] * m
    degree = crossings = 0
    for rows, (signed, count) in tallies.items():
        outcome = _board_outcome([[coords[i][k] for i in rows] for k in range(m)], w)
        if outcome in ("singular", "zero"):
            raise AssertionError(f"the clean value is not regular at r={r}, d={d}")
        if outcome in (1, -1):
            degree += outcome * signed
            crossings += count
    return DegreeReport(degree ** (d + 1), r, crossings ** (d + 1), math.factorial(r) ** (d + 1))


@dataclass(frozen=True)
class DimsReport:
    """Dimension/rank bookkeeping for a class profile and parameters."""

    join_dim: int
    reduced_join_dim: int
    target_dim: int
    sum_bundle_rank: int
    diagonal_rank: int
    complement_rank: int


def dims_report(profile, r: int, d: int, k: int) -> DimsReport:
    """Dimensions of the join complexes and bundle ranks for (profile, r, d, k).

    profile lists the class sizes c_0..c_m (each at most r-1).  The join
    over the classes has dimension sum(c_i) - 1; the matched-size join of
    full r x (r-1) boards has dimension (r-1)(m+1) - 1.  All figures are
    closed forms; no complex is built.
    """
    profile = tuple(profile)
    if not profile or any(not 0 < c <= r - 1 for c in profile):
        raise ValueError("class sizes must lie in [1, r-1]")
    if not 0 <= k <= d:
        raise ValueError("need 0 <= k <= d")
    m = len(profile) - 1
    return DimsReport(
        join_dim=sum(profile) - 1,
        reduced_join_dim=(r - 1) * (m + 1) - 1,
        target_dim=(r - 1) * (d + 1),
        sum_bundle_rank=r * (d - k),
        diagonal_rank=d - k,
        complement_rank=(r - 1) * (d - k),
    )
