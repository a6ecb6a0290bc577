"""Chessboard complexes, joins, mod-p homology, and the weight-map degree.

The combinatorial objects here are small and explicit: a complex is its
facet list, faces are sorted vertex tuples, boundary maps use the
alternating-sign convention on sorted vertices.  The degree computation
at the end certifies the piecewise-linear weight map from a join of
chessboard complexes onto a sphere by exact signed counting of the
preimages of one regular value; no floating point, no normalisation.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import CapExceeded, PreconditionError

FACET_CAP = 10**7


def _check_cap(count: int, cap: int) -> None:
    if count > cap:
        raise CapExceeded(f"facet count {count} exceeds cap {cap}")


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

    def all_faces(self):
        faces = self.faces_by_dim()
        for d in range(self.dim + 1):
            yield from faces.get(d, ())

    def __repr__(self):
        return f"SimplicialComplex(n={self.n_vertices}, facets={len(self.facets)}, dim={self.dim})"


def chessboard_complex(rows: int, cols: int, cap: int = FACET_CAP) -> SimplicialComplex:
    """Complex of non-attacking rook placements on a rows x cols board.

    Vertex (i, j) gets id i*cols + j.  Faces are partial matchings; the
    facets are the placements of min(rows, cols) rooks.  The facet count
    is checked against `cap` before any facet is generated.
    """
    if rows < 1 or cols < 1:
        raise ValueError("board sides must be positive")
    _check_cap(math.perm(max(rows, cols), min(rows, cols)), cap)
    facets = []
    if cols <= rows:
        for perm in itertools.permutations(range(rows), cols):
            facets.append(tuple(sorted(perm[j] * cols + j for j in range(cols))))
    else:
        for perm in itertools.permutations(range(cols), rows):
            facets.append(tuple(sorted(i * cols + perm[i] for i in range(rows))))
    return SimplicialComplex(rows * cols, facets)


def join(a: SimplicialComplex, b: SimplicialComplex, cap: int = FACET_CAP) -> SimplicialComplex:
    """Simplicial join; b's vertices are shifted past a's."""
    _check_cap(len(a.facets) * len(b.facets), cap)
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
    """Rank over GF(p) of sparse columns {row: value}, by column reduction.

    A column is reduced by the stored one with the same lowest row until
    it is zero or its lowest row is new, then stored with that entry 1.
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
                col[i] = (col.get(i, 0) - f * v) % p
            col = {i: v for i, v in col.items() if v}
    return len(stored)


def boundary_matrix(complex_: SimplicialComplex, d: int):
    """Sparse boundary columns, one per d-face in faces_by_dim()[d] order:
    {index in faces_by_dim()[d-1] of the face without vertex pos: (-1)^pos}."""
    faces = complex_.faces_by_dim()
    lower = {f: i for i, f in enumerate(faces[d - 1])}
    return [
        {lower[ridge]: (-1) ** pos for pos, ridge in enumerate(_ridges_of(face))}
        for face in faces[d]
    ]


def homology_mod_p(complex_: SimplicialComplex, p: int) -> tuple[int, ...]:
    """Unreduced Betti numbers over GF(p), dimensions 0..dim."""
    if not linalg.is_prime(p):
        raise ValueError(f"{p} is not prime")
    counts = complex_.f_vector()
    ranks = [0] * (complex_.dim + 2)
    for d in range(1, complex_.dim + 1):
        ranks[d] = _rank_mod_p(boundary_matrix(complex_, d), p)
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
    """(bad_ridges, signs, coherent) from one DFS over the facet-ridge graph.

    Signs spread from facet 0 across ridges in exactly two facets so that
    the two incidences (-1)^position cancel.  bad_ridges lists the other
    ridges, signs[i] is 0 on facets never reached, and coherent is False
    if some ridge's incidences failed to cancel.
    """
    ridge_map: dict[tuple, list[tuple[int, int]]] = {}
    for fi, facet in enumerate(complex_.facets):
        for pos, ridge in enumerate(_ridges_of(facet)):
            ridge_map.setdefault(ridge, []).append((fi, (-1) ** pos))
    bad = tuple(sorted(r for r, incs in ridge_map.items() if len(incs) != 2))
    signs = [0] * len(complex_.facets)
    signs[0] = 1
    coherent = True
    stack = [0]
    while stack:
        fi = stack.pop()
        for ridge in _ridges_of(complex_.facets[fi]):
            incs = ridge_map[ridge]
            if len(incs) != 2:
                continue
            (a, sa), (b, sb) = incs
            other, inc_self, inc_other = (b, sa, sb) if a == fi else (a, sb, sa)
            want = -signs[fi] * inc_self * inc_other
            if signs[other] == 0:
                signs[other] = want
                stack.append(other)
            elif signs[other] != want:
                coherent = False
    return bad, signs, coherent


def is_pseudo_manifold(complex_: SimplicialComplex) -> PseudoManifoldReport:
    """Pure, every ridge in exactly two facets, facet-ridge graph connected.

    The report lists the offending ridges when the middle condition
    fails, which doubles as a boundary detector.
    """
    if not complex_.is_pure():
        return PseudoManifoldReport(ok=False, pure=False, connected=False)
    bad, signs, _coherent = _facet_walk(complex_)
    connected = 0 not in signs
    return PseudoManifoldReport(ok=not bad and connected, pure=True, connected=connected, bad_ridges=bad)


@dataclass(frozen=True)
class Orientation:
    """Signs per facet (aligned with complex_.facets) cancelling on ridges."""

    signs: tuple[int, ...]


def orient(complex_: SimplicialComplex):
    """Coherent facet orientation by spanning-tree propagation, or None.

    Raises PreconditionError unless the complex is a pseudo-manifold,
    even one a sign conflict has already shown non-orientable.  The
    incidence sign of a ridge in a facet is (-1)^position on the sorted
    vertex list; coherence means the two incidences cancel.
    """
    bad, signs, coherent = _facet_walk(complex_)
    if not complex_.is_pure() or bad or 0 in signs:
        raise PreconditionError("orientation needs a pseudo-manifold")
    return Orientation(signs=tuple(signs)) if coherent else None


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

    def elements(self, cap: int = 10**6):
        """All group elements as permutation tuples (identity included)."""
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
                        if len(seen) > cap:
                            raise CapExceeded("group closure exceeds cap")
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
    faces = list(complex_.all_faces())
    for g in action.elements():
        if g == ident:
            continue
        for f in faces:
            if tuple(sorted(g[v] for v in f)) == f:
                return False
    return True


# ---------------------------------------------------------------------------
# the weight map and its degree


@dataclass(frozen=True)
class PLMap:
    """Piecewise-linear map: one rational image point per vertex."""

    complex_: SimplicialComplex
    images: tuple[tuple[Fraction, ...], ...]
    target_dim: int

    def __post_init__(self):
        if len(self.images) != self.complex_.n_vertices:
            raise ValueError("need one image point per vertex")
        if any(len(p) != self.target_dim for p in self.images):
            raise ValueError("image point dimension mismatch")


def test_map_complex(r: int, d: int, cap: int = FACET_CAP):
    """(d+1)-fold join of the r x (r-1) chessboard complex, with vertex info.

    Returns (complex, info) where info[v] = (factor, row, col).  Vertex
    ids are factor-major, then row-major.  The facet count of the whole
    join is checked against `cap` before any facet is generated.
    """
    if r < 2 or d < 0:
        raise ValueError("need r >= 2 and d >= 0")
    _check_cap(math.perm(r, r - 1) ** (d + 1), cap)
    complex_ = board = chessboard_complex(r, r - 1, cap)
    for _ in range(d):
        complex_ = join(complex_, board, cap)
    return complex_, _vertex_info(r, d)


def _vertex_info(r: int, d: int):
    return tuple(itertools.product(range(d + 1), range(r), range(r - 1)))


def _weight_coords(r: int, row: int):
    """Coordinates of the projected basis vector e_row in the sum-zero
    hyperplane of R^r, written in the drop-last-coordinate chart."""
    return [
        Fraction(int(row == c) * r - 1, r) for c in range(r - 1)
    ]


def _factor_vector(d: int, ell: int):
    """c_ell = (1, f_ell), with f_0 = -(e_1+...+e_d) and f_ell = e_ell."""
    return [Fraction(1)] + [Fraction(-1 if ell == 0 else int(c == ell - 1)) for c in range(d)]


def _weight_images(r: int, d: int):
    """c_ell (x) b_i for each vertex (ell, i, j): block c is c_ell[c] b_i,
    where b_i = _weight_coords(r, i)."""
    return tuple(
        tuple(c * b for c in _factor_vector(d, ell) for b in _weight_coords(r, i))
        for ell, i, _j in _vertex_info(r, d)
    )


def test_map(r: int, d: int, cap: int = FACET_CAP) -> PLMap:
    """The canonical weight map on the (d+1)-fold chessboard join.

    Factor 0 plays the role of the class sent to -(e_1+...+e_d); factor
    ell >= 1 is sent to e_ell.  Block c of the image records the
    projected c-weighted piece masses, so the image lies in a product of
    d+1 sum-zero hyperplanes, dimension (r-1)(d+1).
    """
    complex_, _info = test_map_complex(r, d, cap)
    return PLMap(complex_=complex_, images=_weight_images(r, d), target_dim=(r - 1) * (d + 1))


@dataclass(frozen=True)
class DegreeReport:
    degree: int
    modulus: int
    crossings: int
    facets: int
    regular_value_attempts: int

    @property
    def residue(self) -> int:
        return self.degree % self.modulus

    @property
    def residue_is_plus_minus_one(self) -> bool:
        return self.residue in (1 % self.modulus, (-1) % self.modulus)


def _primes_from(start: int):
    n = start
    while True:
        if linalg.is_prime(n):
            yield n
        n += 1


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


def _signed_crossings(plm: PLMap, signs, value):
    """(degree, crossings) of plm at value, or None if value is not regular.

    plm must be the weight map, vertex (ell, i, j) to c_ell (x) b_i, and
    each facet must take r-1 vertices from each factor, or
    PreconditionError is raised.  A facet's matrix is then M = (C (x) I)
    blockdiag(B_0, ..., B_d): C has columns c_ell, B_ell the b_i of the
    facet's vertices in factor ell.  det C = d+1 > 0 (a Schur complement),
    so with (C (x) I) w = value, M mu = value splits exactly into
    B_ell mu_ell = w_ell, and sign det M = prod sign det B_ell.  Each block
    is solved once per value.  A facet is skipped if a block is
    inconsistent, non-regular if one is singular, skipped if a mu_ell has
    a negative entry, non-regular if one has a zero, and otherwise counts
    its sign times prod sign det B_ell: the order a solve of M meets them.
    """
    n = plm.target_dim
    r = plm.complex_.n_vertices // n if n else 0
    d = n // (r - 1) - 1 if r > 1 else -1
    if d < 0 or plm.images != _weight_images(r, d):
        raise PreconditionError("the factored count needs the weight map's images")
    m, info = r - 1, _vertex_info(r, d)
    cs = [_factor_vector(d, ell) for ell in range(d + 1)]
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
                cols = [_weight_coords(r, info[v][1]) for v in board]
                block = [[col[k] for col in cols] for k in range(m)]
                outcomes[ell, board] = _board_outcome(block, w[ell * m:ell * m + m])
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


def test_map_degree(r: int, d: int, max_attempts: int = 64, cap: int = FACET_CAP) -> DegreeReport:
    """Exact degree of the weight map by signed preimage counting.

    Orients the join (it must be an orientable pseudo-manifold), picks
    the regular value aligned with the projected all-ones direction in
    block 0, and counts facets whose image cone contains it, signed by
    facet orientation times image determinant sign.  Cone membership is
    exact: `_signed_crossings` solves each board block of the Kronecker
    factorisation of the facet matrices once, not each facet's system.
    If the value turns out non-regular (a zero or dependent solution),
    attempt t >= 1 adds 1/q to coordinate (t-1) mod target_dim, with q
    the t-th prime from 1009 upward, and the scan restarts; CapExceeded
    is raised after `max_attempts` scans.  `cap` bounds the facet count
    of the join.
    """
    plm = test_map(r, d, cap)
    ori = orient(plm.complex_)
    if ori is None:
        raise PreconditionError("weight-map complex is not orientable")
    value = [Fraction(1)] * (r - 1) + [Fraction(0)] * ((r - 1) * d)
    primes = _primes_from(1009)
    for t in range(max_attempts):
        if t:
            value[(t - 1) % plm.target_dim] += Fraction(1, next(primes))
        counted = _signed_crossings(plm, ori.signs, value)
        if counted is not None:
            degree, crossings = counted
            return DegreeReport(degree, r, crossings, len(plm.complex_.facets), t + 1)
    raise CapExceeded("no regular value found within the perturbation budget")


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
