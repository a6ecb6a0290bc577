"""Small exact linear algebra: elimination, solves, kernels, determinants,
plus the integer scaling and primality test shared by other layers.

Everything here is dense and desk-scale.  A matrix is scaled to integers
once and row-reduced with the kernel's fraction-free `pivot`; the pivot
row is the first nonzero one, so results are deterministic.
"""
from fractions import Fraction
from math import gcd, lcm

from .errors import CapExceeded
from .kernels import pivot

ZERO = Fraction(0)


def integer_points(points):
    """(integer points, scale): every point times one positive integer scale.

    scale is the lcm of all coordinate denominators, so one scale serves
    the whole set and pieces drawn from it share the LP's units.
    """
    scale = lcm(*(c.denominator for p in points for c in p), 1)
    return [tuple(c.numerator * (scale // c.denominator) for c in p) for p in points], scale


def integer_point_lists(point_lists):
    """(integer point lists, scale): `integer_points` of the pooled lists, split back per list."""
    ints, scale = integer_points([p for pts in point_lists for p in pts])
    flat = iter(ints)
    return [[next(flat) for _ in pts] for pts in point_lists], scale


def _echelon(matrix, width):
    """Gauss-Jordan on the first `width` columns: (rows, pivots, D, det).

    rows/D is the reduced row echelon form of `matrix`, pivots the
    (row, column) of each pivot, and det the determinant of a square
    `matrix` (0 when singular): the row-swap sign times D / scale**width.
    """
    ints, scale = integer_points(matrix)
    rows = [list(row) for row in ints]
    pivots = []
    D = sign = 1
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        D = pivot(rows, r, c, D, range(len(rows[r])))
        pivots.append((r, c))
        r += 1
        if r == len(rows):
            break
    square = len(pivots) == width == len(rows)
    return rows, pivots, D, Fraction(sign * D, scale**width) if square else ZERO


def rank(matrix):
    return len(_echelon(matrix, len(matrix[0]))[1]) if matrix else 0


def _kernel(rows, pivots, D, width):
    """Integer nullspace basis from one `_echelon` result, one vector per free column in column order.

    rows/D is the reduced echelon form (Bareiss 1968), so D on a free
    column, 0 on the other free columns and -rows[r][free] on each pivot
    (r, c) solve the first `width` columns times x = 0 in integers.
    """
    cols = {c for _, c in pivots}
    basis = []
    for free in (c for c in range(width) if c not in cols):
        v = [0] * width
        v[free] = D
        for r, c in pivots:
            v[c] = -rows[r][free]
        basis.append(v)
    return basis


def solve(matrix, rhs):
    """Solve M x = rhs.  Returns (particular, nullspace_basis) or None.

    None means inconsistent.  nullspace_basis is empty iff the solution
    is unique; it is `_kernel`'s basis over D.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    rows, pivots, D, _ = _echelon([list(matrix[i]) + [rhs[i]] for i in range(m)], n)
    if any(rows[i][n] for i in range(len(pivots), m)):
        return None
    x = [ZERO] * n
    for r, c in pivots:
        x[c] = Fraction(rows[r][n], D)
    return x, [[Fraction(v, D) for v in vec] for vec in _kernel(rows, pivots, D, n)]


def nullspace(matrix, width):
    """Primitive integer basis of {x in Q^width : M x = 0}, one vector per free column.

    Each of `_kernel`'s vectors is divided by its gcd and signed so that
    its first nonzero entry is positive.  The basis is then a function of
    the row space alone: two matrices of one width have equal nullspaces
    iff their rows span the same space.  width serves a matrix with no
    rows, whose basis is the unit vectors.
    """
    rows, pivots, D, _ = _echelon(matrix, width)
    basis = []
    for vec in _kernel(rows, pivots, D, width):
        g = gcd(*vec)
        if next(v for v in vec if v) < 0:
            g = -g
        basis.append(tuple(v // g for v in vec))
    return basis


def det(matrix):
    """Determinant of a square matrix."""
    return _echelon(matrix, len(matrix))[3]


def is_prime(n: int) -> bool:
    """Exact primality test: strong probable-prime tests to the prime bases 2..41.

    Below 3,317,044,064,679,887,385,961,981 no composite passes all
    thirteen bases (Sorenson and Webster, 2015), so a pass there is
    proof.  Above it a failed base still proves n composite, but a
    number that passes every base raises CapExceeded: primality cannot
    be proven there.
    """
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2:
        return False
    for b in bases:
        if n % b == 0:
            return n == b
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for b in bases:
        x = pow(b, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n < 3_317_044_064_679_887_385_961_981:
        return True
    raise CapExceeded(f"cannot prove {n} prime: above 3.3e24, passing every base is no proof")
