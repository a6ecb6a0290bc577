"""Small exact linear algebra: elimination, solves, kernels, determinants,
plus the integer scaling and primality test shared by other layers.

Everything here is dense and desk-scale.  A matrix is scaled to integers
once and row-reduced with the kernel's fraction-free `pivot`; the pivot
row is the first nonzero one, so results are deterministic.
"""
from fractions import Fraction
from math import lcm

from .errors import CapExceeded
from .kernels import pivot

ZERO = Fraction(0)
ONE = Fraction(1)


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


def solve(matrix, rhs):
    """Solve M x = rhs.  Returns (particular, nullspace_basis) or None.

    None means inconsistent.  nullspace_basis is empty iff the solution
    is unique.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    rows, pivots, D, _ = _echelon([list(matrix[i]) + [rhs[i]] for i in range(m)], n)
    if any(rows[i][n] for i in range(len(pivots), m)):
        return None
    pivot_cols = {c for _, c in pivots}
    x = [ZERO] * n
    for r, c in pivots:
        x[c] = Fraction(rows[r][n], D)
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        v = [ZERO] * n
        v[free] = ONE
        for r, c in pivots:
            v[c] = Fraction(-rows[r][free], D)
        basis.append(v)
    return x, basis


def nullspace(matrix):
    """Basis of {x : M x = 0}."""
    return solve(matrix, [0] * len(matrix))[1] if matrix else []


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
