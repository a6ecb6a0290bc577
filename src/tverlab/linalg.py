"""Small exact linear algebra over Fraction: elimination, solves, kernels,
plus the primality test shared by the model and topology layers.

Everything here is dense and desk-scale; no pivoting heuristics beyond
"first nonzero" so results are deterministic.
"""
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _echelon(rows, width):
    """Row-reduce in place; returns list of (row_index, pivot_col)."""
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


def rank(matrix):
    if not matrix:
        return 0
    rows = [[Fraction(v) for v in row] for row in matrix]
    return len(_echelon(rows, len(rows[0])))


def solve(matrix, rhs):
    """Solve M x = rhs.  Returns (particular, nullspace_basis) or None.

    None means inconsistent.  nullspace_basis is empty iff the solution
    is unique.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    rows = [[Fraction(v) for v in matrix[i]] + [Fraction(rhs[i])] for i in range(m)]
    pivots = _echelon(rows, n)
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


def nullspace(matrix):
    """Basis of {x : M x = 0}."""
    if not matrix:
        return []
    res = solve(matrix, [ZERO] * len(matrix))
    assert res is not None
    return res[1]


def det(matrix):
    """Determinant of a square matrix (fraction-free Bareiss)."""
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


def is_prime(n: int) -> bool:
    """Trial division; the moduli and piece counts here are small."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True
