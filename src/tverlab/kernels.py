"""Pure-Python exact phase-1 simplex on integer data.

Decides feasibility of {x >= 0 : A x = b} by minimising a weighted sum
of artificial variables.  The tableau is kept fraction-free: an integer
matrix M together with a positive integer divisor D represents the
rational tableau M/D, and every `pivot` divides exactly (Edmonds-style
integer pivoting; `linalg` eliminates with it too), so all sign tests
and ratio comparisons are plain integer comparisons.  Bland's rule on
both the entering and the leaving choice guarantees termination.

In such a tableau every basic column is D times a unit vector (Edmonds
1967), so a pivot need not compute it: the entering column becomes
D'·e_p, and every other basic column keeps its one nonzero entry, which
becomes the new D'.  `phase1` keeps the list of nonbasic columns and
the rhs column, swaps the entering column for the leaving one at each
pivot, has `pivot` compute only the listed columns, and writes the
basic entries directly: (m+1)×(n+1) cells per pivot instead of
(m+1)×(n+m+1).
"""

from .errors import CapExceeded

PIVOT_CAP = 10_000_000


def pivot(rows, p, q, D, cols):
    """Pivot rows/D on entry (p, q) in place; returns piv = rows[p][q], the new D.

    Row p stays.  In every other row, each column j in `cols` becomes
    (piv * row[j] - row[q] * rows[p][j]) / D, column q becomes 0, and
    every other column keeps its entry.  Passing every column gives the
    whole pivot.  A caller may leave out a column that is D times a unit
    vector e_k with k != p: it becomes piv * e_k, and the caller writes
    that one entry itself.
    """
    piv = rows[p][q]
    rowp = rows[p]
    for i, rowi in enumerate(rows):
        if i == p:
            continue
        f = rowi[q]
        if f == 0:
            if piv != D:
                for j in cols:
                    v = rowi[j]
                    if v:
                        rowi[j] = (piv * v) // D
        else:
            for j in cols:
                rowi[j] = (piv * rowi[j] - f * rowp[j]) // D
            rowi[q] = 0
    return piv


def phase1(nrows, ncols, data, rhs, costs=None):
    """Run phase-1 simplex on A x = b, x >= 0 with integer A, b (b >= 0).

    data is the matrix as a list of nrows lists of ncols ints, rhs a list
    of nonnegative ints.  costs optionally weights the artificial of each
    row in the phase-1 objective (default all 1); weights let callers
    measure constraint violation in original rather than row-scaled units.
    Costs that are not nrows positive ints, data that is not nrows rows
    of ncols, and negative rhs entries raise ValueError; a pivot past
    PIVOT_CAP raises CapExceeded.

    Returns (feasible, xnum, xden, gapnum, gapden, pivots):
      feasible  -- True iff the system has a solution
      xnum/xden -- on success, x[j] = xnum[j]/xden exactly (xden > 0)
      gap       -- on failure, gapnum/gapden is the positive optimum of
                   the weighted artificial sum (the violation gap)
      xnum      -- on failure, the final objective row, over gapden: the
                   reduced costs.  It holds the exact Farkas dual
                   y_i = costs[i] - xnum[ncols+i]/gapden, with y.A_j <= 0
                   for every column j, y_i <= costs[i] and y.b = gap
                   (Schrijver 1986, ch. 7).  Handing the row back costs
                   nothing; callers that want y derive it.
    """
    if costs is None:
        costs = [1] * nrows
    elif len(costs) != nrows or not all(isinstance(c, int) and c > 0 for c in costs):
        raise ValueError("costs must be one positive int per row")
    if len(data) != nrows or len(rhs) != nrows or any(len(row) != ncols for row in data):
        raise ValueError("data must be nrows rows of ncols entries, with one rhs per row")
    width = ncols + nrows + 1
    rc = ncols + nrows  # rhs column
    M = []
    for i in range(nrows):
        if rhs[i] < 0:
            raise ValueError("rhs entries must be nonnegative")
        row = [0] * width
        row[0:ncols] = data[i]
        row[ncols + i] = 1
        row[rc] = rhs[i]
        M.append(row)
    obj = [0] * width
    for j in range(ncols):
        s = 0
        for i in range(nrows):
            s += costs[i] * M[i][j]
        obj[j] = -s
    s = 0
    for i in range(nrows):
        s += costs[i] * rhs[i]
    obj[rc] = -s
    M.append(obj)

    basis = [ncols + i for i in range(nrows)]
    cols = list(range(ncols)) + [rc]  # nonbasic columns and the rhs column
    D = 1
    pivots = 0
    while True:
        q = -1
        for j in range(rc):
            if obj[j] < 0:
                q = j
                break
        if q < 0:
            break
        # leaving row: minimum ratio rhs/column, ties to smallest basis index
        p = -1
        bn = bd = 0
        for i in range(nrows):
            c = M[i][q]
            if c > 0:
                n = M[i][rc]
                if p < 0:
                    p, bn, bd = i, n, c
                else:
                    t = n * bd - bn * c
                    if t < 0 or (t == 0 and basis[i] < basis[p]):
                        p, bn, bd = i, n, c
        if p < 0:
            raise ArithmeticError("phase-1 objective unbounded; input invalid")
        cols[cols.index(q)] = basis[p]
        basis[p] = q
        D = pivot(M, p, q, D, cols)
        for i, j in enumerate(basis):
            M[i][j] = D
        pivots += 1
        if pivots > PIVOT_CAP:
            raise CapExceeded(f"pivot cap {PIVOT_CAP} exceeded")

    wnum = -obj[rc]  # optimum = wnum / D >= 0
    if wnum == 0:
        xnum = [0] * ncols
        for i in range(nrows):
            if basis[i] < ncols:
                xnum[basis[i]] = M[i][rc]
        return (True, xnum, D, 0, 1, pivots)
    return (False, obj, 0, wnum, D, pivots)
