"""Exact linear algebra over the rationals.

``solve`` is the sparse solver behind the homotopy-witness search.  Its
candidate columns come lazily, in order, and the witness usually lies in the
span of a short prefix of them, so it eliminates left-looking (as in
Gilbert-Peierls, 1988): each new column is reduced against the pivots found
so far, the target is reduced by each new pivot, and the search stops as soon
as the target's residue is empty.  Elimination is fraction-free on integer
vectors (as in Bareiss, 1968), with ``Fraction`` only in back-substitution.
The same solver gives the Grothendieck residue of a square system from one
right-hand side against the rows of its reduced Bezoutian.  ``charpoly``
takes the sparse columns of a multiplication matrix of the quotient ring and
works over ``Fraction`` on one dense copy of it.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .ring import cleared


def solve(cols, rhs) -> list[Fraction] | None:
    """One exact solution x of sum_j x_j * cols[j] = rhs, or None if inconsistent.

    ``cols`` is a sequence of sparse columns and ``rhs`` a sparse right-hand
    side, each a dict from row number to an ``int`` or ``Fraction``.  Columns
    are indexed in order, each once, and only until the target lies in the
    span of the columns indexed so far.  A column that is independent of the
    columns before it becomes a pivot: it is reduced against the earlier
    pivots, visited in creation order through a heap of the pivot rows it
    touches, and its pivot row is its highest-numbered row left.  Free
    variables and every column after the stop get zero, so the solution is
    the unique one supported on the greedy column-order basis, whichever
    pivot rows were chosen.  The result has one ``Fraction`` per column
    indexed, up to the one that completed the target; a column after it has
    the value zero and no entry.

    Elimination is fraction-free.  A column and the target are scaled to
    integers by the lcm of their denominators; reducing v by a pivot p at its
    row r is v <- a*v - f*p with f/a = v[r]/p[r] in lowest terms, and each
    pivot is kept primitive with a positive pivot entry.  The multipliers are
    recorded as f over the running scale of v, which is all back-substitution
    needs to express the target in the original columns.
    """
    res_den, res = cleared(rhs)
    if not res:
        return []
    pivot_of: dict = {}  # row -> pivot number
    prow: list = []  # pivot number -> its row
    pvec: list[dict] = []  # pivot number -> primitive integer vector
    # pivot number -> (column, its diagonal as numerator and denominator,
    # [(earlier pivot, multiplier numerator, denominator)]): column =
    # (diag_num * pvec[k] + sum num/den * pvec[i]) / diag_den
    ucol: list = []
    y: list = []  # target = sum num/den * pvec[k] over (k, num, den)
    res_scale = 1
    for j in range(len(cols)):
        d, w = cleared(cols[j])
        if not w:
            continue
        touched = [k for k in map(pivot_of.get, w) if k is not None]
        scale = 1
        comb = []
        if touched:
            heapify(touched)
            while touched:
                k = heappop(touched)
                r = prow[k]
                f = w.get(r)
                if not f:  # a duplicate entry, or cancelled on the way
                    continue
                vec = pvec[k]
                a = vec[r]
                g = gcd(a, f)
                if g != 1:
                    a //= g
                    f //= g
                if a != 1:
                    for i in w:
                        w[i] *= a
                    scale *= a
                for i, v in vec.items():
                    u = w.get(i)
                    if u is None:
                        w[i] = -f * v
                        if i in pivot_of:
                            heappush(touched, pivot_of[i])
                    else:
                        u -= f * v
                        if u:
                            w[i] = u
                        else:
                            del w[i]
                comb.append((k, f, scale * d))
            if not w:
                continue
        r = max(w)
        content = gcd(*w.values())
        if w[r] < 0:
            content = -content
        if content != 1:
            for i in w:
                w[i] //= content
        k = len(pvec)
        pivot_of[r] = k
        prow.append(r)
        pvec.append(w)
        ucol.append((j, content, scale * d, comb))
        f = res.get(r)
        if f:
            a = w[r]
            g = gcd(a, f)
            if g != 1:
                a //= g
                f //= g
            if a != 1:
                for i in res:
                    res[i] *= a
                res_scale *= a
            for i, v in w.items():
                u = res.get(i)
                if u is None:
                    res[i] = -f * v
                else:
                    u -= f * v
                    if u:
                        res[i] = u
                    else:
                        del res[i]
            y.append((k, f, res_scale * res_den))
            if not res:
                return _back_substitute([Fraction(0)] * (j + 1), ucol, y)
    return None


def _back_substitute(x, ucol, y):
    """Fill ``x`` from the target's pivot coordinates ``y`` (see ``solve``)."""
    z = {k: Fraction(num, den) for k, num, den in y}
    for k in range(len(ucol) - 1, -1, -1):
        zk = z.get(k)
        if not zk:
            continue
        c, diag_num, diag_den, comb = ucol[k]
        xc = zk * diag_den / diag_num
        x[c] = xc
        for i, num, den in comb:
            z[i] = z.get(i, 0) - xc * Fraction(num, den)
    return x


def charpoly(cols) -> list[Fraction]:
    """Monic characteristic polynomial det(t*I - M), ascending coefficients.

    ``cols`` are M's sparse columns, each a dict from row number to entry
    (``quotient.mul_matrix``).  They fill one dense working copy, which is
    brought to Hessenberg form by exact similarity operations (a row
    operation below the subdiagonal paired with the compensating column
    operation); then the determinant is expanded by the
    leading-principal-minor recurrence, which only ever multiplies along the
    subdiagonal.
    """
    n = len(cols)
    h = [[Fraction(0)] * n for _ in range(n)]
    for c, col in enumerate(cols):
        for r, v in col.items():
            h[r][c] = Fraction(v)
    for c in range(n - 2):
        p = next((i for i in range(c + 1, n) if h[i][c]), None)
        if p is None:
            continue
        if p != c + 1:
            h[c + 1], h[p] = h[p], h[c + 1]
            for row in h:
                row[c + 1], row[p] = row[p], row[c + 1]
        piv = h[c + 1][c]
        for i in range(c + 2, n):
            if h[i][c]:
                f = h[i][c] / piv
                row_src = h[c + 1]
                h[i] = [vi - f * vs for vi, vs in zip(h[i], row_src)]
                for row in h:
                    row[c + 1] += f * row[i]
    minors = [[Fraction(1)]]
    for k in range(1, n + 1):
        prev = minors[k - 1]
        cur = [Fraction(0)] * (k + 1)
        for i, coef in enumerate(prev):
            cur[i + 1] += coef
            if h[k - 1][k - 1]:
                cur[i] -= h[k - 1][k - 1] * coef
        prod = Fraction(1)
        for m in range(1, k):
            prod *= h[k - m][k - m - 1]
            if not prod:
                break
            factor = h[k - 1 - m][k - 1] * prod
            if factor:
                for i, coef in enumerate(minors[k - 1 - m]):
                    cur[i] -= factor * coef
        minors.append(cur)
    return minors[n]

