"""Exact linear algebra over the rationals.

``solve`` is the sparse solver behind the homotopy-witness search: its
systems are a few hundred rows and columns at 0.2-5% fill, so it works on
dict rows with a column index, picks fewest-nonzeros pivots (LaMacchia-
Odlyzko, 1990) and eliminates fraction-free on integer rows (as in Bareiss,
1968), with ``Fraction`` only in back-substitution.  ``inverse``, for the
reduced Bezoutian of a quotient ring, pivots the same way over ``Fraction``.
``charpoly`` works over ``Fraction`` on a small dense list of lists (a
multiplication matrix of the quotient ring).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .ring import accumulate


def solve(cols, rhs, nrows) -> list[Fraction] | None:
    """One exact solution x of sum_j x_j * cols[j] = rhs, or None if inconsistent.

    ``cols`` is a list of sparse columns and ``rhs`` a sparse right-hand side,
    each a dict from row index (below ``nrows``) to an ``int`` or ``Fraction``.
    Columns are taken in order; each one that is independent of the columns
    before it gets as pivot the active row with the fewest nonzeros (ties to
    the lower index), and only the rows holding that column are eliminated.
    Free variables are set to zero, so the solution is the unique one
    supported on the greedy column-order basis, whichever pivot rows were
    chosen.  The result has one ``Fraction`` per column.

    Elimination is fraction-free.  Each row, its right-hand side included, is
    scaled to integers by the lcm of its denominators; a row is updated as
    a*row_i - f*row_p with f/a the elimination factor in lowest terms, then
    divided by its content.  So every row stays a nonzero multiple of the
    row elimination over the rationals would hold: the zero patterns, the
    pivots and the solution are the same, and ``Fraction`` arithmetic is left
    to back-substitution.
    """
    rows: list[dict[int, int]] = [{} for _ in range(nrows)]
    # column -> active rows with a nonzero there; pivot rows leave it
    holders: list[set[int]] = []
    for j, col in enumerate(cols):
        live = set()
        for i, v in col.items():
            if v:
                rows[i][j] = v
                live.add(i)
        holders.append(live)
    b = [0] * nrows
    for i, row in enumerate(rows):
        v = rhs.get(i, 0)
        den = lcm(v.denominator, *(u.denominator for u in row.values()))
        b[i] = v.numerator * (den // v.denominator)
        for j, u in row.items():
            row[j] = u.numerator * (den // u.denominator)
    pivots: list[tuple[int, int]] = []
    for c, live in enumerate(holders):
        if not live:
            continue
        p = min(live, key=lambda i: (len(rows[i]), i))
        row_p = rows[p]
        for j in row_p:
            holders[j].discard(p)
        a, b_p = row_p[c], b[p]
        for i in sorted(live):
            row_i = rows[i]
            f = row_i[c]
            g = gcd(a, f)
            a_i, f_i = a // g, f // g
            if a_i != 1:
                for j in row_i:
                    row_i[j] *= a_i
            for j, v in row_p.items():
                s = row_i.get(j, 0) - f_i * v
                if s:
                    if j not in row_i:
                        holders[j].add(i)
                    row_i[j] = s
                else:
                    del row_i[j]
                    holders[j].discard(i)
            b_i = a_i * b[i] - f_i * b_p
            content = gcd(b_i, *row_i.values())
            if content > 1:
                for j in row_i:
                    row_i[j] //= content
                b_i //= content
            b[i] = b_i
        pivots.append((p, c))
    pivot_rows = {p for p, _ in pivots}
    if any(b[i] for i in range(nrows) if i not in pivot_rows):
        return None
    x = [Fraction(0)] * len(cols)
    for p, c in reversed(pivots):
        row_p = rows[p]
        acc = b[p]
        for j, v in row_p.items():
            if j != c and x[j]:
                acc -= v * x[j]
        if acc:
            x[c] = Fraction(acc, row_p[c])
    return x


def inverse(mat) -> list[list[Fraction]] | None:
    """Exact inverse of a square matrix, or None when it is singular.

    Gauss-Jordan elimination on dict rows carried alongside the identity;
    each column pivots, as in ``solve``, on the remaining row with the fewest
    nonzeros (ties to the lower index).
    """
    n = len(mat)
    rows = [{j: Fraction(v) for j, v in enumerate(row) if v} for row in mat]
    inv_rows = [{i: Fraction(1)} for i in range(n)]
    free = set(range(n))
    pivots = []
    for c in range(n):
        live = [i for i in free if c in rows[i]]
        if not live:
            return None
        p = min(live, key=lambda i: (len(rows[i]), i))
        free.discard(p)
        scale = 1 / rows[p][c]
        rows[p] = {j: v * scale for j, v in rows[p].items()}
        inv_rows[p] = {j: v * scale for j, v in inv_rows[p].items()}
        for i in range(n):
            f = rows[i].get(c)
            if f and i != p:
                for src, dst in ((rows[p], rows[i]), (inv_rows[p], inv_rows[i])):
                    for j, v in src.items():
                        accumulate(dst, j, -f * v)
        pivots.append((p, c))
    # row p of the eliminated matrix is the unit row c, so the row carried
    # along with it is row c of the inverse
    out = [None] * n
    for p, c in pivots:
        out[c] = [inv_rows[p].get(j, Fraction(0)) for j in range(n)]
    return out


def charpoly(mat) -> list[Fraction]:
    """Monic characteristic polynomial det(t*I - M), ascending coefficients.

    The matrix is first brought to Hessenberg form by exact similarity
    operations (a row operation below the subdiagonal paired with the
    compensating column operation), then the determinant is expanded by the
    leading-principal-minor recurrence, which only ever multiplies along the
    subdiagonal.
    """
    n = len(mat)
    h = [[Fraction(x) for x in row] for row in mat]
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

