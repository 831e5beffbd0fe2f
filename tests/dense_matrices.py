"""Dense matrix helpers over ``Fraction`` that tests check results with:
products, matrix-vector products, a polynomial evaluated at a matrix
(Cayley-Hamilton checks), and the dense form of the sparse columns that
``mul_matrix`` returns.  The package itself needs none of them.
"""

from fractions import Fraction


def dense(cols) -> list[list[Fraction]]:
    """The square matrix whose column c is the sparse column cols[c]."""
    n = len(cols)
    out = [[Fraction(0)] * n for _ in range(n)]
    for c, col in enumerate(cols):
        for r, v in col.items():
            out[r][c] = Fraction(v)
    return out


def identity_matrix(n: int) -> list[list[Fraction]]:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def mat_mul(a, b) -> list[list[Fraction]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            f = ai[k]
            if not f:
                continue
            bk = b[k]
            for j in range(cols):
                if bk[j]:
                    oi[j] += f * bk[j]
    return out


def mat_vec(a, v) -> list[Fraction]:
    return [sum((row[k] * v[k] for k in range(len(v)) if v[k]), Fraction(0)) for row in a]


def poly_at_matrix(coeffs, mat) -> list[list[Fraction]]:
    """Evaluate a scalar polynomial (ascending coefficients) at a square matrix."""
    n = len(mat)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(list(coeffs)):
        acc = mat_mul(acc, mat)
        for i in range(n):
            acc[i][i] += c
    return acc
