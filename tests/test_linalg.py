"""Tests for the exact linear algebra helper.

The determinant oracle is the Leibniz sum, and random charpoly checks feed
sparse columns and compare against det(t*I - M) interpolated from n + 1 of
those determinants.
The left-looking ``solve`` must return exactly what ``_dense_solve``, the
earlier dense Gauss-Jordan solver kept here as an oracle, returns: both give
the solution supported on the greedy column-order basis.  It must also return
exactly what ``_fraction_solve``, the earlier sparse solver that eliminated
over ``Fraction``, and ``_rightlooking_solve``, the earlier fraction-free
sparse solver that took every column before eliminating, return.  On witness
systems the oracles see every column of the lazy sequence, materialised after
the search.  ``solve`` returns values only for the columns it indexed, so
each oracle's solution must begin with those values and be zero after them.
Property generation is derandomized, so every run gives the same verdict.
"""

import itertools
import random
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszulkit import koszul
from koszulkit._linalg import charpoly, solve
from koszulkit.cli import _pinned_thm3, main
from koszulkit.dual_element import theorem3_compare

from dense_matrices import dense, identity_matrix, mat_mul, mat_vec, poly_at_matrix


def _dense_solve(rows, rhs) -> list[Fraction] | None:
    """One exact solution of rows.x = rhs, or None if inconsistent.

    Gauss-Jordan elimination on the augmented matrix; free variables are set
    to zero, so the returned solution is supported on pivot columns only.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        p = next((i for i in range(r, m) if aug[i][c]), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                row_r = aug[r]
                aug[i] = [vi - f * vr for vi, vr in zip(aug[i], row_r)]
        pivots.append((r, c))
        r += 1
    if any(aug[i][n] for i in range(r, m)):
        return None
    x = [Fraction(0)] * n
    for row, col in pivots:
        x[col] = aug[row][n]
    return x


def _fraction_solve(cols, rhs, nrows) -> list[Fraction] | None:
    """One exact solution x of sum_j x_j * cols[j] = rhs, or None if inconsistent.

    ``cols`` is a list of sparse columns and ``rhs`` a sparse right-hand side,
    each a dict from row index (below ``nrows``) to value.  Columns are taken
    in order; each one that is independent of the columns before it gets as
    pivot the active row with the fewest nonzeros (ties to the lower index),
    and only the rows holding that column are eliminated.  Free variables are
    set to zero, so the solution is the unique one supported on the greedy
    column-order basis, whichever pivot rows were chosen.  The result has one
    entry per column.
    """
    rows: list[dict[int, Fraction]] = [{} for _ in range(nrows)]
    b = [Fraction(0)] * nrows
    for j, col in enumerate(cols):
        for i, v in col.items():
            if v:
                rows[i][j] = Fraction(v)
    for i, v in rhs.items():
        b[i] = Fraction(v)
    # column -> active rows with a nonzero there; pivot rows leave it
    holders: list[set[int]] = [set() for _ in cols]
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    pivots: list[tuple[int, int]] = []
    for c, live in enumerate(holders):
        if not live:
            continue
        p = min(live, key=lambda i: (len(rows[i]), i))
        row_p = rows[p]
        for j in row_p:
            holders[j].discard(p)
        inv = 1 / row_p[c]
        for i in sorted(live):
            row_i = rows[i]
            f = row_i[c] * inv
            for j, v in row_p.items():
                s = row_i.get(j, 0) - f * v
                if s:
                    if j not in row_i:
                        holders[j].add(i)
                    row_i[j] = s
                else:
                    del row_i[j]
                    holders[j].discard(i)
            b[i] -= f * b[p]
        pivots.append((p, c))
    pivot_rows = {p for p, _ in pivots}
    if any(b[i] for i in range(nrows) if i not in pivot_rows):
        return None
    x = [Fraction(0)] * len(cols)
    for p, c in reversed(pivots):
        row_p = rows[p]
        acc = b[p]
        for j, v in row_p.items():
            if j != c:
                acc -= v * x[j]
        x[c] = acc / row_p[c]
    return x


def _rightlooking_solve(cols, rhs, nrows) -> list[Fraction] | None:
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


def _columns(rows, ncols):
    """Sparse columns of a dense matrix with ``ncols`` columns."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


def _sparse(vec):
    return {i: v for i, v in enumerate(vec) if v}


def solve_rows(rows, rhs):
    """``solve`` on a dense matrix with at least one row."""
    return solve(_columns(rows, len(rows[0])), _sparse(rhs))


def _prefix_of(x, full) -> bool:
    """``x`` is ``full`` up to its own length, and ``full`` is zero after it;
    both None when the system is inconsistent."""
    if x is None or full is None:
        return x is full
    return x == full[: len(x)] and not any(full[len(x) :])


def _nrows(cols, rhs):
    """One more than the highest row number of a sparse system."""
    return 1 + max((i for vec in (*cols, rhs) for i in vec), default=-1)


class _Indexed(Sequence):
    """A column sequence that records which columns were indexed, in order."""

    def __init__(self, cols):
        self.cols = cols
        self.seen = []

    def __len__(self):
        return len(self.cols)

    def __getitem__(self, j):
        self.seen.append(j)
        return self.cols[j]


def det_oracle(m):
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def charpoly_oracle(m):
    """Coefficients of det(t*I - M) by evaluating at n+1 points and interpolating."""
    n = len(m)
    pts = range(n + 1)
    vals = []
    for t in pts:
        shifted = [[Fraction(t) * (i == j) - m[i][j] for j in range(n)] for i in range(n)]
        vals.append(det_oracle(shifted))
    coeffs = [Fraction(0)] * (n + 1)
    for t, v in zip(pts, vals):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for u in pts:
            if u == t:
                continue
            basis = [Fraction(0)] + basis
            for i in range(len(basis) - 1):
                basis[i] -= Fraction(u) * basis[i + 1]
            denom *= Fraction(t - u)
        for i in range(len(basis)):
            coeffs[i] += v * basis[i] / denom
    return coeffs


def rand_matrix(rng, n, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]


PROPERTY = settings(max_examples=300, derandomize=True, database=None, deadline=None)

values = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def systems(draw):
    """A dense system (rows, rhs) with at least one row.

    Shapes run from tall to wide; fill from dense to about one nonzero in
    five; a column may be zero or a combination of earlier columns (rank
    deficiency); the right-hand side is zero, a random vector (usually
    inconsistent when the rank is short) or an image A.x (consistent).
    """
    m = draw(st.integers(1, 7))
    n = draw(st.integers(0, 7))
    zero_odds = draw(st.sampled_from([0, 1, 4]))

    def entry():
        if zero_odds and draw(st.integers(0, zero_odds)):
            return Fraction(0)
        return draw(values)

    cols = []
    for j in range(n):
        kind = draw(st.sampled_from(["random", "zero", "combination"]))
        if kind == "zero":
            col = [Fraction(0)] * m
        elif kind == "combination" and cols:
            coeffs = [entry() for _ in cols]
            col = [sum((c * v[i] for c, v in zip(coeffs, cols)), Fraction(0)) for i in range(m)]
        else:
            col = [entry() for _ in range(m)]
        cols.append(col)
    rows = [[col[i] for col in cols] for i in range(m)]
    kind = draw(st.sampled_from(["zero", "random", "image"]))
    if kind == "zero":
        rhs = [Fraction(0)] * m
    elif kind == "random":
        rhs = [entry() for _ in range(m)]
    else:
        rhs = mat_vec(rows, [entry() for _ in range(n)])
    return rows, rhs


# entries with denominators up to 10^15, so a row's lcm is a large integer
large = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**15)
mixed = st.one_of(st.integers(-5, 5), values, large)


@st.composite
def sparse_systems(draw):
    """A sparse system (cols, rhs, nrows) as ``solve`` takes it.

    Entries are ``int``, small-denominator or large-denominator ``Fraction``,
    explicit zeros included; a column may be a combination of earlier ones;
    the right-hand side is zero, a random vector (usually inconsistent when
    the rank is short) or an image (consistent).
    """
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(0, 8))
    cols = []
    for _ in range(ncols):
        if cols and draw(st.booleans()):
            col = {}
            for other in cols:
                f = draw(mixed)
                for i, v in other.items():
                    col[i] = col.get(i, 0) + f * v
        else:
            support = draw(st.sets(st.integers(0, nrows - 1), max_size=nrows)) if nrows else set()
            col = {i: draw(mixed) for i in sorted(support)}
        cols.append(col)
    kind = draw(st.sampled_from(["zero", "random", "image"]))
    if kind == "random" and nrows:
        support = draw(st.sets(st.integers(0, nrows - 1), min_size=1, max_size=nrows))
        rhs = {i: draw(mixed) for i in sorted(support)}
    elif kind == "image":
        rhs = {}
        for col in cols:
            f = draw(mixed)
            for i, v in col.items():
                rhs[i] = rhs.get(i, 0) + f * v
    else:
        rhs = {}
    return cols, rhs, nrows


class TestSolve:
    def test_random_square_systems_check_exactly(self):
        rng = random.Random(30001)
        for _ in range(40):
            n = rng.randint(1, 5)
            a = rand_matrix(rng, n)
            rhs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            x = solve_rows(a, rhs)
            if x is not None:
                assert mat_vec(a, x) == rhs

    def test_solution_exists_when_constructed(self):
        rng = random.Random(30002)
        for _ in range(40):
            n = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            a = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(n)]
            hidden = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
            rhs = mat_vec(a, hidden)
            x = solve_rows(a, rhs)
            assert x is not None
            assert mat_vec(a, x) == rhs

    def test_inconsistent_returns_none(self):
        a = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
        assert solve_rows(a, [Fraction(1), Fraction(3)]) is None

    def test_free_variables_are_zero(self):
        a = [[Fraction(0), Fraction(1)]]
        assert solve_rows(a, [Fraction(7)]) == [Fraction(0), Fraction(7)]

    def test_no_rows_gives_one_zero_per_column(self):
        assert solve([{}, {}, {}], {}) == []
        assert solve([], {}) == []

    def test_rhs_outside_every_column_is_inconsistent(self):
        assert solve([{0: Fraction(1)}], {1: Fraction(1)}) is None
        assert solve([], {0: Fraction(2)}) is None

    def test_integer_entries_are_solved_exactly(self):
        assert solve([{0: 2}, {0: 1, 1: 3}], {0: 1, 1: 1}) == [Fraction(1, 3), Fraction(1, 3)]

    def test_stops_at_the_first_prefix_whose_span_holds_the_target(self):
        cols = _Indexed([{0: 2}, {0: 1, 1: 1}, {1: 5}, {2: 1}, {0: 3}])
        assert solve(cols, {0: 4, 1: 1}) == [Fraction(3, 2), Fraction(1)]
        assert cols.seen == [0, 1]

    def test_zero_target_indexes_no_column(self):
        cols = _Indexed([{0: 1}, {1: 1}])
        assert solve(cols, {0: 0}) == []
        assert cols.seen == []

    def test_inconsistent_target_indexes_every_column_once(self):
        cols = _Indexed([{0: 1}, {0: 2, 1: 1}, {}, {1: Fraction(1, 3)}])
        assert solve(cols, {2: 1}) is None
        assert cols.seen == [0, 1, 2, 3]

    @PROPERTY
    @given(systems())
    @example(([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]], [Fraction(0)] * 2))
    @example(([[Fraction(1), Fraction(2), Fraction(3)]], [Fraction(1)]))
    @example(([[Fraction(1)], [Fraction(1)], [Fraction(1)]], [Fraction(1), Fraction(1), Fraction(2)]))
    def test_matches_dense_oracle_exactly(self, system):
        rows, rhs = system
        x = solve_rows(rows, rhs)
        assert _prefix_of(x, _dense_solve(rows, rhs))
        if x is not None:
            assert mat_vec(rows, x) == rhs

    def test_matches_dense_oracle_on_witness_systems(self, monkeypatch, capsys):
        seen = []

        def checked(lazy, rhs):
            x = solve(lazy, rhs)
            cols = list(lazy)
            nrows = _nrows(cols, rhs)
            rows = [[col.get(i, Fraction(0)) for col in cols] for i in range(nrows)]
            vec = [rhs.get(i, Fraction(0)) for i in range(nrows)]
            assert _prefix_of(x, _dense_solve(rows, vec))
            seen.append(x is not None)
            return x

        monkeypatch.setattr(koszul, "solve", checked)
        assert main(["verify", "thm3", "--seed", "42"]) == 0
        capsys.readouterr()
        assert seen and all(seen)

    @PROPERTY
    @given(sparse_systems())
    @example(([{0: 3, 1: 6}, {0: Fraction(1, 2), 1: 1}], {0: 1, 1: 3}, 2))
    @example(([{0: Fraction(1, 10**15), 1: 7}, {1: Fraction(-3, 10**12 + 39)}], {0: Fraction(2, 3)}, 2))
    @example(([{0: Fraction(0), 2: 4}, {1: 0, 2: Fraction(5, 7)}], {2: 1}, 3))
    def test_matches_fraction_oracle_exactly(self, system):
        cols, rhs, nrows = system
        x = solve(cols, rhs)
        assert _prefix_of(x, _fraction_solve(cols, rhs, nrows))
        if x is not None:
            assert all(type(v) is Fraction for v in x)

    @PROPERTY
    @given(sparse_systems())
    @example(([{}, {0: 0}, {0: 2, 1: 4}, {0: 1, 1: 2}], {0: 1}, 2))
    @example(([{0: 3}, {0: 6, 1: 0}, {}], {1: Fraction(1, 2)}, 2))
    @example(([{0: 1, 1: 1}, {0: 2, 2: 1}, {1: -2, 2: 1}], {0: 3, 1: 1, 2: 1}, 3))
    def test_matches_rightlooking_oracle_exactly(self, system):
        cols, rhs, nrows = system
        assert _prefix_of(solve(cols, rhs), _rightlooking_solve(cols, rhs, nrows))

    @pytest.mark.parametrize(
        "fresh_row, status, indexed", [(False, "homotopic", 11), (True, "not_found", 840)]
    )
    def test_pinned_diag_search_indexes_a_prefix(self, fresh_row, status, indexed, monkeypatch):
        """The witness of the pinned f=(x1,x2) F=(x1^2,x2^2) G=diag case lies
        in the span of its first 11 candidate columns of 840, inside the
        degree-1 layer; a target with a row no column has is inconsistent,
        and every column is indexed."""
        [(f, F, G)] = [(f, F, G) for f, F, G, label in _pinned_thm3() if label.endswith("G=diag")]
        calls = []

        def counted(lazy, rhs):
            cols = _Indexed(lazy)
            x = solve(cols, {**rhs, -1: 1} if fresh_row else rhs)
            calls.append((len(cols), cols.seen))
            return x

        monkeypatch.setattr(koszul, "solve", counted)
        assert theorem3_compare(f, F, G).status == status
        assert calls == [(840, list(range(indexed)))]

    @pytest.mark.parametrize("seed", [42, 586795])
    def test_matches_fraction_oracle_on_witness_systems(self, seed, monkeypatch, capsys):
        seen = []

        def recorded(lazy, rhs):
            x = solve(lazy, rhs)
            cols = list(lazy)
            nrows = _nrows(cols, rhs)
            seen.append((x, _fraction_solve(cols, rhs, nrows)))
            assert _prefix_of(x, _rightlooking_solve(cols, rhs, nrows))
            return x

        monkeypatch.setattr(koszul, "solve", recorded)
        code = main(["verify", "thm3", "--seed", str(seed)])
        capsys.readouterr()
        assert seen
        for x, oracle in seen:
            assert _prefix_of(x, oracle) and x is not None
        assert code == 0


def rand_columns(rng, n, lo, hi):
    """An n x n matrix as sparse columns, entries drawn from lo..hi."""
    cols = []
    for _ in range(n):
        draws = [Fraction(rng.randint(lo, hi)) for _ in range(n)]
        cols.append({r: v for r, v in enumerate(draws) if v})
    return tuple(cols)


class TestCharpoly:
    def test_empty_matrix(self):
        assert charpoly(()) == [Fraction(1)]

    def test_one_by_one(self):
        assert charpoly(({0: Fraction(5)},)) == [Fraction(-5), Fraction(1)]

    def test_zero_column(self):
        assert charpoly(({},)) == [Fraction(0), Fraction(1)]
        assert charpoly(({1: 1}, {})) == [Fraction(0), Fraction(0), Fraction(1)]
        cols = ({0: 3, 1: 1}, {}, {0: 1, 2: Fraction(-2, 3)})
        assert charpoly(cols) == charpoly_oracle(dense(cols))

    def test_companion_matrix_recovers_coefficients(self):
        # companion of t^3 - 2t + 7
        c = ({1: Fraction(1)}, {2: Fraction(1)}, {0: Fraction(-7), 1: Fraction(2)})
        assert charpoly(c) == [Fraction(7), Fraction(-2), Fraction(0), Fraction(1)]

    def test_matches_interpolation_oracle(self):
        rng = random.Random(30003)
        for _ in range(30):
            n = rng.randint(1, 5)
            cols = rand_columns(rng, n, -3, 3)
            assert charpoly(cols) == charpoly_oracle(dense(cols))

    def test_cayley_hamilton(self):
        rng = random.Random(30004)
        for _ in range(20):
            n = rng.randint(1, 4)
            cols = rand_columns(rng, n, -3, 3)
            zero = poly_at_matrix(charpoly(cols), dense(cols))
            assert zero == [[Fraction(0)] * n for _ in range(n)]

    def test_poly_at_matrix_constant_and_identity(self):
        m = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(3)]]
        assert poly_at_matrix([Fraction(4)], m) == [
            [Fraction(4), Fraction(0)],
            [Fraction(0), Fraction(4)],
        ]
        assert poly_at_matrix([Fraction(0), Fraction(1)], m) == m
        assert mat_mul(identity_matrix(2), m) == m
