"""Recurrent dual functionals and the constructive duality pipeline.

A zero-dimensional system f pins down, for each variable, a monic annihilator
T_j with cofactors G expressing T_j(x_j) over f.  The recurrence encoded by
T_j determines a linear functional l_j on one-variable polynomials from d_j
initial values; the product functional l pairs monomials coordinatewise.
Wedging dual words of the system's odd family onto such functionals gives the
dual-side elements this module manipulates: the distinguished cocycle e built
from the bordered determinant of G, and the pairing of e against the
transgression determinant, which must come out equal or homotopic to 1.

For a square system (as many equations as variables) that cocycle is the
Grothendieck residue of f, a functional on the quotient ring A = k[x]/(f).
It is computed from the Bezoutian and stored by its values on A's staircase
(``StaircaseFunctional``); the det G * l route is kept for the other shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .grassmann import (
    Element,
    bordered_det,
    column,
    contract_product,
    grassmann_exp,
    odd_differences,
    odd_gen,
    render_element,
    transgression_det,
)
from .koszul import (
    BoundaryAssignment,
    ComplexElement,
    IdentityReport,
    boundary,
    gradient,
    homotopy_witness,
    lift,
    verdict,
)
from ._linalg import solve
from .quotient import charpoly_T, expvec, groebner, mul_matrix, quotient_basis
from .ring import FamilyRegistry, Poly, accumulate, as_poly, mono_mul, rational


# Functional1D.eval memoizes values below this index, which covers the
# degrees the pipeline pairs, as long as they stay under DIGIT_LIMIT digits;
# other indices go through square-and-multiply (``reduced_power``).
MEMO_LIMIT = 4096

# Square-and-multiply gives up, with ValueError, once a coefficient of x^k mod
# T passes this many decimal digits: the coefficients grow by about
# log10 |root| digits per unit of k, so an exponent near 10^11 against a root
# of modulus other than 1 would otherwise run out of time and memory.
DIGIT_LIMIT = 20_000
_BIT_LIMIT = DIGIT_LIMIT * 3322 // 1000  # log2(10) < 3.322 bits per digit


def _too_long(c: int | Fraction) -> bool:
    """Whether the numerator or denominator of ``c`` passes ``DIGIT_LIMIT`` digits."""
    return max(c.numerator.bit_length(), c.denominator.bit_length()) > _BIT_LIMIT


def _ruled(vec: dict) -> dict:
    """``vec`` with every value by the coefficient rule."""
    return {k: rational(v) for k, v in vec.items()}


class HypothesisError(ValueError):
    """A stated hypothesis (for example F = f.G) fails on the given input."""


@dataclass
class Functional1D:
    """Linear functional on polynomials in one variable, given by a monic
    recurrence plus initial values.

    ``rec`` holds the non-leading coefficients a_0..a_{d-1} of the monic
    annihilator T; evaluation beyond the initial segment follows
    eval(d + k) = -sum_i a_i * eval(i + k), so the functional vanishes on
    the ideal (T).  Values below ``MEMO_LIMIT``, up to the first one past
    ``DIGIT_LIMIT`` digits, and the powers x^k mod T are cached on demand;
    any other value pairs x^k mod T, found by square-and-multiply, with the
    initial values.  Every value and coefficient follows the coefficient
    rule (``ring.rational``): integral recurrences stay on ``int``.
    """

    rec: tuple
    initials: tuple
    _memo: list = field(default_factory=list, init=False, compare=False, repr=False)
    _powers: list = field(default_factory=list, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.initials) != len(self.rec):
            raise ValueError("need exactly one initial value per recurrence order")
        self.rec = tuple(map(rational, self.rec))
        self.initials = tuple(map(rational, self.initials))
        self._memo = list(self.initials)
        # x^0 mod T is 1, or nothing at all when T = 1
        self._powers = [tuple(int(i == 0) for i in range(self.degree))]

    @property
    def degree(self) -> int:
        return len(self.rec)

    def eval(self, k: int) -> int | Fraction:
        d = self.degree
        if d == 0:
            return 0
        memo = self._memo
        while len(memo) <= k < MEMO_LIMIT:
            base = len(memo) - d
            v = rational(-sum(self.rec[i] * memo[base + i] for i in range(d)))
            if _too_long(v):
                # the memo stops short of the first value past the digit cap,
                # so it holds at most MEMO_LIMIT values of capped size
                break
            memo.append(v)
        if k < len(memo):
            return memo[k]
        # l(x^k) = sum_i r_i l(x^i) for r = x^k mod T, with l(x^i) the
        # initials: O(d^2 log k) operations, caching nothing
        r = self.reduced_power(k)
        return rational(sum(c * v for c, v in zip(r, self.initials) if c))

    def reduced_power(self, k: int) -> list:
        """Coefficients of x^k mod T, by left-to-right binary powering; as for
        ``eval``, only an index past ``MEMO_LIMIT`` is held to ``DIGIT_LIMIT``
        digits (ValueError once a coefficient passes them)."""
        d, rec = self.degree, self.rec
        r = [int(i == 0) for i in range(d)]
        for bit in bin(k)[2:]:
            full = [0] * (2 * d - 1)
            for i, a in enumerate(r):
                if a:
                    for j, b in enumerate(r):
                        full[i + j] += a * b
            if bit == "1":
                full.insert(0, 0)
            for top in range(len(full) - 1, d - 1, -1):
                c = full.pop()
                if c:
                    for i in range(d):
                        full[top - d + i] -= c * rec[i]
            r = list(map(rational, full))
            if k >= MEMO_LIMIT and any(_too_long(c) for c in r):
                raise ValueError(
                    f"power {k} of a variable, reduced modulo its annihilator, "
                    f"needs more than {DIGIT_LIMIT} digits"
                )
        return r

    def power(self, k: int) -> tuple:
        """Coefficients of x^k mod T on 1, x, ..., x^(d-1)."""
        d = self.degree
        pows = self._powers
        while len(pows) <= k:
            prev = pows[-1]
            top = prev[d - 1] if d else 0
            pows.append(
                tuple(rational((prev[i - 1] if i else 0) - top * self.rec[i]) for i in range(d))
            )
        return pows[k]

    def hankel_row(self, b: int) -> tuple:
        """Row b of the Hankel form on the staircase: eval(a + b), a < d."""
        return tuple(self.eval(a + b) for a in range(self.degree))


def recurrent_functional(T: Poly, initials) -> Functional1D:
    """Functional determined by a monic one-variable polynomial and initials."""
    if len(T.support_gens()) > 1:
        raise ValueError("annihilator must involve a single variable")
    d = T.total_degree()
    coeffs = [0] * d
    lead = 0
    for mono, c in T.terms.items():
        k = mono[0][1] if mono else 0
        if k == d:
            lead = c
        else:
            coeffs[k] = c
    if lead != 1:
        raise ValueError("annihilator must be monic")
    if len(initials) != d:
        raise ValueError(f"need {d} initial values, got {len(initials)}")
    return Functional1D(tuple(coeffs), tuple(initials))


class _PairedFamily:
    """Exponent-vector bookkeeping shared by the functionals.

    A functional pairs the monomials of one commuting family; it reads a
    polynomial as exponent vectors over that family (``by_exponent``) and
    answers two questions about a multiplier m, given by such vectors: its
    ``moments`` (the values of m * functional at exponent vectors) and
    whether m * functional ``vanishes``.  ``_coord`` maps the family's
    generator j to coordinate j.
    """

    def __init__(self, reg: FamilyRegistry, family: str):
        self.reg = reg
        self.family = family
        self._coord = {g: j for j, g in enumerate(reg.comm_family(family).gens())}

    def by_exponent(self, p: Poly, passthrough: bool = False) -> dict:
        """p's terms as {rest: {alpha: c}}: alpha is the exponent vector over
        the paired variables, in coordinate order, and rest the monomial in
        the other generators.  A generator of another family passes into
        rest when ``passthrough`` is set and raises ValueError otherwise.
        """
        coord = self._coord
        out: dict = {}
        for mono, c in p.terms.items():
            alpha = [0] * len(coord)
            rest = []
            for g, e in mono:
                j = coord.get(g)
                if j is not None:
                    alpha[j] = e
                elif passthrough:
                    rest.append((g, e))
                else:
                    raise ValueError("monomial leaves the paired family")
            out.setdefault(tuple(rest), {})[tuple(alpha)] = c
        return out


class ProductFunctional(_PairedFamily):
    """One functional per variable of a commuting family, ``funcs[j]`` on
    the family's generator j; monomials pair coordinatewise and values
    multiply."""

    def __init__(self, reg: FamilyRegistry, family: str, funcs):
        super().__init__(reg, family)
        if len(funcs) != len(self._coord):
            raise ValueError("need one functional per variable")
        self.funcs = tuple(funcs)

    @property
    def degrees(self) -> tuple:
        return tuple(f.degree for f in self.funcs)

    def on_family(self, family: str) -> "ProductFunctional":
        """The same functional on another commuting family of equal arity,
        sharing the one-variable functionals and their caches."""
        return ProductFunctional(self.reg, family, self.funcs)

    def moments(self, terms: dict, points) -> dict:
        return _moments(self.funcs, terms, points)

    def vanishes(self, terms: dict) -> bool:
        """Exact zero test of m * l through normal forms modulo the
        annihilators.

        l kills the ideal (T_1(x_1), ..., T_n(x_n)), so p -> l(m p) depends
        only on the remainder r of m modulo it, which lives on the staircase
        prod_j range(d_j); and it vanishes iff l(r x^alpha) does for every
        alpha on that staircase.  Those values come from applying each
        l_j's Hankel form [l_j(x^(a+b))] to r one variable at a time.  This
        holds for any initial values, a singular Hankel form included.
        """
        for j, func in enumerate(self.funcs):
            terms = _apply_mode(terms, j, func.degree, func.power)
        for j, func in enumerate(self.funcs):
            terms = _apply_mode(terms, j, 0, func.hankel_row)
        return not terms


class Staircase:
    """The quotient algebra A = k[x]/(f) in its staircase basis.

    ``exponents`` are the exponent vectors of the standard monomials,
    ascending in the monomial order; ``mats[j]`` is the multiplication matrix
    M_j of the j-th variable as ``mul_matrix`` returns it, sparse columns
    with column c the coordinates of x_j times the c-th standard monomial; and
    ``funcs[j]`` carries the annihilator T_j of that variable, the
    characteristic polynomial of M_j.  Nothing here names a generator, so the
    same algebra serves the x and the y copies of the variables.  Every
    coordinate and Gram entry follows the coefficient rule
    (``ring.rational``).
    """

    def __init__(self, exponents: tuple, mats: tuple, funcs: tuple):
        self.exponents = exponents
        self.mats = mats
        self.funcs = funcs
        self._memo: dict = {}
        self._remainders: dict = {}

    def coords(self, b: tuple) -> dict:
        """Coordinates {staircase index: c} of the normal form of x^b.

        An exponent b_j at or past deg T_j is first brought below it, since
        T_j(M_j) = 0: x_j^b_j mod T_j comes from ``reduced_power`` (which
        raises ValueError past ``MEMO_LIMIT`` when the value passes
        ``DIGIT_LIMIT`` digits), once per variable and exponent.  Below
        those degrees x^b is reached from 1 one variable at a time, x_j * p
        having the coordinates M_j c(p); every vector on the way is cached.
        """
        memo = self._memo
        if b in memo:
            return memo[b]
        for j, func in enumerate(self.funcs):
            if b[j] >= func.degree:
                rem = self._remainders.get((j, b[j]))
                if rem is None:
                    rem = self._remainders[j, b[j]] = func.reduced_power(b[j])
                out: dict = {}
                for k, r in enumerate(rem):
                    if r:
                        for i, c in self.coords(b[:j] + (k,) + b[j + 1 :]).items():
                            accumulate(out, i, r * c)
                out = memo[b] = _ruled(out)
                return out
        cur = (0,) * len(b)
        vec = memo.get(cur)
        if vec is None:
            # 1 is the least monomial in every supported order: index 0
            vec = memo[cur] = {0: 1}
        for j, e in enumerate(b):
            for _ in range(e):
                cur = cur[:j] + (cur[j] + 1,) + cur[j + 1 :]
                nxt = memo.get(cur)
                if nxt is None:
                    nxt = {}
                    cols = self.mats[j]
                    for i, c in vec.items():
                        for k, v in cols[i].items():
                            accumulate(nxt, k, c * v)
                    nxt = memo[cur] = _ruled(nxt)
                vec = nxt
        return vec

    def reduce(self, terms: dict) -> dict:
        """Coordinates of the normal form of sum c * x^mu over ``terms``."""
        out: dict = {}
        for mu, c in terms.items():
            for i, v in self.coords(mu).items():
                accumulate(out, i, c * v)
        return _ruled(out)

    def gram(self, values) -> tuple:
        """The Gram matrix [tau(x^beta x^gamma)] over the staircase of the
        functional tau with the given staircase values, row by row: row
        beta + e_j is row beta times M_j, entry c the row dotted with column
        c of M_j, starting from row 0 = ``values``."""
        rows = {}
        for beta in sorted(self.exponents, key=sum):
            if not any(beta):
                rows[beta] = tuple(map(rational, values))
                continue
            j = next(j for j, e in enumerate(beta) if e)
            prev = rows[beta[:j] + (beta[j] - 1,) + beta[j + 1 :]]
            rows[beta] = tuple(
                rational(sum(prev[i] * v for i, v in col.items() if prev[i]))
                for col in self.mats[j]
            )
        return tuple(rows[beta] for beta in self.exponents)


class StaircaseFunctional(_PairedFamily):
    """A functional tau on A = k[x]/(f), given by its values on the staircase.

    ``rows`` is tau's Gram matrix over the staircase (``Staircase.gram``):
    the functional m * tau has the staircase values sum_beta c(m)_beta
    rows[beta], where c(m) are the coordinates of m's normal form, and its
    moment at b is those values dotted with c(x^b).  ``bezoutian`` is the
    determinant whose reduction tau was computed from (see ``_residue``),
    kept for the pairing's consistency check.
    """

    def __init__(
        self, reg: FamilyRegistry, family: str, algebra: Staircase, rows: tuple, bezoutian: Poly
    ):
        super().__init__(reg, family)
        self.algebra = algebra
        self.rows = rows
        self.bezoutian = bezoutian

    @property
    def degrees(self) -> tuple:
        return tuple(f.degree for f in self.algebra.funcs)

    def on_family(self, family: str) -> "StaircaseFunctional":
        """The same functional on another commuting family of equal arity."""
        return StaircaseFunctional(self.reg, family, self.algebra, self.rows, self.bezoutian)

    def staircase_values(self, terms: dict) -> list:
        """The staircase values of m * tau, for m given by ``terms``."""
        out = [0] * len(self.rows)
        for beta, c in self.algebra.reduce(terms).items():
            for i, v in enumerate(self.rows[beta]):
                out[i] += c * v
        return list(map(rational, out))

    def moments(self, terms: dict, points) -> dict:
        values = self.staircase_values(terms)
        out = {}
        for b in points:
            v = sum(c * values[i] for i, c in self.algebra.coords(b).items())
            if v:
                out[b] = rational(v)
        return out

    def vanishes(self, terms: dict) -> bool:
        return not any(self.staircase_values(terms))


@dataclass(eq=False)
class FunctionalElement:
    """Sum of dual words with polynomial multipliers over one functional:
    sum_w m_w(x) * l(x_*) (x) word_w.

    The multipliers act adjointly (partial contraction over a commuting
    family is multiplication on the functional side): m * l is the
    functional p -> l(m p).  The boundary multiplies multipliers and never
    leaves this finite description; the zero test asks the functional
    whether each m * l vanishes, and the pairings take its moments.  The
    functional is a ``ProductFunctional`` or a ``StaircaseFunctional``.
    Multipliers are stored unreduced, so ``comps`` and the rendered element
    keep the exact products.
    """

    functional: ProductFunctional | StaircaseFunctional
    odd_family: str
    comps: dict

    def __post_init__(self):
        clean = {}
        for w, m in self.comps.items():
            if not m.is_zero:
                clean[tuple(w)] = m
        self.comps = clean

    @property
    def reg(self) -> FamilyRegistry:
        return self.functional.reg

    def boundary(self, ba: BoundaryAssignment) -> "FunctionalElement":
        """Dual-side boundary: the Koszul boundary with the odd family in the
        dual role, left multiplication by minus the image row."""
        elem = ComplexElement(Element(self.reg, self.comps), {self.odd_family})
        out = boundary(ba, elem).element
        return FunctionalElement(self.functional, self.odd_family, out.terms)

    def is_zero(self) -> bool:
        """Exact zero test: every m_w * l vanishes.  Raises ValueError when a
        multiplier involves a generator outside the paired family."""
        l = self.functional
        return all(l.vanishes(l.by_exponent(m)[()]) for m in self.comps.values())

    def pair_poly(self, p: Poly) -> int | Fraction:
        """Pairing of the word-free part against a polynomial: the sum of
        c * e(x^b) over p's terms, from the moments of the multiplier."""
        m = self.comps.get(())
        if m is None or not p:
            return 0
        l = self.functional
        terms = [(c, b) for b, c in l.by_exponent(p)[()].items()]
        moments = l.moments(l.by_exponent(m)[()], {b for _, b in terms})
        return rational(sum(c * moments[b] for c, b in terms if b in moments))


def _moments(funcs, terms: dict, points) -> dict:
    """Moments of the functional m * l at the exponent vectors ``points``.

    ``terms`` maps the exponent vectors mu of m to their coefficients c; the
    moment at b is sum c * prod_j l_j(b_j + mu_j).  It is computed one
    variable at a time, in the manner of ``_apply_mode``: after mode j the
    state for a prefix b_1..b_j of some point maps the remaining exponents
    mu_(j+1).. to partial sums, so multiplier terms that agree past mode j
    are evaluated once from there on.  Zero moments are left out.
    """
    state = {(): terms}
    for j, func in enumerate(funcs):
        following = {}
        for prefix in {b[: j + 1] for b in points}:
            shift = prefix[j]
            out: dict = {}
            for mu, c in state[prefix[:j]].items():
                v = func.eval(shift + mu[0])
                if v:
                    accumulate(out, mu[1:], c * v)
            following[prefix] = out
        state = following
    return {b: sums[()] for b, sums in state.items() if sums}


def _apply_mode(terms: dict, j: int, keep: int, row) -> dict:
    """Linear map along coordinate j of exponent vectors: an exponent b is
    kept when b < ``keep`` and otherwise spread as sum_a row(b)[a] * x_j^a.
    Zero coefficients are dropped."""
    out: dict = {}
    for alpha, c in terms.items():
        b = alpha[j]
        if b < keep:
            accumulate(out, alpha, c)
            continue
        head, tail = alpha[:j], alpha[j + 1 :]
        for a, v in enumerate(row(b)):
            if v:
                accumulate(out, head + (a,) + tail, c * v)
    return out


def functional_eval(F: FunctionalElement, e: Element) -> Element:
    """Pair an element against a functional element.

    Per component the element is wedged on the right with the dual word, the
    odd family is fully contracted, and the paired commuting variables are
    evaluated through the component's functional m_w * l: a term
    c * x^a * y^b of a contracted coefficient becomes c * x^a * e_w(y^b),
    with each moment e_w(y^b) computed once per component.  Whatever
    generators remain, in the multiplier too, pass through untouched.
    """
    l = F.functional
    reads = ((w, l.by_exponent(m, passthrough=True)) for w, m in F.comps.items())
    return _pair_reads(e, l, F.odd_family, reads)


def _pair_reads(e: Element, l, odd_family: str, reads) -> Element:
    """``functional_eval`` of e against the functional element whose dual
    words w over ``odd_family`` carry the multipliers that ``reads`` gives
    as (w, ``l.by_exponent(m_w, passthrough=True)``), one word at a time."""
    reg = e.reg
    ofam = reg.odd_family(odd_family)
    out: dict = {}
    for w, read in reads:
        contracted = contract_product(ofam, e, Element.word(reg, w))
        coeffs = {
            word: l.by_exponent(coeff, passthrough=True)
            for word, coeff in contracted.terms.items()
        }
        points = {b for groups in coeffs.values() for terms in groups.values() for b in terms}
        moments = [(rest_m, l.moments(terms, points)) for rest_m, terms in read.items()]
        for word, groups in coeffs.items():
            acc: dict = {}
            for rest, terms in groups.items():
                for b, c in terms.items():
                    for rest_m, values in moments:
                        val = c * values.get(b, 0)
                        if val:
                            accumulate(acc, mono_mul(rest, rest_m), val)
            accumulate(out, word, Poly(reg, acc))
    return Element(reg, out)


# ---------------------------------------------------------------------------
# the constructive pipeline


def _pipeline_registry(n: int, s: int, t: int | None = None) -> FamilyRegistry:
    """Variables x, y and odd families fx, fy (arity s), Fx, Fy (arity t,
    default n) and u (arity n), registered in this order."""
    t = n if t is None else t
    reg = FamilyRegistry()
    reg.commuting("x", n)
    reg.commuting("y", n)
    reg.odd("fx", s)
    reg.odd("fy", s)
    reg.odd("Fx", t)
    reg.odd("Fy", t)
    reg.odd("u", n)
    return reg


def _derivative(p: Poly, g: int) -> Poly:
    """The partial derivative of p in the generator g."""
    out: dict = {}
    for mono, c in p.terms.items():
        e = dict(mono).get(g, 0)
        if e:
            rest = tuple((h, k - (h == g)) for h, k in mono if (h, k) != (g, 1))
            accumulate(out, rest, c * e)
    return Poly(p.reg, out)


def _residue(reg, fX, qb, mats, l: ProductFunctional) -> StaircaseFunctional:
    """The Grothendieck residue tau of a square system (s = n) on A.

    The Bezoutian Theta(x, y), the determinant of the divided-difference
    matrix, is reduced modulo the Groebner basis, first in x and then in y
    moved onto x, into the d x d matrix B with Theta = sum B[a][b] x^a y^b
    on A (x) A, kept as sparse rows.  Theta splits into dual bases under tau
    (Becker, Cardinal, Roy and Szafraniec 1996; Elkadi and Mourrain 2007), so
    B^-1 is tau's Gram matrix G = [tau(x^a x^b)] and tau, its row at the
    monomial 1, solves B^T tau = e_1 (one ``solve`` over B's rows).  Exact
    checks, each raising AssertionError: that system is solvable; G, rebuilt
    from tau's values and the multiplication matrices, has G B = I, which
    for square matrices proves B invertible with G = B^-1; and tau takes the
    value d on the Jacobian determinant of f, computed from partial
    derivatives (the trace formula tau(J g) = trace of g on A, at g = 1),
    which fixes the sign and scale of Theta.
    """
    n = len(fX)
    fxfam = reg.odd_family("fx")
    zero_row = [Element.zero(reg)] * n
    grad = gradient(fX, reg)
    rows = [[grad[k][i] for k in range(n)] for i in range(n)]
    theta = bordered_det(rows, zero_row, fxfam).terms.get((), Poly.zero(reg))
    xfam, yfam = reg.comm_family("x"), reg.comm_family("y")
    algebra = Staircase(tuple(expvec(xfam, m) for m in qb.monomials), mats, l.funcs)
    d = len(qb)
    B = [{} for _ in range(d)]
    for ymono, xterms in l.by_exponent(theta, passthrough=True).items():
        left = algebra.reduce(xterms)
        right = algebra.coords(expvec(yfam, ymono))
        for i, u in left.items():
            for j, v in right.items():
                accumulate(B[i], j, u * v)
    # 1 is the least monomial in every supported order: staircase index 0
    tau = solve(B, {0: 1}) if d else []
    if tau is None:
        raise AssertionError("the reduced Bezoutian is singular")
    tau = list(map(rational, tau))
    tau += [0] * (d - len(tau))  # the columns after solve stopped
    gram = algebra.gram(tau)
    for a, grow in enumerate(gram):
        prod: dict = {}
        for i, g in enumerate(grow):
            if g:
                for j, v in B[i].items():
                    accumulate(prod, j, g * v)
        if prod != {a: 1}:
            raise AssertionError("the Gram matrix times the reduced Bezoutian is not I")
    if d:
        jac = [[_derivative(fi, g) for g in xfam.gens()] for fi in fX]
        J = bordered_det(jac, zero_row, fxfam).terms.get((), Poly.zero(reg))
        coords = algebra.reduce(l.by_exponent(J)[()]) if J else {}
        if sum(c * tau[i] for i, c in coords.items()) != d:
            raise AssertionError("the residue of the Jacobian is not the quotient dimension")
    return StaircaseFunctional(reg, "x", algebra, gram, theta)


def _det_g_element(Gmat, l: ProductFunctional) -> FunctionalElement:
    """e = det G * l for the s x n cofactor matrix G and the product
    functional l over the pipeline registry.

    det G is one ``bordered_det`` of G under a zero odd row, the Laplace
    expansion once an entry is not constant.  By multilinearity it is also
    the Fx-free part of G bordered by -Fx; the tests keep that kernel route
    as an oracle.  The cocycle test and the pairing of ``verify_theorem4``
    certify e.
    """
    reg = l.reg
    n, s = len(l.funcs), len(Gmat)
    det = bordered_det(Gmat, [Element.zero(reg)] * n, reg.odd_family("fx")).terms
    # Each word of e holds the k = s - n duals the bordered determinant
    # leaves, in ascending order.  Orienting e by (-1)^(k(k-1)/2), the sign
    # that reverses a k-word, makes it pair to 1 for every s >= n;
    # unoriented, f = (x, x, x) pairs to -1, which no boundary can mend.
    # For k <= 1, s = n included, the factor is 1.
    k = s - n
    if k > 1 and k * (k - 1) // 2 % 2:
        det = {w: -m for w, m in det.items()}
    return FunctionalElement(l, "fx", det)


def dual_element(f):
    """The distinguished dual cocycle of a zero-dimensional system.

    Returns (e, certificate).  The certificate carries the annihilators T_j,
    the cofactor matrix G with T_j(x_j) = sum_i f_i G[i][j], the functional
    initial values, the product functional l itself, and the quotient
    dimension.

    For a square system (s = n), e is the residue tau of f over A (see
    ``_residue``): multiplier 1 on the empty word over a
    ``StaircaseFunctional``.  Otherwise e is det G * l (``_det_g_element``);
    for s = n the two are the same functional.  e is not tested here:
    ``verify_theorem4`` checks exactly that its boundary vanishes.
    """
    if not f:
        raise ValueError("need at least one polynomial")
    n, s = f[0].reg.num_comm, len(f)
    reg = _pipeline_registry(n, s)
    fX = lift(f, reg, "x")
    gb = groebner(fX, family="x")
    qb = quotient_basis(gb)
    d = len(qb)
    mats = tuple(mul_matrix(gb, qb, j) for j in range(1, n + 1))
    T = []
    Gcols = []
    funcs = []
    for j in range(1, n + 1):
        Tj, Gj = charpoly_T(gb, j, mat=mats[j - 1])
        T.append(Tj)
        Gcols.append(Gj)
        dj = Tj.total_degree()
        initials = tuple([0] * (dj - 1) + [1]) if dj else ()
        funcs.append(recurrent_functional(Tj, initials))
    Gmat = [[Gcols[j][i] for j in range(n)] for i in range(s)]
    l = ProductFunctional(reg, "x", funcs)

    if s == n:
        e = FunctionalElement(_residue(reg, fX, qb, mats, l), "fx", {(): Poly.const(reg, 1)})
    else:
        e = _det_g_element(Gmat, l)
    certificate = {
        "dimension": d,
        "annihilators": T,
        "cofactors": Gmat,
        "initials": [list(func.initials) for func in funcs],
        "functional": l,
        "order": gb.order,
    }
    return e, certificate


def transgression_pairing(f, e: FunctionalElement) -> Element:
    """P = the pairing of e (moved to the y side) against the transgression
    determinant of f; an element over x and the system's odd family.

    e moves to y without rebuilding its multipliers: each is read once over
    x, and its exponent vectors are the same over the y copy of the
    functional; only the dual words are renamed from fx to fy.  A
    multiplier outside x raises ValueError.

    For e over a ``StaircaseFunctional`` the determinant must be the
    Bezoutian that functional was computed from, as its single empty-word
    term; AssertionError otherwise."""
    reg = e.reg
    grad = gradient(lift(f, reg, "x"), reg)
    fx = reg.odd_family("fx")
    fy = reg.odd_family("fy")
    tdet = transgression_det([(grad, odd_differences(reg, fx, fy))], "u")
    if isinstance(e.functional, StaircaseFunctional) and tdet != Element.from_poly(
        e.functional.bezoutian
    ):
        raise AssertionError("the transgression determinant is not the inverted Bezoutian")
    rename = {
        reg.odd_rank(fx, i, dual=True): reg.odd_rank(fy, i, dual=True)
        for i in range(1, fx.arity + 1)
    }
    l = e.functional
    reads = ((tuple(rename[r] for r in w), l.by_exponent(m)) for w, m in e.comps.items())
    return _pair_reads(tdet, l.on_family("y"), "fy", reads)


def pair_transgression(f, e: FunctionalElement, bound=None) -> IdentityReport:
    """Verdict on the pairing against 1: equal, homotopic with witness, or
    not found within the degree bound."""
    reg = e.reg
    fX = lift(f, reg, "x")
    P = transgression_pairing(fX, e)
    unit = Element.unit(reg)
    if P == unit:
        return IdentityReport("theorem4.pairing", "", "equal")
    ba = BoundaryAssignment(reg, {"fx": fX})
    if bound is None:
        dims = e.functional.degrees
        if any(dims):
            bound = P.max_coeff_degree() + sum(dims) + 1
        else:
            # the unit ideal: l = 0, so P = 0, and the cofactors of 1 over f
            # give a witness of their degree
            [cofactors] = groebner(fX, family="x").cofactors
            bound = max(c.total_degree() for c in cofactors)
    w = homotopy_witness(P, unit, ba, degree_bound=bound)
    if w is None:
        return IdentityReport(
            "theorem4.pairing",
            "",
            "not_found",
            detail=f"pairing {render_element(P)}; no witness within degree {bound}",
        )
    return IdentityReport("theorem4.pairing", "", "homotopic", witness=w)


def verify_theorem4(f, bound=None, instance: str = ""):
    """Full pipeline: dual element, cocycle check, pairing verdict.  The
    cocycle check is exact: every multiplier of e's boundary, times the
    functional, vanishes.

    Returns (reports, e, certificate).
    """
    e, certificate = dual_element(f)
    closed = e.boundary(BoundaryAssignment(e.reg, {"fx": lift(f, e.reg, "x")})).is_zero()
    cocycle = verdict(
        "theorem4.cocycle", instance, closed, lambda: "boundary of e does not vanish"
    )
    pairing = pair_transgression(f, e, bound=bound)
    pairing.instance = instance
    return [cocycle, pairing], e, certificate


# ---------------------------------------------------------------------------
# embedded systems


def theorem3_compare(f, F, G, bound=None) -> IdentityReport:
    """Exactness and homotopy comparison for an embedded system F = f.G.

    Checks the stated equality between the contraction of the exponential
    kernel against the transgression determinant of F and the mixed-column
    determinant; the two cocycle facts; and the homotopy claim relating the
    mixed determinant to the pairing through f's transgression, producing a
    verified witness when the sides differ.  ``G`` is an s x t matrix over
    the same variables as f.
    """
    if not f or not F:
        raise ValueError("need nonempty systems")
    src = f[0].reg
    n, s, t = src.num_comm, len(f), len(F)
    if len(G) != s or any(len(row) != t for row in G):
        raise ValueError("cofactor matrix shape must be s x t")
    for j in range(t):
        acc = Poly.zero(src)
        for i in range(s):
            acc = acc + f[i] * as_poly(src, G[i][j])
        if acc != F[j]:
            raise HypothesisError(f"F[{j}] does not equal sum_i f_i G[i][{j}]")

    reg = _pipeline_registry(n, s, t)
    fx, fy, Fx, Fy = (reg.odd_family(name) for name in ("fx", "fy", "Fx", "Fy"))
    fX, FX = lift(f, reg, "x"), lift(F, reg, "x")
    fY, FY = lift(f, reg, "y"), lift(F, reg, "y")
    GX = [lift(row, reg, "x") for row in G]
    GY = [lift(row, reg, "y") for row in G]

    gradF = gradient(FX, reg)
    gradf = gradient(fX, reg)
    fxG = [column(reg, fx.primal_ranks(), GX, j) for j in range(t)]

    pairs = [(fxG[j], odd_gen(reg, Fx, j + 1, dual=True)) for j in range(t) if not fxG[j].is_zero]
    tdetF = transgression_det([(gradF, odd_differences(reg, Fx, Fy))], "u")
    kernel = grassmann_exp(pairs) if pairs else Element.unit(reg)
    lhs_a = contract_product(Fx, kernel, tdetF)
    rhs_a = transgression_det([(gradF, odd_differences(reg, fxG, Fy))], "u")
    parts = []
    if lhs_a != rhs_a:
        parts.append("kernel contraction differs from the mixed determinant")

    ba = BoundaryAssignment(reg, {"fx": fX, "fy": fY, "Fx": FX, "Fy": FY})
    if not boundary(ba, ComplexElement(rhs_a)).element.is_zero:
        parts.append("mixed determinant is not closed")
    bb = bordered_det(GY, odd_differences(reg, None, Fy), fy)
    if not boundary(ba, ComplexElement(bb, frozenset({"fy"}))).element.is_zero:
        parts.append("bordered determinant is not closed")

    if parts:
        return IdentityReport("theorem3", "", "failed", detail="; ".join(parts))

    tdetf = transgression_det([(gradf, odd_differences(reg, fx, fy))], "u")
    cform = contract_product(fy, tdetf, bb)
    if rhs_a == cform:
        return IdentityReport("theorem3", "", "equal")
    wba = ba.restricted(("fx", "Fy"))
    if bound is None:
        bound = max(rhs_a.max_coeff_degree(), cform.max_coeff_degree(), 0) + 4
    w = homotopy_witness(rhs_a, cform, wba, degree_bound=bound)
    if w is None:
        return IdentityReport(
            "theorem3",
            "",
            "not_found",
            detail=f"difference {render_element(rhs_a - cform)}; no witness within degree {bound}",
        )
    return IdentityReport("theorem3", "", "homotopic", witness=w)
