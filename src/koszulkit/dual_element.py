"""Recurrent dual functionals and the constructive duality pipeline.

A zero-dimensional system f pins down, for each variable, a monic annihilator
T_j with cofactors G expressing T_j(x_j) over f.  The recurrence encoded by
T_j determines a linear functional l_j on one-variable polynomials from d_j
initial values; the product functional l pairs monomials coordinatewise.
Wedging dual words of the system's odd family onto such functionals gives the
dual-side elements this module manipulates: the distinguished cocycle e built
from the bordered determinant of G, and the pairing of e against the
transgression determinant, which must come out equal or homotopic to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .grassmann import (
    Element,
    bordered_det,
    column,
    grassmann_exp,
    merge_words,
    render_element,
    top_contract,
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
    transport,
    verdict,
)
from .quotient import charpoly_T, groebner, quotient_basis
from .ring import FamilyRegistry, Poly, accumulate, as_poly, mono_mul


# Functional1D.eval memoizes values below this index, which covers the
# degrees the pipeline pairs; larger indices go through square-and-multiply.
MEMO_LIMIT = 4096


class HypothesisError(ValueError):
    """A stated hypothesis (for example F = f.G) fails on the given input."""


@dataclass
class Functional1D:
    """Linear functional on polynomials in one variable, given by a monic
    recurrence plus initial values.

    ``rec`` holds the non-leading coefficients a_0..a_{d-1} of the monic
    annihilator T; evaluation beyond the initial segment follows
    eval(d + k) = -sum_i a_i * eval(i + k), so the functional vanishes on
    the ideal (T).  Values below ``MEMO_LIMIT`` and the powers x^k mod T are
    cached on demand; a value past the limit pairs x^k mod T, found by
    square-and-multiply, with the initial values.
    """

    gidx: int
    rec: tuple
    initials: tuple
    _memo: list = field(default_factory=list, init=False, compare=False, repr=False)
    _powers: list = field(default_factory=list, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.initials) != len(self.rec):
            raise ValueError("need exactly one initial value per recurrence order")
        self.rec = tuple(Fraction(c) for c in self.rec)
        self.initials = tuple(Fraction(c) for c in self.initials)
        self._memo = list(self.initials)
        # x^0 mod T is 1, or nothing at all when T = 1
        self._powers = [tuple(Fraction(int(i == 0)) for i in range(self.degree))]

    @property
    def degree(self) -> int:
        return len(self.rec)

    def eval(self, k: int) -> Fraction:
        d = self.degree
        if d == 0:
            return Fraction(0)
        if k >= MEMO_LIMIT:
            return self.eval_by_squaring(k)
        memo = self._memo
        while len(memo) <= k:
            base = len(memo) - d
            memo.append(-sum((self.rec[i] * memo[base + i] for i in range(d)), Fraction(0)))
        return memo[k]

    def eval_by_squaring(self, k: int) -> Fraction:
        """eval(k) in O(d^2 log k) operations, caching nothing: l(x^k) is
        sum_i r_i l(x^i) for r = x^k mod T, and l(x^i) = initials[i]."""
        r = self._power_by_squaring(k)
        return sum((c * v for c, v in zip(r, self.initials) if c), Fraction(0))

    def _power_by_squaring(self, k: int) -> list:
        """Coefficients of x^k mod T, by left-to-right binary powering."""
        d, rec = self.degree, self.rec
        r = [Fraction(int(i == 0)) for i in range(d)]
        for bit in bin(k)[2:]:
            full = [Fraction(0)] * (2 * d - 1)
            for i, a in enumerate(r):
                if a:
                    for j, b in enumerate(r):
                        full[i + j] += a * b
            if bit == "1":
                full.insert(0, Fraction(0))
            for top in range(len(full) - 1, d - 1, -1):
                c = full.pop()
                if c:
                    for i in range(d):
                        full[top - d + i] -= c * rec[i]
            r = full
        return r

    def power(self, k: int) -> tuple:
        """Coefficients of x^k mod T on 1, x, ..., x^(d-1)."""
        d = self.degree
        pows = self._powers
        while len(pows) <= k:
            prev = pows[-1]
            top = prev[d - 1] if d else 0
            pows.append(tuple((prev[i - 1] if i else 0) - top * self.rec[i] for i in range(d)))
        return pows[k]

    def hankel_row(self, b: int) -> tuple:
        """Row b of the Hankel form on the staircase: eval(a + b), a < d."""
        return tuple(self.eval(a + b) for a in range(self.degree))

    def signature(self):
        return (self.gidx, self.rec, self.initials)


def recurrent_functional(T: Poly, initials) -> Functional1D:
    """Functional determined by a monic one-variable polynomial and initials."""
    gens = T.support_gens()
    if len(gens) > 1:
        raise ValueError("annihilator must involve a single variable")
    d = T.total_degree()
    gidx = gens.pop() if gens else None
    coeffs = [Fraction(0)] * d
    lead = Fraction(0)
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
    return Functional1D(gidx if gidx is not None else -1, tuple(coeffs), tuple(initials))


@dataclass
class ProductFunctional:
    """One functional per variable of a commuting family; monomials pair
    coordinatewise and values multiply."""

    reg: FamilyRegistry
    family: str
    funcs: tuple

    def __post_init__(self):
        fam = self.reg.comm_family(self.family)
        if len(self.funcs) != fam.arity:
            raise ValueError("need one functional per variable")
        self.funcs = tuple(self.funcs)
        self._coord = {f.gidx: j for j, f in enumerate(self.funcs)}
        self._family_gens = frozenset(fam.gens())

    def by_exponent(self, p: Poly, passthrough: bool = False) -> dict:
        """p's terms as {rest: {alpha: c}}: alpha is the exponent vector over
        the paired variables, in the order of ``funcs``, and rest the
        monomial in the other generators.  A generator of another family
        passes into rest when ``passthrough`` is set and raises ValueError
        otherwise, as does a paired-family generator without a functional.
        """
        coord, family = self._coord, self._family_gens
        out: dict = {}
        for mono, c in p.terms.items():
            alpha = [0] * len(self.funcs)
            rest = []
            for g, e in mono:
                j = coord.get(g)
                if passthrough and g not in family:
                    rest.append((g, e))
                elif j is None:
                    raise ValueError("monomial leaves the paired family")
                else:
                    alpha[j] = e
            out.setdefault(tuple(rest), {})[tuple(alpha)] = c
        return out

    def eval_mono(self, mono) -> Fraction:
        val = Fraction(1)
        seen = set()
        for g, e in mono:
            j = self._coord.get(g)
            if j is None:
                raise ValueError("monomial leaves the paired family")
            val *= self.funcs[j].eval(e)
            seen.add(g)
        for f in self.funcs:
            if f.gidx not in seen:
                val *= f.eval(0)
        return val

    def eval_poly(self, p: Poly) -> Fraction:
        return sum((c * self.eval_mono(m) for m, c in p.terms.items()), Fraction(0))

    def signature(self):
        return (self.family, tuple(f.signature() for f in self.funcs))


@dataclass
class FunctionalElement:
    """Sum of dual words with polynomial multipliers over one product
    functional: sum_w m_w(x) * l(x_*) (x) word_w.

    The multipliers act adjointly (partial contraction over a commuting
    family is multiplication on the functional side): m * l is the
    functional p -> l(m p).  The boundary multiplies multipliers and never
    leaves this finite description; the zero test reduces them modulo the
    annihilators T_j(x_j), which every l kills.  Multipliers are stored
    unreduced, so ``comps`` and the rendered element keep the exact products.
    """

    functional: ProductFunctional
    odd_family: str
    comps: dict
    cocycle: bool | None = None

    def __post_init__(self):
        clean = {}
        for w, m in self.comps.items():
            if not m.is_zero:
                clean[tuple(w)] = m
        self.comps = clean

    @property
    def reg(self) -> FamilyRegistry:
        return self.functional.reg

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionalElement):
            return NotImplemented
        return (
            self.odd_family == other.odd_family
            and self.functional.signature() == other.functional.signature()
            and self.comps == other.comps
        )

    def boundary(self, ba: BoundaryAssignment) -> "FunctionalElement":
        """Dual-side boundary: left multiplication by minus the image row."""
        reg = self.reg
        fam = reg.odd_family(self.odd_family)
        out: dict[tuple, Poly] = {}
        for w, m in self.comps.items():
            for i in range(1, fam.arity + 1):
                rank = reg.odd_rank(fam, i, dual=True)
                if rank in w:
                    continue
                pos = sum(1 for r in w if r < rank)
                word = tuple(sorted(w + (rank,)))
                piece = ba.image(fam.name, i) * m
                if piece:
                    accumulate(out, word, piece if pos & 1 else -piece)
        return FunctionalElement(self.functional, self.odd_family, out)

    def is_zero(self) -> bool:
        """Exact zero test through normal forms modulo the annihilators.

        l kills the ideal (T_1(x_1), ..., T_n(x_n)), so p -> l(m p) depends
        only on the remainder r of m modulo it, which lives on the staircase
        prod_j range(d_j); and it vanishes iff l(r x^alpha) does for every
        alpha on that staircase.  Those values come from applying each
        l_j's Hankel form [l_j(x^(a+b))] to r one variable at a time.  This
        holds for any initial values, a singular Hankel form included.
        Raises ValueError when a multiplier involves a generator outside the
        paired family.
        """
        funcs = self.functional.funcs
        by_exponent = [self.functional.by_exponent(m)[()] for m in self.comps.values()]
        for terms in by_exponent:
            for j, func in enumerate(funcs):
                terms = _apply_mode(terms, j, func.degree, func.power)
            for j, func in enumerate(funcs):
                terms = _apply_mode(terms, j, 0, func.hankel_row)
            if terms:
                return False
        return True

    def pair_poly(self, p: Poly) -> Fraction:
        """Pairing of the word-free part against a polynomial: the sum of
        c * e(x^b) over p's terms, from the moments of the multiplier."""
        m = self.comps.get(())
        if m is None or not p:
            return Fraction(0)
        l = self.functional
        terms = [(c, b) for b, c in l.by_exponent(p)[()].items()]
        moments = _moments(l.funcs, l.by_exponent(m)[()], {b for _, b in terms})
        return sum((c * moments[b] for c, b in terms if b in moments), Fraction(0))


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
    reg = e.reg
    l = F.functional
    ofam = reg.odd_family(F.odd_family)
    out: dict = {}
    for w, m in F.comps.items():
        contracted = top_contract(ofam, e * Element.word(reg, w))
        coeffs = {
            word: l.by_exponent(coeff, passthrough=True)
            for word, coeff in contracted.terms.items()
        }
        points = {b for groups in coeffs.values() for terms in groups.values() for b in terms}
        moments = [
            (rest_m, _moments(l.funcs, terms, points))
            for rest_m, terms in l.by_exponent(m, passthrough=True).items()
        ]
        for word, groups in coeffs.items():
            acc: dict = {}
            for rest, terms in groups.items():
                for b, c in terms.items():
                    for rest_m, values in moments:
                        val = c * values.get(b, 0)
                        if val:
                            accumulate(acc, mono_mul(rest, rest_m), val)
            if acc:
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


def _kernel_image(Gmat, L: FunctionalElement, fxfam, Fxfam) -> FunctionalElement:
    """Apply the bordered-determinant kernel of G to a functional element.

    Computes the partial contraction over the commuting family of the full
    contraction over ``Fxfam`` of det(G bordered by -Fx row) times L: the
    full contraction against L's empty-word functional keeps exactly the
    terms free of ``Fxfam``, and the commuting contraction attaches
    multipliers adjointly.
    """
    reg = L.reg
    Fxfam = reg.odd_family(Fxfam)
    oddrow = [
        -Element.generator(reg, reg.odd_rank(Fxfam, j))
        for j in range(1, Fxfam.arity + 1)
    ]
    bd = bordered_det(Gmat, oddrow, fxfam)
    comps: dict[tuple, Poly] = {}
    for w, c in bd.terms.items():
        if any(Fxfam.owns_rank(r) for r in w):
            continue
        for wl, ml in L.comps.items():
            word = w
            mult = c * ml
            if wl:
                sign, merged = merge_words(word, wl)
                if merged is None:
                    continue
                word = merged
                if sign < 0:
                    mult = -mult
            accumulate(comps, word, mult)
    return FunctionalElement(L.functional, L.odd_family, comps)


def dual_element(f):
    """The distinguished dual cocycle of a zero-dimensional system.

    Returns (e, certificate).  The certificate carries the annihilators T_j,
    the cofactor matrix G with T_j(x_j) = sum_i f_i G[i][j], the functional
    initial values, and the quotient dimension.  Both stated forms of e (the
    full kernel route through the auxiliary odd family and the direct
    bordered determinant of G) are computed and must agree; when s > n + 1,
    e is that determinant oriented as described below.  The boundary of e is
    checked exactly and recorded on ``e.cocycle``.
    """
    if not f:
        raise ValueError("need at least one polynomial")
    n, s = f[0].reg.num_comm, len(f)
    reg = _pipeline_registry(n, s)
    fX = lift(f, reg, "x")
    gb = groebner(fX, family="x")
    qb = quotient_basis(gb)
    d = len(qb)
    T = []
    Gcols = []
    funcs = []
    for j in range(1, n + 1):
        Tj, Gj = charpoly_T(gb, j)
        T.append(Tj)
        Gcols.append(Gj)
        dj = Tj.total_degree()
        initials = tuple([Fraction(0)] * (dj - 1) + [Fraction(1)]) if dj else ()
        func = recurrent_functional(Tj, initials)
        if func.gidx < 0:
            func.gidx = reg.comm_gen("x", j)
        funcs.append(func)
    Gmat = [[Gcols[j][i] for j in range(n)] for i in range(s)]
    l = ProductFunctional(reg, "x", funcs)
    L = FunctionalElement(l, "fx", {(): Poly.const(reg, 1)})

    e = _kernel_image(Gmat, L, reg.odd_family("fx"), "Fx")
    direct = bordered_det(Gmat, [Element.zero(reg)] * n, reg.odd_family("fx"))
    e_direct = FunctionalElement(l, "fx", dict(direct.terms))
    if e != e_direct:
        raise AssertionError("the two stated forms of the dual element disagree")
    # Each word of e holds the k = s - n duals the bordered determinant
    # leaves, in ascending order.  Orienting e by (-1)^(k(k-1)/2), the sign
    # that reverses a k-word, makes it pair to 1 for every s >= n; unoriented,
    # f = (x, x, x) pairs to -1, which no boundary can mend.  For k <= 1,
    # s = n included, the factor is 1.
    k = s - n
    if k > 1 and k * (k - 1) // 2 % 2:
        e = FunctionalElement(l, "fx", {w: -m for w, m in e.comps.items()})

    ba = BoundaryAssignment(reg, {"fx": fX})
    e.cocycle = e.boundary(ba).is_zero()
    certificate = {
        "dimension": d,
        "annihilators": T,
        "cofactors": Gmat,
        "initials": [list(func.initials) for func in funcs],
        "order": gb.order,
    }
    return e, certificate


def _transport_functional_to_y(e: FunctionalElement) -> FunctionalElement:
    reg = e.reg
    xfam = reg.comm_family("x")
    yfam = reg.comm_family("y")
    fx = reg.odd_family("fx")
    fy = reg.odd_family("fy")
    gmap = {xfam.base + k: yfam.base + k for k in range(xfam.arity)}
    rename = {}
    for i in range(1, fx.arity + 1):
        rename[reg.odd_rank(fx, i, dual=True)] = reg.odd_rank(fy, i, dual=True)
    funcs = [
        Functional1D(gmap[func.gidx], func.rec, func.initials) for func in e.functional.funcs
    ]
    ly = ProductFunctional(reg, "y", funcs)
    comps = {
        tuple(rename[r] for r in w): transport(m, reg, gmap) for w, m in e.comps.items()
    }
    return FunctionalElement(ly, "fy", comps)


def transgression_pairing(f, e: FunctionalElement) -> Element:
    """P = the pairing of e (moved to the y side) against the transgression
    determinant of f; an element over x and the system's odd family."""
    reg = e.reg
    s = len(f)
    grad = gradient(lift(f, reg, "x"), reg)
    fx = reg.odd_family("fx")
    fy = reg.odd_family("fy")
    diffs = [
        Element.generator(reg, reg.odd_rank(fx, i)) - Element.generator(reg, reg.odd_rank(fy, i))
        for i in range(1, s + 1)
    ]
    tdet = transgression_det([(grad, diffs)], "u")
    ey = _transport_functional_to_y(e)
    return functional_eval(ey, tdet)


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
        dims = [func.degree for func in e.functional.funcs]
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
    """Full pipeline: dual element, cocycle check, pairing verdict.

    Returns (reports, e, certificate).
    """
    e, certificate = dual_element(f)
    cocycle = verdict(
        "theorem4.cocycle", instance, e.cocycle, lambda: "boundary of e does not vanish"
    )
    pairing = pair_transgression(f, e, bound=bound)
    pairing.instance = instance
    return [cocycle, pairing], e, certificate


# ---------------------------------------------------------------------------
# embedded systems


def theorem3_compare(f, F, G, bound=None, functional=None) -> IdentityReport:
    """Exactness and homotopy comparison for an embedded system F = f.G.

    Checks the stated equality between the contraction of the exponential
    kernel against the transgression determinant of F and the mixed-column
    determinant; the two cocycle facts; and the homotopy claim relating the
    mixed determinant to the pairing through f's transgression, producing a
    verified witness when the sides differ.  ``G`` is an s x t matrix over
    the same variables as f.  When ``functional`` is given (a functional
    element over this module's pipeline registry), the kernel image of G
    against it is also required to be a cocycle.
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

    def gen(fam, i, dual=False):
        return Element.generator(reg, reg.odd_rank(fam, i, dual=dual))

    gradF = gradient(FX, reg)
    gradf = gradient(fX, reg)
    fxgens = [gen(fx, i + 1) for i in range(s)]
    fxG = [column(reg, fxgens, GX, j) for j in range(t)]

    pairs = [(fxG[j], gen(Fx, j + 1, dual=True)) for j in range(t) if not fxG[j].is_zero]
    Fdiff = [gen(Fx, j + 1) - gen(Fy, j + 1) for j in range(t)]
    tdetF = transgression_det([(gradF, Fdiff)], "u")
    kernel = grassmann_exp(pairs) if pairs else Element.unit(reg)
    lhs_a = top_contract(Fx, kernel * tdetF)
    mixed = [fxG[j] - gen(Fy, j + 1) for j in range(t)]
    rhs_a = transgression_det([(gradF, mixed)], "u")
    parts = []
    if lhs_a != rhs_a:
        parts.append("kernel contraction differs from the mixed determinant")

    ba = BoundaryAssignment(reg, {"fx": fX, "fy": fY, "Fx": FX, "Fy": FY})
    if not boundary(ba, ComplexElement(rhs_a)).element.is_zero:
        parts.append("mixed determinant is not closed")
    bb = bordered_det(GY, [-gen(Fy, j + 1) for j in range(t)], fy)
    if not boundary(ba, ComplexElement(bb, frozenset({"fy"}))).element.is_zero:
        parts.append("bordered determinant is not closed")

    if functional is not None:
        freg = functional.reg
        ffx = freg.odd_family(functional.odd_family)
        if ffx.arity != s:
            raise ValueError("functional's odd family does not match the system size")
        fFx = freg.odd_family("Fx")
        if fFx.arity != t:
            raise ValueError("functional registry's auxiliary family does not match F")
        fba = BoundaryAssignment(freg, {ffx.name: lift(f, freg, "x")})
        img = _kernel_image([lift(row, freg, "x") for row in G], functional, ffx, fFx)
        if not img.boundary(fba).is_zero():
            parts.append("kernel image of the supplied functional is not closed")

    if parts:
        return IdentityReport("theorem3", "", "failed", detail="; ".join(parts))

    fdiffs = [fxgens[i] - gen(fy, i + 1) for i in range(s)]
    tdetf = transgression_det([(gradf, fdiffs)], "u")
    cform = top_contract(fy, tdetf * bb)
    if rhs_a == cform:
        return IdentityReport("theorem3", "", "equal")
    wba = BoundaryAssignment(reg, {"fx": fX, "Fy": FY})
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
