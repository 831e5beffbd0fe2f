"""Recurrent functionals, the dual-element pipeline, and the pairing checks."""

import importlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit import cli
from koszulkit.ring import FamilyRegistry, Poly, accumulate, divided_diff
from koszulkit.grassmann import Element, render_element, top_contract
from koszulkit.koszul import (
    BoundaryAssignment,
    UnassignedFamilyError,
    boundary,
    lift,
    transport,
)
from koszulkit.quotient import NotZeroDimensional
from koszulkit.dual_element import (
    Functional1D,
    FunctionalElement,
    HypothesisError,
    ProductFunctional,
    dual_element,
    functional_eval,
    pair_transgression,
    recurrent_functional,
    theorem3_compare,
    transgression_pairing,
    verify_theorem4,
)

from product_evaluation import eval_mono, eval_poly
from substitution import subst

# the package re-exports the function dual_element under the module's name
dual_module = importlib.import_module("koszulkit.dual_element")


def det_g_dual_element(f):
    """(e, certificate) with e built by the det G * l route, which
    ``dual_element`` takes only when s != n; for a square system it is the
    oracle of the residue route."""
    _, cert = dual_element(f)
    return dual_module._det_g_element(cert["cofactors"], cert["functional"]), cert


def is_cocycle(e, f) -> bool:
    """Whether the boundary of e under the system f vanishes: the test
    ``verify_theorem4`` reports as ``theorem4.cocycle``."""
    return e.boundary(BoundaryAssignment(e.reg, {"fx": lift(f, e.reg, "x")})).is_zero()


def l_value(l, p):
    """l(p) as ``pair`` prints it for ``pair_with_l``: the pairing of the
    word-free element with multiplier 1 over l."""
    return FunctionalElement(l, "fx", {(): Poly.const(l.reg, 1)}).pair_poly(p)


def one_var():
    reg = FamilyRegistry()
    reg.commuting("x", 1)
    return reg, Poly.variable(reg, 0)


def rand_poly(rng, reg, gens, deg, terms=3):
    p = Poly.zero(reg)
    for _ in range(terms):
        mono = Poly.const(reg, rng.randint(-3, 3))
        for g in gens:
            mono = mono * Poly.variable(reg, g) ** rng.randint(0, deg)
        p = p + mono
    return p


class TestRecurrentFunctional:
    def test_eval_at_zero(self):
        reg, x = one_var()
        l = recurrent_functional(x, (1,))
        assert [l.eval(k) for k in range(6)] == [1, 0, 0, 0, 0, 0]

    def test_canonical_square(self):
        reg, x = one_var()
        l = recurrent_functional(x * x, (0, 1))
        assert [l.eval(k) for k in range(6)] == [0, 1, 0, 0, 0, 0]

    def test_period_two(self):
        reg, x = one_var()
        l = recurrent_functional(x * x - Poly.const(reg, 1), (0, 1))
        assert [l.eval(k) for k in range(8)] == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_squaring_matches_recurrence_below_500(self):
        """The recurrence and square-and-multiply (x^k mod T paired with the
        initial values) agree for every k < 500 on random T, repeated and
        zero roots included."""
        rng = random.Random(30001)
        for _ in range(12):
            d = rng.randint(1, 4)
            rec = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(d))
            initials = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
            l = Functional1D(rec, initials)
            for k in range(500):
                r = l.reduced_power(k)
                assert sum(c * v for c, v in zip(r, initials)) == l.eval(k), (rec, initials, k)

    def test_huge_index_is_not_memoized(self):
        reg, x = one_var()
        l = recurrent_functional(x * x - Poly.const(reg, 1), (0, 1))
        assert l.eval(99999999999) == 1 and l.eval(10**12) == 0
        assert len(l._memo) == 2

    def test_memo_stops_at_the_digit_cap(self):
        # 10^(6k) passes DIGIT_LIMIT digits first at k = 3334; later values
        # below MEMO_LIMIT come from square-and-multiply without the cap
        reg, x = one_var()
        l = recurrent_functional(x - Poly.const(reg, 10**6), (1,))
        assert l.eval(4000) == 10**24000
        assert len(l._memo) == 3334
        assert l.eval(3333) == 10**19998 and l.eval(3334) == 10**20004

    def test_non_monic_rejected(self):
        reg, x = one_var()
        with pytest.raises(ValueError):
            recurrent_functional(2 * x, (1,))

    def test_initial_count_checked(self):
        reg, x = one_var()
        with pytest.raises(ValueError):
            recurrent_functional(x * x, (1,))

    def test_multivariate_rejected(self):
        reg = FamilyRegistry()
        reg.commuting("x", 2)
        p = Poly.variable(reg, 0) + Poly.variable(reg, 1)
        with pytest.raises(ValueError):
            recurrent_functional(p, (1,))

    def test_annihilates_multiples_of_t(self):
        # defining property: l.(T * x^k) = 0 for every shift k
        rng = random.Random(501)
        reg, x = one_var()
        for _ in range(25):
            d = rng.randint(1, 4)
            T = x**d
            for k in range(d):
                T = T + Poly.const(reg, rng.randint(-3, 3)) * x**k
            initials = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d))
            l = ProductFunctional(reg, "x", (recurrent_functional(T, initials),))
            for k in range(6):
                assert l_value(l, T * x**k) == 0


class TestProductFunctional:
    def setup_method(self):
        self.reg = FamilyRegistry()
        self.reg.commuting("x", 2)
        self.x1 = Poly.variable(self.reg, 0)
        self.x2 = Poly.variable(self.reg, 1)

    def canonical(self, d1, d2):
        return ProductFunctional(
            self.reg,
            "x",
            (
                recurrent_functional(self.x1**d1, (0,) * (d1 - 1) + (1,)),
                recurrent_functional(self.x2**d2, (0,) * (d2 - 1) + (1,)),
            ),
        )

    def test_values_multiply_coordinatewise(self):
        l = self.canonical(2, 3)
        assert l_value(l, self.x1 * self.x2**2) == 1
        assert l_value(l, self.x1) == 0
        assert l_value(l, Poly.const(self.reg, 1)) == 0
        assert l_value(l, self.x1 * self.x2**2 + 5 * self.x1) == 1

    def test_absent_variable_pairs_at_zero(self):
        l = ProductFunctional(
            self.reg,
            "x",
            (
                recurrent_functional(self.x1, (1,)),
                recurrent_functional(self.x2**2, (0, 1)),
            ),
        )
        assert l_value(l, self.x2) == 1
        assert l_value(l, self.x1 * self.x2) == 0

    def test_foreign_generator_rejected(self):
        reg = FamilyRegistry()
        reg.commuting("x", 1)
        reg.commuting("y", 1)
        x = Poly.variable(reg, 0)
        y = Poly.variable(reg, 1)
        l = ProductFunctional(reg, "x", (recurrent_functional(x, (1,)),))
        with pytest.raises(ValueError, match="monomial leaves the paired family"):
            l_value(l, y)


class TestFunctionalEval:
    def test_divided_difference_of_annihilator_pairs_to_one(self):
        # the canonical functional turns the divided difference of its own
        # annihilator into exactly 1
        reg = FamilyRegistry()
        reg.commuting("x", 1)
        reg.commuting("y", 1)
        reg.odd("fy", 1)
        x = Poly.variable(reg, 0)
        y = Poly.variable(reg, 1)
        for d in (1, 2, 3, 4):
            T = x**d
            nabla = divided_diff(T, "x", "y")[0]
            ly = ProductFunctional(
                reg, "y", (Functional1D((Fraction(0),) * d, (0,) * (d - 1) + (1,)),)
            )
            F = FunctionalElement(ly, "fy", {(): Poly.const(reg, 1)})
            out = functional_eval(F, Element.from_poly(nabla))
            assert out == Element.unit(reg)

    def test_mixed_polynomial_splits(self):
        reg = FamilyRegistry()
        reg.commuting("x", 1)
        reg.commuting("y", 1)
        reg.odd("fy", 1)
        x = Poly.variable(reg, 0)
        y = Poly.variable(reg, 1)
        ly = ProductFunctional(reg, "y", (Functional1D((0, 0), (0, 1)),))
        F = FunctionalElement(ly, "fy", {(): Poly.const(reg, 1)})
        out = functional_eval(F, Element.from_poly(x + y))
        assert out == Element.unit(reg)
        out = functional_eval(F, Element.from_poly(x * y + 3 * y))
        assert out == Element.from_poly(x + Poly.const(reg, 3))

    def test_word_pairing_and_drops(self):
        reg = FamilyRegistry()
        reg.commuting("y", 1)
        fy = reg.odd("fy", 2)
        y = Poly.variable(reg, 0)
        ly = ProductFunctional(reg, "y", (Functional1D((Fraction(0),), (1,)),))
        word = (reg.odd_rank(fy, 2, dual=True),)
        F = FunctionalElement(ly, "fy", {word: Poly.const(reg, 1)})
        g2 = Element.generator(reg, reg.odd_rank(fy, 2))
        g1 = Element.generator(reg, reg.odd_rank(fy, 1))
        # a matched generator pairs to minus 1 (the single-pair twist of the
        # contraction anchor); unmatched or absent terms drop
        assert functional_eval(F, g2) == -Element.unit(reg)
        assert functional_eval(F, g1).is_zero
        assert functional_eval(F, Element.unit(reg)).is_zero
        assert functional_eval(F, g2 * y).is_zero

    def test_adjoint_multiplication(self):
        rng = random.Random(502)
        reg = FamilyRegistry()
        reg.commuting("x", 2)
        reg.odd("fx", 1)
        l = ProductFunctional(
            reg,
            "x",
            (
                Functional1D((Fraction(1), Fraction(-2)), (Fraction(3), Fraction(1))),
                Functional1D((Fraction(-1),), (Fraction(2),)),
            ),
        )
        F = FunctionalElement(l, "fx", {(): Poly.const(reg, 1)})
        for _ in range(25):
            p = rand_poly(rng, reg, (0, 1), 2)
            q = rand_poly(rng, reg, (0, 1), 2)
            pF = FunctionalElement(l, "fx", {(): p})
            assert pF.pair_poly(q) == F.pair_poly(p * q)


def _product_functional_eval(F: FunctionalElement, e: Element) -> Element:
    """Pair an element against a functional element.

    Per component the element is wedged on the right with the dual word, the
    odd family is fully contracted, and the paired commuting variables are
    evaluated through the product functional (with the multiplier folded in);
    whatever generators remain pass through untouched.
    """
    reg = e.reg
    fam = reg.comm_family(F.functional.family)
    famset = set(fam.gens())
    ofam = reg.odd_family(F.odd_family)
    out = Element.zero(reg)
    for w, m in F.comps.items():
        contracted = top_contract(ofam, e * Element.word(reg, w))
        for word, coeff in contracted.terms.items():
            acc: dict = {}
            for mono, c in (coeff * m).terms.items():
                paired = tuple((g, x) for g, x in mono if g in famset)
                rest = tuple((g, x) for g, x in mono if g not in famset)
                val = c * eval_mono(F.functional, paired)
                if val:
                    accumulate(acc, rest, val)
            if acc:
                out = out + Element(reg, {word: Poly(reg, acc)})
    return out


# The ladder rungs of the benchmark: (variables, system).
LADDER = (
    ("x", "x^12"),
    ("x1 x2", "x1^3 - x2 + 1, x2^3 - x1"),
    ("x1 x2", "x1^4 - x2 + 1, x2^4 - x1 - 2"),
    ("a b c", "a^2-b, b^2-c, c^2"),
    ("a b c", "a+b+c, a*b+b*c+c*a, a*b*c-1"),
)


def _ladder(seed):
    """The ladder systems, each variable x_j replaced by c_j * x_j with the
    benchmark's seeded rationals c_j (seed None: unscaled)."""
    rng = random.Random(f"dual-ladder:{seed}")
    for variables, text in LADDER:
        sf = cli.parse_system_file(f"vars: {variables}\nf: {text}\n")
        images = {}
        for g in range(len(sf.labels)):
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))
            images[g] = c * Poly.variable(sf.reg, g)
        yield [subst(p, images) for p in sf.f] if seed is not None else sf.f


def _moved_to_y(e: FunctionalElement) -> FunctionalElement:
    """e on the y side: multipliers rebuilt over y, dual words renamed from
    fx to fy, the functional moved by ``on_family``."""
    reg = e.reg
    xfam, yfam = reg.comm_family("x"), reg.comm_family("y")
    fx, fy = reg.odd_family("fx"), reg.odd_family("fy")
    gmap = {xfam.base + k: yfam.base + k for k in range(xfam.arity)}
    rename = {
        reg.odd_rank(fx, i, dual=True): reg.odd_rank(fy, i, dual=True)
        for i in range(1, fx.arity + 1)
    }
    comps = {tuple(rename[r] for r in w): transport(m, reg, gmap) for w, m in e.comps.items()}
    return FunctionalElement(e.functional.on_family("y"), "fy", comps)


def _pairing_arguments(monkeypatch, f):
    """The functional element e, built by the det G route, and the pair
    (e moved to y, the transgression determinant of f) whose
    ``functional_eval`` is the pairing.  ``transgression_pairing`` reads e's
    multipliers without moving them; it must give the same element, term
    for term."""
    e, _ = det_g_dual_element(f)
    seen = []
    pair_reads = dual_module._pair_reads

    def spy(tdet, *args):
        seen.append(tdet)
        return pair_reads(tdet, *args)

    monkeypatch.setattr(dual_module, "_pair_reads", spy)
    P = transgression_pairing(f, e)
    monkeypatch.undo()
    [tdet] = seen
    F = _moved_to_y(e)
    moved = functional_eval(F, tdet)
    assert [(w, list(c.terms.items())) for w, c in P.terms.items()] == [
        (w, list(c.terms.items())) for w, c in moved.terms.items()
    ]
    return e, (F, tdet)


def _random_functional(draw, fam, initials):
    """One Functional1D per variable of ``fam``; ``initials`` picks the
    initial values: random, all zero, or singular (a single nonzero at 0)."""
    funcs = []
    for g in fam.gens():
        d = draw(st.integers(0, 3))
        rec = tuple(Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 2))) for _ in range(d))
        if initials == "zero":
            init = (0,) * d
        elif initials == "singular":
            init = (1,) + (0,) * (d - 1) if d else ()
        else:
            init = tuple(draw(st.integers(-3, 3)) for _ in range(d))
        funcs.append(Functional1D(rec, init))
    return funcs


def _random_poly(draw, reg, gens, deg):
    """A few terms over ``gens`` with exponents up to ``deg``; a stored zero
    coefficient and terms that cancel in products included."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = tuple((g, e) for g in gens if (e := draw(st.integers(0, deg))))
        terms[mono] = Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 3)))
    return Poly(reg, terms)


@st.composite
def functional_pairings(draw):
    """A random functional element over y (1-3 variables) with several dual
    words of fy, and a random element over x, y, fy and an unpaired odd
    family u to pair against it."""
    n = draw(st.integers(1, 3))
    s = draw(st.integers(1, 3))
    reg = FamilyRegistry()
    xfam = reg.commuting("x", n)
    yfam = reg.commuting("y", n)
    fy = reg.odd("fy", s)
    u = reg.odd("u", 1)
    initials = draw(st.sampled_from(["random", "zero", "singular"]))
    funcs = _random_functional(draw, yfam, initials)
    l = ProductFunctional(reg, "y", funcs)
    duals = fy.dual_ranks()
    comps = {}
    for _ in range(draw(st.integers(1, 4))):
        word = tuple(sorted(draw(st.sets(st.sampled_from(duals)))))
        # a multiplier generator outside the paired family passes through
        gens = ([xfam.base] if draw(st.booleans()) else []) + list(yfam.gens())
        comps[word] = _random_poly(draw, reg, gens, 3)
    F = FunctionalElement(l, "fy", comps)
    ranks = fy.primal_ranks() + duals + u.primal_ranks()
    e = Element.zero(reg)
    for _ in range(draw(st.integers(1, 5))):
        word = draw(st.lists(st.sampled_from(ranks), max_size=4))
        coeff = _random_poly(draw, reg, list(xfam.gens()) + list(yfam.gens()), 3)
        e = e + Element.word(reg, word) * coeff
    return F, e


class TestMomentPairingOracle:
    """``functional_eval`` and ``pair_poly`` evaluate e = m * l through its
    moments; the earlier product route, which multiplies each contracted
    coefficient by the whole multiplier, must give exactly the same."""

    @pytest.mark.parametrize("seed", [None, 201, 202, 203])
    def test_ladder_rungs(self, monkeypatch, seed):
        for f in _ladder(seed):
            _, (F, tdet) = _pairing_arguments(monkeypatch, f)
            P = functional_eval(F, tdet)
            assert P == _product_functional_eval(F, tdet)
            assert P == Element.unit(F.reg)

    @pytest.mark.parametrize(
        "f, label", cli._pinned_thm4(), ids=[label for _, label in cli._pinned_thm4()]
    )
    def test_pinned_thm4_systems(self, monkeypatch, f, label):
        e, (F, tdet) = _pairing_arguments(monkeypatch, f)
        assert functional_eval(F, tdet) == _product_functional_eval(F, tdet)
        if label == "f=(x, x^2)":
            assert all(F.comps) and all(e.comps)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(functional_pairings())
    def test_random_functional_elements(self, pairing):
        F, e = pairing
        assert functional_eval(F, e) == _product_functional_eval(F, e)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(functional_pairings(), st.data())
    def test_pair_poly(self, pairing, data):
        F, _ = pairing
        m = F.comps.get(())
        y = list(F.reg.comm_family("y").gens())
        p = _random_poly(data.draw, F.reg, y, 4)
        if m is None:
            assert F.pair_poly(p) == 0
        elif any(g not in y for mono in m.terms for g, _ in mono) and p:
            with pytest.raises(ValueError, match="monomial leaves the paired family"):
                F.pair_poly(p)
        else:
            assert F.pair_poly(p) == eval_poly(F.functional, m * p)

    def test_pair_poly_on_pipeline_elements(self):
        rng = random.Random(506)
        for f in _ladder(None):
            e, _ = det_g_dual_element(f)
            gens = list(e.reg.comm_family("x").gens())
            for _ in range(5):
                p = rand_poly(rng, e.reg, gens, 6)
                assert e.pair_poly(p) == eval_poly(e.functional, e.comps[()] * p)


class TestFunctionalEquality:
    def test_cache_is_not_compared(self):
        a = Functional1D((Fraction(-1), Fraction(0)), (Fraction(1), Fraction(2)))
        b = Functional1D((Fraction(-1), Fraction(0)), (Fraction(1), Fraction(2)))
        a.eval(5)
        a.power(7)
        assert a == b
        assert repr(a) == repr(b)
        assert "_memo" not in repr(a) and "_powers" not in repr(a)

    def test_powers_reduce_modulo_the_annihilator(self):
        # T = x^2 - x - 1: x^k = F(k) x + F(k - 1) with Fibonacci F
        func = Functional1D((Fraction(-1), Fraction(-1)), (Fraction(0), Fraction(1)))
        assert [func.power(k) for k in range(5)] == [(1, 0), (0, 1), (1, 1), (1, 2), (2, 3)]

    def test_unit_annihilator_has_empty_powers(self):
        func = Functional1D((), ())
        assert func.power(0) == func.power(3) == ()


class TestZeroTestFamily:
    def setup_method(self):
        self.reg = FamilyRegistry()
        self.reg.commuting("x", 1)
        self.reg.commuting("y", 1)
        self.reg.odd("fx", 1)
        self.l = ProductFunctional(self.reg, "x", (Functional1D((Fraction(0),), (1,)),))
        self.y = Poly.variable(self.reg, 1)

    @pytest.mark.parametrize(
        "check",
        [lambda e: e.is_zero(), lambda e: e.pair_poly(Poly.const(e.reg, 1))],
        ids=["is_zero", "pair_poly"],
    )
    def test_foreign_generator_rejected(self, check):
        e = FunctionalElement(self.l, "fx", {(): self.y - Poly.const(self.reg, 1)})
        with pytest.raises(ValueError, match="monomial leaves the paired family"):
            check(e)

    def test_foreign_generator_rejected_by_the_pairing(self):
        # the pairing reads e's multipliers over x, where they must live
        reg = dual_module._pipeline_registry(1, 1)
        y = Poly.variable(reg, reg.comm_gen("y", 1))
        l = ProductFunctional(reg, "x", (Functional1D((0,), (1,)),))
        e = FunctionalElement(l, "fx", {(): y - Poly.const(reg, 1)})
        src = FamilyRegistry()
        src.commuting("x", 1)
        with pytest.raises(ValueError, match="monomial leaves the paired family"):
            transgression_pairing([Poly.variable(src, 0)], e)


def _parity_boundary(e: FunctionalElement, ba: BoundaryAssignment) -> dict:
    """Oracle: the dual-side boundary as written before it went through
    ``koszul.boundary``; each missing dual is inserted into the word with
    the sign of its position's parity, times minus its image."""
    reg = e.reg
    fam = reg.odd_family(e.odd_family)
    out: dict = {}
    for w, m in e.comps.items():
        for i in range(1, fam.arity + 1):
            rank = reg.odd_rank(fam, i, dual=True)
            if rank in w:
                continue
            pos = sum(1 for r in w if r < rank)
            piece = ba.images[fam.name][i - 1] * m
            if piece:
                accumulate(out, tuple(sorted(w + (rank,))), piece if pos & 1 else -piece)
    return out


class TestFunctionalElementBoundary:
    def setup_method(self):
        self.reg = FamilyRegistry()
        self.reg.commuting("x", 1)
        self.fx = self.reg.odd("fx", 2)
        self.x = Poly.variable(self.reg, 0)
        self.l = ProductFunctional(
            self.reg, "x", (recurrent_functional(self.x, (1,)),)
        )
        self.ba = BoundaryAssignment(self.reg, {"fx": [self.x, self.x * self.x]})
        self.d1 = self.reg.odd_rank(self.fx, 1, dual=True)
        self.d2 = self.reg.odd_rank(self.fx, 2, dual=True)

    def test_boundary_of_empty_word(self):
        e = FunctionalElement(self.l, "fx", {(): Poly.const(self.reg, 1)})
        de = e.boundary(self.ba)
        assert de.comps == {(self.d1,): -self.x, (self.d2,): -self.x * self.x}

    def test_boundary_sign_past_existing_rank(self):
        e = FunctionalElement(self.l, "fx", {(self.d2,): Poly.const(self.reg, 1)})
        de = e.boundary(self.ba)
        assert de.comps == {(self.d1, self.d2): -self.x}

    def test_boundary_squares_to_nothing(self):
        rng = random.Random(503)
        for _ in range(20):
            comps = {}
            for w in [(), (self.d1,), (self.d2,), (self.d1, self.d2)]:
                if rng.random() < 0.7:
                    comps[w] = rand_poly(rng, self.reg, (0,), 2)
            e = FunctionalElement(self.l, "fx", comps)
            dde = e.boundary(self.ba).boundary(self.ba)
            assert dde.comps == {}

    def test_boundary_matches_position_parity_oracle(self):
        rng = random.Random(504)
        reg = FamilyRegistry()
        reg.commuting("x", 2)
        fam = reg.odd("fx", 3)
        x1, x2 = Poly.variable(reg, 0), Poly.variable(reg, 1)
        l = ProductFunctional(
            reg, "x", (recurrent_functional(x1, (1,)), recurrent_functional(x2, (1,)))
        )
        ba = BoundaryAssignment(reg, {"fx": [x1 - x2, x1 * x2, x2 * x2 - 3]})
        duals = [reg.odd_rank(fam, i, dual=True) for i in (1, 2, 3)]
        words = [w for k in range(4) for w in itertools.combinations(duals, k)]
        for _ in range(20):
            comps = {w: rand_poly(rng, reg, (0, 1), 2) for w in words if rng.random() < 0.5}
            e = FunctionalElement(l, "fx", comps)
            assert e.boundary(ba).comps == _parity_boundary(e, ba)

    def test_boundary_needs_the_odd_family_assigned(self):
        e = FunctionalElement(self.l, "fx", {(): Poly.const(self.reg, 1)})
        with pytest.raises(UnassignedFamilyError):
            e.boundary(BoundaryAssignment(self.reg, {}))

    def test_module_boundary_rejects_functional_elements(self):
        e = FunctionalElement(self.l, "fx", {(self.d2,): Poly.const(self.reg, 1)})
        with pytest.raises(TypeError):
            boundary(self.ba, e)

    def test_zero_test_sees_through_the_recurrence(self):
        # -x tensor the full dual word kills every evaluation against
        # the functional at 0, despite being syntactically nonzero
        e = FunctionalElement(self.l, "fx", {(self.d1, self.d2): -self.x})
        assert e.is_zero()
        e2 = FunctionalElement(self.l, "fx", {(self.d1, self.d2): Poly.const(self.reg, 1)})
        assert not e2.is_zero()
        assert FunctionalElement(self.l, "fx", {}).is_zero()


class TestDualElement:
    def test_single_variable_linear(self):
        reg, x = one_var()
        e, cert = det_g_dual_element([x])
        assert e.comps == {(): Poly.const(e.reg, 1)}
        assert cert["dimension"] == 1
        assert cert["initials"] == [[Fraction(1)]]
        assert is_cocycle(e, [x])

    def test_single_variable_square(self):
        reg, x = one_var()
        e, cert = det_g_dual_element([x * x])
        assert e.comps == {(): Poly.const(e.reg, 1)}
        assert cert["initials"] == [[Fraction(0), Fraction(1)]]
        assert is_cocycle(e, [x * x])

    def test_redundant_equation_shifts_the_word(self):
        reg, x = one_var()
        e, cert = dual_element([x, x * x])
        fx = e.reg.odd_family("fx")
        word = (e.reg.odd_rank(fx, 2, dual=True),)
        assert e.comps == {word: Poly.const(e.reg, 1)}
        assert cert["initials"] == [[Fraction(1)]]
        assert str(cert["annihilators"][0]) == "x"
        assert is_cocycle(e, [x, x * x])

    def test_two_variable_tower(self):
        reg = FamilyRegistry()
        reg.commuting("x", 2)
        x1 = Poly.variable(reg, 0)
        x2 = Poly.variable(reg, 1)
        e, cert = det_g_dual_element([x1 * x1 - x2, x2 * x2])
        assert cert["dimension"] == 4
        assert [str(T) for T in cert["annihilators"]] == ["x1^4", "x2^4"]
        y1 = Poly.variable(e.reg, 0)
        y2 = Poly.variable(e.reg, 1)
        # the multiplier is exactly det of the cofactor matrix
        assert e.comps == {(): y1**2 * y2**2 + y2**3}
        assert is_cocycle(e, [x1 * x1 - x2, x2 * x2])

    def test_certificate_reexpands(self):
        reg = FamilyRegistry()
        reg.commuting("x", 2)
        x1 = Poly.variable(reg, 0)
        x2 = Poly.variable(reg, 1)
        f = [x1 * x1 - x2, x2 * x2]
        e, cert = dual_element(f)
        from koszulkit.koszul import transport, _family_gmap

        gmap = _family_gmap(reg, e.reg, "x")
        fX = [transport(p, e.reg, gmap) for p in f]
        for j, T in enumerate(cert["annihilators"]):
            total = Poly.zero(e.reg)
            for i, fi in enumerate(fX):
                total = total + fi * cert["cofactors"][i][j]
            assert total == T

    def test_positive_dimension_rejected(self):
        reg = FamilyRegistry()
        reg.commuting("x", 2)
        x1 = Poly.variable(reg, 0)
        x2 = Poly.variable(reg, 1)
        with pytest.raises(NotZeroDimensional):
            dual_element([x1 * x2])

    def test_unit_ideal_collapses_to_zero_functional(self):
        reg, x = one_var()
        e, cert = dual_element([x, x - Poly.const(reg, 1)])
        assert cert["dimension"] == 0
        assert is_cocycle(e, [x, x - Poly.const(reg, 1)])
        assert FunctionalElement(e.functional, "fx", dict(e.comps)).is_zero()


class TestPairTransgression:
    def test_diagonal_systems_pair_exactly(self):
        reg, x = one_var()
        for f in [[x], [x * x], [x**3 - Poly.const(reg, 1)]]:
            e, _ = dual_element(f)
            assert pair_transgression(f, e).status == "equal"
        reg2 = FamilyRegistry()
        reg2.commuting("x", 2)
        x1 = Poly.variable(reg2, 0)
        x2 = Poly.variable(reg2, 1)
        e, _ = dual_element([x1, x2])
        assert pair_transgression([x1, x2], e).status == "equal"

    def test_redundant_system_pairs_exactly(self):
        reg, x = one_var()
        f = [x, x * x]
        e, _ = dual_element(f)
        rep = pair_transgression(f, e)
        assert rep.status == "equal"

    def test_tower_pairs_exactly(self):
        reg = FamilyRegistry()
        reg.commuting("x", 2)
        x1 = Poly.variable(reg, 0)
        x2 = Poly.variable(reg, 1)
        f = [x1 * x1 - x2, x2 * x2]
        e, _ = dual_element(f)
        assert pair_transgression(f, e).status == "equal"

    def test_unit_ideal_pairs_homotopically(self):
        # 1 lies in the ideal, so the zero pairing is a boundary away from 1
        reg, x = one_var()
        f = [x, x - Poly.const(reg, 1)]
        e, _ = dual_element(f)
        rep = pair_transgression(f, e)
        assert rep.status == "homotopic"
        from koszulkit.koszul import transport, _family_gmap

        gmap = _family_gmap(reg, e.reg, "x")
        fX = [transport(p, e.reg, gmap) for p in f]
        ba = BoundaryAssignment(e.reg, {"fx": fX})
        P = transgression_pairing(f, e)
        assert boundary(ba, rep.witness) == P - Element.unit(e.reg)

    def test_unit_ideal_witness_needs_the_cofactor_degree(self):
        # 1 = x^2 - (x + 1)(x - 1): no constant witness exists
        reg, x = one_var()
        f = [x * x, x + Poly.const(reg, 1)]
        e, cert = dual_element(f)
        assert cert["dimension"] == 0
        rep = pair_transgression(f, e)
        assert rep.status == "homotopic"
        assert max(w.total_degree() for w in rep.witness.terms.values()) == 1

    @pytest.mark.parametrize(
        "system",
        ["x, x, x", "x - 1, x^2 - 1, x^3 - 1", "x, x^2, x^3, x^4", "x^2, x^3, x^4, x^5, x^6",
         "x1, x2, x1, x2", "x1^2 - x2, x2^2, x1*x2, x1^3, x2^3"],
    )
    def test_surplus_equations_pair_to_one(self, system):
        # s - n = 2, 3, 4: the leftover dual words of e have two or more
        # letters, and e still pairs to exactly 1
        names = "x1 x2" if "x2" in system else "x"
        sf = cli.parse_system_file(f"vars: {names}\nf: {system}\n")
        e, _ = dual_element(sf.f)
        assert is_cocycle(e, sf.f)
        assert {len(w) for w in e.comps} == {len(sf.f) - len(sf.labels)}
        assert transgression_pairing(sf.f, e) == Element.unit(e.reg)

    def test_random_systems_pair_or_witness(self):
        rng = random.Random(504)
        reg = FamilyRegistry()
        reg.commuting("x", 2)
        x1 = Poly.variable(reg, 0)
        x2 = Poly.variable(reg, 1)
        for _ in range(6):
            f = [
                x1 * x1 + Poly.const(reg, rng.randint(-2, 2)) * x2
                + Poly.const(reg, rng.randint(-2, 2)),
                x2 * x2 + Poly.const(reg, rng.randint(-2, 2)) * x1,
            ]
            e, cert = dual_element(f)
            assert is_cocycle(e, f)
            rep = pair_transgression(f, e)
            assert rep.status in ("equal", "homotopic")
            if rep.status == "homotopic":
                from koszulkit.koszul import transport, _family_gmap

                gmap = _family_gmap(reg, e.reg, "x")
                fX = [transport(p, e.reg, gmap) for p in f]
                ba = BoundaryAssignment(e.reg, {"fx": fX})
                P = transgression_pairing(f, e)
                assert boundary(ba, rep.witness) == P - Element.unit(e.reg)

    def test_verify_wrapper_reports(self):
        reg, x = one_var()
        reports, e, cert = verify_theorem4([x * x], instance="square")
        assert [r.name for r in reports] == ["theorem4.cocycle", "theorem4.pairing"]
        assert all(r.ok for r in reports)
        assert all(r.instance == "square" for r in reports)


TOWER = "vars: x1 x2\nf: x1^2 - x2, x2^2\n"


def _open_dual_element(monkeypatch):
    """Make ``dual_element`` return det G * l plus the dual word of f_1 with
    multiplier 1: the word-free part still pairs to 1, but the boundary gains
    f_1 * l, which does not vanish (l(f_1 x1 x2^3) = 1 on the tower)."""
    real = dual_module.dual_element

    def open_element(f):
        e, cert = real(f)
        l = cert["functional"]
        d1 = e.reg.odd_rank(e.reg.odd_family("fx"), 1, dual=True)
        comps = dual_module._det_g_element(cert["cofactors"], l).comps
        comps[(d1,)] = Poly.const(e.reg, 1)
        return FunctionalElement(l, "fx", comps), cert

    monkeypatch.setattr(dual_module, "dual_element", open_element)


class TestCocycleReport:
    """``verify_theorem4`` runs the cocycle test itself, before the pairing."""

    def test_open_element_fails_the_cocycle_report(self, monkeypatch):
        _open_dual_element(monkeypatch)
        f = cli.parse_system_file(TOWER).f
        reports, e, _ = verify_theorem4(f, instance="tower")
        assert not is_cocycle(e, f)
        cocycle, pairing = reports
        assert (cocycle.name, cocycle.instance, cocycle.status, cocycle.detail) == (
            "theorem4.cocycle",
            "tower",
            "failed",
            "boundary of e does not vanish",
        )
        assert (pairing.name, pairing.status) == ("theorem4.pairing", "equal")

    def test_dual_element_command_exits_1(self, monkeypatch, capsys, tmp_path):
        _open_dual_element(monkeypatch)
        path = tmp_path / "tower.txt"
        path.write_text(TOWER)
        assert cli.main(["dual-element", str(path)]) == 1
        data = json.loads(capsys.readouterr().out)
        assert [(r["name"], r["status"], r["detail"]) for r in data["reports"]] == [
            ("theorem4.cocycle", "failed", "boundary of e does not vanish"),
            ("theorem4.pairing", "equal", None),
        ]
        assert data["summary"]["failed"] == 1


class TestTheorem3Compare:
    def test_identity_embedding(self):
        reg, x = one_var()
        rep = theorem3_compare([x], [x], [[Poly.const(reg, 1)]])
        assert rep.status == "equal"

    def test_square_of_linear(self):
        reg, x = one_var()
        rep = theorem3_compare([x], [x * x], [[x]])
        assert rep.status == "homotopic"
        assert rep.witness is not None

    def test_square_of_square(self):
        reg, x = one_var()
        rep = theorem3_compare([x * x], [x**4], [[x * x]])
        assert rep.status == "homotopic"

    def test_two_variable_diagonal(self):
        reg = FamilyRegistry()
        reg.commuting("x", 2)
        x1 = Poly.variable(reg, 0)
        x2 = Poly.variable(reg, 1)
        z = Poly.zero(reg)
        rep = theorem3_compare([x1, x2], [x1 * x1, x2 * x2], [[x1, z], [z, x2]])
        assert rep.status == "homotopic"

    def test_witness_is_nontrivial(self):
        # the witness returned with a homotopic verdict is re-verified by the
        # search itself; here we just pin that it is a real element
        reg, x = one_var()
        rep = theorem3_compare([x], [x * x], [[x]])
        assert rep.witness is not None and not rep.witness.is_zero

    def test_hypothesis_violation(self):
        reg, x = one_var()
        with pytest.raises(HypothesisError):
            theorem3_compare([x], [x + Poly.const(reg, 1)], [[Poly.const(reg, 1)]])

    def test_shape_violation(self):
        reg, x = one_var()
        with pytest.raises(ValueError):
            theorem3_compare([x], [x], [[Poly.const(reg, 1), x]])

    def test_random_multiples(self):
        rng = random.Random(505)
        reg, x = one_var()
        for _ in range(8):
            f = [x**rng.randint(1, 2) + Poly.const(reg, rng.randint(-1, 1))]
            g = rand_poly(rng, reg, (0,), 1, terms=2)
            if g.is_zero:
                g = Poly.const(reg, 1)
            F = [f[0] * g]
            rep = theorem3_compare(f, F, [[g]])
            assert rep.status in ("equal", "homotopic", "not_found")
            if rep.status == "homotopic":
                assert rep.witness is not None
