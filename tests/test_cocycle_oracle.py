"""The normal-form zero test of functional elements against the box evaluator.

``_box_is_zero`` is the earlier zero test, kept here as an independent
oracle: it evaluates l(m x^alpha) on a box of size prod_j (d_j + deg_j m + 1)
per multiplier, which is exponential in the number of variables but needs no
reduction modulo the annihilators.  ``FunctionalElement.is_zero`` must agree
with it on random functionals (repeated roots, singular Hankel forms and
degree-0 annihilators included) and on the boundaries of the dual elements
the det G route builds.  Generation is derandomized, so every run gives the same verdict.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit.cli import parse_system_file
from koszulkit.dual_element import (
    Functional1D,
    FunctionalElement,
    ProductFunctional,
    dual_element,
)
from koszulkit.koszul import BoundaryAssignment, lift
from koszulkit.ring import FamilyRegistry, Poly, mono_exponent

from test_dual_element import det_g_dual_element


def _box_is_zero(F):
    gens = F.reg.comm_family(F.functional.family).gens()
    for m in F.comps.values():
        ranges = []
        for g, func in zip(gens, F.functional.funcs):
            deg = max((mono_exponent(mono, g) for mono in m.terms), default=-1)
            ranges.append(range(func.degree + deg + 1))
        for alpha in itertools.product(*ranges):
            val = Fraction(0)
            for mono, c in m.terms.items():
                exps = dict(mono)
                term = c
                for g, func, a in zip(gens, F.functional.funcs, alpha):
                    term *= func.eval(exps.get(g, 0) + a)
                val += term
            if val:
                return False
    return True


PROPERTY = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def rec_from_roots(roots):
    """Non-leading coefficients a_0..a_{d-1} of prod (x - r)."""
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([Fraction(0)] + coeffs, coeffs + [Fraction(0)])]
    return tuple(coeffs[:-1])


small = st.integers(-2, 2).map(Fraction)
roots_or_coeffs = st.lists(small, min_size=1, max_size=3)


@st.composite
def functionals(draw):
    # one in ten annihilators is T = 1, half come from roots (repeated roots
    # are likely), the rest have random coefficients; one in ten functionals
    # has all-zero initials
    kind = draw(st.integers(0, 9))
    if kind == 0:
        rec = ()
    elif kind <= 5:
        rec = rec_from_roots(draw(roots_or_coeffs))
    else:
        rec = tuple(draw(roots_or_coeffs))
    d = len(rec)
    if draw(st.integers(0, 9)) == 0:
        initials = (0,) * d
    else:
        initials = tuple(draw(st.lists(small, min_size=d, max_size=d).filter(any)))
    return Functional1D(rec, initials)


@st.composite
def elements(draw):
    n = draw(st.integers(1, 3))
    reg = FamilyRegistry()
    reg.commuting("x", n)
    reg.odd("fx", 2)
    gens = [reg.comm_gen("x", j) for j in range(1, n + 1)]
    funcs = [draw(functionals()) for _ in gens]
    l = ProductFunctional(reg, "x", funcs)

    monos = st.lists(st.tuples(st.sampled_from(gens), st.integers(1, 4)), max_size=n).map(
        lambda pairs: tuple(sorted(dict(pairs).items()))
    )
    polys = st.dictionaries(monos, small.filter(bool), min_size=1, max_size=4).map(
        lambda t: Poly(reg, t)
    )
    words = [(), (reg.odd_rank(reg.odd_family("fx"), 1, dual=True),)]
    comps = {}
    for w in draw(st.lists(st.sampled_from(words), min_size=1, max_size=2, unique=True)):
        # a multiple of some T_j, which l kills, plus (three times in four) a
        # random remainder
        j = draw(st.integers(0, n - 1))
        x = Poly.variable(reg, gens[j])
        T = x ** funcs[j].degree + sum(
            (c * x**i for i, c in enumerate(funcs[j].rec)), Poly.zero(reg)
        )
        m = T * draw(polys)
        if draw(st.integers(0, 3)):
            m = m + draw(polys)
        comps[w] = m
    return FunctionalElement(l, "fx", comps)


def one_var_element(rec, initials, multiplier):
    reg = FamilyRegistry()
    reg.commuting("x", 1)
    reg.odd("fx", 1)
    l = ProductFunctional(reg, "x", (Functional1D(rec, initials),))
    x = Poly.variable(reg, reg.comm_gen("x", 1))
    return FunctionalElement(l, "fx", {(): multiplier(reg, x)})


@PROPERTY
@given(elements())
def test_normal_form_agrees_with_box(F):
    assert F.is_zero() == _box_is_zero(F)


@pytest.mark.parametrize(
    "rec, initials, multiplier, zero",
    [
        # T = (x - 1)^2 with initials (1, 1): the Hankel form [[1, 1], [1, 1]]
        # is singular, and x - 1 lies in its kernel
        ((1, -2), (1, 1), lambda reg, x: x - Poly.const(reg, 1), True),
        ((1, -2), (1, 1), lambda reg, x: x, False),
        # all-zero initials: the zero functional
        ((0, 0, 0), (0, 0, 0), lambda reg, x: x**5 + Poly.const(reg, 3), True),
        # degree-0 annihilator T = 1
        ((), (), lambda reg, x: x**3 + Poly.const(reg, 1), True),
        # T = x^3 with the canonical initials: x^2 pairs to 1
        ((0, 0, 0), (0, 0, 1), lambda reg, x: x**2, False),
        ((0, 0, 0), (0, 0, 1), lambda reg, x: x**3, True),
    ],
)
def test_pinned_functionals(rec, initials, multiplier, zero):
    F = one_var_element(rec, initials, multiplier)
    assert F.is_zero() is zero
    assert _box_is_zero(F) is zero


# the dual-ladder rungs; the box needs about 17 s on cyclic3's boundary, so
# that rung is checked against it only when perturbed (the box stops at the
# first nonzero value)
LADDER = [
    ("x12", "x", "x^12", True),
    ("dense2_d9", "x1 x2", "x1^3 - x2 + 1, x2^3 - x1", True),
    ("dense2_d16", "x1 x2", "x1^4 - x2 + 1, x2^4 - x1 - 2", True),
    ("cube3", "a b c", "a^2-b, b^2-c, c^2", True),
    ("cyclic3", "a b c", "a+b+c, a*b+b*c+c*a, a*b*c-1", False),
]


@pytest.mark.parametrize("rung, variables, system, box_when_zero", LADDER)
def test_pipeline_boundary_agrees_with_box(rung, variables, system, box_when_zero):
    f = parse_system_file(f"vars: {variables}\nf: {system}\n").f
    e, cert = det_g_dual_element(f)
    de = e.boundary(BoundaryAssignment(e.reg, {"fx": lift(f, e.reg, "x")}))
    assert de.comps, "the boundary is syntactically nonzero"
    assert de.is_zero()
    if box_when_zero:
        assert _box_is_zero(de)

    # one extra term on the staircase: x^alpha with alpha_j = d_j - 1 pairs
    # to 1 against the canonical initials, so the element is no longer zero
    word, m = next(iter(de.comps.items()))
    x = [Poly.variable(e.reg, g) for g in e.reg.comm_family("x").gens()]
    corner = Poly.const(e.reg, 1)
    for xj, func in zip(x, e.functional.funcs):
        corner = corner * xj ** (func.degree - 1)
    perturbed = FunctionalElement(e.functional, "fx", {**de.comps, word: m + corner})
    assert not perturbed.is_zero()
    assert not _box_is_zero(perturbed)
