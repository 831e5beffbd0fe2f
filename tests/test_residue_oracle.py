"""The residue route for square systems against the det G route.

For s = n, ``dual_element`` computes e as the Grothendieck residue tau of f:
tau solves B^T tau = e_1 for the reduced Bezoutian B, its Gram matrix G must
satisfy G B = I, and tau is stored by its staircase values.  The det G * l
route it replaced survives as the oracle here, as the box evaluator and the
dense solver did before it: tau must equal the det G element value for value
on the staircase, and the transgression pairing P must come out as the same
element either way.  Generation is derandomized, so every run gives the same
verdict.
"""

import importlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit import cli
from koszulkit.dual_element import (
    StaircaseFunctional,
    dual_element,
    pair_transgression,
    transgression_pairing,
)
from koszulkit.grassmann import Element
from koszulkit.ring import FamilyRegistry, Poly

from substitution import subst
from test_dual_element import _ladder, det_g_dual_element, is_cocycle

# the package re-exports the function dual_element under the module's name
dual_module = importlib.import_module("koszulkit.dual_element")


def _rebase(P: Element, reg) -> Element:
    """P over another pipeline registry of the same shape."""
    return Element(reg, {w: Poly(reg, dict(c.terms)) for w, c in P.terms.items()})


def check_against_det_g(f):
    """tau equals the det G element on the staircase, and both pair to the
    same P; returns the residue-route element."""
    e, cert = dual_element(f)
    oracle, oracle_cert = det_g_dual_element(f)
    tau = e.functional
    assert isinstance(tau, StaircaseFunctional)
    assert e.comps == {(): Poly.const(e.reg, 1)}
    assert is_cocycle(e, f) and is_cocycle(oracle, f)
    assert len(tau.rows) == cert["dimension"] == oracle_cert["dimension"]
    # tau's values on the staircase: the Gram row of the monomial 1, index 0
    values = tau.rows[0] if tau.rows else ()
    for beta, value in zip(tau.algebra.exponents, values):
        mono = tuple((g, k) for g, k in enumerate(beta) if k)
        assert oracle.pair_poly(Poly(oracle.reg, {mono: 1})) == value, beta
    P = transgression_pairing(f, e)
    assert P == _rebase(transgression_pairing(f, oracle), e.reg)
    return e


@pytest.mark.parametrize("seed", [None, 201, 202, 203])
def test_ladder_rungs(seed):
    for f in _ladder(seed):
        check_against_det_g(f)


def test_3var_d27():
    f = cli.parse_system_file("vars: a b c\nf: a^3-b-1, b^3-c+a, c^3-a*b\n").f
    e = check_against_det_g(f)
    assert len(e.functional.rows) == 27


@pytest.mark.parametrize(
    "f, label",
    [(f, label) for f, label in cli._pinned_thm4() if len(f) == f[0].reg.num_comm],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_pinned_square_thm4_systems(f, label):
    check_against_det_g(f)


@pytest.mark.parametrize("variables, system", [("x", "1"), ("x y", "x, x - 1"), ("x", "-2/3")])
def test_unit_ideals(variables, system):
    f = cli.parse_system_file(f"vars: {variables}\nf: {system}\n").f
    e = check_against_det_g(f)
    assert e.functional.rows == ()
    assert pair_transgression(f, e).status == "homotopic"


@st.composite
def square_systems(draw):
    """n <= 3 polynomials in n variables.  Zero dimensional: f_j is
    x_j^(a_j) plus terms of lower total degree, after a triangular change of
    coordinates, so the top forms share only the origin and the quotient has
    dimension prod a_j <= 8.  Unit ideal: f_2 = f_1 + c with c != 0, or a
    nonzero constant when n = 1."""
    n = draw(st.integers(1, 3))
    reg = FamilyRegistry()
    reg.commuting("x", n)
    x = [Poly.variable(reg, g) for g in range(n)]

    def small():
        return Poly.const(reg, draw(st.fractions(-3, 3, max_denominator=2)))

    def lower(deg):
        p = Poly.zero(reg)
        for _ in range(draw(st.integers(0, 3))):
            mono = small()
            for xi in x:
                mono = mono * xi ** draw(st.integers(0, max(deg - 1, 0)))
            if mono.total_degree() < deg:
                p = p + mono
        return p

    if draw(st.booleans()) and draw(st.booleans()):
        if n == 1:
            return [Poly.const(reg, draw(st.sampled_from([1, -2, Fraction(5, 3)])))]
        p = lower(3) + x[0]
        shift = Poly.const(reg, draw(st.sampled_from([-2, -1, 1, 3])))
        return [p, p + shift] + [x[j] ** 2 + lower(2) for j in range(2, n)]
    caps = {1: 4, 2: 3, 3: 2}[n]
    degrees = [draw(st.integers(1, caps)) for _ in range(n)]
    images = {
        g: x[g] + sum((small() * x[k] for k in range(g + 1, n)), Poly.zero(reg))
        for g in range(n)
    }
    return [subst(x[j] ** a + lower(a), images) for j, a in enumerate(degrees)]


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(square_systems())
def test_random_square_systems(f):
    check_against_det_g(f)


class TestRuntimeGates:
    """Each exact check of the residue route raises AssertionError on a
    broken input."""

    def setup_method(self):
        self.f = cli.parse_system_file("vars: a b c\nf: a^2-b, b^2-c, c^2\n").f

    def test_singular_bezoutian(self, monkeypatch):
        monkeypatch.setattr(
            dual_module, "bordered_det", lambda a, oddrow, fam: Element.zero(oddrow[0].reg)
        )
        with pytest.raises(AssertionError, match="singular"):
            dual_element(self.f)

    def test_perturbed_residue(self, monkeypatch):
        # B is invertible, so tau is the only solution of B^T tau = e_1 and
        # any other values give a Gram matrix G with G B != I
        real = dual_module.solve

        def perturbed(rows, rhs):
            out = real(rows, rhs)
            out[2] += 1
            return out

        monkeypatch.setattr(dual_module, "solve", perturbed)
        with pytest.raises(AssertionError, match="Gram matrix"):
            dual_element(self.f)

    def test_singular_bezoutian_with_solvable_residue(self, monkeypatch):
        # Theta = 1 reduces to a B of rank 1 whose row at the monomial 1 is
        # e_1, so B^T tau = e_1 is solvable; only G B = I sees that B is
        # singular
        monkeypatch.setattr(
            dual_module, "bordered_det", lambda a, oddrow, fam: Element.unit(oddrow[0].reg)
        )
        with pytest.raises(AssertionError, match="Gram matrix"):
            dual_element(self.f)

    def test_negated_divided_differences(self, monkeypatch):
        # one negated row negates Theta but not the Jacobian of f
        real = dual_module.gradient

        def negated(fX, reg):
            grad = real(fX, reg)
            return [[-p for p in grad[0]]] + grad[1:]

        monkeypatch.setattr(dual_module, "gradient", negated)
        with pytest.raises(AssertionError, match="residue of the Jacobian"):
            dual_element(self.f)

    def test_negated_bezoutian(self, monkeypatch):
        # -B inverts to -B^-1, the Gram matrix of -tau, and negating every
        # bordered determinant negates the Jacobian too, so only the
        # pairing's check against the transgression determinant sees it
        real = dual_module.bordered_det
        monkeypatch.setattr(dual_module, "bordered_det", lambda *args: -real(*args))
        e, _ = dual_element(self.f)
        monkeypatch.undo()
        with pytest.raises(AssertionError, match="inverted Bezoutian"):
            transgression_pairing(self.f, e)
