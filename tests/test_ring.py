"""Tests for registries, exact polynomials, parsing and divided differences.

The arithmetic oracle is evaluation: a polynomial identity that holds at
enough random rational points (and structurally) is checked both ways.  The
evaluator below reads the raw term dictionary directly so it shares no code
with Poly arithmetic.  Rendering sorts terms by a flat graded-lexicographic
key; ``_nested_grlex_key``, the earlier key with one tuple per generator, is
kept here as the oracle of its order.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit.ring import (
    CommFamily,
    MAX_NESTING,
    FamilyRegistry,
    ParseError,
    Poly,
    accumulate,
    divided_diff,
    mono_divide,
    mono_degree,
    mono_lcm,
    mono_mul,
    parse_poly,
    render_poly,
)

from substitution import subst


def evaluate(p, point):
    """Independent evaluation oracle: sum over raw terms, no Poly arithmetic."""
    total = Fraction(0)
    for mono, coeff in p.terms.items():
        v = coeff
        for g, e in mono:
            v *= point[g] ** e
        total += v
    return total


def rand_poly(rng, reg, gens, max_deg=3, max_terms=5):
    p = Poly.zero(reg)
    for _ in range(rng.randrange(max_terms + 1)):
        term = Poly.const(reg, rng.randint(-4, 4))
        for _ in range(rng.randrange(max_deg + 1)):
            term = term * Poly.variable(reg, rng.choice(gens))
        p = p + term
    return p


def fresh_xy(n):
    reg = FamilyRegistry()
    x = reg.commuting("x", n)
    y = reg.commuting("y", n)
    return reg, x, y


class TestRegistry:
    def test_commuting_indices_and_labels(self):
        reg = FamilyRegistry()
        x = reg.commuting("x", 3)
        y = reg.commuting("y", 2, labels=["u", "v"])
        assert isinstance(x, CommFamily)
        assert [reg.comm_gen(x, i) for i in (1, 2, 3)] == [0, 1, 2]
        assert [reg.comm_gen(y, i) for i in (1, 2)] == [3, 4]
        assert reg.comm_label(0) == "x1"
        assert reg.comm_label(3) == "u"
        assert reg.comm_owner(4) == ("y", 2)

    def test_arity_one_label_is_bare_name(self):
        reg = FamilyRegistry()
        reg.commuting("t", 1)
        assert reg.comm_label(0) == "t"

    def test_odd_ranks_interleave_primal_dual(self):
        reg = FamilyRegistry()
        f = reg.odd("f", 2)
        assert f.primal_ranks() == [0, 2]
        assert f.dual_ranks() == [1, 3]
        assert reg.rank_info(2) == ("f", 2, 0)
        assert reg.rank_info(3) == ("f", 2, 1)
        assert reg.odd_label(0) == "f1"
        assert reg.odd_label(1) == "f*1"

    def test_registration_order_fixes_ranks(self):
        reg = FamilyRegistry()
        a = reg.odd("a", 1)
        b = reg.odd("b", 2)
        assert a.primal_ranks() == [0]
        assert b.primal_ranks() == [2, 4]

    def test_names_globally_unique(self):
        reg = FamilyRegistry()
        reg.commuting("x", 2)
        with pytest.raises(ValueError):
            reg.commuting("x", 2)
        with pytest.raises(ValueError):
            reg.odd("x", 1)

    def test_bad_arity_rejected(self):
        reg = FamilyRegistry()
        with pytest.raises(ValueError):
            reg.commuting("x", 0)


class TestPolyArithmetic:
    def test_no_zero_coefficient_is_stored(self):
        reg, x, _ = fresh_xy(1)
        m = ((next(iter(x.gens())), 1),)
        assert Poly(reg, {m: 0, (): 3}).terms == {(): 3}
        assert Poly.const(reg, Fraction(0)).terms == {}
        assert (Poly.const(reg, 2) * 0).terms == {}
        acc = {}
        accumulate(acc, m, 0)
        assert acc == {}
        accumulate(acc, m, Poly.zero(reg))
        assert acc == {}

    def test_ring_axioms_random(self):
        rng = random.Random(12001)
        reg, x, y = fresh_xy(3)
        gens = list(x.gens()) + list(y.gens())
        for _ in range(100):
            p = rand_poly(rng, reg, gens)
            q = rand_poly(rng, reg, gens)
            r = rand_poly(rng, reg, gens)
            assert p + q == q + p
            assert p * q == q * p
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p - p == Poly.zero(reg)
            point = {g: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for g in gens}
            assert evaluate(p * q, point) == evaluate(p, point) * evaluate(q, point)
            assert evaluate(p + q, point) == evaluate(p, point) + evaluate(q, point)

    def test_no_zero_coefficients_stored(self):
        rng = random.Random(12002)
        reg, x, _ = fresh_xy(2)
        gens = list(x.gens())
        for _ in range(50):
            p = rand_poly(rng, reg, gens)
            q = rand_poly(rng, reg, gens)
            for result in (p + q, p - q, p * q, p - p):
                assert all(c != 0 for c in result.terms.values())

    def test_pow_matches_repeated_mul(self):
        reg, x, _ = fresh_xy(2)
        p = Poly.variable(reg, reg.comm_gen(x, 1)) + 2 * Poly.variable(reg, reg.comm_gen(x, 2)) - 1
        expected = Poly.const(reg, 1)
        for k in range(6):
            assert p**k == expected
            expected = expected * p

    def test_pow_squares_no_further_than_the_top_bit(self, monkeypatch):
        reg, x, _ = fresh_xy(3)
        p = sum((Poly.variable(reg, reg.comm_gen(x, i)) for i in (1, 2, 3)), Poly.const(reg, 1))
        expected = p**8 * p**8
        calls = []
        mul = Poly.__mul__

        def counting(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counting)
        assert p**16 == expected
        assert len(calls) <= 4
        calls.clear()
        assert p**1 == p and not calls
        assert p**0 == Poly.const(reg, 1) and not calls

    def test_cross_registry_mixing_rejected(self):
        reg1, x1, _ = fresh_xy(1)
        reg2, x2, _ = fresh_xy(1)
        with pytest.raises(ValueError):
            Poly.variable(reg1, reg1.comm_gen(x1, 1)) + Poly.variable(reg2, reg2.comm_gen(x2, 1))

    def test_degrees(self):
        reg, x, _ = fresh_xy(2)
        g1, g2 = x.gens()
        p = Poly.variable(reg, g1) ** 3 * Poly.variable(reg, g2) + Poly.variable(reg, g2) ** 2
        assert p.total_degree() == 4
        assert Poly.zero(reg).total_degree() == -1


class TestParser:
    def test_pinned_expressions(self):
        reg, x, _ = fresh_xy(2)
        g1, g2 = (Poly.variable(reg, reg.comm_gen(x, i)) for i in (1, 2))
        assert parse_poly(reg, "x1^2 - 2*x2") == g1**2 - 2 * g2
        assert parse_poly(reg, "3/2*x1 - 1/3") == Fraction(3, 2) * g1 - Fraction(1, 3)
        assert parse_poly(reg, "-x1^2") == -(g1**2)
        assert parse_poly(reg, "(x1 + x2)^3") == (g1 + g2) ** 3
        assert parse_poly(reg, " - ( x1 - x2 ) * x1 ") == -(g1 - g2) * g1
        assert parse_poly(reg, "0") == Poly.zero(reg)

    def test_rational_only_between_integer_literals(self):
        reg, _, _ = fresh_xy(1)
        for bad in ("x1/2", "1/x1", "(1)/2", "1/(2)"):
            with pytest.raises(ParseError):
                parse_poly(reg, bad)

    def test_malformed_input(self):
        reg, _, _ = fresh_xy(2)
        for bad in ("2x1", "x1^-1", "(x1", "x1 +", "x3", "x1^x2", "1/0", "x1 $ x2", ""):
            with pytest.raises(ParseError):
                parse_poly(reg, bad)

    def test_nesting_depth_is_capped(self):
        reg, x, _ = fresh_xy(2)
        g1 = Poly.variable(reg, reg.comm_gen(x, 1))
        deep = MAX_NESTING
        assert parse_poly(reg, "(" * deep + "x1" + ")" * deep) == g1
        assert parse_poly(reg, "-" * 1200 + "x1") == g1
        for bad in ("(" * (deep + 1) + "x1" + ")" * (deep + 1), "(" * 1200 + "x1" + ")" * 1200):
            with pytest.raises(ParseError, match="nested deeper"):
                parse_poly(reg, bad)

    def test_render_parse_round_trip(self):
        rng = random.Random(12004)
        reg, x, y = fresh_xy(3)
        gens = list(x.gens()) + list(y.gens())
        for _ in range(50):
            p = rand_poly(rng, reg, gens, max_deg=4)
            assert parse_poly(reg, render_poly(p)) == p
        assert render_poly(Poly.zero(reg)) == "0"

    def test_custom_name_map(self):
        reg = FamilyRegistry()
        x = reg.commuting("x", 2, labels=["alpha", "beta"])
        p = parse_poly(reg, "alpha*beta - beta^2")
        a, b = (Poly.variable(reg, reg.comm_gen(x, i)) for i in (1, 2))
        assert p == a * b - b**2


class TestDividedDiff:
    def test_defining_identity_random(self):
        """sum_k (x_k - y_k) * D_k(F) must telescope to F(x) - F(y), exactly."""
        rng = random.Random(12005)
        for _ in range(100):
            n = rng.randint(1, 3)
            reg, x, y = fresh_xy(n)
            F = rand_poly(rng, reg, list(x.gens()), max_deg=4, max_terms=6)
            diffs = divided_diff(F, x, y)
            assert len(diffs) == n
            swap = {reg.comm_gen(x, k): Poly.variable(reg, reg.comm_gen(y, k)) for k in range(1, n + 1)}
            lhs = Poly.zero(reg)
            for k in range(1, n + 1):
                xk = Poly.variable(reg, reg.comm_gen(x, k))
                lhs = lhs + (xk - swap[reg.comm_gen(x, k)]) * diffs[k - 1]
            assert lhs == F - subst(F, swap)

    def test_defining_identity_with_both_families(self):
        """The identity also holds for an F that already holds y terms: x_k
        renamed to y_k must merge with the y terms present.  F leads with
        -H(y_1, x_2, ...), so the terms of H(x_1, x_2, ...) renamed at the
        first stage meet their partners there while x_2 .. x_n are live."""
        rng = random.Random(12007)
        for _ in range(100):
            n = rng.randint(1, 3)
            reg, x, y = fresh_xy(n)
            gens = list(x.gens()) + list(y.gens())
            swap = {reg.comm_gen(x, k): Poly.variable(reg, reg.comm_gen(y, k)) for k in range(1, n + 1)}
            H = rand_poly(rng, reg, gens, max_deg=4, max_terms=6)
            first = {reg.comm_gen(x, 1): swap[reg.comm_gen(x, 1)]}
            F = -subst(H, first) + H + rand_poly(rng, reg, gens, max_deg=3, max_terms=3)
            diffs = divided_diff(F, x, y)
            lhs = Poly.zero(reg)
            for k in range(1, n + 1):
                xk = Poly.variable(reg, reg.comm_gen(x, k))
                lhs = lhs + (xk - swap[reg.comm_gen(x, k)]) * diffs[k - 1]
            assert lhs == F - subst(F, swap)

    def test_variable_window(self):
        """D_k may involve x_k..x_n and y_1..y_k but nothing outside."""
        rng = random.Random(12006)
        for _ in range(40):
            n = rng.randint(2, 3)
            reg, x, y = fresh_xy(n)
            F = rand_poly(rng, reg, list(x.gens()), max_deg=3, max_terms=5)
            for k, d in enumerate(divided_diff(F, x, y), start=1):
                support = d.support_gens()
                allowed = {reg.comm_gen(x, j) for j in range(k, n + 1)}
                allowed |= {reg.comm_gen(y, j) for j in range(1, k + 1)}
                assert support <= allowed

    def test_pinned_product(self):
        reg, x, y = fresh_xy(2)
        F = Poly.variable(reg, reg.comm_gen(x, 1)) * Poly.variable(reg, reg.comm_gen(x, 2))
        d1, d2 = divided_diff(F, x, y)
        assert d1 == Poly.variable(reg, reg.comm_gen(x, 2))
        assert d2 == Poly.variable(reg, reg.comm_gen(y, 1))

    def test_pinned_univariate_square(self):
        reg, x, y = fresh_xy(1)
        F = Poly.variable(reg, reg.comm_gen(x, 1)) ** 2
        (d,) = divided_diff(F, x, y)
        assert d == Poly.variable(reg, reg.comm_gen(x, 1)) + Poly.variable(reg, reg.comm_gen(y, 1))

    def test_constant_has_zero_differences(self):
        reg, x, y = fresh_xy(2)
        for d in divided_diff(Poly.const(reg, 7), x, y):
            assert d.is_zero

    def test_mismatched_families_rejected(self):
        reg = FamilyRegistry()
        x = reg.commuting("x", 2)
        y = reg.commuting("y", 3)
        with pytest.raises(ValueError):
            divided_diff(Poly.variable(reg, reg.comm_gen(x, 1)), x, y)
        with pytest.raises(ValueError):
            divided_diff(Poly.variable(reg, reg.comm_gen(x, 1)), x, x)


class TestMonomials:
    def test_divide_and_lcm(self):
        m1 = ((0, 2), (1, 1))
        m2 = ((0, 1),)
        assert mono_divide(m1, m2) == ((0, 1), (1, 1))
        assert mono_divide(m2, m1) is None
        assert mono_lcm(m1, ((1, 3), (2, 1))) == ((0, 2), (1, 3), (2, 1))
        assert mono_mul((), m1) == m1
        assert mono_divide(m1, m1) == ()

    def test_products_and_quotients_are_shared(self):
        """Equal monomials that mono_mul and mono_divide build are one object."""
        m1 = ((0, 2), (1, 1))
        m2 = ((1, 2),)
        prod = mono_mul(m1, m2)
        assert mono_mul(m2, m1) is prod
        assert mono_mul(((0, 1),), ((0, 1), (1, 3))) is prod
        assert mono_divide(prod, m2) is mono_divide(mono_mul(m1, ((2, 1),)), ((2, 1),))


def _nested_grlex_key(item):
    """The earlier sort key of ``Poly.sorted_terms``: (degree, ((-g1, e1),
    (-g2, e2), ...)), one tuple per generator."""
    m, _ = item
    return (mono_degree(m), tuple((-g, e) for g, e in m))


@st.composite
def grlex_polys(draw):
    """A polynomial over one to three commuting families of arity one to
    four, with up to 40 monomials of every length up to the generator count."""
    reg = FamilyRegistry()
    for i, arity in enumerate(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))):
        reg.commuting(f"v{i}", arity)
    n = reg.num_comm
    mono = st.dictionaries(st.integers(0, n - 1), st.integers(1, 12), max_size=n).map(
        lambda exps: tuple(sorted(exps.items()))
    )
    monos = draw(st.lists(mono, unique=True, max_size=40))
    coeffs = st.integers(-5, 5).filter(bool)
    return Poly(reg, {m: draw(coeffs) for m in monos})


class TestGrlexKey:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(grlex_polys())
    def test_flat_key_sorts_as_the_nested_key(self, p):
        want = sorted(p.terms.items(), key=_nested_grlex_key, reverse=True)
        assert p.sorted_terms() == want
