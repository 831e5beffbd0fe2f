"""Groebner engine: bases, cofactors, staircases, multiplication matrices."""

import random
from fractions import Fraction

import pytest

from koszulkit._linalg import poly_at_matrix
from koszulkit.quotient import (
    GroebnerBasis,
    NotZeroDimensional,
    _minimal_coeffs,
    charpoly_T,
    groebner,
    mul_matrix,
    order_key,
    quotient_basis,
    reduce_with_cofactors,
    source_cofactors,
)
from koszulkit.ring import FamilyRegistry, Poly, parse_poly


def setup(n=2):
    reg = FamilyRegistry()
    reg.commuting("x", n)
    return reg, reg.comm_label_map()


def polys(reg, names, exprs):
    return [parse_poly(reg, e, names) for e in exprs]


def expand_cofactors(gb: GroebnerBasis):
    """Oracle: re-expand every basis element from the source system."""
    for g, cof in zip(gb.basis, gb.cofactors):
        acc = Poly.zero(gb.reg)
        for fi, ci in zip(gb.source, cof):
            acc = acc + fi * ci
        assert acc == g


def spolys_reduce_to_zero(gb: GroebnerBasis):
    """Oracle: the defining property, checked directly on the result."""
    from koszulkit.ring import mono_divide, mono_lcm

    key = gb.key()
    leads = gb.leading_monomials()
    for i in range(len(gb.basis)):
        for j in range(i + 1, len(gb.basis)):
            lcm = mono_lcm(leads[i], leads[j])
            ui = mono_divide(lcm, leads[i])
            uj = mono_divide(lcm, leads[j])
            ci = gb.basis[i].terms[leads[i]]
            cj = gb.basis[j].terms[leads[j]]
            sp = (
                Poly(gb.reg, {ui: Fraction(1) / ci}) * gb.basis[i]
                - Poly(gb.reg, {uj: Fraction(1) / cj}) * gb.basis[j]
            )
            nf, _ = reduce_with_cofactors(sp, gb)
            assert nf.is_zero


def rand_poly(rng, reg, gens, deg, terms=4):
    p = Poly.zero(reg)
    for _ in range(rng.randrange(1, terms + 1)):
        t = Poly.const(reg, rng.randint(-3, 3))
        for _ in range(rng.randrange(deg + 1)):
            t = t * Poly.variable(reg, rng.choice(gens))
        p = p + t
    return p


def rand_zero_dim_system(rng, reg, gens):
    """Pure cubes plus low-degree noise: always a finite staircase."""
    out = []
    for g in gens:
        p = Poly.variable(reg, g) ** 3 + rand_poly(rng, reg, gens, 2)
        out.append(p)
    if rng.random() < 0.5:
        out.append(rand_poly(rng, reg, gens, 2))
    return out


def test_grevlex_ordering_pinned():
    reg, names = setup()
    key = order_key("grevlex", reg.comm_family("x"))
    x1sq = ((0, 2),)
    x1x2 = ((0, 1), (1, 1))
    x2sq = ((1, 2),)
    assert key(x1sq) > key(x1x2) > key(x2sq)
    assert key(((0, 1),)) > key(((1, 1),))
    assert key(((1, 3),)) > key(x1sq)


class TestGroebner:
    def test_single_variable(self):
        reg, names = setup(1)
        gb = groebner(polys(reg, names, ["x"]))
        assert len(gb.basis) == 1
        assert gb.basis[0] == parse_poly(reg, "x", names)
        assert gb.cofactors[0][0] == Poly.const(reg, 1)

    def test_two_variable_pinned(self):
        reg, names = setup()
        gb = groebner(polys(reg, names, ["x1^2 - x2", "x2^2"]))
        expand_cofactors(gb)
        spolys_reduce_to_zero(gb)
        assert [str(g) for g in gb.basis] == ["x2^2", "x1^2 - x2"]

    def test_monomial_generator(self):
        reg, names = setup()
        gb = groebner(polys(reg, names, ["x1*x2"]))
        assert len(gb.basis) == 1
        with pytest.raises(NotZeroDimensional):
            quotient_basis(gb)

    def test_members_reduce_to_zero(self):
        reg, names = setup()
        f = polys(reg, names, ["x1^2 - x2", "x2^2", "x1^3"])
        gb = groebner(f)
        for p in f:
            nf, _ = reduce_with_cofactors(p, gb)
            assert nf.is_zero

    def test_random_systems_satisfy_the_invariants(self):
        rng = random.Random(1201)
        reg, _ = setup()
        gens = [0, 1]
        for _ in range(15):
            f = [rand_poly(rng, reg, gens, 3) for _ in range(rng.randrange(1, 4))]
            f = [p for p in f if not p.is_zero] or [Poly.variable(reg, 0)]
            gb = groebner(f)
            expand_cofactors(gb)
            spolys_reduce_to_zero(gb)
            for p in f:
                nf, _ = reduce_with_cofactors(p, gb)
                assert nf.is_zero

    def test_result_is_canonical_under_input_order(self):
        reg, names = setup()
        f = polys(reg, names, ["x1^2 - x2", "x2^2", "x1*x2^2 + x1"])
        a = groebner(f)
        b = groebner(list(reversed(f)))
        assert a.basis == b.basis


class TestReduction:
    def test_irreducible_passthrough(self):
        reg, names = setup()
        gb = groebner(polys(reg, names, ["x1^2 - x2", "x2^2"]))
        p = parse_poly(reg, "x1 + 7", names)
        nf, cof = reduce_with_cofactors(p, gb)
        assert nf == p
        assert all(c.is_zero for c in cof)

    def test_division_identity_random(self):
        rng = random.Random(1301)
        reg, names = setup()
        gb = groebner(polys(reg, names, ["x1^2 - x2", "x2^2"]))
        for _ in range(25):
            p = rand_poly(rng, reg, [0, 1], 5)
            nf, quots = reduce_with_cofactors(p, gb)
            acc = nf
            for q, g in zip(quots, gb.basis):
                acc = acc + q * g
            assert acc == p
            src = source_cofactors(gb, quots)
            acc2 = nf
            for c, fi in zip(src, gb.source):
                acc2 = acc2 + c * fi
            assert acc2 == p

    def test_normal_form_has_no_reducible_monomial(self):
        from koszulkit.ring import mono_divide

        rng = random.Random(1302)
        reg, names = setup()
        gb = groebner(polys(reg, names, ["x1^3 - 1", "x2^2 - x1"]))
        leads = gb.leading_monomials()
        for _ in range(10):
            nf, _ = reduce_with_cofactors(rand_poly(rng, reg, [0, 1], 6), gb)
            for m in nf.terms:
                assert all(mono_divide(m, lm) is None for lm in leads)


class TestQuotientBasis:
    def test_one_variable_square(self):
        reg, names = setup(1)
        gb = groebner(polys(reg, names, ["x^2"]))
        qb = quotient_basis(gb)
        assert qb.monomials == ((), ((0, 1),))

    def test_pinned_staircase(self):
        reg, names = setup()
        gb = groebner(polys(reg, names, ["x1^2 - x2", "x2^2"]))
        qb = quotient_basis(gb)
        assert qb.monomials == ((), ((1, 1),), ((0, 1),), ((0, 1), (1, 1)))

    def test_unit_ideal_gives_empty_basis(self):
        reg, names = setup(1)
        gb = groebner(polys(reg, names, ["x", "x - 1"]))
        assert quotient_basis(gb).monomials == ()

    def test_infinite_staircase_raises(self):
        reg, names = setup()
        gb = groebner(polys(reg, names, ["x1^2"]))
        with pytest.raises(NotZeroDimensional):
            quotient_basis(gb)


class TestMulMatrixAndAnnihilators:
    def test_pinned_nilpotent_matrix(self):
        reg, names = setup(1)
        gb = groebner(polys(reg, names, ["x^2"]))
        qb = quotient_basis(gb)
        m = mul_matrix(gb, qb, 1)
        assert m == [[0, 0], [1, 0]]

    def test_charpoly_single_variable(self):
        reg, names = setup(1)
        gb = groebner(polys(reg, names, ["x"]))
        T, G = charpoly_T(gb, 1)
        assert T == parse_poly(reg, "x", names)
        assert G == [Poly.const(reg, 1)]

    def test_charpoly_square(self):
        reg, names = setup(1)
        gb = groebner(polys(reg, names, ["x^2"]))
        T, G = charpoly_T(gb, 1)
        assert T == parse_poly(reg, "x^2", names)
        assert G == [Poly.const(reg, 1)]

    def test_overdetermined_line(self):
        reg, names = setup(1)
        gb = groebner(polys(reg, names, ["x", "x^2"]))
        T, G = charpoly_T(gb, 1)
        assert T == parse_poly(reg, "x", names)
        assert G == [Poly.const(reg, 1), Poly.zero(reg)]

    def test_pinned_two_variable_tower(self):
        reg, names = setup()
        f = polys(reg, names, ["x1^2 - x2", "x2^2"])
        gb = groebner(f)
        T1, G1 = charpoly_T(gb, 1)
        assert T1 == parse_poly(reg, "x1^4", names)
        acc = Poly.zero(reg)
        for fi, gi in zip(f, G1):
            acc = acc + fi * gi
        assert acc == T1
        T2, _ = charpoly_T(gb, 2)
        assert T2 == parse_poly(reg, "x2^4", names)

    def test_minimal_mode_divides(self):
        reg, names = setup()
        gb = groebner(polys(reg, names, ["x1^2 - x2", "x2^2"]))
        Tmin, Gmin = charpoly_T(gb, 2, mode="minimal")
        assert Tmin == parse_poly(reg, "x2^2", names)
        acc = Poly.zero(reg)
        for fi, gi in zip(gb.source, Gmin):
            acc = acc + fi * gi
        assert acc == Tmin

    def test_minimal_coeffs_of_small_matrices(self):
        F = Fraction
        assert _minimal_coeffs([]) == [F(1)]
        diag = [[F(2), F(0), F(0)], [F(0), F(2), F(0)], [F(0), F(0), F(3)]]
        assert _minimal_coeffs(diag) == [F(6), F(-5), F(1)]
        jordan = [[F(2), F(1)], [F(0), F(2)]]
        assert _minimal_coeffs(jordan) == [F(4), F(-4), F(1)]

    def test_cayley_hamilton_random(self):
        rng = random.Random(1401)
        reg, _ = setup()
        gens = [0, 1]
        for _ in range(6):
            f = rand_zero_dim_system(rng, reg, gens)
            gb = groebner(f)
            qb = quotient_basis(gb)
            for j in (1, 2):
                mat = mul_matrix(gb, qb, j)
                T, G = charpoly_T(gb, j)
                coeffs = [Fraction(0)] * (T.total_degree() + 1)
                g = reg.comm_gen("x", j)
                for mono, c in T.terms.items():
                    coeffs[mono[0][1] if mono else 0] = c
                zero = poly_at_matrix(coeffs, mat)
                assert all(v == 0 for row in zero for v in row)
                acc = Poly.zero(reg)
                for fi, gi in zip(f, G):
                    acc = acc + fi * gi
                assert acc == T
