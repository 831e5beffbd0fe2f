"""Groebner engine: bases, cofactors, staircases, multiplication matrices."""

import hashlib
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszulkit.cli import parse_system_file
from koszulkit.quotient import (
    GroebnerBasis,
    NotZeroDimensional,
    _divisor,
    _reduce,
    charpoly_T,
    groebner,
    mul_matrix,
    order_key,
    quotient_basis,
    reduce_with_cofactors,
    source_cofactors,
)
from koszulkit.ring import (
    FamilyRegistry,
    Mono,
    Poly,
    mono_degree,
    mono_divide,
    mono_mul,
    parse_poly,
)

from dense_matrices import dense, poly_at_matrix
from fraction_division import fraction_reduce

GOLDEN = Path(__file__).parent / "golden"


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
    leads = gb.leads
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
        leads = gb.leads
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

    def test_one_is_the_first_standard_monomial(self):
        """1 is the least monomial in grevlex and lex, so every nonzero
        quotient lists it first: staircase index 0 is the monomial 1."""
        rng = random.Random(1403)
        reg, _ = setup()
        nonzero = 0
        for order in ("grevlex", "lex"):
            for _ in range(6):
                qb = quotient_basis(groebner(rand_zero_dim_system(rng, reg, [0, 1]), order))
                if qb.monomials:
                    nonzero += 1
                    assert qb.monomials[0] == ()
        assert nonzero

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
        assert m == ({1: 1}, {})

    def test_columns_are_normal_forms_of_shifted_staircase(self):
        """Column m holds NF(x_j * m), reduced in full for every monomial:
        unit columns for shifts that stay on the staircase, reduced border
        monomials otherwise; no column stores a zero."""
        rng = random.Random(1402)
        reg, _ = setup()
        units = border = 0
        for _ in range(6):
            gb = groebner(rand_zero_dim_system(rng, reg, [0, 1]))
            qb = quotient_basis(gb)
            index = {m: i for i, m in enumerate(qb.monomials)}
            for j in (1, 2):
                cols = mul_matrix(gb, qb, j)
                assert len(cols) == len(qb)
                g = reg.comm_gen("x", j)
                for col, m in zip(cols, qb.monomials):
                    shifted = mono_mul(m, ((g, 1),))
                    nf, _ = reduce_with_cofactors(Poly(reg, {shifted: Fraction(1)}), gb)
                    assert col == {index[mono]: c for mono, c in nf.terms.items()}
                    assert all(col.values())
                    if shifted in index:
                        units += 1
                    else:
                        border += 1
        assert units and border

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

    def test_cayley_hamilton_random(self):
        rng = random.Random(1401)
        reg, _ = setup()
        gens = [0, 1]
        for _ in range(6):
            f = rand_zero_dim_system(rng, reg, gens)
            gb = groebner(f)
            qb = quotient_basis(gb)
            for j in (1, 2):
                mat = dense(mul_matrix(gb, qb, j))
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


# ---------------------------------------------------------------------------
# heap division against the scanning division it replaced


def _leading(p: Poly, key) -> tuple[Mono, Fraction]:
    m = max(p.terms, key=key)
    return m, p.terms[m]


def _scan_reduce(p: Poly, polys, key, sugars=None, sugar=None):
    """Divide ``p`` by the list, returning (normal form, quotients, sugar).

    Deterministic: at each step the order-largest reducible monomial of the
    remainder is cancelled against the first dividing entry of ``polys``.
    """
    reg = p.reg
    quotients = [Poly.zero(reg) for _ in polys]
    nf = Poly.zero(reg)
    h = p
    leads = [(max(g.terms, key=key), g.terms[max(g.terms, key=key)]) for g in polys]
    while not h.is_zero:
        hm, hc = _leading(h, key)
        hit = None
        for idx, (gm, gc) in enumerate(leads):
            q = mono_divide(hm, gm)
            if q is not None:
                hit = (idx, q, Fraction(hc) / gc)
                break
        if hit is None:
            mono_poly = Poly(reg, {hm: hc})
            nf = nf + mono_poly
            h = h - mono_poly
            continue
        idx, qmono, qc = hit
        qpoly = Poly(reg, {qmono: qc})
        quotients[idx] = quotients[idx] + qpoly
        h = h - qpoly * polys[idx]
        if sugars is not None and sugar is not None:
            sugar = max(sugar, mono_degree(qmono) + sugars[idx])
    return nf, quotients, sugar


REGS = {}
for _n in (1, 2, 3):
    REGS[_n] = FamilyRegistry()
    REGS[_n].commuting("x", _n)

DIVISION = settings(max_examples=200, derandomize=True, database=None, deadline=None)
coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 5))
# integer coefficients of either sign, up to 2^64 in size
wide_integers = st.integers(-(2**64), 2**64).filter(bool)


def monomials(n):
    """Monomials in n variables with each exponent at most 2."""
    return st.lists(st.integers(0, 2), min_size=n, max_size=n).map(
        lambda exps: tuple((g, e) for g, e in enumerate(exps) if e)
    )


@st.composite
def division_problems(draw):
    """(p, divisors, order, sugars, sugar) over 1-3 variables; divisors are
    not monic, may repeat and lead with either sign.  Half the problems are
    integer-only, with coefficients up to 2^64 in size."""
    n = draw(st.integers(1, 3))
    reg = REGS[n]
    coeffs = draw(st.sampled_from([coefficients, wide_integers]))

    def poly(min_size):
        return st.dictionaries(monomials(n), coeffs, min_size=min_size, max_size=5).map(
            lambda terms: Poly(reg, terms)
        )

    divisors = draw(st.lists(poly(1), min_size=1, max_size=4))
    if draw(st.booleans()):
        divisors.insert(draw(st.integers(0, len(divisors))), draw(st.sampled_from(divisors)))
    sugars = draw(st.lists(st.integers(0, 6), min_size=len(divisors), max_size=len(divisors)))
    sugar = draw(st.one_of(st.none(), st.integers(0, 6)))
    return draw(poly(0)), divisors, draw(st.sampled_from(["grevlex", "lex"])), sugars, sugar


def assert_same_division(p, divisors, order, sugars=None, sugar=None):
    """The integer-numerator division equals the Fraction heap division and
    the scanning division, holds no float, keeps the coefficient rule, and
    re-expands exactly: p == nf + sum_k q_k * g_k."""
    key = order_key(order, p.reg.comm_family("x"))
    leads = [_leading(g, key)[0] for g in divisors]
    results = [
        _reduce(p, [_divisor(g, lm) for g, lm in zip(divisors, leads)], key, sugars, sugar),
        fraction_reduce(p, divisors, leads, key, sugars, sugar),
        _scan_reduce(p, divisors, key, sugars, sugar),
    ]
    for nf, quots, _ in results:
        assert not any(type(c) is float for q in (nf, *quots) for c in q.terms.values())
    assert results[0] == results[1] == results[2]
    nf, quots, _ = results[0]
    for q in (nf, *quots):
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in q.terms.values())
    assert p == nf + sum((q * g for q, g in zip(quots, divisors)), Poly.zero(p.reg))
    return nf, quots


@DIVISION
@given(division_problems())
def test_heap_division_equals_scanning_division(problem):
    p, divisors, order, sugars, sugar = problem
    assert_same_division(p, divisors, order, sugars, sugar)


@st.composite
def small_systems(draw):
    """(system, order): one to three polynomials in one to three variables,
    exponents at most 2 per variable."""
    n = draw(st.integers(1, 3))
    reg = REGS[n]
    poly = st.dictionaries(monomials(n), coefficients, min_size=1, max_size=3).map(
        lambda terms: Poly(reg, terms)
    )
    return draw(st.lists(poly, min_size=1, max_size=3)), draw(st.sampled_from(["grevlex", "lex"]))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(small_systems())
def test_basis_carries_its_leads_and_is_interreduced(problem):
    """``leads[k]`` is the order-largest monomial of ``basis[k]``,
    ``divisors[k]`` is ``basis[k]`` as division reads it, and dividing any
    basis element by the others leaves it unchanged."""
    f, order = problem
    gb = groebner(f, order=order, family="x")
    key = gb.key()
    assert gb.leads == tuple(_leading(g, key)[0] for g in gb.basis)
    assert gb.divisors == tuple(_divisor(g, lm) for g, lm in zip(gb.basis, gb.leads))
    for k, g in enumerate(gb.basis):
        nf, quots, _ = _reduce(g, gb.divisors[:k] + gb.divisors[k + 1 :], key)
        assert nf == g
        assert all(q.is_zero for q in quots)


def test_divisor_is_primitive_with_positive_lead():
    """A divisor is read as the primitive integer multiple of itself with a
    positive leading coefficient, and keeps its own leading coefficient."""
    reg, names = setup(2)
    g = parse_poly(reg, "-4/3*x1^2 + 2*x1*x2 - 2/5", names)
    lead = ((0, 2),)
    gm, l, tail, lc = _divisor(g, lead)
    assert (gm, l, lc) == (lead, 10, Fraction(-4, 3))
    # 10*x1^2 - 15*x1*x2 + 3, its tail negated
    assert sorted(tail) == [((), -3), (((0, 1), (1, 1)), 15)]


class TestHeapDivisionCases:
    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    def test_one_variable(self, order):
        # the lex key of a one-variable monomial is the 1-tuple (e,)
        reg, names = setup(1)
        p = parse_poly(reg, "3*x^7 - x^4 + 2*x + 5", names)
        divisors = polys(reg, names, ["2*x^3 - x + 1/3", "x^2 - 4"])
        nf, quots = assert_same_division(p, divisors, order, [3, 2], 7)
        assert nf.total_degree() < 2
        assert not quots[0].is_zero and not quots[1].is_zero

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    def test_zero_polynomial(self, order):
        reg, names = setup(2)
        divisors = polys(reg, names, ["x1 - x2"])
        nf, quots = assert_same_division(Poly.zero(reg), divisors, order, [1], 0)
        assert nf.is_zero and quots == [Poly.zero(reg)]

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    def test_already_reduced(self, order):
        reg, names = setup(2)
        p = parse_poly(reg, "x2^3 + 7*x2 - 1", names)
        divisors = polys(reg, names, ["x1^2 - x2", "x1*x2 + 1"])
        nf, quots = assert_same_division(p, divisors, order)
        assert nf == p and all(q.is_zero for q in quots)

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    def test_first_dividing_lead_wins(self, order):
        # the lead x1 of b divides the lead x1^2 of a: listed first, b takes
        # every monomial a could, and a gets no quotient
        reg, names = setup(2)
        p = parse_poly(reg, "x1^3*x2 + 2*x1^2 - x1*x2 + 1", names)
        a, b = polys(reg, names, ["3*x1^2 + x2", "-2*x1 + 1"])
        _, quots_ab = assert_same_division(p, [a, b], order, [2, 1], 4)
        _, quots_ba = assert_same_division(p, [b, a], order, [1, 2], 4)
        assert not quots_ab[0].is_zero and not quots_ab[1].is_zero
        assert quots_ba[1].is_zero

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    def test_repeated_divisor(self, order):
        # only the first copy of a repeated divisor ever gets a quotient
        reg, names = setup(3)
        p = parse_poly(reg, "x1^2*x3 - x2^3 + x1*x2*x3 + 4", names)
        g = parse_poly(reg, "-5*x1*x3 + x2 - 2", names)
        h = parse_poly(reg, "x2^2 + x3", names)
        _, quots = assert_same_division(p, [g, h, g, h], order, [2, 2, 2, 2], 3)
        assert quots[2].is_zero and quots[3].is_zero


def _dense_system(rng, n, deg):
    """n polynomials with every monomial of degree at most deg, random
    coefficients in -3..3."""
    reg = FamilyRegistry()
    fam = reg.commuting("x", n)
    monos = [
        tuple((g, e) for g, e in zip(fam.gens(), exps) if e)
        for exps in itertools.product(range(deg + 1), repeat=n)
        if sum(exps) <= deg
    ]
    return [Poly(reg, {m: c for m in monos if (c := rng.randint(-3, 3))}) for _ in range(n)]


# Recorded before the heap division replaced the scanning one: bases and
# cofactors in both orders, and grevlex annihilators with their cofactors.
DENSE_DIGEST = "6c39e40621a4555c57804eeb8ea69667c93ef77b9153a5857e2868d0772fa301"
DENSE_CASES = [
    (2, 3, "grevlex"),
    (2, 4, "grevlex"),
    (3, 2, "grevlex"),
    (2, 5, "grevlex"),
    (2, 3, "lex"),
    (2, 4, "lex"),
    (3, 2, "lex"),
]


def test_dense_systems_match_recorded_digest():
    h = hashlib.sha256()
    for n, deg, order in DENSE_CASES:
        f = _dense_system(random.Random(f"dense:{n}:{deg}"), n, deg)
        gb = groebner(f, order=order)
        h.update(repr([str(g) for g in gb.basis]).encode())
        h.update(repr([[str(c) for c in row] for row in gb.cofactors]).encode())
        if order == "grevlex":
            for j in range(1, n + 1):
                T, G = charpoly_T(gb, j)
                h.update(repr([str(T)] + [str(g) for g in G]).encode())
    assert h.hexdigest() == DENSE_DIGEST


def test_annihilator_cofactors_share_their_monomials():
    """Every monomial ``mono_mul`` and ``mono_divide`` build passes through
    one table of distinct monomials, so the cofactors of the annihilators
    hold one object per distinct monomial."""
    f = parse_system_file((GOLDEN / "3var_d27.txt").read_text()).f
    gb = groebner(f)
    cofactors = [g for j in (1, 2, 3) for g in charpoly_T(gb, j)[1]]
    monos = [m for g in cofactors for m in g.terms]
    assert len(monos) > len(set(monos))
    assert len({id(m) for m in monos}) == len(set(monos))
