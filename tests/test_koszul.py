"""Boundary operator, chain maps, lemma and transgression verifiers.

The witness search shifts each word's boundary by monomials; its columns and
target, every column materialised, must equal the ones ``_per_basis_system``
builds from the boundary of every basis element m*w taken in full, in
ascending degree of m, the earlier column build kept here as an oracle.  It
must find a witness exactly when ``words_major_witness``, the earlier search
that took the candidates words major, finds one, of no higher coefficient
degree, and no witness may exist one degree below the one it returns.  Lemma
1's Laplace-form minor expansion must equal ``_permutation_minor_expansion``,
the earlier expansion that wedged the leftover odd entries once per row
permutation, on polynomial and on constant entries (its integer path).
Theorem 1's random samples must equal those of ``rand_element``, the earlier
one-sum-per-word builder, and leave the generator in the same state.  The
boundary, which reads each position's image from a table cached per
dual-family set, must equal ``_per_position_boundary``, the earlier evaluation
that looked up each position's family and image, word for word and error for
error.  Its one-pass form must also equal ``_product_boundary``, the
evaluation that summed Poly pieces and multiplied the dual multiplier into
the element, in word and monomial order, on dense coefficients and on the
cocycle test of a dual element with more equations than variables.
"""

import collections
import importlib
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit import grassmann, koszul
from koszulkit._linalg import solve
from koszulkit.cli import main
from koszulkit.dual_element import dual_element
from koszulkit.grassmann import (
    Element,
    bordered_minor_expansion,
    dual_full_product,
    grassmann_exp,
    render_element,
    scaled_to_integers,
)
from koszulkit.koszul import (
    BoundaryAssignment,
    ComplexElement,
    DomainError,
    NotCocycleError,
    UnassignedFamilyError,
    boundary,
    homotopy_witness,
    infer_dual_families,
    theorem1_kernels,
    theorem1_map,
    verify_lemma1,
    verify_lemma2,
    verify_lemma3,
    verify_theorem1,
    verify_theorem2,
)
from koszulkit.ring import (
    PRIMAL,
    FamilyRegistry,
    Poly,
    accumulate,
    as_poly,
    parse_poly,
    render_mono,
)

from words_major_witness import words_major_witness


def simple_setup():
    """Registry with x1,x2 and two odd pairs a, b mapped to fixed polynomials."""
    reg = FamilyRegistry()
    reg.commuting("x", 2)
    reg.odd("a", 2)
    reg.odd("b", 2)
    names = reg.comm_label_map()
    ba = BoundaryAssignment(
        reg,
        {
            "a": [parse_poly(reg, "x1", names), parse_poly(reg, "x2^2", names)],
            "b": [parse_poly(reg, "x1*x2", names), parse_poly(reg, "x1 + x2", names)],
        },
    )
    return reg, ba


def rand_element(rng, reg, ranks, gens, terms=3, deg=2):
    """A random element built one product and one sum per word: the earlier
    ``koszul._random_words``, kept as its oracle."""
    e = Element.zero(reg)
    for _ in range(rng.randrange(1, terms + 1)):
        word = rng.sample(ranks, rng.randrange(0, min(3, len(ranks)) + 1))
        coeff = Poly.const(reg, rng.randint(-3, 3))
        for _ in range(rng.randrange(deg + 1)):
            coeff = coeff * Poly.variable(reg, rng.choice(gens))
        e = e + Element.word(reg, word) * coeff
    return e


def _per_position_boundary(ba, elem, dual_families) -> Element:
    """The earlier ``_element_boundary``: the family and role checks, one
    ``rank_info`` and one ``image`` per word position, and the dual
    multiplier, built afresh, subtracted."""
    reg = elem.reg
    present = {reg.rank_info(r)[0] for r in elem.support_ranks()}
    for name in present | set(dual_families):
        if not ba.assigned(name):
            raise UnassignedFamilyError(f"odd family {name!r} has no assigned image")
    for name in dual_families:
        fam = reg.odd_family(name)
        for rank in elem.support_ranks():
            if fam.owns_rank(rank) and reg.rank_info(rank)[2] == PRIMAL:
                raise ValueError(f"dual-role family {name!r} carries primal generators")
    acc = {}
    for word, c in elem.terms.items():
        for pos, rank in enumerate(word):
            fname, idx, pol = reg.rank_info(rank)
            if pol != PRIMAL or fname in dual_families:
                continue
            piece = c * ba.images[fname][idx - 1]
            if pos & 1:
                piece = -piece
            if piece.is_zero:
                continue
            accumulate(acc, word[:pos] + word[pos + 1 :], piece)
    derivation = Element(reg, acc)
    if not dual_families:
        return derivation
    m = Element.zero(reg)
    for name in sorted(dual_families):
        fam = reg.odd_family(name)
        for i in range(1, fam.arity + 1):
            dual = Element.generator(reg, reg.odd_rank(fam, i, dual=True))
            m = m + dual * ba.images[name][i - 1]
    return derivation - m * elem


def _product_boundary(ba, elem, dual_families) -> Element:
    """The boundary before its one-pass form: each derivation piece a
    ``Poly`` product, signed and summed as a Poly, and the dual multiplier,
    minus the sum over the dual-role families of each dual times its image,
    multiplied into ``elem`` by ``Element.__mul__`` and added."""
    reg = elem.reg
    acc: dict = {}
    for word, c in elem.terms.items():
        for pos, rank in enumerate(word):
            name, i, pol = reg.rank_info(rank)
            if pol != PRIMAL or name in dual_families:
                continue
            img = ba.images[name][i - 1]
            if img:
                piece = c * img
                accumulate(acc, word[:pos] + word[pos + 1 :], -piece if pos & 1 else piece)
    derivation = Element._wrap(reg, acc)
    if not dual_families:
        return derivation
    m = Element.zero(reg)
    for name in sorted(dual_families):
        fam = reg.odd_family(name)
        for i in range(1, fam.arity + 1):
            m = m + Element.generator(reg, reg.odd_rank(fam, i, dual=True)) * ba.images[name][i - 1]
    return derivation + (-m) * elem


def rand_poly(rng, reg, gens, deg):
    p = Poly.zero(reg)
    for _ in range(rng.randrange(1, 4)):
        term = Poly.const(reg, rng.randint(-2, 2))
        for _ in range(rng.randrange(deg + 1)):
            term = term * Poly.variable(reg, rng.choice(gens))
        p = p + term
    if p.is_zero:
        p = Poly.variable(reg, gens[0])
    return p


class TestBoundary:
    def test_derivation_on_a_two_letter_word(self):
        reg, ba = simple_setup()
        word = Element.word(reg, [reg.odd_rank("a", 1), reg.odd_rank("a", 2)])
        out = boundary(ba, word)
        names = reg.comm_label_map()
        f1 = parse_poly(reg, "x1", names)
        f2 = parse_poly(reg, "x2^2", names)
        expected = (
            Element.generator(reg, reg.odd_rank("a", 2)) * f1
            - Element.generator(reg, reg.odd_rank("a", 1)) * f2
        )
        assert out == expected

    def test_dual_side_multiplication(self):
        """On the dual side the boundary multiplies by minus the image row."""
        reg, ba = simple_setup()
        e = ComplexElement(
            Element.generator(reg, reg.odd_rank("a", 1, dual=True)), frozenset({"a"})
        )
        out = boundary(ba, e).element
        names = reg.comm_label_map()
        f2 = parse_poly(reg, "x2^2", names)
        d1 = reg.odd_rank("a", 1, dual=True)
        d2 = reg.odd_rank("a", 2, dual=True)
        assert out == Element.word(reg, [d1, d2]) * f2

    def test_square_zero_mixed_tags(self):
        reg, ba = simple_setup()
        rng = random.Random(402)
        ranks = [reg.odd_rank("a", i) for i in (1, 2)] + [
            reg.odd_rank("b", i, dual=True) for i in (1, 2)
        ]
        gens = [0, 1]
        for _ in range(100):
            e = ComplexElement(rand_element(rng, reg, ranks, gens), frozenset({"b"}))
            twice = boundary(ba, boundary(ba, e)).element
            assert twice.is_zero

    def test_inferred_tags_match_explicit(self):
        reg, ba = simple_setup()
        rng = random.Random(403)
        ranks = [reg.odd_rank("a", 1), reg.odd_rank("b", 2, dual=True)]
        for _ in range(20):
            e = rand_element(rng, reg, ranks, [0, 1])
            tagged = ComplexElement(e, infer_dual_families(e))
            assert boundary(ba, e) == boundary(ba, tagged).element

    def test_cached_dual_multiplier_stays_out_of_equality_and_repr(self):
        """The dual multiplier is cached per dual-family set on the assignment;
        a fresh assignment gives the same boundaries and compares and prints
        the same as one that has cached both sets."""
        reg, ba = simple_setup()
        fresh = BoundaryAssignment(reg, ba.images)
        a1 = Element.generator(reg, reg.odd_rank("a", 1, dual=True))
        b2 = Element.generator(reg, reg.odd_rank("b", 2, dual=True))
        for e in (a1, a1 + b2, b2, a1):
            assert boundary(ba, e) == boundary(BoundaryAssignment(reg, ba.images), e)
        assert ba == fresh
        assert repr(ba) == repr(fresh)

    def test_restricted_assignment_shares_image_rows(self):
        """A restricted assignment equals a fresh one over the same images,
        gives the same boundaries, and reads each image's terms from the
        rows its parent built."""
        reg, ba = simple_setup()
        e = Element.generator(reg, reg.odd_rank("a", 1)) * Element.generator(
            reg, reg.odd_rank("a", 2)
        )
        boundary(ba, e)
        rows = ba._rows["a"]
        only_a = ba.restricted(("a",))
        fresh = BoundaryAssignment(reg, {"a": ba.images["a"]})
        assert only_a == fresh and repr(only_a) == repr(fresh)
        a2 = Element.generator(reg, reg.odd_rank("a", 2, dual=True))
        for elem in (e, ComplexElement(a2, frozenset({"a"}))):
            assert boundary(only_a, elem) == boundary(fresh, elem)
        assert only_a._rows["a"] is rows and "b" not in only_a.images
        with pytest.raises(UnassignedFamilyError):
            boundary(only_a, Element.generator(reg, reg.odd_rank("b", 1)))

    def test_unassigned_family_rejected(self):
        reg, _ = simple_setup()
        ba = BoundaryAssignment(reg, {"a": [Poly.variable(reg, 0), Poly.variable(reg, 1)]})
        e = Element.generator(reg, reg.odd_rank("b", 1))
        with pytest.raises(UnassignedFamilyError):
            boundary(ba, e)

    def test_dual_role_family_must_not_carry_primals(self):
        reg, ba = simple_setup()
        e = ComplexElement(Element.generator(reg, reg.odd_rank("b", 1)), frozenset({"b"}))
        with pytest.raises(ValueError):
            boundary(ba, e)


class TestBoundaryRankTable:
    def test_matches_per_position_route(self):
        """Every tagging, a zero image included, on elements whose words
        mix both families and both polarities: the same words in the same
        order, with the same coefficients."""
        reg, ba = simple_setup()
        x1 = Poly.variable(reg, 0)
        with_zero = BoundaryAssignment(reg, {"a": [Poly.zero(reg), x1], "b": ba.images["b"]})
        rng = random.Random(405)
        for assignment in (ba, with_zero):
            for _ in range(150):
                tags = frozenset(name for name in ("a", "b") if rng.random() < 0.5)
                ranks = [
                    r
                    for r in range(reg.num_ranks)
                    if not (reg.rank_info(r)[0] in tags and reg.rank_info(r)[2] == PRIMAL)
                ]
                e = rand_element(rng, reg, ranks, [0, 1], terms=4)
                got = koszul._element_boundary(assignment, e, tags)
                want = _per_position_boundary(assignment, e, tags)
                assert got == want
                assert list(got.terms) == list(want.terms)
                assert [list(c.terms.items()) for c in got.terms.values()] == [
                    list(c.terms.items()) for c in want.terms.values()
                ]

    def test_same_errors_as_per_position_route(self):
        reg, ba = simple_setup()
        only_a = BoundaryAssignment(reg, {"a": ba.images["a"]})
        a1 = Element.generator(reg, reg.odd_rank("a", 1))
        b1 = Element.generator(reg, reg.odd_rank("b", 1))
        b1_dual = Element.generator(reg, reg.odd_rank("b", 1, dual=True))
        cases = [
            (only_a, b1, frozenset()),
            (only_a, a1, frozenset({"b"})),
            (only_a, a1 * b1_dual, frozenset({"b"})),
            (ba, a1, frozenset({"a"})),
            (ba, a1 * b1, frozenset({"b", "a"})),
        ]
        for assignment, e, tags in cases:
            with pytest.raises(ValueError) as want:
                _per_position_boundary(assignment, e, tags)
            with pytest.raises(ValueError) as got:
                koszul._element_boundary(assignment, e, tags)
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)


def _assert_same_terms(got: Element, want: Element):
    """Equal elements, with their words and each word's monomials in the
    same order."""
    assert got == want
    assert list(got.terms) == list(want.terms)
    assert [list(c.terms.items()) for c in got.terms.values()] == [
        list(c.terms.items()) for c in want.terms.values()
    ]


class TestOnePassBoundary:
    """The one-pass boundary against ``_product_boundary``: equal result,
    word order and monomial order."""

    def test_matches_product_boundary_on_dense_coefficients(self):
        """Multi-term coefficients and images, so that pieces repeat
        monomials and land on words other pieces already hold."""
        reg, ba = simple_setup()
        names = reg.comm_label_map()
        dense = BoundaryAssignment(
            reg,
            {
                "a": [parse_poly(reg, s, names) for s in ("x1 + x2", "x1*x2 - x2^2 + 1")],
                "b": [parse_poly(reg, s, names) for s in ("x1 - x2", "x1^2 + x1*x2 + 2")],
            },
        )
        rng = random.Random(406)
        for assignment in (ba, dense):
            for _ in range(200):
                tags = frozenset(name for name in ("a", "b") if rng.random() < 0.5)
                ranks = [
                    r
                    for r in range(reg.num_ranks)
                    if not (reg.rank_info(r)[0] in tags and reg.rank_info(r)[2] == PRIMAL)
                ]
                e = Element.zero(reg)
                for _ in range(rng.randrange(1, 7)):
                    word = rng.sample(ranks, rng.randrange(min(4, len(ranks)) + 1))
                    e = e + Element.word(reg, word) * rand_poly(rng, reg, [0, 1], 2)
                got = koszul._element_boundary(assignment, e, tags)
                want = _product_boundary(assignment, e, tags)
                _assert_same_terms(got, want)

    def test_sum_into_a_held_word_is_taken_after_its_piece(self):
        """Into the empty word: -1 * (x1*x2 - x2^2 + 1) first, then
        (x1 + x2) * (x1 + x2), whose x1*x2 comes twice.  Summed as a whole
        piece, x1*x2 goes -1 -> 1 and keeps its place; summed product by
        product it would pass through zero and move last."""
        reg, _ = simple_setup()
        names = reg.comm_label_map()
        ba = BoundaryAssignment(
            reg,
            {
                "a": [parse_poly(reg, s, names) for s in ("x1 + x2", "x1*x2 - x2^2 + 1")],
                "b": [Poly.zero(reg), Poly.zero(reg)],
            },
        )
        a1, a2 = reg.odd_rank("a", 1), reg.odd_rank("a", 2)
        x1_plus_x2 = parse_poly(reg, "x1 + x2", names)
        e = Element.word(reg, [a2]) * -1 + Element.word(reg, [a1]) * x1_plus_x2
        got = koszul._element_boundary(ba, e, frozenset())
        assert got == _product_boundary(ba, e, frozenset())
        assert [render_mono(reg, m) for m in got.terms[()].terms] == ["x1*x2", "x2^2", "1", "x1^2"]

    def test_matches_product_boundary_on_det_g_cocycle(self):
        """The cocycle test of a dual element with more equations than
        variables: nonempty dual words with large multipliers."""
        reg = FamilyRegistry()
        reg.commuting("x", 3)
        names = reg.comm_label_map()
        f = [parse_poly(reg, s, names) for s in ("x1^2-x2", "x2^2-x3", "x3^2", "x1*x2*x3")]
        e, _ = dual_element(f)
        ba = BoundaryAssignment(e.reg, {"fx": koszul.lift(f, e.reg, "x")})
        elem = Element(e.reg, e.comps)
        assert elem.terms and all(elem.terms)
        got = koszul._element_boundary(ba, elem, frozenset({"fx"}))
        _assert_same_terms(got, _product_boundary(ba, elem, frozenset({"fx"})))


class TestKernelsAndMaps:
    def build(self, fexpr, Fexpr, nvars=1):
        reg = FamilyRegistry()
        reg.commuting("x", nvars)
        names = reg.comm_label_map()
        f = [parse_poly(reg, s, names) for s in fexpr]
        F = [parse_poly(reg, s, names) for s in Fexpr]
        return reg, f, F

    def test_both_kernels_are_closed(self):
        reg, f, F = self.build(["x"], ["x^2"])
        rng = random.Random(7)
        reports = verify_theorem1(f, F, rng, samples=5)
        for r in reports[:2]:
            assert r.status == "equal", r.detail

    def test_unit_kernel_breaks_under_the_larger_tag(self):
        """Adding the second dual-role family turns the closed pairing into a
        preimage of the determinant kernel: the boundary produces -F times it."""
        reg = FamilyRegistry()
        reg.commuting("x", 1)
        names = reg.comm_label_map()
        fx = reg.odd("fx", 1)
        fpx = reg.odd("fpx", 1)
        Fpx = reg.odd("Fpx", 1)
        f = parse_poly(reg, "x", names)
        F = parse_poly(reg, "x^2", names)
        ba = BoundaryAssignment(reg, {"fx": [f], "fpx": [f], "Fpx": [F]})
        k1, k2 = theorem1_kernels(reg, fx, fpx, Fpx)
        assert boundary(ba, k1).element.is_zero
        assert boundary(ba, k2).element.is_zero
        retagged = ComplexElement(k2.element, k1.dual_families)
        assert boundary(ba, retagged).element == -(k1.element * F)

    @settings(max_examples=250, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.permutations(range(8)).flatmap(lambda p: st.integers(1, 8).map(lambda k: p[:k])),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(0, 3),
    )
    def test_random_words_match_incremental_oracle(self, seed, ranks, ngens, terms, deg):
        """``_random_words`` draws what the one-sum-per-word builder draws,
        in the same order, and returns an equal element with its words and
        monomials in the same order."""
        reg = FamilyRegistry()
        reg.commuting("x", 3)
        reg.odd("a", 2)
        reg.odd("b", 2)
        gens = list(range(ngens))
        fast, slow = random.Random(seed), random.Random(seed)
        got = koszul._random_words(fast, reg, ranks, gens, terms, deg)
        want = rand_element(slow, reg, ranks, gens, terms, deg)
        assert got == want
        assert [(w, list(c.terms.items())) for w, c in got.terms.items()] == [
            (w, list(c.terms.items())) for w, c in want.terms.items()
        ]
        assert fast.getstate() == slow.getstate()

    def test_all_four_maps_commute(self):
        rng = random.Random(11)
        reg, f, F = self.build(["x"], ["x^2"])
        for r in verify_theorem1(f, F, rng, samples=25):
            assert r.ok, f"{r.name}: {r.detail}"
        reg, f, F = self.build(["x1", "x2^2"], ["x1*x2", "x1 + x2"], nvars=2)
        for r in verify_theorem1(f, F, rng, samples=25):
            assert r.ok, f"{r.name}: {r.detail}"

    def test_domain_checks(self):
        reg = FamilyRegistry()
        reg.commuting("x", 1)
        fx = reg.odd("fx", 1)
        Fx = reg.odd("Fx", 1)
        primal = ComplexElement(Element.generator(reg, reg.odd_rank(Fx, 1)))
        with pytest.raises(DomainError):
            theorem1_map("embed_unit", primal, Fx)
        dual = ComplexElement(
            Element.generator(reg, reg.odd_rank(fx, 1, dual=True)), frozenset({"fx"})
        )
        with pytest.raises(DomainError):
            theorem1_map("mult_dual_det", dual, Fx)
        with pytest.raises(DomainError):
            theorem1_map("project_unit", dual, Fx)
        with pytest.raises(ValueError):
            theorem1_map("no_such_map", primal, Fx)

    def test_mult_map_contracts_to_the_unit_complex(self):
        """The determinant realization of multiplication lands F-free."""
        reg = FamilyRegistry()
        reg.commuting("x", 1)
        fx = reg.odd("fx", 1)
        Fx = reg.odd("Fx", 1)
        c = ComplexElement(
            Element.generator(reg, reg.odd_rank(Fx, 1))
            * Element.generator(reg, reg.odd_rank(fx, 1))
        )
        out = theorem1_map("mult_dual_det", c, Fx)
        assert not any(Fx.owns_rank(r) for r in out.element.support_ranks())


def _permutation_minor_expansion(a, oddrow, rowfam) -> Element:
    """The earlier lemma 1 oracle: one wedge per row *permutation*.

    Independent evaluation of the bordered determinant by minor expansion.

    Sums over choices of which columns take scalar-row entries (an injection
    into the rows); each choice contributes the product of the chosen scalar
    entries, the wedge of the leftover odd-row entries, the wedge of the
    unmatched row duals, and an explicit sign:

        (-1)^(s*q + X + inv + u(u-1)/2) * sgn(rows)

    with s the family arity, q the number of leftover columns, X the number
    of chosen/leftover column interleavings, inv the number of (survivor,
    matched) row pairs out of order, u the number of surviving duals, and
    sgn(rows) the parity of the chosen row sequence.  No contraction
    machinery is involved, which makes this a genuine cross-check on the
    partial-contraction evaluation.
    """
    reg = oddrow[0].reg
    fam = reg.odd_family(rowfam)
    s = fam.arity
    n = len(oddrow)
    total = Element.zero(reg)
    for csize in range(min(s, n) + 1):
        for cols in itertools.combinations(range(n), csize):
            colset = set(cols)
            rest = [k for k in range(n) if k not in colset]
            inter = sum(1 for kp in cols for k in rest if kp < k)
            for rows in itertools.permutations(range(s), csize):
                scalar = Poly.const(reg, 1)
                for r, k in zip(rows, cols):
                    scalar = scalar * as_poly(reg, a[r][k])
                if scalar.is_zero:
                    continue
                chosen = set(rows)
                survivors = [u for u in range(s) if u not in chosen]
                inv = sum(1 for u in survivors for v in chosen if u < v)
                asc = sum(
                    1 for i in range(csize) for j in range(i + 1, csize) if rows[i] > rows[j]
                )
                u = len(survivors)
                exponent = s * len(rest) + inter + inv + u * (u - 1) // 2 + asc
                part = Element.unit(reg) * scalar
                for k in rest:
                    part = part * oddrow[k]
                part = part * Element.word(
                    reg, [reg.odd_rank(fam, i + 1, dual=True) for i in survivors]
                )
                total = total + (-part if exponent & 1 else part)
    return total


def _expansion_inputs(rng, n, s, t, poly_entries):
    """A random s x n scalar matrix and an n-entry odd row over t generators
    of a family g (t = 0: a zero odd row), entries Fractions or, with
    ``poly_entries``, polynomials of degree <= 1 in x1, x2."""
    reg = FamilyRegistry()
    x = reg.commuting("x", 2)
    f = reg.odd("f", s)
    g = reg.odd("g", t) if t else None

    def entry():
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if not poly_entries:
            return c
        x1, x2 = (Poly.variable(reg, reg.comm_gen(x, i)) for i in (1, 2))
        return c + x1 * rng.randint(-2, 2) + x2 * rng.randint(-1, 1)

    a = [[entry() for _ in range(n)] for _ in range(s)]
    oddrow = []
    for _ in range(n):
        e = Element.zero(reg)
        for j in range(1, t + 1):
            e = e + Element.generator(reg, reg.odd_rank(g, j)) * as_poly(reg, entry())
        oddrow.append(e)
    return a, oddrow, f


@st.composite
def constant_expansion_cases(draw):
    """(a, oddrow, f) with constant entries: n, s, t <= 4 (t = 0: a zero odd
    row), values with denominators up to 12, as ints, Fractions, integral
    Fractions or constant Polys; zero entries, zero odd entries and repeated
    rows of ``a`` are drawn on purpose."""
    n, s, t = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 4))
    reg = FamilyRegistry()
    f = reg.odd("f", s)
    g = reg.odd("g", t) if t else None
    value = st.one_of(
        st.just(0),
        st.integers(-5, 5),
        st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    )
    wrap = st.sampled_from((lambda v: v, Fraction, lambda v: Poly.const(reg, v)))
    a = [[draw(wrap)(draw(value)) for _ in range(n)] for _ in range(s)]
    if s > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(s)))[:2]
        a[j] = list(a[i])
    oddrow = []
    for _ in range(n):
        e = Element.zero(reg)
        if t and draw(st.booleans()):
            for j in range(1, t + 1):
                e = e + Element.generator(reg, reg.odd_rank(g, j)) * as_poly(reg, draw(value))
        oddrow.append(e)
    return a, oddrow, f


class TestMinorExpansionOracle:
    @pytest.mark.parametrize("poly_entries", [False, True])
    def test_laplace_form_matches_permutation_expansion(self, poly_entries):
        rng = random.Random(4114 + poly_entries)
        for n, s, t in itertools.product(range(1, 5), range(1, 5), range(0, 5)):
            a, oddrow, f = _expansion_inputs(rng, n, s, t, poly_entries)
            got = bordered_minor_expansion(a, oddrow, f)
            assert got == _permutation_minor_expansion(a, oddrow, f), (n, s, t)

    def test_singular_square_block_cancels(self):
        """Two equal scalar rows: every full minor cancels inside its Leibniz sum."""
        reg = FamilyRegistry()
        f = reg.odd("f", 2)
        g = reg.odd("g", 1)
        a = [[1, 2], [1, 2]]
        oddrow = [Element.zero(reg), Element.generator(reg, reg.odd_rank(g, 1))]
        got = bordered_minor_expansion(a, oddrow, f)
        assert got == _permutation_minor_expansion(a, oddrow, f)
        assert all(len(w) == 2 for w in got.terms)

    def test_uses_no_contraction(self, monkeypatch):
        """The oracle stays independent of the contraction route, on
        polynomial scalars and on integer ones (constant entries)."""
        def refuse(*args, **kwargs):
            raise AssertionError("contraction called")

        for mod in (koszul, grassmann):
            for name in ("bot_contract", "top_contract", "bordered_det"):
                monkeypatch.setattr(mod, name, refuse)
        domains = []
        real = grassmann._integer_scalars

        def recorded(*args):
            out = real(*args)
            domains.append(out is not None)
            return out

        monkeypatch.setattr(grassmann, "_integer_scalars", recorded)
        for poly_entries in (True, False):
            a, oddrow, f = _expansion_inputs(random.Random(4116), 3, 3, 2, poly_entries)
            got = bordered_minor_expansion(a, oddrow, f)
            assert got == _permutation_minor_expansion(a, oddrow, f)
        assert domains == [False, True]

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(constant_expansion_cases())
    def test_scaled_to_integers_scales_both_routes_by_d_to_the_n(self, case):
        """The integer arguments are d times the given ones, d the lcm of
        every denominator, and each route takes d^n times its value on
        them, with ``int`` coefficients."""
        a, oddrow, f = case
        reg = oddrow[0].reg
        entries = [[as_poly(reg, x).terms.get((), 0) for x in row] for row in a]
        odd = [{w: c.terms[()] for w, c in e.terms.items()} for e in oddrow]
        values = [v for row in entries for v in row] + [v for t in odd for v in t.values()]
        d = math.lcm(*(Fraction(v).denominator for v in values))
        ints, iodd = scaled_to_integers(reg, a, oddrow)
        assert ints == [[v * d for v in row] for row in entries]
        assert iodd == [{w: v * d for w, v in t.items()} for t in odd]
        assert all(type(v) is int for row in ints for v in row)
        assert all(type(v) is int for t in iodd for v in t.values())
        for route in (grassmann.bordered_det, bordered_minor_expansion):
            got = route(ints, iodd, f, reg)
            assert got == route(a, oddrow, f) * d ** len(oddrow)
            assert all(type(c.terms[()]) is int for c in got.terms.values())

    def test_scaled_to_integers_refuses_a_polynomial_entry(self):
        a, oddrow, f = _expansion_inputs(random.Random(4117), 2, 2, 1, True)
        assert scaled_to_integers(oddrow[0].reg, a, oddrow) is None

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(constant_expansion_cases())
    def test_integer_scalars_match_permutation_expansion(self, case):
        """Constant entries run on integer numerators; the value equals the
        permutation oracle's, and each coefficient is an ``int`` when
        integral and a Fraction otherwise."""
        a, oddrow, f = case
        got = bordered_minor_expansion(a, oddrow, f)
        assert got == _permutation_minor_expansion(a, oddrow, f)
        for c in got.terms.values():
            [(mono, v)] = c.terms.items()
            assert mono == ()
            assert type(v) is (int if v.denominator == 1 else Fraction), repr(v)

    def test_empty_odd_row_is_a_value_error(self):
        reg = FamilyRegistry()
        f = reg.odd("f", 2)
        with pytest.raises(ValueError, match="needs at least one column"):
            bordered_minor_expansion([[], []], [], f)


def _lemma1_bordered_det(a, b):
    """``bordered_det`` of lemma 1's instance (a, b), the odd row built from
    generators of g over the registry ``verify_lemma1`` lays out."""
    reg = FamilyRegistry()
    f = reg.odd("f", len(a))
    g = reg.odd("g", len(b))
    oddrow = [
        sum(
            (Element.generator(reg, reg.odd_rank(g, j + 1)) * row[k] for j, row in enumerate(b)),
            Element.zero(reg),
        )
        for k in range(len(a[0]))
    ]
    return grassmann.bordered_det(a, oddrow, f, reg)


class TestLemmaVerifiers:
    def test_lemma1_pinned_small(self):
        from fractions import Fraction

        r = verify_lemma1([[2]], [[Fraction(3, 2)]])
        assert r.status == "equal", r.detail

    def test_lemma1_random_shapes(self):
        rng = random.Random(31)
        for n in (1, 2):
            for s in (1, 2):
                for t in (1, 2):
                    for _ in range(3):
                        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(s)]
                        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(t)]
                        r = verify_lemma1(a, b, instance=f"n={n} s={s} t={t}")
                        assert r.status == "equal", f"{r.instance}: {r.detail}"

    @pytest.mark.parametrize("route", ["bordered_det", "bordered_minor_expansion"])
    def test_lemma1_fails_on_a_fault_in_either_route(self, route, monkeypatch):
        """On constant entries a negated route fails, and the detail renders
        the two routes' values on the given entries, the faulty one
        negated."""
        a, b = [[2, Fraction(1, 3)]], [[Fraction(3, 2), -1]]
        value = render_element(_lemma1_bordered_det(a, b))
        negated = render_element(-_lemma1_bordered_det(a, b))
        honest = getattr(koszul, route)
        monkeypatch.setattr(koszul, route, lambda *args: -honest(*args))
        r = verify_lemma1(a, b)
        assert r.status == "failed"
        if route == "bordered_det":
            assert r.detail == f"contraction {negated}; expansion {value}"
        else:
            assert r.detail == f"contraction {value}; expansion {negated}"

    def test_lemma1_runs_both_routes_on_one_integer_scaling(self, monkeypatch):
        """Constant entries are scaled once, by d = the lcm of their
        denominators, and both routes get the same integer arguments."""
        a, b = [[2, Fraction(1, 3)], [Fraction(-1, 2), 0]], [[Fraction(3, 4), -1]]
        seen = []
        for route in ("bordered_det", "bordered_minor_expansion"):
            honest = getattr(koszul, route)

            def recorded(*args, honest=honest):
                seen.append(args[:2])
                return honest(*args)

            monkeypatch.setattr(koszul, route, recorded)
        assert verify_lemma1(a, b).status == "equal"
        assert len(seen) == 2 and seen[0][0] is seen[1][0] and seen[0][1] is seen[1][1]
        ints, odd = seen[0]
        assert ints == [[24, 4], [-6, 0]]
        assert [sorted(t.values()) for t in odd] == [[9], [-12]]
        assert all(type(x) is int for row in ints for x in row)

    @pytest.mark.parametrize("route", ["bordered_det", "bordered_minor_expansion"])
    def test_lemma1_on_poly_entries_fails_on_a_fault_in_either_public_route(self, route, monkeypatch):
        """A polynomial entry keeps lemma 1 on the public functions, and a
        fault in either one fails it."""
        reg = FamilyRegistry()
        reg.commuting("x", 2)
        names = reg.comm_label_map()
        a = [
            [parse_poly(reg, "x1", names), parse_poly(reg, "2", names)],
            [parse_poly(reg, "x2^2 - 1", names), parse_poly(reg, "3*x1*x2", names)],
        ]
        b = [[Fraction(3, 2), -1]]
        assert verify_lemma1(a, b).status == "equal"
        honest = getattr(koszul, route)
        monkeypatch.setattr(koszul, route, lambda *args: -honest(*args))
        r = verify_lemma1(a, b)
        assert r.status == "failed"
        assert r.detail.startswith("contraction ") and "; expansion " in r.detail

    def test_lemma2_pinned_and_random(self):
        r1, r2 = verify_lemma2([[5]])
        assert r1.status == "equal" and r2.status == "equal"
        rng = random.Random(37)
        for s in (1, 2, 3):
            for t in (1, 2):
                b = [[rng.randint(-4, 4) for _ in range(s)] for _ in range(t)]
                r1, r2 = verify_lemma2(b)
                assert r1.status == "equal", r1.detail
                assert r2.status == "equal", r2.detail

    def test_lemma3_random_systems(self):
        rng = random.Random(41)
        for n in (1, 2):
            reg = FamilyRegistry()
            x = reg.commuting("x", n)
            gens = list(x.gens())
            for s in (1, 2):
                for _ in range(5):
                    f = [rand_poly(rng, reg, gens, 3) for _ in range(s)]
                    r = verify_lemma3(f)
                    assert r.status == "equal", r.detail


class TestTheorem2:
    def build(self, n, fexpr, Fexpr):
        reg = FamilyRegistry()
        reg.commuting("x", n)
        names = reg.comm_label_map()
        return (
            [parse_poly(reg, s, names) for s in fexpr],
            [parse_poly(reg, s, names) for s in Fexpr],
        )

    def test_pinned_line(self):
        f, F = self.build(1, ["x"], ["x"])
        r1, r2 = verify_theorem2(f, F)
        assert r1.status == "equal", r1.detail
        assert r2.status == "equal", r2.detail

    def test_pinned_higher_degree(self):
        f, F = self.build(1, ["x^2"], ["x^3"])
        r1, r2 = verify_theorem2(f, F)
        assert r1.status == "equal", r1.detail
        assert r2.status == "equal", r2.detail

    def test_empty_second_system(self):
        f, F = self.build(1, ["x^2"], [])
        r1, r2 = verify_theorem2(f, F)
        assert r1.status == "equal", r1.detail
        assert r2.status == "equal", r2.detail

    def test_random_instances(self):
        """Up to three equations a side, so k = s - n and k = t - n reach 2,
        where a renamed word holds two generators of one family."""
        rng = random.Random(53)
        for n in (1, 2):
            reg = FamilyRegistry()
            x = reg.commuting("x", n)
            gens = list(x.gens())
            for s in (1, 2, 3):
                for t in (1, 2, 3):
                    f = [rand_poly(rng, reg, gens, 2) for _ in range(s)]
                    F = [rand_poly(rng, reg, gens, 2) for _ in range(t)]
                    r1, r2 = verify_theorem2(f, F, instance=f"n={n} s={s} t={t}")
                    assert r1.status == "equal", f"{r1.instance}: {r1.detail}"
                    assert r2.status == "equal", f"{r2.instance}: {r2.detail}"


def _per_basis_system(ba, diff, words, gens, bound):
    """The witness system with one boundary per basis element m*w, taken by
    the degree of m, then by word, then by m in lexicographic order.

    Returns (columns, target) with columns and target keyed by (word, mono).
    """
    reg = diff.reg
    columns = []
    for d in range(bound + 1):
        monos = [
            tuple(sorted(collections.Counter(c).items()))
            for c in itertools.combinations_with_replacement(sorted(gens), d)
        ]
        for w in words:
            for m in monos:
                elem = Element(reg, {w: Poly(reg, {m: Fraction(1)})})
                img = koszul._element_boundary(ba, elem, frozenset())
                columns.append(_keyed(img))
    return columns, _keyed(diff)


GOLDEN = Path(__file__).parent / "golden"

# verify thm3 sweeps with witnesses: three seeds and a file of degree bound 18
THM3_SWEEPS = [
    ["--seed", "1"],
    ["--seed", "42"],
    ["--seed", "586795"],
    ["--file", str(GOLDEN / "thm3_b18.txt")],
]


def _thm3_searches(argv, monkeypatch, capsys):
    """(lhs, rhs, ba, degree_bound, witness) of every witness search that
    ``verify thm3`` makes with ``argv``."""
    real = koszul.homotopy_witness
    searches = []

    def witness(lhs, rhs, ba, degree_bound=None):
        w = real(lhs, rhs, ba, degree_bound)
        searches.append((lhs, rhs, ba, degree_bound, w))
        return w

    # the package attribute dual_element is the function of that name
    dual_element = importlib.import_module("koszulkit.dual_element")
    with monkeypatch.context() as m:
        m.setattr(dual_element, "homotopy_witness", witness)
        assert main(["verify", "thm3", *argv]) == 0
    capsys.readouterr()
    return searches


def _keyed(elem):
    """An element's coefficients keyed by (word, mono)."""
    return {(word, mono): c for word, poly in elem.terms.items() for mono, c in poly.terms.items()}


class TestHomotopyWitness:
    def setup_line(self):
        reg = FamilyRegistry()
        reg.commuting("x", 1)
        f = reg.odd("f", 2)
        names = reg.comm_label_map()
        ba = BoundaryAssignment(
            reg,
            {"f": [parse_poly(reg, "x", names), parse_poly(reg, "x^2", names)]},
        )
        return reg, f, ba

    def test_equal_elements_give_zero_witness(self):
        reg, f, ba = self.setup_line()
        e = Element.generator(reg, reg.odd_rank(f, 1)) * Poly.variable(reg, 0)
        w = homotopy_witness(e, e, ba)
        assert w is not None and w.is_zero

    def test_planted_boundary_is_recovered(self):
        reg, f, ba = self.setup_line()
        planted = Element.word(reg, [reg.odd_rank(f, 1), reg.odd_rank(f, 2)]) * Poly.variable(
            reg, 0
        )
        target = boundary(ba, planted)
        w = homotopy_witness(target, Element.zero(reg), ba)
        assert w is not None
        assert boundary(ba, w) == target

    def test_non_cocycle_is_rejected(self):
        reg, f, ba = self.setup_line()
        with pytest.raises(NotCocycleError):
            homotopy_witness(
                Element.generator(reg, reg.odd_rank(f, 1)), Element.zero(reg), ba
            )

    def test_unit_is_not_a_boundary_here(self):
        """Every boundary coefficient sits in the ideal (x), so the constant 1
        admits no witness at any bound; the search reports not-found."""
        reg, f, ba = self.setup_line()
        w = homotopy_witness(Element.unit(reg), Element.zero(reg), ba, degree_bound=5)
        assert w is None

    @pytest.mark.parametrize("seed", [42, 586795])
    def test_shifted_boundaries_match_per_basis_oracle(self, seed, monkeypatch, capsys):
        """Every column of every witness system, materialised after the search."""
        real = koszul.homotopy_witness
        diffs, seen = [], []

        def witness(lhs, rhs, ba, degree_bound=None):
            diffs.append((lhs - rhs, degree_bound))
            return real(lhs, rhs, ba, degree_bound)

        def recorded(lazy, rhs):
            x = solve(lazy, rhs)
            seen.append((lazy, rhs, list(lazy)))
            return x

        # the package attribute dual_element is the function of that name
        dual_element = importlib.import_module("koszulkit.dual_element")
        monkeypatch.setattr(dual_element, "homotopy_witness", witness)
        monkeypatch.setattr(koszul, "solve", recorded)
        code = main(["verify", "thm3", "--seed", str(seed)])
        capsys.readouterr()
        assert seen and len(seen) == len(diffs)
        for (diff, bound), (lazy, rhs, columns) in zip(diffs, seen):
            keys = {row: key for key, row in lazy.rows.items()}
            keyed = (
                [{keys[i]: v for i, v in col.items()} for col in columns],
                {keys[i]: v for i, v in rhs.items()},
            )
            assert keyed == _per_basis_system(lazy.ba, diff, lazy.words, lazy.gens, bound)
        assert code == 0

    @pytest.mark.parametrize("argv", THM3_SWEEPS)
    def test_witness_has_the_least_coefficient_degree(self, argv, monkeypatch, capsys):
        """No witness exists one degree below the one returned."""
        searches = _thm3_searches(argv, monkeypatch, capsys)
        lowered = 0
        for lhs, rhs, ba, _, w in searches:
            if w is not None and w.max_coeff_degree() >= 1:
                below = w.max_coeff_degree() - 1
                assert homotopy_witness(lhs, rhs, ba, degree_bound=below) is None
                lowered += 1
        assert lowered

    @pytest.mark.parametrize("argv", THM3_SWEEPS)
    def test_matches_words_major_oracle(self, argv, monkeypatch, capsys):
        """The same status as the words-major search, both witnesses verified,
        and the witness's degree at most the oracle's."""
        searches = _thm3_searches(argv, monkeypatch, capsys)
        assert searches
        for lhs, rhs, ba, bound, w in searches:
            old = words_major_witness(lhs, rhs, ba, bound)
            assert (w is None) == (old is None)
            if w is not None:
                assert boundary(ba, w) == lhs - rhs == boundary(ba, old)
                assert w.max_coeff_degree() <= old.max_coeff_degree()

    def test_witness_is_the_same_for_every_bound_above_its_degree(self, monkeypatch, capsys):
        """``thm3_b18``'s degree-2 witness, and the 38 columns its search
        indexes, at the file's bound 18 and at 32, the largest under the
        column limit."""
        outputs, indexed = [], []

        def recorded(lazy, rhs):
            x = solve(lazy, rhs)
            indexed.append(lazy.indexed)
            return x

        monkeypatch.setattr(koszul, "solve", recorded)
        for bound in (18, 32):
            argv = ["--file", str(GOLDEN / "thm3_b18.txt"), "--degree-bound", str(bound)]
            assert main(["verify", "thm3", *argv]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == (GOLDEN / "thm3_b18.verify-thm3.json").read_text()
        assert indexed == [38, 38]


def test_transport_sorts_only_under_a_reordering_renaming():
    src = FamilyRegistry()
    src.commuting("x", 2)
    dst = FamilyRegistry()
    dst.commuting("y", 2)
    p = parse_poly(src, "x1^2*x2 + 3*x2 - x1", src.comm_label_map())
    names = dst.comm_label_map()
    kept = koszul.transport(p, dst, {0: 0, 1: 1})
    assert kept == parse_poly(dst, "y1^2*y2 + 3*y2 - y1", names)
    assert [[g for g, _ in m] for m in kept.terms] == [[g for g, _ in m] for m in p.terms]
    swapped = koszul.transport(p, dst, {0: 1, 1: 0})
    assert swapped == parse_poly(dst, "y2^2*y1 + 3*y1 - y2", names)


def test_report_serialization_is_stable():
    r = verify_lemma1([[1]], [[1]], instance="unit")
    d = r.to_dict()
    assert d["name"] == "lemma1"
    assert d["instance"] == "unit"
    assert d["status"] == "equal"
    assert d["witness"] is None and d["detail"] is None
    assert list(d) == ["name", "instance", "status", "witness", "detail"]
