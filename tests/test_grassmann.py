"""Tests for wedge words, contractions, kernels and determinant constructions.

Oracles, defined before anything that uses them:

- permutation parity by direct pair counting (for word sorting and merging);
- brute-force subset expansion for the Grassmann exponential;
- the classic Leibniz determinant for the square cases of bordered_det and
  transgression_det;
- ``_renaming_bot_contract``, the earlier renaming-kernel evaluation of the
  partial contraction, for the closed-form ``bot_contract``;
- ``bordered_minor_expansion`` and ``product_bordered_det`` for
  ``bordered_det`` on random shapes, odd entries with scalar parts
  included, and on the shapes the package evaluates: more rows than
  columns under a zero odd row (det G), and an odd row of negated primals
  (theorem 3's bordered determinant);
- ``_product_transgression_det``, the earlier evaluation of
  ``transgression_det`` that multiplied out every column and fully
  contracted the auxiliary family, for the Laplace expansion;
- ``_pair_loop_mul``, the earlier ``Element.__mul__`` that built one ``Poly``
  product per word pair, for the accumulating product kernel;
- ``_monomial_map_mul``, the ``Element.__mul__`` of before the constant
  path, for the integer-numerator product of constant-coefficient elements
  and for the scaling by one constant word on the right;
- ``_fold_mul``, the pairwise fold of ``Element.__mul__``, for
  ``wedge_chain``'s integer chain;
- ``product_bordered_det`` (``tests/product_determinants.py``), the
  earlier ``bordered_det`` that multiplied out one column at a time and
  contracted the element, for the contraction of the chain's integer
  numerators and for the Laplace route on polynomial entries;
- ``_inline_row_sets`` and ``_inline_column_sets``, the plans
  ``_minor_expansion`` built on every call, for its cached plans;
- ``_scan_top_contract``, the earlier ``top_contract`` that read each
  position's family, index and polarity, applied to the product ``a * b``,
  for ``contract_product`` (and through it ``top_contract``): equal result,
  word order and monomial order.
"""

import functools
import gc
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit import grassmann
from koszulkit.grassmann import (
    Element,
    bordered_det,
    bordered_minor_expansion,
    bot_contract,
    column,
    contract_product,
    dual_full_product,
    grassmann_exp,
    merge_words,
    odd_differences,
    odd_gen,
    render_element,
    sort_word,
    top_contract,
    transgression_det,
    wedge_chain,
)
from koszulkit.ring import PRIMAL, FamilyRegistry, Poly, accumulate, as_poly, divided_diff, mono_mul

from product_determinants import product_bordered_det


ORACLE = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def parity_oracle(seq):
    """(-1)^inversions by direct double loop; None for a repeat."""
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] == seq[j]:
                return None
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def det_oracle(m):
    """Leibniz determinant over Fraction."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = parity_oracle(perm)
        prod = Fraction(1)
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def _aux_partner(reg, fam):
    """The auxiliary odd family ``~name`` mirroring ``fam``, registered once."""
    name = f"~{fam.name}"
    try:
        return reg.family(name)
    except KeyError:
        return reg.odd(name, fam.arity)


def _renaming_bot_contract(fam, e: Element) -> Element:
    """Partial contraction through the renaming kernel: both polarities of
    the family are renamed to an auxiliary copy, the renamed element is
    wedged on the right with the exponential pairing each fresh primal with
    the matching original dual, and the auxiliary family is fully
    contracted.  Registers the auxiliary family on first use."""
    reg = e.reg
    fam = reg.odd_family(fam)
    aux = _aux_partner(reg, fam)
    if any(aux.owns_rank(r) for r in e.support_ranks()):
        raise ValueError(f"element already uses the auxiliary family {aux.name!r}")
    rename: dict[int, int] = {}
    pairs = []
    for i in range(1, fam.arity + 1):
        rename[reg.odd_rank(fam, i)] = reg.odd_rank(aux, i)
        rename[reg.odd_rank(fam, i, dual=True)] = reg.odd_rank(aux, i, dual=True)
        pairs.append(
            (
                Element.generator(reg, reg.odd_rank(aux, i)),
                Element.generator(reg, reg.odd_rank(fam, i, dual=True)),
            )
        )
    terms = {}
    for word, c in e.terms.items():
        sign, w = sort_word([rename.get(r, r) for r in word])
        terms[w] = c if sign > 0 else -c
    renamed = Element(reg, terms)
    return top_contract(aux, renamed * grassmann_exp(pairs))


def _pair_loop_mul(self, other) -> Element:
    """The earlier ``Element.__mul__``: one ``Poly`` product (and, for an odd
    merge, its negated copy) per surviving word pair, summed word by word."""
    if isinstance(other, (int, Fraction, Poly)):
        factor = as_poly(self.reg, other)
        if factor.is_zero:
            return Element.zero(self.reg)
        return Element(self.reg, {w: c * factor for w, c in self.terms.items()})
    if not isinstance(other, Element):
        return NotImplemented
    if other.reg is not self.reg:
        raise ValueError("elements built over different registries")
    acc: dict = {}
    for w1, c1 in self.terms.items():
        for w2, c2 in other.terms.items():
            sign, w = merge_words(w1, w2)
            if w is None:
                continue
            c = c1 * c2
            accumulate(acc, w, c if sign > 0 else -c)
    return Element(self.reg, acc)


def _monomial_map_mul(self: Element, other: Element) -> Element:
    """The ``Element x Element`` product of before the constant path, for
    any coefficients: every surviving word pair adds its signed coefficient
    products into one {word: {monomial: coefficient}} map, and each Poly is
    built once at the end."""
    acc: dict = {}
    right = [(w2, c2.terms.items()) for w2, c2 in other.terms.items()]
    for w1, c1 in self.terms.items():
        left = c1.terms.items()
        for w2, terms2 in right:
            sign, w = merge_words(w1, w2)
            if w is None:
                continue
            out = acc.get(w)
            if out is None:
                out = acc[w] = {}
            for m1, a in left:
                if sign < 0:
                    a = -a
                for m2, b in terms2:
                    accumulate(out, mono_mul(m1, m2), a * b)
    reg = self.reg
    return Element(reg, {w: Poly(reg, t) for w, t in acc.items() if t})


def _scan_top_contract(fam, e: Element) -> Element:
    """The earlier ``top_contract``: per word, the family's primal and dual
    index sets from each position's ``rank_info``, the crossings counted
    position by position, and the signed coefficient summed into the word
    of the other ranks."""
    reg = e.reg
    fam = reg.odd_family(fam)
    acc: dict = {}
    for word, c in e.terms.items():
        primal = set()
        dual = set()
        crossings = 0
        rest = []
        seen_fam = 0
        for pos, rank in enumerate(word):
            if fam.owns_rank(rank):
                _, idx, pol = reg.rank_info(rank)
                (primal if pol == PRIMAL else dual).add(idx)
                crossings += pos - seen_fam
                seen_fam += 1
            else:
                rest.append(rank)
        if primal != dual:
            continue
        p = len(primal)
        odd = (crossings + p * (p + 1) // 2) & 1
        accumulate(acc, tuple(rest), -c if odd else c)
    return Element._wrap(reg, acc)


def _fold_mul(factors) -> Element:
    """The ordered product of ``factors`` as one ``Element.__mul__`` per
    factor, the route ``wedge_chain`` replaced in ``grassmann_exp`` and
    ``verify_lemma2``."""
    return functools.reduce(operator.mul, factors)


def _inline_row_sets(s, c):
    """The row sets ``_minor_expansion`` built on every call before its
    plans were cached, with the survivors as row numbers: each c-set of
    rows, its survivors and their sign bit; taking every row leaves none."""
    if c == s:
        return [(tuple(range(s)), (), 0)]
    out = []
    for rows in itertools.combinations(range(s), c):
        survivors = [u for u in range(s) if u not in rows]
        inv = sum(1 for u in survivors for v in rows if u < v)
        u = len(survivors)
        out.append((rows, tuple(survivors), (inv + u * (u - 1) // 2) & 1))
    return out


def _inline_column_sets(n, c):
    """The column sets ``_minor_expansion`` built on every call before its
    plans were cached: each c-set of columns with the leftover ones."""
    return [
        (cols, tuple(k for k in range(n) if k not in cols))
        for cols in itertools.combinations(range(n), c)
    ]


def _product_transgression_det(blocks, ufam) -> Element:
    """The earlier ``transgression_det``: (-1)^n times the full dual word of
    the auxiliary family, wedged with every column
    (oddrow[j] - sum_k u_k grad[k][j]) in order, fully contracted over that
    family."""
    reg = next(e.reg for _, oddrow in blocks for e in oddrow)
    ufam = reg.odd_family(ufam)
    uranks = ufam.primal_ranks()
    product = dual_full_product(reg, ufam) * (-1 if ufam.arity & 1 else 1)
    for grad, oddrow in blocks:
        for j in range(len(oddrow)):
            product = product * (oddrow[j] - column(reg, uranks, grad, j))
    return top_contract(ufam, product)


def setup_fg(arity_f=2, arity_g=2, nvars=2):
    reg = FamilyRegistry()
    x = reg.commuting("x", nvars)
    f = reg.odd("f", arity_f)
    g = reg.odd("g", arity_g)
    return reg, x, f, g


def rand_element(rng, reg, ranks, gens, max_terms=4, max_deg=2):
    e = Element.zero(reg)
    for _ in range(rng.randrange(max_terms + 1)):
        k = rng.randrange(min(len(ranks), 3) + 1)
        word = rng.sample(ranks, k)
        coeff = Poly.const(reg, rng.randint(-3, 3))
        for _ in range(rng.randrange(max_deg + 1)):
            coeff = coeff * Poly.variable(reg, rng.choice(gens))
        e = e + Element.word(reg, word) * coeff
    return e


class TestWordOps:
    def test_sort_word_matches_parity_oracle(self):
        rng = random.Random(20001)
        for _ in range(300):
            n = rng.randrange(7)
            seq = [rng.randrange(8) for _ in range(n)]
            sign, word = sort_word(seq)
            expected = parity_oracle(seq)
            if expected is None:
                assert sign == 0 and word is None
            else:
                assert sign == expected
                assert word == tuple(sorted(seq))

    def test_merge_words_matches_parity_oracle(self):
        rng = random.Random(20002)
        for _ in range(300):
            pool = list(range(10))
            rng.shuffle(pool)
            k1, k2 = rng.randrange(5), rng.randrange(5)
            w1 = tuple(sorted(pool[:k1]))
            w2 = tuple(sorted(rng.sample(range(10), k2)))
            sign, word = merge_words(w1, w2)
            expected = parity_oracle(list(w1) + list(w2))
            if expected is None:
                assert sign == 0 and word is None
            else:
                assert sign == expected
                assert word == tuple(sorted(w1 + w2))


class TestWedge:
    def test_no_zero_coefficient_is_stored(self):
        reg, x, f, _ = setup_fg()
        xv = Poly.variable(reg, next(iter(x.gens())))
        w = (f.primal_ranks()[0],)
        assert Element(reg, {w: xv - xv}).terms == {}
        assert (Element.zero(reg) + Element(reg, {w: xv - xv})).is_zero
        assert Element(reg, {w: xv, (): Poly.zero(reg)}).terms == {w: xv}
        assert (Element.generator(reg, w[0]) * Element(reg, {(): xv - xv})).is_zero

    def test_generators_anticommute(self):
        reg, _, f, _ = setup_fg()
        a = Element.generator(reg, f.primal_ranks()[0])
        b = Element.generator(reg, f.primal_ranks()[1])
        assert a * b == -(b * a)
        assert (a * a).is_zero
        assert (a * b + b * a).is_zero

    def test_graded_commutativity_random(self):
        rng = random.Random(20003)
        reg, x, f, g = setup_fg()
        ranks = list(range(reg.num_ranks))
        gens = list(x.gens())
        for _ in range(100):
            ka = rng.randrange(4)
            kb = rng.randrange(4)
            a = Element.word(reg, rng.sample(ranks, ka)) * Poly.const(reg, rng.randint(-3, 3))
            b = Element.word(reg, rng.sample(ranks, kb)) * Poly.const(reg, rng.randint(-3, 3))
            sign = -1 if (ka * kb) % 2 else 1
            assert a * b == (b * a) * sign

    def test_associativity_and_distributivity_random(self):
        rng = random.Random(20004)
        reg, x, f, g = setup_fg()
        ranks = list(range(reg.num_ranks))
        gens = list(x.gens())
        for _ in range(60):
            a = rand_element(rng, reg, ranks, gens)
            b = rand_element(rng, reg, ranks, gens)
            c = rand_element(rng, reg, ranks, gens)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert Element.unit(reg) * a == a

    def test_poly_coefficients_are_central(self):
        reg, x, f, _ = setup_fg()
        p = Poly.variable(reg, reg.comm_gen(x, 1)) + 2
        a = Element.generator(reg, f.primal_ranks()[0])
        b = Element.generator(reg, f.dual_ranks()[1])
        assert (a * p) * b == p * (a * b)
        assert a * (p * b) == (p * a) * b


@st.composite
def product_cases(draw):
    """(a, b) over two odd families f, g and variables x1, x2.

    Words mix primals and duals of both families, so merges share ranks;
    coefficients have up to three terms in x1, x2 with signed rational
    values.  Half the time both operands carry the same odd element z (or z
    times a polynomial), so z ^ z forces whole words to cancel."""
    reg = FamilyRegistry()
    x = reg.commuting("x", 2)
    reg.odd("f", draw(st.integers(1, 2)))
    reg.odd("g", draw(st.integers(1, 2)))
    ranks = list(range(reg.num_ranks))

    def coeff():
        c = Poly.zero(reg)
        for _ in range(draw(st.integers(1, 3))):
            term = Poly.const(reg, Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))))
            for i in (1, 2):
                term = term * Poly.variable(reg, reg.comm_gen(x, i)) ** draw(st.integers(0, 2))
            c = c + term
        return c

    def element(max_len):
        e = Element.zero(reg)
        for _ in range(draw(st.integers(0, 4))):
            word = draw(st.lists(st.sampled_from(ranks), unique=True, max_size=max_len))
            e = e + Element.word(reg, word) * coeff()
        return e

    a, b = element(3), element(3)
    if draw(st.booleans()):
        z = element(1)
        a = a + z
        b = b + z * coeff()
    return a, b


@st.composite
def constant_product_cases(draw):
    """(a, b) with constant coefficients only, over f, g of arity 1 to 3.

    A coefficient is an int, a Fraction, or an integral ``Fraction(k, 1)``
    stored as it is, as scaling by a Fraction leaves it.  Words run from
    the empty word to four ranks, so right words of length 0, 1 and more
    all occur.  Half the time both operands carry one odd element z (or a
    multiple), so z ^ z cancels words to zero."""
    reg = FamilyRegistry()
    reg.odd("f", draw(st.integers(1, 3)))
    reg.odd("g", draw(st.integers(1, 3)))
    ranks = list(range(reg.num_ranks))

    def coeff():
        k = draw(st.integers(-4, 4).filter(bool))
        kind = draw(st.sampled_from(("int", "fraction", "integral fraction")))
        if kind == "int":
            return Poly(reg, {(): k})
        if kind == "fraction":
            return Poly(reg, {(): Fraction(k, draw(st.integers(2, 6)))})
        return Poly(reg, {(): Fraction(k)})

    def element(max_len):
        terms = {}
        for _ in range(draw(st.integers(0, 5))):
            word = draw(st.lists(st.sampled_from(ranks), unique=True, max_size=max_len))
            terms[tuple(sorted(word))] = coeff()
        return Element(reg, terms)

    a, b = element(4), element(4)
    if draw(st.booleans()):
        z = element(1)
        a = a + z
        b = b + z * coeff()
    return a, b


@st.composite
def chain_cases(draw):
    """One to five factors over x and odd families f, g of arity 1 to 3.

    A factor is an element with int, Fraction or integral-Fraction constant
    coefficients, the zero element, the unit plus such an element, or a
    multiple of one odd element z that recurs in the chain, so z ^ z
    cancels whole words.  A third of the chains take one factor times x,
    a polynomial coefficient that sends the chain down the fold."""
    reg = FamilyRegistry()
    x = reg.commuting("x", 1)
    reg.odd("f", draw(st.integers(1, 3)))
    reg.odd("g", draw(st.integers(1, 3)))
    ranks = list(range(reg.num_ranks))

    def coeff():
        k = draw(st.integers(-4, 4).filter(bool))
        kind = draw(st.sampled_from(("int", "fraction", "integral fraction")))
        if kind == "int":
            return Poly(reg, {(): k})
        if kind == "fraction":
            return Poly(reg, {(): Fraction(k, draw(st.integers(2, 6)))})
        return Poly(reg, {(): Fraction(k)})

    def element(max_len):
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            word = draw(st.lists(st.sampled_from(ranks), unique=True, max_size=max_len))
            terms[tuple(sorted(word))] = coeff()
        return Element(reg, terms)

    z = element(1)
    factors = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("constant", "zero", "unit", "cancelling")))
        if kind == "constant":
            factors.append(element(3))
        elif kind == "zero":
            factors.append(Element.zero(reg))
        elif kind == "unit":
            factors.append(Element.unit(reg) + element(2))
        else:
            factors.append(z * coeff())
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, len(factors) - 1))
        factors[k] = factors[k] * Poly.variable(reg, reg.comm_gen(x, 1))
    return factors


def _is_constant(e: Element) -> bool:
    return all(len(c.terms) == 1 and () in c.terms for c in e.terms.values())


def _follows_coefficient_rule(e: Element) -> bool:
    return all(
        type(v) is int or (type(v) is Fraction and v.denominator != 1)
        for c in e.terms.values()
        for v in c.terms.values()
    )


class TestElementProductOracle:
    @ORACLE
    @given(constant_product_cases())
    def test_constant_path_matches_monomial_map(self, case):
        a, b = case
        for left, right in ((a, b), (b, a)):
            got = left * right
            want = _monomial_map_mul(left, right)
            assert got == want
            assert list(got.terms) == list(want.terms)
            assert render_element(got) == render_element(want)
            assert _follows_coefficient_rule(got)

    def test_constant_factors_select_the_constant_path(self, monkeypatch):
        reg, x, f, g = setup_fg()
        calls = []
        real = grassmann._constant_chain

        def counted(factors):
            # every product asks; only an all-constant one gets an answer
            out = real(factors)
            if out is not None:
                calls.append(factors)
            return out

        monkeypatch.setattr(grassmann, "_constant_chain", counted)
        a = Element.generator(reg, f.primal_ranks()[0]) * Fraction(1, 2)
        b = Element.generator(reg, g.dual_ranks()[1]) * 3 + Element.unit(reg)
        assert a * b == _monomial_map_mul(a, b)
        assert len(calls) == 1
        p = b * Poly.variable(reg, reg.comm_gen(x, 1))
        assert a * p == _monomial_map_mul(a, p)
        assert p * a == _monomial_map_mul(p, a)
        assert len(calls) == 1

    @ORACLE
    @given(chain_cases())
    def test_integer_chain_matches_the_fold(self, factors):
        """Same value, same words in the same order and the same rendering
        as one product per factor; on constant factors every coefficient
        follows the coefficient rule."""
        got = wedge_chain(factors)
        want = _fold_mul(factors)
        assert got == want
        assert list(got.terms) == list(want.terms)
        assert render_element(got) == render_element(want)
        assert got == functools.reduce(_monomial_map_mul, factors)
        if all(_is_constant(e) for e in factors):
            assert _follows_coefficient_rule(got)

    @ORACLE
    @given(product_cases(), st.data())
    def test_constant_word_on_the_right_matches_monomial_map(self, case, data):
        """A left factor with polynomial coefficients times one constant
        word: the coefficients are scaled, and come out as the monomial map
        gives them, value, type and order."""
        a, _ = case
        reg = a.reg
        left = a * Poly.variable(reg, 0)
        word = data.draw(st.lists(st.sampled_from(range(reg.num_ranks)), unique=True, max_size=3))
        k = data.draw(st.integers(-3, 3).filter(bool))
        v = data.draw(st.sampled_from((k, Fraction(k, 2), Fraction(k))))
        right = Element(reg, {tuple(sorted(word)): Poly(reg, {(): v})})
        got = left * right
        want = _monomial_map_mul(left, right)

        def typed(e):
            return [
                (w, [(m, x, type(x)) for m, x in c.terms.items()]) for w, c in e.terms.items()
            ]

        assert typed(got) == typed(want)

    @ORACLE
    @given(product_cases())
    def test_kernel_matches_pair_loop(self, case):
        a, b = case
        for left, right in ((a, b), (b, a)):
            got = left * right
            want = _pair_loop_mul(left, right)
            assert got == want
            assert render_element(got) == render_element(want)

    def test_square_of_odd_element_cancels_every_word(self):
        reg, x, f, g = setup_fg()
        p = Poly.variable(reg, reg.comm_gen(x, 1)) - Poly.variable(reg, reg.comm_gen(x, 2)) + 3
        z = Element.generator(reg, f.primal_ranks()[0]) * p + Element.generator(
            reg, g.dual_ranks()[1]
        ) * (p * p)
        assert (z * z).terms == {}
        assert _pair_loop_mul(z, z).terms == {}


class TestTopContract:
    def test_anchor_dual_then_primal_is_plus_one(self):
        """The calibration: <duals ascending ^ primals ascending> = +1, any arity."""
        for s in (1, 2, 3, 4):
            reg = FamilyRegistry()
            f = reg.odd("f", s)
            e = dual_full_product(reg, f) * Element.word(reg, f.primal_ranks())
            assert top_contract(f, e) == Element.unit(reg)

    def test_interleaved_pair_word_value(self):
        """(p1 d1 p2 d2 ... pk dk) contracts to (-1)^(k(k+1)/2)."""
        for s in (1, 2, 3, 4):
            reg = FamilyRegistry()
            f = reg.odd("f", s)
            word = tuple(range(2 * s))
            e = Element(reg, {word: Poly.const(reg, 1)})
            expected = -1 if (s * (s + 1) // 2) % 2 else 1
            assert top_contract(f, e) == Element.unit(reg) * expected

    def test_unmatched_terms_die(self):
        reg, _, f, g = setup_fg()
        only_primal = Element.generator(reg, f.primal_ranks()[0])
        only_dual = Element.generator(reg, f.dual_ranks()[1])
        assert top_contract(f, only_primal).is_zero
        assert top_contract(f, only_dual).is_zero
        mixed = Element.word(reg, [f.primal_ranks()[0], f.dual_ranks()[1]])
        assert top_contract(f, mixed).is_zero

    def test_unit_passes_through(self):
        reg, _, f, _ = setup_fg()
        assert top_contract(f, Element.unit(reg)) == Element.unit(reg)

    def test_pinned_mixed_family_example(self):
        """top_f[f*1 ^ (f1 - b g1)] = 1: the matched pair pays +1, the g term dies."""
        reg = FamilyRegistry()
        b = reg.commuting("b", 1)
        f = reg.odd("f", 1)
        g = reg.odd("g", 1)
        beta = Poly.variable(reg, reg.comm_gen(b, 1))
        e = Element.generator(reg, f.dual_ranks()[0]) * (
            Element.generator(reg, f.primal_ranks()[0])
            - Element.generator(reg, g.primal_ranks()[0]) * beta
        )
        assert top_contract(f, e) == Element.unit(reg)

    def test_module_map_over_other_families(self):
        rng = random.Random(20005)
        reg, x, f, g = setup_fg()
        franks = [r for r in range(reg.num_ranks) if f.owns_rank(r)]
        granks = [r for r in range(reg.num_ranks) if g.owns_rank(r)]
        gens = list(x.gens())
        for _ in range(60):
            a = rand_element(rng, reg, franks + granks, gens)
            b = rand_element(rng, reg, granks, gens)
            assert top_contract(f, a * b) == top_contract(f, a) * b
            assert top_contract(f, b * a) == b * top_contract(f, a)

    def test_contractions_over_distinct_families_commute(self):
        rng = random.Random(20006)
        reg, x, f, g = setup_fg()
        ranks = list(range(reg.num_ranks))
        gens = list(x.gens())
        for _ in range(60):
            e = rand_element(rng, reg, ranks, gens)
            assert top_contract(f, top_contract(g, e)) == top_contract(g, top_contract(f, e))


def _assert_same_terms(got: Element, want: Element):
    """Equal elements, with their words and each word's monomials in the
    same order."""
    assert got == want
    assert list(got.terms) == list(want.terms)
    assert [list(c.terms.items()) for c in got.terms.values()] == [
        list(c.terms.items()) for c in want.terms.values()
    ]


class TestContractProduct:
    """``contract_product(fam, a, b)`` against ``_scan_top_contract(fam,
    a * b)``, the product-then-contract route."""

    @staticmethod
    def factor(rng, reg, ranks, fam, gens):
        """Up to five words over ``ranks`` with constant (int or Fraction) or
        polynomial coefficients; each word may take a twin holding one more
        matched pair of ``fam``, signed so that the two can cancel."""
        e = Element.zero(reg)
        for _ in range(rng.randrange(6)):
            word = rng.sample(ranks, rng.randrange(min(len(ranks), 4) + 1))
            k = rng.randint(-3, 3)
            coeff = Poly.const(reg, rng.choice([k, Fraction(k, 2)]))
            for _ in range(rng.choice([0, 0, 1, 2])):
                coeff = coeff * (Poly.variable(reg, rng.choice(gens)) + rng.randint(-1, 1))
            e = e + Element.word(reg, word) * coeff
            i = rng.randint(1, fam.arity)
            pair = [reg.odd_rank(fam, i), reg.odd_rank(fam, i, dual=True)]
            if rng.random() < 0.3 and not set(pair) & set(word):
                e = e + Element.word(reg, pair + word) * coeff * rng.choice([-1, 1])
        return e

    def test_matches_product_then_contraction(self):
        rng = random.Random(20030)
        for _ in range(400):
            reg = FamilyRegistry()
            x = reg.commuting("x", 2)
            reg.odd("a", rng.randint(1, 2))
            f = reg.odd("f", rng.randint(1, 3))
            reg.odd("b", rng.randint(1, 2))
            gens = list(x.gens())
            ranks = list(range(reg.num_ranks))
            others = [r for r in ranks if not f.owns_rank(r)]
            # f absent from one factor a quarter of the time
            left = self.factor(rng, reg, others if rng.random() < 0.25 else ranks, f, gens)
            kind = rng.randrange(4)
            if kind == 0:
                right = dual_full_product(reg, f)
            elif kind == 1:
                right = Element.word(reg, rng.sample(ranks, rng.randrange(4))) * rng.choice([1, -2])
            else:
                right = self.factor(rng, reg, others if rng.random() < 0.25 else ranks, f, gens)
            if rng.random() < 0.25:
                # a shared odd element z: z ^ z cancels whole words
                z = self.factor(rng, reg, ranks, f, gens)
                left, right = left + z, right + z * (Poly.variable(reg, gens[0]) - 1)
            for a, b in ((left, right), (right, left)):
                _assert_same_terms(contract_product(f, a, b), _scan_top_contract(f, a * b))

    def test_top_contract_matches_scan(self):
        rng = random.Random(20031)
        reg, x, f, g = setup_fg(3, 2)
        gens = list(x.gens())
        for _ in range(200):
            e = self.factor(rng, reg, list(range(reg.num_ranks)), f, gens)
            _assert_same_terms(top_contract(f, e), _scan_top_contract(f, e))


class TestBotContract:
    def test_identity_on_family_free_elements(self):
        rng = random.Random(20007)
        reg, x, f, g = setup_fg()
        granks = [r for r in range(reg.num_ranks) if g.owns_rank(r)]
        gens = list(x.gens())
        for _ in range(60):
            e = rand_element(rng, reg, granks, gens)
            assert bot_contract(f, e) == e

    def test_surviving_duals_pick_up_normal_form_parity(self):
        """A word of d unmatched duals comes back scaled by (-1)^(d(d-1)/2)."""
        reg = FamilyRegistry()
        f = reg.odd("f", 3)
        for d in range(4):
            for idxs in itertools.combinations((1, 2, 3), d):
                w = Element.word(reg, [reg.odd_rank(f, i, dual=True) for i in idxs])
                twist = -1 if (d * (d - 1) // 2) & 1 else 1
                assert bot_contract(f, w) == w * twist

    def test_exponential_kernel_identity_rank_two(self):
        """bot_f[f*1 f*2 ^ (f1 - b1 g1)(f2 - b2 g2)] = exp(b1 g1 f*1 + b2 g2 f*2).

        This is the arity-2 calibration: the cross terms fix the parity that a
        surviving dual picks up while passing the matched pairs.
        """
        reg = FamilyRegistry()
        b = reg.commuting("b", 2)
        f = reg.odd("f", 2)
        g = reg.odd("g", 2)
        b1, b2 = (Poly.variable(reg, reg.comm_gen(b, i)) for i in (1, 2))
        fp = [Element.generator(reg, reg.odd_rank(f, i)) for i in (1, 2)]
        fd = [Element.generator(reg, reg.odd_rank(f, i, dual=True)) for i in (1, 2)]
        gp = [Element.generator(reg, reg.odd_rank(g, i)) for i in (1, 2)]
        lhs = bot_contract(f, fd[0] * fd[1] * (fp[0] - gp[0] * b1) * (fp[1] - gp[1] * b2))
        rhs = grassmann_exp([(gp[0] * b1, fd[0]), (gp[1] * b2, fd[1])])
        assert lhs == rhs

    def test_unmatched_primals_die(self):
        reg, _, f, _ = setup_fg()
        assert bot_contract(f, Element.generator(reg, f.primal_ranks()[0])).is_zero

    def test_agrees_with_top_on_matched_elements(self):
        rng = random.Random(20008)
        reg, x, f, g = setup_fg(arity_f=3)
        gens = list(x.gens())
        granks = [r for r in range(reg.num_ranks) if g.owns_rank(r)]
        for _ in range(60):
            e = Element.zero(reg)
            for _ in range(rng.randrange(4)):
                idxs = rng.sample([1, 2, 3], rng.randrange(4))
                seq = [reg.odd_rank(f, i) for i in idxs]
                seq += [reg.odd_rank(f, i, dual=True) for i in idxs]
                seq += rng.sample(granks, rng.randrange(3))
                e = e + Element.word(reg, seq) * rng.randint(-3, 3)
            assert bot_contract(f, e) == top_contract(f, e)

    def test_pinned_mixed_family_example(self):
        """bot_f[f*1 ^ (f1 - b g1)] = 1 + b g1 f*1: the unmatched dual survives."""
        reg = FamilyRegistry()
        b = reg.commuting("b", 1)
        f = reg.odd("f", 1)
        g = reg.odd("g", 1)
        beta = Poly.variable(reg, reg.comm_gen(b, 1))
        fd = Element.generator(reg, f.dual_ranks()[0])
        fp = Element.generator(reg, f.primal_ranks()[0])
        gp = Element.generator(reg, g.primal_ranks()[0])
        got = bot_contract(f, fd * (fp - gp * beta))
        assert got == Element.unit(reg) + gp * fd * beta

    def test_triple_application_collapses(self):
        """Output has no family primals, and the dual parity squares away."""
        rng = random.Random(20009)
        reg, x, f, g = setup_fg()
        ranks = list(range(reg.num_ranks))
        gens = list(x.gens())
        primals = set(f.primal_ranks())
        for _ in range(40):
            e = rand_element(rng, reg, ranks, gens)
            once = bot_contract(f, e)
            for w in once.terms:
                assert not primals & set(w)
            assert bot_contract(f, bot_contract(f, once)) == once

    def test_nested_families(self):
        rng = random.Random(20010)
        reg, x, f, g = setup_fg()
        ranks = list(range(reg.num_ranks))
        gens = list(x.gens())
        for _ in range(40):
            e = rand_element(rng, reg, ranks, gens)
            assert bot_contract(f, bot_contract(g, e)) == bot_contract(g, bot_contract(f, e))


@st.composite
def contraction_cases(draw):
    """(reg, f, e): f of arity 1-4, optional families before and after it,
    terms made of f duals, f primals (matched or not) and other generators,
    small integer coefficients (zero included) and, half the time, a twin
    term that differs by one matched pair, so contributions can cancel."""
    reg = FamilyRegistry()
    x = reg.commuting("x", 2)
    before = draw(st.integers(0, 2))
    if before:
        reg.odd("a", before)
    f = reg.odd("f", draw(st.integers(1, 4)))
    after = draw(st.integers(0, 2))
    if after:
        reg.odd("b", after)
    others = [r for r in range(reg.num_ranks) if not f.owns_rank(r)]
    duals_only = draw(st.booleans())
    e = Element.zero(reg)
    for _ in range(draw(st.integers(1, 4))):
        duals = draw(st.lists(st.sampled_from(f.dual_ranks()), unique=True))
        primals = []
        rest = []
        if not duals_only:
            primals = draw(st.lists(st.sampled_from(f.primal_ranks()), unique=True))
            if others:
                rest = draw(st.lists(st.sampled_from(others), unique=True, max_size=3))
        coeff = Poly.const(reg, draw(st.integers(-2, 2)))
        if draw(st.booleans()):
            coeff = coeff * Poly.variable(reg, reg.comm_gen(x, draw(st.integers(1, 2))))
        term = Element.word(reg, duals + primals + rest) * coeff
        e = e + term
        free = [i for i in range(1, f.arity + 1) if reg.odd_rank(f, i, dual=True) not in duals]
        if free and draw(st.booleans()):
            i = draw(st.sampled_from(free))
            pair = [reg.odd_rank(f, i), reg.odd_rank(f, i, dual=True)]
            e = e + Element.word(reg, pair + duals + primals + rest) * coeff * draw(
                st.sampled_from([-1, 1])
            )
    return reg, f, e


class TestBotContractOracle:
    @ORACLE
    @given(contraction_cases())
    def test_closed_form_matches_renaming_kernel(self, case):
        reg, f, e = case
        got = bot_contract(f, e)
        assert got == _renaming_bot_contract(f, e)

    def test_matched_pair_cancels_unit(self):
        """bot_f(1 + f1 f*1) = 1 - 1 = 0: contributions of distinct words cancel."""
        reg = FamilyRegistry()
        f = reg.odd("f", 1)
        e = Element.unit(reg) + Element.word(reg, [reg.odd_rank(f, 1), reg.odd_rank(f, 1, dual=True)])
        assert bot_contract(f, e).is_zero
        assert _renaming_bot_contract(f, e).is_zero

    def test_pinned_signs_arity_four(self):
        """Every pattern of matched pairs and lone duals of an arity-4 family,
        between generators of two other families, against the oracle."""
        reg = FamilyRegistry()
        a = reg.odd("a", 1)
        f = reg.odd("f", 4)
        b = reg.odd("b", 1)
        frame = [reg.odd_rank(a, 1, dual=True), reg.odd_rank(b, 1)]
        for pattern in itertools.product((None, "dual", "pair", "primal"), repeat=4):
            seq = list(frame)
            for i, kind in enumerate(pattern, start=1):
                if kind in ("dual", "pair"):
                    seq.append(reg.odd_rank(f, i, dual=True))
                if kind in ("pair", "primal"):
                    seq.append(reg.odd_rank(f, i))
            e = Element.word(reg, seq)
            assert bot_contract(f, e) == _renaming_bot_contract(f, e), pattern


class TestBorderedDetOracle:
    def test_matches_minor_expansion_on_random_shapes(self):
        rng = random.Random(20016)
        for _ in range(60):
            s, n, t = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 2)
            reg = FamilyRegistry()
            x = reg.commuting("x", 1)
            f = reg.odd("f", s)
            g = reg.odd("g", t)
            xv = Poly.variable(reg, reg.comm_gen(x, 1))
            a = [
                [xv * rng.randint(-2, 2) + rng.randint(-2, 2) for _ in range(n)]
                for _ in range(s)
            ]
            oddrow = [
                sum(
                    (
                        Element.generator(reg, reg.odd_rank(g, j)) * rng.randint(-2, 2)
                        for j in range(1, t + 1)
                    ),
                    Element.zero(reg),
                )
                for _ in range(n)
            ]
            _assert_three_routes_agree(a, oddrow, f)

    def test_odd_entries_with_scalar_parts(self):
        rng = random.Random(20017)
        for _ in range(60):
            s, n = rng.randint(1, 3), rng.randint(1, 4)
            reg = FamilyRegistry()
            x = reg.commuting("x", 1)
            f = reg.odd("f", s)
            g = reg.odd("g", 2)
            xv = Poly.variable(reg, reg.comm_gen(x, 1))
            a = [
                [xv * rng.randint(-2, 2) + rng.randint(-2, 2) for _ in range(n)]
                for _ in range(s)
            ]
            oddrow = _odd_entries(rng, reg, g.primal_ranks(), n, list(x.gens()), True)
            _assert_three_routes_agree(a, oddrow, f)

    def test_more_rows_than_columns_under_a_zero_odd_row(self):
        """det G's shape: s > n polynomial rows, every odd entry zero, so
        each surviving word holds s - n row duals."""
        rng = random.Random(20021)
        for _ in range(40):
            n = rng.randint(1, 3)
            s = n + rng.randint(1, 3)
            reg = FamilyRegistry()
            x = reg.commuting("x", 2)
            f = reg.odd("f", s)
            a = [[_small_poly(rng, reg, list(x.gens())) for _ in range(n)] for _ in range(s)]
            got = _assert_three_routes_agree(a, [Element.zero(reg)] * n, f)
            assert all(len(w) == s - n for w in got.terms)

    def test_odd_row_of_negated_primals(self):
        """Theorem 3's shape: an s x t polynomial matrix bordered by -F_j,
        F an odd family of arity t."""
        rng = random.Random(20022)
        for _ in range(40):
            s, t = rng.randint(1, 3), rng.randint(1, 3)
            reg = FamilyRegistry()
            x = reg.commuting("x", 2)
            f = reg.odd("f", s)
            F = reg.odd("F", t)
            a = [[_small_poly(rng, reg, list(x.gens())) for _ in range(t)] for _ in range(s)]
            _assert_three_routes_agree(a, odd_differences(reg, None, F), f)


def _small_poly(rng, reg, gens) -> Poly:
    """A random polynomial of degree at most 2 in ``gens``, often zero or
    constant."""
    p = Poly.const(reg, rng.randint(-2, 2))
    for _ in range(rng.randint(0, 2)):
        mono = Poly.const(reg, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for g in gens:
            mono = mono * Poly.variable(reg, g) ** rng.randint(0, 1)
        p = p + mono
    return p


@pytest.mark.parametrize("poly_entries", [False, True])
def test_minor_expansion_leaves_no_cyclic_garbage(poly_entries):
    """The expansion's memo closures call themselves through their cells;
    clearing the cells on return frees the memo tables by reference
    counting, so a call leaves nothing for the cyclic collector."""
    rng = random.Random(20023)
    reg = FamilyRegistry()
    x = reg.commuting("x", 2)
    f = reg.odd("f", 3)
    g = reg.odd("g", 2)

    def entry():
        if poly_entries:
            return _small_poly(rng, reg, list(x.gens()))
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    a = [[entry() for _ in range(3)] for _ in range(3)]
    oddrow = [Element.generator(reg, reg.odd_rank(g, 1 + k % 2)) for k in range(3)]
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        bordered_minor_expansion(a, oddrow, f)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _assert_three_routes_agree(a, oddrow, f) -> Element:
    """``bordered_det`` equals the Laplace expansion and the contraction of
    the multiplied-out columns; returns its value."""
    got = bordered_det(a, oddrow, f)
    assert got == bordered_minor_expansion(a, oddrow, f)
    assert got == product_bordered_det(a, oddrow, f)
    return got


class TestBorderedDetProductOracle:
    def test_matches_product_route_on_rational_entries(self):
        """Rational matrix entries (raw, or constant Polys) and rational odd
        entries, with and without scalar parts: the integer route gives the
        product route's value, words and rendering, by the coefficient rule."""
        rng = random.Random(20018)
        for _ in range(120):
            s, n, t = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3)
            reg = FamilyRegistry()
            f = reg.odd("f", s)
            granks = reg.odd("g", t).primal_ranks() if t else []
            a = []
            for _ in range(s):
                row = []
                for _ in range(n):
                    x = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                    row.append(Poly.const(reg, x) if rng.random() < 0.3 else x)
                a.append(row)
            oddrow = _odd_entries(rng, reg, granks, n, [], rng.random() < 0.5, "fraction")
            got = bordered_det(a, oddrow, f)
            want = product_bordered_det(a, oddrow, f)
            assert got == want
            assert list(got.terms) == list(want.terms)
            assert render_element(got) == render_element(want)
            assert _follows_coefficient_rule(got)

    def test_polynomial_entries_match_the_product_route(self):
        rng = random.Random(20020)
        reg = FamilyRegistry()
        x = reg.commuting("x", 1)
        f = reg.odd("f", 2)
        g = reg.odd("g", 2)
        xv = Poly.variable(reg, reg.comm_gen(x, 1))
        a = [[xv * rng.randint(-2, 2) + Fraction(1, 3) for _ in range(3)] for _ in range(2)]
        oddrow = _odd_entries(rng, reg, g.primal_ranks(), 3, [], True, "fraction")
        got = bordered_det(a, oddrow, f)
        want = product_bordered_det(a, oddrow, f)
        assert got == want
        assert list(got.terms) == list(want.terms)


def _odd_entries(rng, reg, ranks, count, gens, scalar_parts=False, coeffs="poly"):
    """``count`` random elements of wedge degree 1 over ``ranks`` (and, with
    ``scalar_parts``, often a degree-0 part); some entries are zero.  The
    coefficients are integers (``coeffs="int"``), rationals (``"fraction"``)
    or polynomials in ``gens`` (``"poly"``)."""
    out = []
    for _ in range(count):
        terms = {}
        words = [(r,) for r in ranks] + ([()] if scalar_parts else [])
        for w in words:
            if rng.random() < 0.6:
                c = Poly.const(reg, rng.randint(-2, 2))
                if coeffs == "fraction":
                    c = c * Fraction(1, rng.randint(1, 3))
                elif coeffs == "poly":
                    for _ in range(rng.randrange(2)):
                        c = c * Poly.variable(reg, rng.choice(gens))
                if c:
                    terms[w] = c
        out.append(Element(reg, terms))
    return out


class TestMinorExpansionPlans:
    # shapes (rows or columns, set size), revisited out of order
    SHAPES = ((3, 1), (1, 1), (4, 2), (3, 3), (2, 0), (4, 4), (5, 2), (3, 1), (1, 0), (4, 2), (5, 5))

    def test_cached_plans_match_inline_plans_on_interleaved_shapes(self):
        grassmann._row_plan.cache_clear()
        grassmann._column_plan.cache_clear()
        for _ in range(2):
            for size, c in self.SHAPES:
                assert list(grassmann._row_plan(size, c)) == _inline_row_sets(size, c)
                assert list(grassmann._column_plan(size, c)) == _inline_column_sets(size, c)
        assert grassmann._row_plan.cache_info().hits >= len(self.SHAPES)

    def test_plan_caches_stay_bounded(self):
        bound = grassmann.PLAN_CACHE_SIZE
        for plan in (grassmann._row_plan, grassmann._column_plan):
            for size in range(2 * bound):
                plan(size, 0)
            info = plan.cache_info()
            assert info.maxsize == bound
            assert info.currsize == bound
            plan.cache_clear()


class TestTransgressionDetOracle:
    """The Laplace expansion against the product-and-contract route."""

    @staticmethod
    def _case(rng, n, widths, scalar_parts=False, coeffs="poly"):
        reg = FamilyRegistry()
        x = reg.commuting("x", 2)
        g = reg.odd("g", 3)
        u = reg.odd("u", n)
        gens = list(x.gens())

        def entry():
            p = Poly.const(reg, rng.randint(-3, 3))
            for _ in range(rng.randrange(3)):
                p = p + Poly.variable(reg, rng.choice(gens)) * rng.randint(-2, 2)
            return p * Poly.variable(reg, rng.choice(gens)) if rng.random() < 0.3 else p

        blocks = [
            (
                [[entry() for _ in range(t)] for _ in range(n)],
                _odd_entries(rng, reg, g.primal_ranks(), t, gens, scalar_parts, coeffs),
            )
            for t in widths
        ]
        return blocks, u

    @pytest.mark.parametrize("coeffs", ["int", "fraction", "poly"])
    @pytest.mark.parametrize("nblocks", [1, 2])
    def test_polynomial_entries_every_width(self, nblocks, coeffs):
        """t < n (zero), t = n and t > n columns, in one block or split in
        two; odd coefficients that are integers, rationals or polynomials."""
        rng = random.Random(f"20031:{nblocks}:{coeffs}")
        for n in (1, 2, 3):
            for t in range(1, n + 3):
                for _ in range(3):
                    cut = rng.randint(0, t)
                    widths = [t] if nblocks == 1 else [cut, t - cut]
                    blocks, u = self._case(rng, n, widths, coeffs=coeffs)
                    got = transgression_det(blocks, u)
                    assert got == _product_transgression_det(blocks, u), (n, widths)
                    if t < n:
                        assert got.is_zero

    def test_odd_entries_with_scalar_parts(self):
        """Entries of wedge degree 0 and 1 mixed: only the degree-1 parts
        cross the chosen columns with a sign."""
        rng = random.Random(20033)
        for n in (1, 2, 3):
            for t in range(n, n + 3):
                for _ in range(3):
                    blocks, u = self._case(rng, n, [t], scalar_parts=True)
                    got = transgression_det(blocks, u)
                    assert got == _product_transgression_det(blocks, u), (n, t)

    def test_pinned_difference_columns(self):
        """The divided differences of f = (x^2, x^3) against fx - fy."""
        reg = FamilyRegistry()
        x = reg.commuting("x", 1)
        y = reg.commuting("y", 1)
        fx = reg.odd("fx", 2)
        fy = reg.odd("fy", 2)
        u = reg.odd("u", 1)
        xp = Poly.variable(reg, reg.comm_gen(x, 1))
        grad = [[divided_diff(xp**k, x, y)[0] for k in (2, 3)]]
        diffs = [odd_gen(reg, fx, j) - odd_gen(reg, fy, j) for j in (1, 2)]
        got = transgression_det([(grad, diffs)], u)
        assert got == _product_transgression_det([(grad, diffs)], u)
        assert got == diffs[1] * grad[0][0] - diffs[0] * grad[0][1]


class TestExpAndRowDet:
    def test_exp_matches_subset_expansion(self):
        rng = random.Random(20011)
        reg, x, f, g = setup_fg(arity_f=3, arity_g=3)
        gens = list(x.gens())
        for _ in range(40):
            m = rng.randint(1, 3)
            pairs = []
            for i in range(1, m + 1):
                a = Element.generator(reg, reg.odd_rank(f, i)) * rng.randint(-2, 2)
                b = Element.generator(reg, reg.odd_rank(g, i, dual=True)) * Poly.variable(
                    reg, rng.choice(gens)
                )
                pairs.append((a, b))
            expected = Element.zero(reg)
            for k in range(m + 1):
                for subset in itertools.combinations(range(m), k):
                    term = Element.unit(reg)
                    for i in subset:
                        term = term * (pairs[i][0] * pairs[i][1])
                    expected = expected + term
            assert grassmann_exp(pairs) == expected

    def test_exp_factor_order_irrelevant(self):
        reg, _, f, g = setup_fg()
        pairs = [
            (Element.generator(reg, reg.odd_rank(f, i)), Element.generator(reg, reg.odd_rank(g, i, dual=True)))
            for i in (1, 2)
        ]
        assert grassmann_exp(pairs) == grassmann_exp(list(reversed(pairs)))

    def test_exp_rejects_higher_degree(self):
        reg, _, f, g = setup_fg()
        a = Element.generator(reg, f.primal_ranks()[0])
        b = Element.generator(reg, f.primal_ranks()[1])
        with pytest.raises(ValueError):
            grassmann_exp([(a * b, a)])

    def test_exp_allows_zero_factor(self):
        reg, _, f, g = setup_fg()
        a = Element.generator(reg, f.primal_ranks()[0])
        assert grassmann_exp([(Element.zero(reg), a)]) == Element.unit(reg)


class TestBorderedDet:
    def test_one_by_one_pinned(self):
        """bordered_det((G), (-F1)) = G + F1 f*1, coefficient exactly +1."""
        reg = FamilyRegistry()
        x = reg.commuting("x", 1)
        f = reg.odd("f", 1)
        F = reg.odd("F", 1)
        G = Poly.variable(reg, reg.comm_gen(x, 1)) ** 2 + 1
        got = bordered_det([[G]], [-Element.generator(reg, F.primal_ranks()[0])], f)
        expected = Element.from_poly(G) + Element.generator(
            reg, F.primal_ranks()[0]
        ) * Element.generator(reg, f.dual_ranks()[0])
        assert got == expected

    def test_identity_matrix_zero_oddrow_is_one(self):
        for s in (1, 2, 3):
            reg = FamilyRegistry()
            f = reg.odd("f", s)
            a = [[Poly.const(reg, 1 if i == j else 0) for j in range(s)] for i in range(s)]
            zero_row = [Element.zero(reg)] * s
            assert bordered_det(a, zero_row, f) == Element.unit(reg)

    def test_square_zero_oddrow_is_determinant(self):
        rng = random.Random(20014)
        for _ in range(40):
            s = rng.randint(1, 3)
            reg = FamilyRegistry()
            f = reg.odd("f", s)
            a = [[Fraction(rng.randint(-3, 3)) for _ in range(s)] for _ in range(s)]
            zero_row = [Element.zero(reg)] * s
            got = bordered_det([[Poly.const(reg, v) for v in row] for row in a], zero_row, f)
            assert got == Element.unit(reg) * det_oracle(a)

    def test_column_antisymmetry(self):
        rng = random.Random(20015)
        for _ in range(30):
            s, n = rng.randint(1, 2), rng.randint(2, 3)
            reg = FamilyRegistry()
            f = reg.odd("f", s)
            F = reg.odd("F", n)
            a = [[Poly.const(reg, rng.randint(-2, 2)) for _ in range(n)] for _ in range(s)]
            row = [Element.generator(reg, reg.odd_rank(F, j + 1)) * rng.randint(-2, 2) for j in range(n)]
            k = rng.randrange(n - 1)
            a2 = [list(r) for r in a]
            row2 = list(row)
            for r in a2:
                r[k], r[k + 1] = r[k + 1], r[k]
            row2[k], row2[k + 1] = row2[k + 1], row2[k]
            assert bordered_det(a2, row2, f) == -bordered_det(a, row, f)

    def test_shape_validation(self):
        reg = FamilyRegistry()
        f = reg.odd("f", 2)
        with pytest.raises(ValueError):
            bordered_det([[Poly.const(reg, 1)]], [Element.zero(reg)], f)

    def test_raw_scalar_odd_row_equals_element_odd_row(self):
        """An odd row of raw {word: scalar} maps gives what its elements
        give, on the integer route and on the polynomial one (a holding a
        variable), and so does the minor expansion."""
        rng = random.Random(20016)
        for _ in range(30):
            s, n, t = rng.randint(1, 2), rng.randint(1, 3), rng.randint(0, 2)
            reg = FamilyRegistry()
            x = reg.commuting("x", 1)
            f = reg.odd("f", s)
            granks = reg.odd("g", t).primal_ranks() if t else []
            b = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                 for _ in range(t)]
            raw = [{(r,): row[k] for r, row in zip(granks, b) if row[k]} for k in range(n)]
            elements = [column(reg, granks, b, k) for k in range(n)]
            a = [[Fraction(rng.randint(-2, 2), 2) for _ in range(n)] for _ in range(s)]
            if rng.random() < 0.5:
                a[0][0] = Poly.variable(reg, reg.comm_gen(x, 1)) + a[0][0]
            want = bordered_det(a, elements, f)
            assert bordered_det(a, raw, f, reg) == want
            assert bordered_minor_expansion(a, raw, f, reg) == want


class TestTransgressionDet:
    def test_pinned_univariate_square(self):
        """For f = x^2 the transgression collapses to the divided difference x + y."""
        reg = FamilyRegistry()
        x = reg.commuting("x", 1)
        y = reg.commuting("y", 1)
        fx = reg.odd("fx", 1)
        fy = reg.odd("fy", 1)
        u = reg.odd("u", 1)
        F = Poly.variable(reg, reg.comm_gen(x, 1)) ** 2
        grad = [divided_diff(F, x, y)]
        oddrow = [
            Element.generator(reg, fx.primal_ranks()[0])
            - Element.generator(reg, fy.primal_ranks()[0])
        ]
        got = transgression_det([(grad, oddrow)], u)
        xp, yp = Poly.variable(reg, reg.comm_gen(x, 1)), Poly.variable(reg, reg.comm_gen(y, 1))
        assert got == Element.from_poly(xp + yp)

    def test_pinned_unit_jacobian(self):
        """For f = (x1, x2) the value is exactly +1."""
        reg = FamilyRegistry()
        x = reg.commuting("x", 2)
        y = reg.commuting("y", 2)
        fx = reg.odd("fx", 2)
        fy = reg.odd("fy", 2)
        u = reg.odd("u", 2)
        grad = [[Poly.const(reg, 1 if i == j else 0) for j in range(2)] for i in range(2)]
        oddrow = [
            Element.generator(reg, reg.odd_rank(fx, j)) - Element.generator(reg, reg.odd_rank(fy, j))
            for j in (1, 2)
        ]
        assert transgression_det([(grad, oddrow)], u) == Element.unit(reg)

    def test_pinned_overdetermined_pair(self):
        """f = (x, x^2) over one variable: (f2x - f2y) - (x + y)(f1x - f1y)."""
        reg = FamilyRegistry()
        x = reg.commuting("x", 1)
        y = reg.commuting("y", 1)
        fx = reg.odd("fx", 2)
        fy = reg.odd("fy", 2)
        u = reg.odd("u", 1)
        xp, yp = Poly.variable(reg, reg.comm_gen(x, 1)), Poly.variable(reg, reg.comm_gen(y, 1))
        grad = [[Poly.const(reg, 1), xp + yp]]
        diffs = [
            Element.generator(reg, reg.odd_rank(fx, j)) - Element.generator(reg, reg.odd_rank(fy, j))
            for j in (1, 2)
        ]
        got = transgression_det([(grad, diffs)], u)
        assert got == diffs[1] - diffs[0] * (xp + yp)

    def test_square_block_is_determinant(self):
        rng = random.Random(20016)
        for _ in range(40):
            n = rng.randint(1, 3)
            reg = FamilyRegistry()
            fx = reg.odd("fx", n)
            u = reg.odd("u", n)
            a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            grad = [[Poly.const(reg, v) for v in row] for row in a]
            oddrow = [Element.generator(reg, reg.odd_rank(fx, j + 1)) for j in range(n)]
            got = transgression_det([(grad, oddrow)], u)
            assert got.terms.get((), Poly.zero(reg)) == Poly.const(reg, det_oracle(a))

    def test_two_blocks_concatenate_columns(self):
        """Splitting the same columns into two blocks changes nothing."""
        reg = FamilyRegistry()
        x = reg.commuting("x", 1)
        fx = reg.odd("fx", 3)
        u = reg.odd("u", 1)
        p = Poly.variable(reg, reg.comm_gen(x, 1))
        grads = [[Poly.const(reg, 1), p, p**2]]
        rows = [Element.generator(reg, reg.odd_rank(fx, j)) for j in (1, 2, 3)]
        whole = transgression_det([(grads, rows)], u)
        split = transgression_det(
            [([grads[0][:2]], rows[:2]), ([grads[0][2:]], rows[2:])], u
        )
        assert whole == split

    def test_shape_validation(self):
        reg = FamilyRegistry()
        fx = reg.odd("fx", 1)
        u = reg.odd("u", 2)
        with pytest.raises(ValueError):
            transgression_det(
                [([[Poly.const(reg, 1)]], [Element.generator(reg, reg.odd_rank(fx, 1))])], u
            )


class TestRendering:
    def test_small_examples(self):
        reg = FamilyRegistry()
        x = reg.commuting("x", 1)
        f = reg.odd("f", 2)
        p = Poly.variable(reg, reg.comm_gen(x, 1))
        e = Element.generator(reg, f.primal_ranks()[0]) * (p + 1) - Element.unit(reg) * 2
        s = render_element(e)
        assert "f1" in s and "x" in s
        assert render_element(Element.zero(reg)) == "0"
        assert render_element(Element.unit(reg)) == "1"
