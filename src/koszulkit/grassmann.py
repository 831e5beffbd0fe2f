"""Exterior algebra over odd generator families, with Berezin contractions.

An :class:`Element` is a finite sum of wedge words with polynomial
coefficients.  A word is a strictly ascending tuple of global ranks; sorting a
generator sequence into a word picks up the parity of the permutation, and a
repeated rank kills the term.  The anchor convention for contractions: pairing
the full dual word (duals ascending) against the full primal word (primals
ascending) of one family extracts exactly +1.

``top_contract`` is the full contraction over a family: in every term the
primal and dual index sets of that family must coincide (otherwise the term
dies), matched pairs are extracted, and the other generators survive.
``contract_product`` takes it of a product, forming only the word pairs
that survive; ``top_contract`` is its product with the unit.
``bot_contract`` is the partial contraction, in closed form term by term:
a term survives exactly when its family primals are matched by duals of the
same index, the matched pairs (adjacent in a word) are traded for scalars,
unmatched duals survive with the parity that restores the interleaved normal
form, and unmatched primals kill their term.  It is the value of the
renaming kernel (rename the family to an auxiliary copy, wedge on the right
with the exponential pairing fresh primals with the original duals, fully
contract the copy) without building that kernel.

On top of the contractions sit the two determinant kernels used throughout
the package: ``bordered_det`` (a scalar matrix bordered by an odd row) and
``transgression_det`` (column differences contracted through an auxiliary
family).  ``bordered_det`` takes one of two routes to one value.  On
constant entries it multiplies out the columns and partially contracts; on
polynomial entries it sums the Laplace parts over the column sets that take
matrix entries (``_minor_expansion``).  All of those parts are
``bordered_minor_expansion``, lemma 1's contraction-free check on the
constant route; the tests keep the multiply-and-contract evaluation as the
oracle of the polynomial one.  ``transgression_det`` is evaluated as the
part that takes every row, since the full contraction keeps only the terms
holding every primal of the auxiliary family; the tests keep its
multiply-and-contract evaluation as the oracle.

A product of elements whose coefficients are all constants runs on integer
numerators over one common denominator (``wedge_chain``; ``Element.__mul__``
for two factors), and its coefficients are built once, at the end.
``bordered_det`` contracts such a product before building them.
"""

from __future__ import annotations

import functools
import itertools
import operator
from bisect import bisect_left
from fractions import Fraction
from math import lcm

from .ring import MONO_ONE, FamilyRegistry, Poly, accumulate, as_poly, mono_mul

Word = tuple  # tuple[int, ...], strictly ascending global ranks


def sort_word(seq) -> tuple[int, Word | None]:
    """Sort a rank sequence into a canonical word, returning (sign, word).

    The sign is the parity of the sorting permutation; a repeated rank returns
    (0, None).  Insertion counting keeps this simple and exact; word lengths
    in this package are small.
    """
    ranks = list(seq)
    inversions = 0
    for i in range(1, len(ranks)):
        r = ranks[i]
        j = i
        while j > 0 and ranks[j - 1] > r:
            ranks[j] = ranks[j - 1]
            j -= 1
            inversions += 1
        ranks[j] = r
        if j > 0 and ranks[j - 1] == r:
            return 0, None
    return (-1 if inversions & 1 else 1), tuple(ranks)


def merge_words(w1: Word, w2: Word) -> tuple[int, Word | None]:
    """Merge two canonical words, counting crossings; shared rank gives (0, None)."""
    out = []
    i = j = 0
    inversions = 0
    n1, n2 = len(w1), len(w2)
    while i < n1 and j < n2:
        if w1[i] == w2[j]:
            return 0, None
        if w1[i] < w2[j]:
            out.append(w1[i])
            i += 1
        else:
            out.append(w2[j])
            j += 1
            inversions += n1 - i
    out.extend(w1[i:])
    out.extend(w2[j:])
    return (-1 if inversions & 1 else 1), tuple(out)


def _numerators(terms: dict) -> tuple[int, list] | None:
    """``(d, [(word, n), ...])`` with each coefficient equal to n / d, where d
    is the lcm of the coefficients' denominators; None unless every
    coefficient is a nonzero constant."""
    consts = []
    den = 1
    for w, c in terms.items():
        t = c.terms
        if len(t) != 1:
            return None
        v = t.get(MONO_ONE)
        if v is None:
            return None
        d = v.denominator
        if den % d:
            den = lcm(den, d)
        consts.append((w, v))
    return den, [(w, v.numerator * (den // v.denominator)) for w, v in consts]


def _integer_chain(chain) -> tuple[int, dict]:
    """The ordered product of constant elements given as ``(d, [(word, n),
    ...])`` pairs, each coefficient n / d, on integer numerators: ``(d,
    {word: n})`` with d the product of the factors' d and no n zero.

    Zero numerators are dropped after every factor, so the words come out in
    the order the pairwise fold of ``Element.__mul__`` gives them: a word
    keeps its first position within one factor's step even when its sum
    passes through zero.
    """
    den, first = chain[0]
    acc = {w: n for w, n in first if n}
    for den2, nums2 in chain[1:]:
        den *= den2
        out: dict[Word, int] = {}
        for w1, a in acc.items():
            n1 = len(w1)
            for w2, b in nums2:
                if len(w2) == 1:
                    # one rank: insert it by bisection, crossing the n1 - i
                    # larger ranks of w1
                    r = w2[0]
                    i = bisect_left(w1, r)
                    if i < n1 and w1[i] == r:
                        continue
                    w = w1[:i] + w2 + w1[i:]
                    odd = (n1 - i) & 1
                else:
                    sign, w = merge_words(w1, w2)
                    if w is None:
                        continue
                    odd = sign < 0
                out[w] = out.get(w, 0) + (-a * b if odd else a * b)
        acc = {w: n for w, n in out.items() if n}
    return den, acc


def _constant_chain(factors) -> tuple[int, dict] | None:
    """``_integer_chain`` of the elements ``factors``; None unless they share
    one registry and every coefficient of every one is a constant."""
    reg = factors[0].reg
    chain = []
    for e in factors:
        nums = _numerators(e.terms)
        if nums is None or e.reg is not reg:
            return None
        chain.append(nums)
    return _integer_chain(chain)


def wedge_chain(factors) -> "Element":
    """The ordered product of one or more elements.

    When every coefficient of every factor is a constant, the product runs
    on integer numerators over one common denominator and each coefficient
    is built once, by the coefficient rule (an ``int`` when integral, else a
    Fraction); otherwise it is the fold of ``Element.__mul__``.  The words
    come out in the fold's order either way.
    """
    factors = list(factors)
    consts = _constant_chain(factors)
    if consts is None:
        return functools.reduce(operator.mul, factors)
    den, acc = consts
    return Element.from_numerators(factors[0].reg, acc, den)


class Element:
    """Finite sum of wedge words with exact polynomial coefficients."""

    __slots__ = ("reg", "terms")

    def __init__(self, reg: FamilyRegistry, terms: dict | None = None):
        self.reg = reg
        if terms is None:
            terms = {}
        elif not all(terms.values()):
            terms = {w: c for w, c in terms.items() if c}
        self.terms: dict[Word, Poly] = terms

    @staticmethod
    def _wrap(reg: FamilyRegistry, terms: dict, _new=object.__new__) -> "Element":
        """The element holding ``terms`` itself, unchecked: for maps that
        hold no zero by construction, such as those ``accumulate`` builds."""
        e = _new(Element)
        e.reg = reg
        e.terms = terms
        return e

    @classmethod
    def zero(cls, reg: FamilyRegistry) -> "Element":
        return cls._wrap(reg, {})

    @classmethod
    def unit(cls, reg: FamilyRegistry) -> "Element":
        return cls._wrap(reg, {(): Poly.const(reg, 1)})

    @classmethod
    def from_poly(cls, p: Poly) -> "Element":
        return cls(p.reg, {(): p})

    @classmethod
    def from_numerators(cls, reg: FamilyRegistry, nums: dict, den: int) -> "Element":
        """The element with coefficient n / den at each word of ``nums``
        ({word: nonzero int n}); each coefficient follows the coefficient
        rule: an ``int`` when integral, else a Fraction (``ratio``, inlined
        in this hot builder)."""
        return cls._wrap(
            reg,
            {
                w: Poly._wrap(reg, {MONO_ONE: Fraction(n, den) if n % den else n // den})
                for w, n in nums.items()
            },
        )

    @classmethod
    def generator(cls, reg: FamilyRegistry, rank: int) -> "Element":
        if not 0 <= rank < reg.num_ranks:
            raise IndexError(f"no odd generator with rank {rank}")
        return cls._wrap(reg, {(rank,): Poly.const(reg, 1)})

    @classmethod
    def word(cls, reg: FamilyRegistry, ranks) -> "Element":
        """Element for an arbitrary generator sequence, sorted with sign."""
        sign, w = sort_word(ranks)
        if w is None:
            return cls.zero(reg)
        return cls(reg, {w: Poly.const(reg, sign)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Element):
            return self.reg is other.reg and self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def __neg__(self) -> "Element":
        return Element._wrap(self.reg, {w: -c for w, c in self.terms.items()})

    def __add__(self, other) -> "Element":
        other = self._coerce(other)
        acc = dict(self.terms)
        for w, c in other.terms.items():
            accumulate(acc, w, c)
        return Element._wrap(self.reg, acc)

    __radd__ = __add__

    def __sub__(self, other) -> "Element":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Element":
        # the exact type first: Fraction's ABC instance check is slow
        if type(other) is not Element:
            if isinstance(other, (int, Poly, Fraction)):
                factor = as_poly(self.reg, other)
                return Element(self.reg, {w: c * factor for w, c in self.terms.items()})
            if not isinstance(other, Element):
                return NotImplemented
        if other.reg is not self.reg:
            raise ValueError("elements built over different registries")
        reg = self.reg
        consts = _constant_chain((self, other))
        if consts is not None:
            den, acc = consts
            return Element.from_numerators(reg, acc, den)
        if len(other.terms) == 1:
            ((w2, c2),) = other.terms.items()
            v = _constant(c2)
            if v is not None:
                # one constant word on the right: each left coefficient is
                # scaled, as the polynomial path would, with no monomial
                # products
                out = {}
                for w1, c1 in self.terms.items():
                    sign, w = merge_words(w1, w2)
                    if w is None:
                        continue
                    b = v if sign > 0 else -v
                    out[w] = Poly._wrap(reg, {m: a * b for m, a in c1.terms.items()})
                return Element._wrap(reg, out)
        # every surviving word pair adds its signed coefficient products
        # straight into one {word: {monomial: coefficient}} map; Polys are
        # built once at the end, and words whose terms all cancelled are
        # dropped
        acc: dict[Word, dict] = {}
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
        return Element._wrap(reg, {w: Poly._wrap(reg, t) for w, t in acc.items() if t})

    def __rmul__(self, other) -> "Element":
        if isinstance(other, (int, Poly, Fraction)):
            return self * other
        return NotImplemented

    def _coerce(self, other) -> "Element":
        if isinstance(other, Element):
            if other.reg is not self.reg:
                raise ValueError("elements built over different registries")
            return other
        if isinstance(other, (int, Poly, Fraction)):
            return Element.from_poly(as_poly(self.reg, other))
        raise TypeError(f"cannot combine Element with {type(other).__name__}")

    def support_ranks(self) -> set[int]:
        ranks: set[int] = set()
        for w in self.terms:
            ranks.update(w)
        return ranks

    def max_coeff_degree(self) -> int:
        if not self.terms:
            return -1
        return max(c.total_degree() for c in self.terms.values())

    def sorted_terms(self) -> list[tuple[Word, Poly]]:
        return sorted(self.terms.items(), key=lambda item: (len(item[0]), item[0]))

    def __str__(self) -> str:
        return render_element(self)

    def __repr__(self) -> str:
        return f"Element({render_element(self)})"


def render_element(e: Element) -> str:
    if e.is_zero:
        return "0"
    chunks = []
    for w, c in e.sorted_terms():
        coeff = str(c)
        if not w:
            body = f"({coeff})" if len(c.terms) > 1 else coeff
        else:
            gens = "*".join(e.reg.odd_label(r) for r in w)
            if c == Poly.const(e.reg, 1):
                body = gens
            elif c == Poly.const(e.reg, -1):
                body = f"-{gens}"
            elif len(c.terms) > 1:
                body = f"({coeff})*{gens}"
            else:
                body = f"{coeff}*{gens}"
        chunks.append(body)
    return " + ".join(chunks).replace("+ -", "- ")


def _validate_linear(terms: dict, what: str) -> None:
    for w in terms:
        if len(w) > 1:
            raise ValueError(f"{what} must have wedge degree <= 1")


def _validate_strictly_linear(e: Element, what: str) -> None:
    for w in e.terms:
        if len(w) != 1:
            raise ValueError(f"{what} must be homogeneous of wedge degree 1 (or zero)")


def grassmann_exp(pairs) -> Element:
    """Product of (1 + a_i ^ b_i) over pairs of degree-1 (or zero) elements.

    Each factor is the full exponential of its even nilpotent term: squares
    vanish because a ^ b ^ a ^ b = 0 for odd a, b.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("grassmann_exp needs at least one pair")
    reg = pairs[0][0].reg
    factors = []
    for k, (a, b) in enumerate(pairs):
        _validate_strictly_linear(a, f"grassmann_exp pair {k} left factor")
        _validate_strictly_linear(b, f"grassmann_exp pair {k} right factor")
        factors.append(Element.unit(reg) + a * b)
    return wedge_chain(factors)


def odd_gen(reg: FamilyRegistry, fam, i: int, dual: bool = False) -> Element:
    """Odd generator ``i`` (1-based) of ``fam``, primal or dual, as an element."""
    return Element.generator(reg, reg.odd_rank(fam, i, dual))


def odd_differences(reg: FamilyRegistry, heads, fam) -> list[Element]:
    """The degree-1 rows h_j - g_j over the primal generators g_j of ``fam``,
    j = 1 .. its arity, each built as one term map: h_j's terms, then g_j
    with coefficient -1.  ``heads`` gives h_j: the primal j of an odd family,
    the j-th of a list of degree-1 elements, or 0 when it is None."""
    fam = reg.odd_family(fam)
    minus = Poly.const(reg, -1)
    if heads is None:
        heads = [{}] * fam.arity
    elif isinstance(heads, list):
        heads = [e.terms for e in heads]
    else:
        one = Poly.const(reg, 1)
        heads = [{(r,): one} for r in reg.odd_family(heads).primal_ranks()]
    return [Element._wrap(reg, {**h, (g,): minus}) for h, g in zip(heads, fam.primal_ranks())]


def dual_full_product(reg: FamilyRegistry, fam) -> Element:
    """The full dual word of a family, duals ascending, coefficient +1."""
    fam = reg.odd_family(fam)
    return Element._wrap(reg, {tuple(fam.dual_ranks()): Poly.const(reg, 1)})


def top_contract(fam, e: Element) -> Element:
    """Full contraction over one family.

    Per term: the family's primal and dual index sets must coincide (else the
    term vanishes); matched pairs are extracted against the +1 anchor pairing,
    generators of other families survive with the crossing sign.
    """
    return contract_product(fam, e, Element.unit(e.reg))


def _family_parts(fam, terms: dict) -> list:
    """``(mask, offsets, rest, odd, c)`` per word of ``terms``: the bits
    r - base of its ranks r in ``fam``, as a mask and ascending, its other
    ranks, the parity o of moving the family's ranks to the front, and its
    coefficient."""
    lo, hi = fam.base, fam.base + 2 * fam.arity
    out = []
    for word, c in terms.items():
        mask = odd = 0
        offsets = []
        rest = []
        for r in word:
            if lo <= r < hi:
                mask |= 1 << (r - lo)
                offsets.append(r - lo)
                odd += len(rest)
            else:
                rest.append(r)
        out.append((mask, offsets, tuple(rest), odd & 1, c))
    return out


def contract_product(fam, a: Element, b: Element) -> Element:
    """``top_contract(fam, a * b)``, in the same word and monomial order,
    from the word pairs that survive the contraction only: those whose
    family bitmasks hold each index as primal and dual both.  A pair
    contracts to its rests R1 R2 with the parity o1 + o2 + |R1| |F2| + the
    crossings of F1 with F2 and of R1 with R2 + p(p+1)/2 (``_family_parts``;
    F the family parts, p the pairs).  Products sum per merged word, keyed
    (mask, rest), then into rest words; a single constant word on the right
    scales each left coefficient instead."""
    reg = a.reg
    if b.reg is not reg:
        raise ValueError("elements built over different registries")
    fam = reg.odd_family(fam)
    primal = (4**fam.arity - 1) // 3  # the even bits, each index's primal
    right = [(m, offs, r, o, c.terms.items()) for m, offs, r, o, c in _family_parts(fam, b.terms)]
    single = _constant(next(iter(b.terms.values()))) if len(right) == 1 else None
    acc: dict = {}
    for m1, _, r1, o1, c1 in _family_parts(fam, a.terms):
        n1 = len(r1)
        left = c1.terms.items()
        for m2, offsets2, r2, o2, terms2 in right:
            if m1 & m2:
                continue
            m = m1 | m2
            if m & primal != (m >> 1) & primal:
                continue
            sign, rest = merge_words(r1, r2)
            if rest is None:
                continue
            odd = o1 + o2 + (sign < 0)
            for y in offsets2:
                odd += n1 + (m1 >> y).bit_count()
            p = m.bit_count() >> 1
            odd = (odd + p * (p + 1) // 2) & 1
            if single is not None:
                # one left word per merged word: no sum to take
                v = -single if odd else single
                scaled = c1 if v == 1 else Poly._wrap(reg, {mono: x * v for mono, x in left})
                accumulate(acc, rest, scaled)
                continue
            out = acc.get((m, rest))
            if out is None:
                out = acc[m, rest] = {}
            for mono1, x in left:
                if odd:
                    x = -x
                for mono2, y in terms2:
                    accumulate(out, mono_mul(mono1, mono2), x * y)
    if single is not None:
        return Element._wrap(reg, acc)
    contracted: dict = {}
    for (_, rest), t in acc.items():
        if t:
            accumulate(contracted, rest, Poly._wrap(reg, t))
    return Element._wrap(reg, contracted)


def bot_contract(fam, e: Element) -> Element:
    """Partial contraction: trade family primals for family duals.

    Per term, with P the family's primal indices and D its dual indices: the
    term vanishes unless P is contained in D; otherwise each matched pair
    (primal i, dual i), adjacent in the word because their ranks are, is
    removed, and the coefficient picks up (-1)^(k(k-1)/2 + p) with k = |D|
    and p = |P|.  This is exactly the renaming-kernel contraction (the
    family wedged with the exponential pairing an auxiliary copy's primals
    with its duals, then the copy fully contracted).  Elements carrying no
    generators of the family pass through unchanged.
    """
    reg = e.reg
    return Element._wrap(reg, _bot_contract_terms(reg.odd_family(fam), e.terms))


def _bot_contract_terms(fam, terms: dict) -> dict:
    """``bot_contract`` over the family ``fam`` on a {word: coefficient}
    map whose coefficients negate and add: Polys, or the integer numerators
    of a constant element."""
    lo, hi = fam.base, fam.base + 2 * fam.arity
    acc: dict = {}
    for word, c in terms.items():
        rest = []
        k = p = 0
        i, n = 0, len(word)
        while i < n:
            r = word[i]
            if not lo <= r < hi:
                rest.append(r)
            elif (r - lo) & 1:
                k += 1
                rest.append(r)
            elif i + 1 < n and word[i + 1] == r + 1:
                k += 1
                p += 1
                i += 1
            else:
                break
            i += 1
        else:
            odd = (k * (k - 1) // 2 + p) & 1
            accumulate(acc, tuple(rest), -c if odd else c)
    return acc


def column(reg: FamilyRegistry, ranks, matrix, k) -> Element:
    """sum_i g_i * matrix[i][k] as a degree-1 element, g_i the odd generator
    of rank ``ranks[i]``; the ranks must be distinct."""
    terms = {}
    for rank, row in zip(ranks, matrix):
        c = as_poly(reg, row[k])
        if c:
            terms[(rank,)] = c
    return Element._wrap(reg, terms)


def _bordered_args(a, oddrow, rowfam, reg, what: str) -> tuple:
    """``(registry, row family, [{word: coefficient}, ...])`` of a bordered
    determinant's checked arguments, odd-row entries given as elements or raw
    maps; ``what`` names the caller in errors."""
    if not oddrow:
        raise ValueError(f"{what} needs at least one column")
    if reg is None:
        reg = oddrow[0].reg
    odd = [e if type(e) is dict else e.terms for e in oddrow]
    rowfam = reg.odd_family(rowfam)
    if len(a) != rowfam.arity:
        raise ValueError(f"matrix has {len(a)} rows, family arity is {rowfam.arity}")
    for row in a:
        if len(row) != len(odd):
            raise ValueError("matrix rows and odd row must have equal length")
    for k, t in enumerate(odd):
        _validate_linear(t, f"{what} odd entry {k}")
    return reg, rowfam, odd


def bordered_det(a, oddrow, rowfam, reg=None) -> Element:
    """Determinant of a scalar matrix bordered below by an odd row.

    ``a`` is an s x n matrix of Poly, int or Fraction entries, ``oddrow`` a
    list of n degree-<=1 elements, ``rowfam`` an odd family of arity s
    labelling the scalar rows.  An entry of ``oddrow`` may instead be a raw
    ``{word: int | Fraction}`` map, with no Poly built for its scalars; the
    registry ``reg`` must then be given.  Column k carries sum_i rowfam_i
    a[i][k] + oddrow[k]; the value is the partial contraction of the full
    rowfam dual word wedged with the ordered column product, so surviving
    terms trade rowfam duals against entries of ``oddrow``.  With constant
    entries throughout, the columns are read as integers over one common
    denominator, and their product (``wedge_chain``'s integer route) is
    contracted on those integers and wrapped once.  Otherwise the value is
    the Laplace expansion, ``bordered_minor_expansion``'s route.
    """
    reg, rowfam, odd = _bordered_args(a, oddrow, rowfam, reg, "bordered_det")
    n = len(odd)
    scalars = _integer_scalars(reg, a, odd)
    if scalars is None:
        sizes = range(min(rowfam.arity, n) + 1)
        return _minor_expansion(reg, a, odd, rowfam.dual_ranks(), sizes, None)
    # column k is oddrow[k] + sum_i rowfam_i a[i][k], every coefficient over
    # the one denominator d
    d, entries, odd = scalars
    rowranks = rowfam.primal_ranks()
    chain = [(1, [(tuple(rowfam.dual_ranks()), 1)])]
    for k in range(n):
        col = dict(odd[k])
        for rank, row in zip(rowranks, entries):
            if row[k]:
                accumulate(col, (rank,), row[k])
        chain.append((d, list(col.items())))
    den, acc = _integer_chain(chain)
    return Element.from_numerators(reg, _bot_contract_terms(rowfam, acc), den)


def _constant(p: Poly):
    """The value of a constant polynomial (0 when zero); None otherwise."""
    t = p.terms
    if not t:
        return 0
    return t.get(MONO_ONE) if len(t) == 1 else None


def _integer_scalars(reg: FamilyRegistry, entries, odd) -> tuple | None:
    """``(d, entries, odd)`` with each matrix entry and each odd-row
    coefficient x replaced by the integer d * x, d the lcm of all their
    denominators; None unless every one of them is a constant.  An ``int``
    or Fraction entry or coefficient is read as it is, with no Poly built
    for it, and its numerator and denominator are read once; when every
    one is an ``int``, d is 1 and ``entries`` and ``odd`` are returned as
    they are."""
    if all(type(x) is int for row in entries for x in row) and all(
        type(c) is int for t in odd for c in t.values()
    ):
        return 1, entries, odd
    d = 1
    vals = []
    for row in entries:
        vrow = []
        for x in row:
            v = x if type(x) is int or type(x) is Fraction else _constant(as_poly(reg, x))
            if v is None:
                return None
            v = v.as_integer_ratio()
            if d % v[1]:
                d = lcm(d, v[1])
            vrow.append(v)
        vals.append(vrow)
    oddvals = []
    for t in odd:
        vt = []
        for w, c in t.items():
            v = c if type(c) is int or type(c) is Fraction else _constant(c)
            if v is None:
                return None
            v = v.as_integer_ratio()
            if d % v[1]:
                d = lcm(d, v[1])
            vt.append((w, v))
        oddvals.append(vt)
    return (
        d,
        [[p * (d // q) for p, q in row] for row in vals],
        [{w: p * (d // q) for w, (p, q) in t} for t in oddvals],
    )


def scaled_to_integers(reg: FamilyRegistry, a, oddrow) -> tuple | None:
    """A bordered determinant's matrix and odd row with every matrix entry
    and odd-row coefficient x replaced by the integer d * x, d the lcm of
    all their denominators: ``(int matrix, [{word: int}, ...])``, the odd
    row as raw maps; None unless every one of them is a constant.

    ``bordered_det`` and ``bordered_minor_expansion`` are homogeneous of
    degree n in the n columns, so on these arguments each gives d^n times
    its value on the given ones, with integer coefficients.
    """
    scalars = _integer_scalars(reg, a, [e if type(e) is dict else e.terms for e in oddrow])
    return None if scalars is None else scalars[1:]


def _wedge_into(acc: dict, left: dict, right: dict) -> None:
    """Add the wedge product of two {word: scalar} maps into ``acc``."""
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            sign, w = merge_words(w1, w2)
            if w is not None:
                accumulate(acc, w, c1 * c2 if sign > 0 else -(c1 * c2))


# shapes whose row-set and column-set plans _minor_expansion keeps
PLAN_CACHE_SIZE = 128


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _row_plan(s: int, c: int) -> tuple:
    """Each c-set R of the rows 0 .. s-1 with its survivors (the rows outside
    R, ascending) and the bit (inv + u(u-1)/2) & 1, u the number of
    survivors and inv the number of (survivor, chosen) row pairs with the
    survivor first."""
    out = []
    for rows in itertools.combinations(range(s), c):
        survivors = tuple(u for u in range(s) if u not in rows)
        inv = sum(1 for u in survivors for v in rows if u < v)
        u = len(survivors)
        out.append((rows, survivors, (inv + u * (u - 1) // 2) & 1))
    return tuple(out)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _column_plan(n: int, c: int) -> tuple:
    """Each c-set of the columns 0 .. n-1 with its leftover columns, ascending."""
    return tuple(
        (cols, tuple(k for k in range(n) if k not in cols))
        for cols in itertools.combinations(range(n), c)
    )


def _minor_expansion(reg: FamilyRegistry, a, odd, duals, sizes, scalars) -> Element:
    """The Laplace parts of a bordered determinant whose column sets have a
    size in ``sizes``.

    ``a`` has s rows and n columns, ``odd`` the {word: coefficient} maps of
    n odd-row entries of wedge degree at most 1, and ``duals`` the dual
    ranks that label the rows (unread when only the size s, all rows, is
    asked for).  A set C of columns takes entries of ``a`` from a set R of
    rows of the same size c, the leftover columns L (ascending) take their
    odd-row entries, and the rows outside R (the survivors, u = s - c of
    them) leave their duals.  With inv the number of (survivor, chosen) row
    pairs with the survivor first, the part of C is

        (wedge_{l in L} e_l)
            ^ sum_R (-1)^(inv + u(u-1)/2) * det a[R, C] * (survivor duals, ascending)

    where det a[R, C] takes the rows of R against the ascending columns of
    C, and e_l is odd[l] with its degree-1 part signed by (-1)^(s + b),
    b the number of chosen columns before l.  For entries of pure degree 1
    these signs multiply to (-1)^(s*q + X), with q = |L| and X the number
    of (chosen, leftover) column pairs with the chosen column first.  Each
    minor is computed once, by expansion along the last column of C over
    the (c-1)-minors; the wedge of each leftover set is built once, on the
    wedge of its prefix; every part is summed into one map.

    ``scalars`` is the caller's ``_integer_scalars(reg, a, odd)``.  When it
    is not None, every entry of ``a`` and every coefficient of the odd row
    is a constant, and the expansion runs on the integers d * x, d the lcm
    of all their denominators.  A c-minor then carries d^c and a wedge of q
    odd entries d^q, so every part carries d^n, and each coefficient is
    built once at the end as its sum over d^n.  Otherwise it runs on the
    polynomials themselves.  No contraction machinery is involved.
    """
    s, n = len(a), len(odd)
    if scalars is None:
        # raw odd-row scalars only ever multiply Poly minors here
        entries = [[as_poly(reg, x) for x in row] for row in a]
        one = Poly(reg, {MONO_ONE: 1})
    else:
        den, entries, odd = scalars
        one = 1
    minors = {((), ()): one}
    # the empty wedge is the unit; it only ever marks the all-chosen part
    wedges = {(): {(): 1}}

    def minor(rows, cols):
        m = minors.get((rows, cols))
        if m is None:
            # moving row j to the bottom crosses the c - 1 - j rows below it
            m = 0
            last, sub = cols[-1], cols[:-1]
            for j, r in enumerate(rows):
                term = entries[r][last]
                if term and sub:
                    sm = minor(rows[:j] + rows[j + 1 :], sub)
                    term = term * sm if sm else 0
                if term:
                    if (len(rows) - 1 - j) & 1:
                        term = -term
                    m = m + term if m else term
            minors[rows, cols] = m
        return m

    def wedge(ks):
        w = wedges.get(ks)
        if w is None:
            # the last leftover column l has l - (len(ks) - 1) chosen ones
            # before it; its degree-1 part takes their sign and s's
            last = ks[-1]
            entry = odd[last]
            if (s + last - len(ks) + 1) & 1:
                entry = {word: -c if word else c for word, c in entry.items()}
            if len(ks) == 1:
                w = wedges[ks] = entry
            else:
                w = wedges[ks] = {}
                _wedge_into(w, wedge(ks[:-1]), entry)
        return w

    acc: dict = {}
    for csize in sizes:
        # each row set with its survivor duals and their sign bit; taking
        # every row leaves none, so no dual is read
        row_sets = [
            (rows, tuple(duals[i] for i in survivors), odd_sign)
            for rows, survivors, odd_sign in _row_plan(s, csize)
        ]
        for cols, rest in _column_plan(n, csize):
            left = wedge(rest)
            if not left:
                continue
            bracket = {}
            for rows, word, odd_sign in row_sets:
                m = minor(rows, cols)
                if m:
                    bracket[word] = -m if odd_sign else m
            if not rest:
                # no leftover columns: the wedge is the unit
                for word, m in bracket.items():
                    accumulate(acc, word, m)
            elif bracket.keys() == {()}:
                # no survivor duals: the part is the wedge times the minor
                m = bracket[()]
                for word, c in left.items():
                    accumulate(acc, word, c * m)
            else:
                _wedge_into(acc, left, bracket)
    # minor and wedge call themselves through their own cells: clearing the
    # cells frees the memo tables now, not at the next cyclic collection
    minor = wedge = None
    if scalars is None:
        return Element(reg, acc)
    return Element.from_numerators(reg, acc, den**n)


def bordered_minor_expansion(a, oddrow, rowfam, reg=None) -> Element:
    """The value of ``bordered_det``, by Laplace expansion.

    Sums the parts of ``_minor_expansion`` over column sets of every size,
    the rows labelled by ``rowfam``'s duals.  No contraction machinery is
    involved, which makes this a genuine cross-check on the
    partial-contraction evaluation.  The arguments are those of
    ``bordered_det``.
    """
    reg, rowfam, odd = _bordered_args(a, oddrow, rowfam, reg, "bordered_minor_expansion")
    sizes = range(min(rowfam.arity, len(odd)) + 1)
    scalars = _integer_scalars(reg, a, odd)
    return _minor_expansion(reg, a, odd, rowfam.dual_ranks(), sizes, scalars)


def transgression_det(blocks, ufam) -> Element:
    """Berezin determinant of difference columns through an auxiliary family.

    ``blocks`` is a list of (grad, oddrow) pairs: grad an n x t matrix of
    Poly, oddrow a list of t degree-<=1 elements; ``ufam`` the auxiliary
    family of arity n.  The value is the full contraction over ufam of
    det(-ufam duals) wedged with the product over all columns of
    (oddrow[j] - sum_k ufam_k grad[k][j]), taken in the given order.

    A term survives that contraction only when it holds all n primals of
    ufam, and the 2n ranks of ufam are contiguous, so their crossings are
    even and the value is the part of ``_minor_expansion`` that takes every
    row, over the blocks' columns side by side: the sum over the n-sets C
    of those columns of (-1)^(n*q + X) det grad[:, C] times the q leftover
    odd entries (ascending), X the number of (chosen, leftover) column
    pairs with the chosen column first (for entries of pure degree 1;
    ``_minor_expansion`` gives the sign of a degree-0 part).  It is zero
    when there are fewer than n columns.  The tests keep the product and
    its contraction as the oracle.
    """
    blocks = list(blocks)
    if not blocks:
        raise ValueError("transgression_det needs at least one block")
    reg = next((e.reg for _, oddrow in blocks for e in oddrow), None)
    if reg is None:
        raise ValueError("transgression_det needs at least one column")
    n = reg.odd_family(ufam).arity
    rows = [[] for _ in range(n)]
    odd = []
    for grad, oddrow in blocks:
        t = len(oddrow)
        if len(grad) != n:
            raise ValueError(f"gradient block has {len(grad)} rows, family arity is {n}")
        for row, grow in zip(rows, grad):
            if len(grow) != t:
                raise ValueError("gradient block and odd row must have equal width")
            row.extend(grow)
        for j in range(t):
            _validate_linear(oddrow[j].terms, f"transgression_det odd entry {j}")
        odd.extend(e.terms for e in oddrow)
    return _minor_expansion(reg, rows, odd, (), (n,), _integer_scalars(reg, rows, odd))
