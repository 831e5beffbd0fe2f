"""Groebner engine with cofactor tracking and quotient-ring linear algebra.

Everything downstream of a polynomial system funnels through here: a reduced
Groebner basis whose elements carry exact cofactor certificates over the
input system, the staircase basis of the quotient ring (finite exactly when
the system is zero dimensional), multiplication matrices in that basis as
sparse columns, and monic annihilators of each coordinate with their own
cofactor certificates.

All arithmetic is exact.  Division is heap division (Monagan and Pearce,
CASC 2007): the remainder is one dict updated in place, its monomials wait in
a heap keyed by the monomial order, and each step cancels the largest one
against the first divisor, in the basis's canonical sorted order, whose
leading monomial divides it.  It runs on integers: each divisor is scaled
once to a primitive integer polynomial, which the basis carries next to the
basis element, and the remainder is integer numerators over one running
denominator, so rationals are built only for the normal form and the
quotients.  Cofactors over the input system are summed on integer
numerators the same way.  Pair selection uses the sugar strategy with a
fixed tie break.  So every output is deterministic for a given input and
monomial order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from ._linalg import charpoly
from .ring import (
    FamilyRegistry,
    Mono,
    Poly,
    accumulate,
    cleared,
    mono_degree,
    mono_divide,
    mono_exponent,
    mono_lcm,
    mono_mul,
    ratio,
)


class NotZeroDimensional(ValueError):
    """The quotient ring is not a finite-dimensional vector space."""


def expvec(fam, mono: Mono) -> tuple:
    """The exponent vector of ``mono`` over the commuting family ``fam``."""
    vec = [0] * fam.arity
    for g, e in mono:
        vec[g - fam.base] = e
    return tuple(vec)


def order_key(order: str, fam):
    """Key function on monomials for the supported orders."""
    if order == "grevlex":
        def key(m: Mono):
            vec = expvec(fam, m)
            return (sum(vec), tuple(-e for e in reversed(vec)))
    elif order == "lex":
        def key(m: Mono):
            return expvec(fam, m)
    else:
        raise ValueError(f"unknown monomial order {order!r}")
    return key


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced basis with cofactors: basis[k] = sum_i source[i] * cofactors[k][i].

    ``leads[k]`` is the leading monomial of ``basis[k]`` in the order, and
    ``divisors[k]`` is ``basis[k]`` as division reads it (``_divisor``)."""

    reg: FamilyRegistry
    family: str
    order: str
    source: tuple
    basis: tuple
    cofactors: tuple
    leads: tuple
    divisors: tuple

    def key(self):
        return order_key(self.order, self.reg.comm_family(self.family))


@dataclass(frozen=True)
class QuotientBasis:
    """Standard monomials of the quotient ring, ascending in the order."""

    monomials: tuple

    def __len__(self) -> int:
        return len(self.monomials)


def _heap_key(k: tuple) -> tuple:
    """The order key with every entry negated and nesting flattened.

    Keys of one order all have the same shape, so the flat negated tuples
    sort in exactly the reverse order: a min-heap of them pops the largest
    monomial first.
    """
    out = []
    for x in k:
        if isinstance(x, tuple):
            out.extend(-e for e in x)
        else:
            out.append(-x)
    return tuple(out)


def _divisor(g: Poly, lead: Mono) -> tuple:
    """``g`` as ``_reduce`` divides by it: ``(lead, l, tail, lc)``.

    ``g`` is scaled to the primitive integer polynomial with a positive
    leading coefficient l; ``tail`` lists its other terms as (monomial,
    negated integer coefficient), and ``lc`` is the leading coefficient of
    ``g`` itself, which turns quotients by the scaled polynomial back into
    quotients by ``g``.
    """
    _, nums = cleared(g.terms)
    content = gcd(*nums.values())
    if nums[lead] < 0:
        content = -content
    tail = [(m, -(n // content)) for m, n in nums.items() if m != lead]
    return lead, nums[lead] // content, tail, g.terms[lead]


def _reduce(p: Poly, divisors, key, sugars=None, sugar=None):
    """Divide ``p`` by the list, returning (normal form, quotients, sugar).

    ``divisors`` are ``_divisor`` tuples.  Deterministic: at each step the
    order-largest monomial of the remainder is cancelled against the first
    divisor whose leading monomial divides it, or moved to the normal form
    when none does.

    Heap division: the remainder is one dict updated in place, and its
    monomials sit in a min-heap of negated order keys, each key computed
    once per call.  A monomial that cancels stays in the heap and is skipped
    when popped (lazy deletion).  The leading monomial strictly decreases,
    so each quotient term is set exactly once.

    The remainder is kept as integer numerators over one running
    denominator.  Cancelling a coefficient hc against a divisor with
    leading coefficient l multiplies the remainder by l / gcd(hc, l) when
    that is not 1, and subtracts an integer multiple of the divisor.  Each
    normal-form and quotient term keeps the denominator of its step, and
    its coefficient is built once, at the end, by the coefficient rule.
    """
    den, h = cleared(p.terms)
    heap_keys: dict[Mono, tuple] = {}

    def heap_entry(m: Mono):
        k = heap_keys.get(m)
        if k is None:
            k = heap_keys[m] = _heap_key(key(m))
        return k, m

    heap = [heap_entry(m) for m in h]
    heapq.heapify(heap)
    # {monomial: (numerator, denominator)} per quotient, and for the normal form
    quotients: list[dict] = [{} for _ in divisors]
    nf: dict[Mono, tuple] = {}
    track_sugar = sugars is not None and sugar is not None
    while heap:
        hm = heapq.heappop(heap)[1]
        hc = h.pop(hm, None)
        if hc is None:
            continue
        for idx, (gm, lead_num, tail, _) in enumerate(divisors):
            qmono = mono_divide(hm, gm)
            if qmono is not None:
                break
        else:
            nf[hm] = (hc, den)
            continue
        quotients[idx][qmono] = (hc, den)
        g = gcd(hc, lead_num)
        scale = lead_num // g
        if scale != 1:
            den *= scale
            for m in h:
                h[m] *= scale
        b = hc // g
        for m, nc in tail:
            pm = mono_mul(qmono, m)
            if pm not in h:
                heapq.heappush(heap, heap_entry(pm))
            accumulate(h, pm, b * nc)
        if track_sugar:
            sugar = max(sugar, mono_degree(qmono) + sugars[idx])
    reg = p.reg
    quots = []
    for q, (*_, lc) in zip(quotients, divisors):
        # each cancelled coefficient c / d over the divisor's leading coefficient
        a, b = lc.denominator, lc.numerator
        quots.append(Poly._wrap(reg, {m: ratio(c * a, d * b) for m, (c, d) in q.items()}))
    return Poly._wrap(reg, {m: ratio(n, d) for m, (n, d) in nf.items()}), quots, sugar


def _system_family(f, family=None):
    reg = f[0].reg
    names = set()
    for p in f:
        for g in p.support_gens():
            names.add(reg.comm_owner(g)[0])
    if len(names) > 1:
        raise ValueError(f"polynomials span several commuting families: {sorted(names)}")
    if names:
        return reg.comm_family(names.pop())
    if family is not None:
        return reg.comm_family(family)
    raise ValueError("constant system; pass the variable family explicitly")


def groebner(f, order: str = "grevlex", family=None) -> GroebnerBasis:
    """Reduced Groebner basis of (f) with exact cofactors over f.

    Buchberger's algorithm: sugar-strategy pair selection, the coprime
    criterion, and the chain criterion (a pair is dropped when a third
    leading monomial divides its lcm and both side pairs have already left
    the queue).  Basis elements are kept monic and finally interreduced and
    sorted by leading monomial, giving a canonical result for the order.
    """
    if not f:
        raise ValueError("need at least one polynomial")
    reg = f[0].reg
    fam = _system_family(f, family)
    key = order_key(order, fam)
    s = len(f)

    polys: list[Poly] = []
    cofs: list[list[Poly]] = []
    sugars: list[int] = []
    leads: list[Mono] = []
    divisors: list[tuple] = []

    def push(p: Poly, cof: list[Poly], sugar=None):
        lm = max(p.terms, key=key)
        inv = Fraction(1) / p.terms[lm]
        leads.append(lm)
        polys.append(p * inv)
        divisors.append(_divisor(polys[-1], lm))
        cofs.append([c * inv for c in cof])
        sugars.append(p.total_degree() if sugar is None else sugar)

    for i, p in enumerate(f):
        if p.is_zero:
            continue
        cof = [Poly.const(reg, 1 if k == i else 0) for k in range(s)]
        push(p, cof)

    # pending pairs, and a heap of their (sugar, key(lcm), i, j) ranks: a
    # pair leaves the set only when its rank is popped, and ranks are
    # unique, so the heap yields min(pending, key=rank) with each rank
    # computed once
    pending: set[tuple[int, int]] = set()
    queue: list[tuple] = []

    def add_pair(i, j):
        lcm = mono_lcm(leads[i], leads[j])
        ui = mono_divide(lcm, leads[i])
        uj = mono_divide(lcm, leads[j])
        sug = max(sugars[i] + mono_degree(ui), sugars[j] + mono_degree(uj))
        pending.add((i, j))
        heapq.heappush(queue, (sug, key(lcm), i, j))

    for j in range(len(polys)):
        for i in range(j):
            add_pair(i, j)

    while queue:
        _, _, i, j = heapq.heappop(queue)
        pending.discard((i, j))
        li, lj = leads[i], leads[j]
        lcm = mono_lcm(li, lj)
        if mono_mul(li, lj) == lcm:
            continue
        dropped = False
        for k in range(len(polys)):
            if k in (i, j):
                continue
            if mono_divide(lcm, leads[k]) is None:
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                dropped = True
                break
        if dropped:
            continue
        ui = mono_divide(lcm, li)
        uj = mono_divide(lcm, lj)
        ci = polys[i].terms[li]
        cj = polys[j].terms[lj]
        pi = Poly(reg, {ui: Fraction(1) / ci})
        pj = Poly(reg, {uj: Fraction(1) / cj})
        sp = pi * polys[i] - pj * polys[j]
        spcof = [pi * a - pj * b for a, b in zip(cofs[i], cofs[j])]
        sug = max(sugars[i] + mono_degree(ui), sugars[j] + mono_degree(uj))
        if sp.is_zero:
            continue
        nf, quots, sug = _reduce(sp, divisors, key, sugars, sug)
        for q, cof in zip(quots, cofs):
            if q.is_zero:
                continue
            spcof = [a - q * b for a, b in zip(spcof, cof)]
        if nf.is_zero:
            continue
        m = len(polys)
        push(nf, spcof, sug)
        for k in range(m):
            add_pair(k, m)

    # minimal: drop entries whose leading monomial another one divides
    keep = []
    for i in range(len(polys)):
        li = leads[i]
        redundant = False
        for j in range(len(polys)):
            if i == j:
                continue
            q = mono_divide(li, leads[j])
            if q is not None and (q != () or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(i)
    polys = [polys[i] for i in keep]
    cofs = [cofs[i] for i in keep]
    leads = [leads[i] for i in keep]
    divisors = [divisors[i] for i in keep]

    # interreduce tails against the rest: one pass suffices, since each
    # tail is reduced in full against leads that no pass changes
    for i in range(len(polys)):
        other_cofs = cofs[:i] + cofs[i + 1 :]
        nf, quots, _ = _reduce(polys[i], divisors[:i] + divisors[i + 1 :], key)
        if nf != polys[i]:
            cof = cofs[i]
            for q, oc in zip(quots, other_cofs):
                if q.is_zero:
                    continue
                cof = [a - q * b for a, b in zip(cof, oc)]
            polys[i] = nf
            cofs[i] = cof
            divisors[i] = _divisor(nf, leads[i])

    # interreduction keeps each leading monomial: no other lead divides it
    by_lead = sorted(range(len(polys)), key=lambda i: key(leads[i]))
    return GroebnerBasis(
        reg,
        fam.name,
        order,
        tuple(f),
        tuple(polys[i] for i in by_lead),
        tuple(tuple(cofs[i]) for i in by_lead),
        tuple(leads[i] for i in by_lead),
        tuple(divisors[i] for i in by_lead),
    )


def reduce_with_cofactors(p: Poly, gb: GroebnerBasis) -> tuple[Poly, list[Poly]]:
    """Normal form plus quotients: p = nf + sum_k basis[k] * cof[k]."""
    if p.is_zero:
        return p, [Poly.zero(p.reg) for _ in gb.basis]
    nf, quots, _ = _reduce(p, gb.divisors, gb.key())
    return nf, quots


def source_cofactors(gb: GroebnerBasis, quots) -> list[Poly]:
    """Convert basis quotients into cofactors over the original system.

    Each cofactor sum_k quots[k] * cofactors[k][i] is summed on integer
    numerators over one common denominator, and its coefficients are built
    once, at the end."""
    reg = gb.reg
    quot_nums = [cleared(q.terms) for q in quots]
    out = []
    for i in range(len(gb.source)):
        parts = []
        for (dq, nq), cof in zip(quot_nums, gb.cofactors):
            if nq and cof[i]:
                dc, nc = cleared(cof[i].terms)
                parts.append((dq * dc, nq, nc))
        den = lcm(*(d for d, _, _ in parts))
        acc: dict[Mono, int] = {}
        for d, nq, nc in parts:
            s = den // d
            for m1, a in nq.items():
                a *= s
                for m2, b in nc.items():
                    accumulate(acc, mono_mul(m1, m2), a * b)
        out.append(Poly._wrap(reg, {m: ratio(n, den) for m, n in acc.items()}))
    return out


def quotient_basis(gb: GroebnerBasis) -> QuotientBasis:
    """Standard monomials under the leading terms; raises when infinite."""
    reg = gb.reg
    fam = reg.comm_family(gb.family)
    key = gb.key()
    leads = gb.leads
    if any(m == () for m in leads):
        return QuotientBasis(())
    caps = []
    for g in fam.gens():
        cap = None
        for m in leads:
            if all(gg == g for gg, _ in m):
                e = mono_exponent(m, g)
                cap = e if cap is None else min(cap, e)
        if cap is None:
            raise NotZeroDimensional(
                f"no pure power of {reg.comm_label(g)} among the leading terms"
            )
        caps.append(cap)
    monos = []
    for exps in itertools.product(*[range(c) for c in caps]):
        m = tuple(
            (g, e) for g, e in zip(fam.gens(), exps) if e
        )
        if all(mono_divide(m, lm) is None for lm in leads):
            monos.append(m)
    monos.sort(key=key)
    return QuotientBasis(tuple(monos))


def mul_matrix(gb: GroebnerBasis, qb: QuotientBasis, j: int) -> tuple:
    """Multiplication by the j-th variable (1-based) on the quotient, as
    sparse columns: column c is {row: coefficient} of the normal form of x_j
    times the c-th standard monomial, with no zero stored."""
    reg = gb.reg
    fam = reg.comm_family(gb.family)
    g = reg.comm_gen(fam, j)
    index = {m: i for i, m in enumerate(qb.monomials)}
    cols = []
    for m in qb.monomials:
        shifted = mono_mul(m, ((g, 1),))
        if shifted in index:
            # a staircase monomial is its own normal form: a unit column
            cols.append({index[shifted]: 1})
            continue
        nf, _ = reduce_with_cofactors(Poly(reg, {shifted: 1}), gb)
        cols.append({index[mono]: c for mono, c in nf.terms.items()})
    return tuple(cols)


def charpoly_T(gb: GroebnerBasis, j: int, mat=None) -> tuple[Poly, list[Poly]]:
    """Monic annihilator T of the j-th coordinate plus cofactors over the source.

    T is the characteristic polynomial of the multiplication matrix, of
    degree the quotient dimension, so T(x_j) lies in the ideal; the returned
    list G satisfies T(x_j) = sum_i source[i] * G[i] exactly.  ``mat`` is
    that matrix's sparse columns when the caller already has them
    (``mul_matrix``).
    """
    reg = gb.reg
    fam = reg.comm_family(gb.family)
    if mat is None:
        mat = mul_matrix(gb, quotient_basis(gb), j)
    coeffs = charpoly(mat)
    g = reg.comm_gen(fam, j)
    T = Poly(reg, {(() if k == 0 else ((g, k),)): c for k, c in enumerate(coeffs)})
    nf, quots = reduce_with_cofactors(T, gb)
    if not nf.is_zero:
        raise AssertionError("annihilator does not reduce to zero")
    return T, source_cofactors(gb, quots)
