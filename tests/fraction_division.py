"""Heap division on ``Fraction`` coefficients, the oracle of
``quotient._reduce``'s integer-numerator route.

It is the division the package ran before that route: the same heap, the
same choice of monomial and divisor at every step, with every coefficient a
rational and each quotient coefficient one exact division.  The package
itself needs none of it.
"""

import heapq
from fractions import Fraction

from koszulkit.quotient import _heap_key
from koszulkit.ring import Mono, Poly, accumulate, mono_degree, mono_divide, mono_mul


def fraction_reduce(p: Poly, polys, leads, key, sugars=None, sugar=None):
    """Divide ``p`` by the list, returning (normal form, quotients, sugar).

    ``leads[k]`` is the leading monomial of ``polys[k]``; at each step the
    order-largest monomial of the remainder is cancelled against the first
    entry of ``polys`` whose leading monomial divides it, or moved to the
    normal form when none does.
    """
    h = dict(p.terms)
    heap_keys: dict[Mono, tuple] = {}

    def heap_entry(m: Mono):
        k = heap_keys.get(m)
        if k is None:
            k = heap_keys[m] = _heap_key(key(m))
        return k, m

    heap = [heap_entry(m) for m in h]
    heapq.heapify(heap)
    divisors = [
        (gm, g.terms[gm], [(m, -c) for m, c in g.terms.items() if m != gm])
        for g, gm in zip(polys, leads)
    ]
    quotients: list[dict] = [{} for _ in polys]
    nf: dict[Mono, Fraction] = {}
    track_sugar = sugars is not None and sugar is not None
    while heap:
        hm = heapq.heappop(heap)[1]
        hc = h.pop(hm, None)
        if hc is None:
            continue
        for idx, (gm, gc, tail) in enumerate(divisors):
            qmono = mono_divide(hm, gm)
            if qmono is not None:
                break
        else:
            nf[hm] = hc
            continue
        # exact even when both coefficients are int
        qc = Fraction(hc) / gc
        quotients[idx][qmono] = qc
        for m, nc in tail:
            pm = mono_mul(qmono, m)
            if pm not in h:
                heapq.heappush(heap, heap_entry(pm))
            accumulate(h, pm, qc * nc)
        if track_sugar:
            sugar = max(sugar, mono_degree(qmono) + sugars[idx])
    reg = p.reg
    return Poly(reg, nf), [Poly(reg, q) for q in quotients], sugar
