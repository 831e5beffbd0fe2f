"""``ProductFunctional.eval_mono`` and ``eval_poly``, the oracle of ``pair``'s
value of l.

They are the methods the package ran before ``pair_with_l`` went through the
moment route (``FunctionalElement.pair_poly`` with multiplier 1 on the empty
word): each monomial is evaluated on its own, one ``Functional1D.eval`` per
variable it holds and ``eval(0)`` for every variable it lacks, and the values
multiply.  Every factor is evaluated, a zero one included.  The package
itself needs none of it.
"""

from __future__ import annotations

from fractions import Fraction

from koszulkit.ring import rational


def eval_mono(l, mono) -> int | Fraction:
    """l(x^mono) for the ``ProductFunctional`` l; ValueError for a generator
    outside l's family."""
    val = 1
    seen = set()
    for g, e in mono:
        j = l._coord.get(g)
        if j is None:
            raise ValueError("monomial leaves the paired family")
        val *= l.funcs[j].eval(e)
        seen.add(j)
    for j, f in enumerate(l.funcs):
        if j not in seen:
            val *= f.eval(0)
    return rational(val)


def eval_poly(l, p) -> int | Fraction:
    """l(p), one ``eval_mono`` per term of p."""
    return rational(sum(c * eval_mono(l, m) for m, c in p.terms.items()))
