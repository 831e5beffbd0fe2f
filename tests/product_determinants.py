"""Bordered determinants by multiplying out the columns and contracting, the
oracle of ``bordered_det``'s Laplace route on polynomial entries and of the
dual element e = det G * l for more equations than variables.

``product_bordered_det`` is the ``bordered_det`` the package ran before
either of its integer or Laplace routes: the full dual word of the row
family times each column in order, one ``Element.__mul__`` per column, then
``bot_contract`` of the element.  ``kernel_det_g`` and ``direct_det_g`` are
the two forms of det G that ``dual_element`` once computed side by side and
compared at run time.  The package itself needs none of it.
"""

from koszulkit.grassmann import (
    Element,
    bot_contract,
    column,
    dual_full_product,
    odd_differences,
)


def product_bordered_det(a, oddrow, rowfam) -> Element:
    """The full dual word of ``rowfam`` times each column
    oddrow[k] + sum_i rowfam_i a[i][k] in order, one ``Element.__mul__`` per
    column, then ``bot_contract`` of the element."""
    reg = oddrow[0].reg
    rowfam = reg.odd_family(rowfam)
    product = dual_full_product(reg, rowfam)
    for k in range(len(oddrow)):
        product = product * (oddrow[k] + column(reg, rowfam.primal_ranks(), a, k))
    return bot_contract(rowfam, product)


def _oriented(comps: dict, s: int, n: int) -> dict:
    """The multipliers of e, each word of its k = s - n leftover duals
    reversed: the sign (-1)^(k(k-1)/2)."""
    k = s - n
    if k > 1 and k * (k - 1) // 2 % 2:
        return {w: -m for w, m in comps.items()}
    return comps


def kernel_det_g(Gmat, l) -> dict:
    """e's multipliers by the kernel route: G bordered below by -Fx, the
    product route's terms that hold no rank of Fx, oriented."""
    reg = l.reg
    Fx = reg.odd_family("Fx")
    det = product_bordered_det(Gmat, odd_differences(reg, None, Fx), "fx")
    free = {w: c for w, c in det.terms.items() if not any(Fx.owns_rank(r) for r in w)}
    return _oriented(free, len(Gmat), len(l.funcs))


def direct_det_g(Gmat, l) -> dict:
    """e's multipliers as the product route's determinant of G under a zero
    odd row, oriented."""
    reg = l.reg
    det = product_bordered_det(Gmat, [Element.zero(reg)] * len(l.funcs), "fx")
    return _oriented(dict(det.terms), len(Gmat), len(l.funcs))
