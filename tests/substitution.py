"""Polynomial substitution, the ring homomorphism that tests build inputs
and state identities with (such as F(x) - F(y) for the divided
differences).  The package renames variables without it.
"""

from koszulkit.ring import Poly


def subst(p: Poly, images: dict) -> Poly:
    """Substitute polynomials for generators: ``images`` maps global
    commuting indices to replacement polynomials; unmapped generators are
    left alone."""
    reg = p.reg
    out = Poly.zero(reg)
    for m, c in p.terms.items():
        term = Poly.const(reg, c)
        for g, e in m:
            img = images.get(g)
            if img is None:
                img = Poly.variable(reg, g)
            term = term * img**e
        out = out + term
    return out
