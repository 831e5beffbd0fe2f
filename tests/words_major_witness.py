"""The words-major homotopy-witness search, the oracle of
``koszul.homotopy_witness``'s search by ascending coefficient degree.

It is the search the package ran before that order: the same candidate
words and monomials, the same bound and column limit, taken words major and
monomials minor, so a witness that needs a later word first walks every
monomial of the earlier words up to the bound.  Both searches hold the same
candidates, so they find a witness for the same differences; the package's
has the least coefficient degree of any within the bound, which this one's
need not.  The package itself needs none of it.
"""

import itertools
import math
from collections.abc import Sequence

from koszulkit._linalg import solve
from koszulkit.grassmann import Element
from koszulkit.koszul import WITNESS_COLUMN_LIMIT, NotCocycleError, _element_boundary
from koszulkit.ring import Poly, mono_mul


def monomials_upto(gens, bound):
    """All monomials in ``gens`` of total degree <= bound, ascending degree."""
    gens = sorted(gens)
    out = [()]
    layer = [()]
    for _ in range(bound):
        nxt = []
        for mono in layer:
            for g in gens:
                if mono and g < mono[-1][0]:
                    continue
                if mono and g == mono[-1][0]:
                    grown = mono[:-1] + ((g, mono[-1][1] + 1),)
                else:
                    grown = mono + ((g, 1),)
                nxt.append(grown)
        layer = nxt
        out.extend(layer)
    return out


class WordsMajorColumns(Sequence):
    """The candidate columns, built on demand, words major.

    Column ``k * len(monos) + i`` is the sparse boundary of monos[i] *
    words[k], keyed by the row numbers of ``rows``, {(word, mono): row} in
    order of first use; a word's boundary is computed once and shifted by
    each monomial.
    """

    def __init__(self, ba, reg, words, monos):
        self.ba, self.reg, self.words, self.monos = ba, reg, words, monos
        self.rows: dict[tuple, int] = {}
        self._pieces: dict[int, list] = {}
        self._shifts: dict[tuple, list] = {}

    def __len__(self):
        return len(self.words) * len(self.monos)

    def __getitem__(self, j):
        if not 0 <= j < len(self):
            raise IndexError(j)
        k, i = divmod(j, len(self.monos))
        pieces = self._pieces.get(k)
        if pieces is None:
            word = Element(self.reg, {self.words[k]: Poly.const(self.reg, 1)})
            img = _element_boundary(self.ba, word, frozenset())
            pieces = self._pieces[k] = [
                (word, mono, self._shifts.setdefault(mono, []), c)
                for word, poly in img.terms.items()
                for mono, c in poly.terms.items()
            ]
        monos, rows = self.monos, self.rows
        col = {}
        for word, mono, shifts, c in pieces:
            while len(shifts) <= i:
                shifts.append(mono_mul(monos[len(shifts)], mono))
            col[rows.setdefault((word, shifts[i]), len(rows))] = c
        return col


def words_major_witness(lhs, rhs, ba, degree_bound=None):
    """w with boundary(w) = lhs - rhs from the words-major search; None when not found."""
    reg = lhs.reg
    if rhs.reg is not reg:
        raise ValueError("elements built over different registries")
    diff = lhs - rhs
    if diff.is_zero:
        return Element.zero(reg)
    if not _element_boundary(ba, diff, frozenset()).is_zero:
        raise NotCocycleError("difference is not closed; no witness can exist")
    if degree_bound is None:
        degree_bound = max(lhs.max_coeff_degree(), rhs.max_coeff_degree(), 0) + 4
    fam_names = sorted({reg.rank_info(r)[0] for r in diff.support_ranks()} | set(ba.images))
    prim_ranks = []
    gens = set()
    for name in fam_names:
        if not ba.assigned(name):
            continue
        fam = reg.odd_family(name)
        prim_ranks.extend(fam.primal_ranks())
        for p in ba.images[name]:
            gens |= p.support_gens()
    for c in diff.terms.values():
        gens |= c.support_gens()
    degrees = {len(w) + 1 for w in diff.terms}
    words = [w for k in sorted(degrees) for w in itertools.combinations(sorted(prim_ranks), k)]
    if not words:
        return None
    count = len(words) * math.comb(degree_bound + len(gens), len(gens))
    if count > WITNESS_COLUMN_LIMIT:
        raise ValueError(
            f"witness search at degree bound {degree_bound} has {count} candidates, "
            f"more than {WITNESS_COLUMN_LIMIT}"
        )
    monos = monomials_upto(gens, degree_bound)
    columns = WordsMajorColumns(ba, reg, words, monos)
    rows = columns.rows
    target = {
        rows.setdefault((word, mono), len(rows)): c
        for word, poly in diff.terms.items()
        for mono, c in poly.terms.items()
    }
    sol = solve(columns, target)
    if sol is None:
        return None
    terms: dict[tuple, dict] = {}
    for j, coeff in enumerate(sol):
        if coeff:
            k, i = divmod(j, len(monos))
            terms.setdefault(words[k], {})[monos[i]] = coeff
    w = Element(reg, {word: Poly(reg, cs) for word, cs in terms.items()})
    if _element_boundary(ba, w, frozenset()) != diff:
        raise AssertionError("witness failed re-verification")
    return w
