"""Boundary operators, chain maps, and machine checks for the core identities.

The complex over a registry has two kinds of differential.  On primal-role
families the boundary acts as the odd derivation sending each generator to its
assigned polynomial.  On dual-role families it acts by left multiplication
with minus the sum of assigned polynomials times the matching dual
generators.  A :class:`ComplexElement` records which families play the dual
role; the two parts anticommute and square to zero, so their sum is a
differential.

On top of the boundary sit the verifiers: closure of the two chain-map
kernels, the four complex morphisms between the unit and determinant
realizations, the renaming identities for the contraction lemmas, the
two-sided transgression identities, and a homotopy-witness search that
decides whether two cocycles differ by a boundary within a degree bound.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field

from ._linalg import solve
from .grassmann import (
    Element,
    bordered_det,
    bordered_minor_expansion,
    bot_contract,
    column,
    contract_product,
    dual_full_product,
    grassmann_exp,
    odd_differences,
    odd_gen,
    render_element,
    scaled_to_integers,
    sort_word,
    top_contract,
    transgression_det,
    wedge_chain,
)
from .ring import (
    PRIMAL,
    FamilyRegistry,
    Poly,
    accumulate,
    as_poly,
    divided_diff,
    mono_mul,
)


class UnassignedFamilyError(ValueError):
    """An element mentions an odd family the assignment does not cover."""


class DomainError(ValueError):
    """A chain map received an element outside its stated domain."""


class NotCocycleError(ValueError):
    """A homotopy witness was requested for a non-closed difference."""


@dataclass(frozen=True)
class BoundaryAssignment:
    """Images of odd families: family name -> one polynomial per index."""

    reg: FamilyRegistry
    images: dict
    # dual-family set -> the image tables of _boundary_tables, and family
    # name -> its images as term rows, built on first use; not part of
    # equality or repr
    _tables: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _rows: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        clean = {}
        for name, polys in self.images.items():
            fam = self.reg.odd_family(name)
            polys = tuple(as_poly(self.reg, p) for p in polys)
            if len(polys) != fam.arity:
                raise ValueError(
                    f"family {fam.name!r} has arity {fam.arity}, got {len(polys)} images"
                )
            for p in polys:
                if p.reg is not self.reg:
                    raise ValueError("assignment images built over a different registry")
            clean[fam.name] = polys
        object.__setattr__(self, "images", clean)

    def assigned(self, name: str) -> bool:
        return name in self.images

    def restricted(self, names) -> "BoundaryAssignment":
        """The assignment of the named families alone, sharing the term rows
        of their images with this one."""
        ba = BoundaryAssignment(self.reg, {name: self.images[name] for name in names})
        object.__setattr__(ba, "_rows", self._rows)
        return ba


@dataclass(frozen=True)
class ComplexElement:
    """An element together with the set of families acting in the dual role."""

    element: Element
    dual_families: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "dual_families", frozenset(self.dual_families))


@dataclass
class IdentityReport:
    """Outcome of one verified identity.

    ``status`` is one of ``equal``, ``homotopic`` (then ``witness`` holds the
    preimage), ``failed`` (then ``detail`` describes the difference), or
    ``not_found`` (no witness within the degree bound; honest, not an error).
    """

    name: str
    instance: str
    status: str
    witness: Element | None = None
    detail: str | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("equal", "homotopic")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "instance": self.instance,
            "status": self.status,
            "witness": None if self.witness is None else render_element(self.witness),
            "detail": self.detail,
        }


def verdict(name: str, instance: str, ok: bool, detail) -> IdentityReport:
    """An ``equal`` report when ``ok``, else a ``failed`` one whose detail is
    ``detail()``; the callable defers rendering to the failing case."""
    if ok:
        return IdentityReport(name, instance, "equal")
    return IdentityReport(name, instance, "failed", detail=detail())


def sides_verdict(name: str, instance: str, lhs: Element, rhs: Element) -> IdentityReport:
    """Verdict on lhs == rhs, showing both sides on failure."""
    return verdict(
        name,
        instance,
        lhs == rhs,
        lambda: f"lhs {render_element(lhs)}; rhs {render_element(rhs)}",
    )


def infer_dual_families(e: Element) -> frozenset:
    """Families whose dual generators occur in ``e`` (the default tagging)."""
    reg = e.reg
    names = set()
    for rank in e.support_ranks():
        name, _, pol = reg.rank_info(rank)
        if pol != PRIMAL:
            names.add(name)
    return frozenset(names)


def _boundary_tables(ba: BoundaryAssignment, dual_families) -> tuple[dict, list]:
    """``({rank: (terms, negated)}, [(rank, terms, negated)])``: each nonzero
    image as its term list and its negated term list, at the primal ranks
    of the families outside ``dual_families`` and at the dual ranks of
    those in it (families by name, indices ascending); built once per
    family set and cached on ``ba``, from term rows built once per family
    (and shared with ``restricted`` assignments)."""
    key = frozenset(dual_families)
    tables = ba._tables.get(key)
    if tables is None:
        images: dict = {}
        duals: list = []
        for name in sorted(ba.images):
            fam = ba.reg.odd_family(name)
            ranks = fam.dual_ranks() if name in key else fam.primal_ranks()
            rows = ba._rows.get(name)
            if rows is None:
                rows = ba._rows[name] = [
                    (list(p.terms.items()), [(m, -c) for m, c in p.terms.items()]) if p else None
                    for p in ba.images[name]
                ]
            for rank, row in zip(ranks, rows):
                if row is not None:
                    if name in key:
                        duals.append((rank, *row))
                    else:
                        images[rank] = row
        tables = ba._tables[key] = (images, duals)
    return tables


def _add_terms(acc: dict, w, t: dict) -> None:
    """``accumulate`` for {word: {monomial: coefficient}} maps: a new word
    stores ``t`` itself unless it is empty; a word already there sums ``t``
    into its map, and drops when that cancels."""
    old = acc.get(w)
    if old is None:
        if t:
            acc[w] = t
        return
    for m, v in t.items():
        accumulate(old, m, v)
    if not old:
        del acc[w]


def _element_boundary(ba: BoundaryAssignment, elem: Element, dual_families) -> Element:
    """The boundary in one pass over the terms of ``elem``, into one
    {word: {monomial: coefficient}} map, each Poly built once: the
    derivation pieces c * image in the order of the words and their
    positions, then the dual multiplier times ``elem``, duals major, each
    summed as the Poly and Element sums it replaces would sum them."""
    reg = elem.reg
    if ba.reg is not reg:
        raise ValueError("assignment built over a different registry")
    infos = [reg.rank_info(r) for r in elem.support_ranks()]
    present = {name for name, _, _ in infos}
    for name in present | set(dual_families):
        if not ba.assigned(name):
            raise UnassignedFamilyError(f"odd family {name!r} has no assigned image")
    with_primals = {name for name, _, pol in infos if pol == PRIMAL}
    for name in dual_families:
        if name in with_primals:
            raise ValueError(f"dual-role family {name!r} carries primal generators")
    # a dual rank, a dual-role family's rank and a zero image give no
    # piece: none of them is in the table
    images, duals = _boundary_tables(ba, dual_families)
    acc: dict[tuple, dict] = {}
    for word, c in elem.terms.items():
        left = c.terms.items()
        for pos, rank in enumerate(word):
            row = images.get(rank)
            if row is None:
                continue
            piece: dict = {}
            for m1, a in left:
                for m2, b in row[pos & 1]:
                    accumulate(piece, mono_mul(m1, m2), a * b)
            _add_terms(acc, word[:pos] + word[pos + 1 :], piece)
    if duals:
        # the dual d crosses the i ranks of a word below it; with the
        # multiplier's minus sign, the image keeps its sign when i is odd
        prod: dict[tuple, dict] = {}
        right = [(w, c.terms.items()) for w, c in elem.terms.items()]
        for d, terms, negated in duals:
            for w2, terms2 in right:
                i = bisect_left(w2, d)
                if i < len(w2) and w2[i] == d:
                    continue
                out = prod.setdefault(w2[:i] + (d,) + w2[i:], {})
                for m1, a in terms if i & 1 else negated:
                    for m2, b in terms2:
                        accumulate(out, mono_mul(m1, m2), a * b)
        for w, t in prod.items():
            _add_terms(acc, w, t)
    return Element._wrap(reg, {w: Poly._wrap(reg, t) for w, t in acc.items()})


def boundary(ba: BoundaryAssignment, e):
    """Apply the boundary; the result has the same shape as the input.

    Accepts a ComplexElement (explicit dual-role tags) or a bare Element
    (tags inferred as the families whose duals occur); a functional element
    of the dual_element module takes its boundary by its own method.
    """
    if isinstance(e, ComplexElement):
        return ComplexElement(
            _element_boundary(ba, e.element, e.dual_families), e.dual_families
        )
    if isinstance(e, Element):
        return _element_boundary(ba, e, infer_dual_families(e))
    raise TypeError(f"cannot take the boundary of {type(e).__name__}")


# ---------------------------------------------------------------------------
# chain-map kernels and the four morphisms


def theorem1_kernels(reg, ffam, fpfam, Fpfam) -> tuple[ComplexElement, ComplexElement]:
    """The two closed kernels: det of the primed duals times the exponential
    pairing, and the exponential pairing alone."""
    ffam = reg.odd_family(ffam)
    fpfam = reg.odd_family(fpfam)
    Fpfam = reg.odd_family(Fpfam)
    if ffam.arity != fpfam.arity:
        raise ValueError("paired families must have equal arity")
    pairs = [
        (odd_gen(reg, ffam, i), odd_gen(reg, fpfam, i, dual=True))
        for i in range(1, ffam.arity + 1)
    ]
    pairing = grassmann_exp(pairs)
    k1 = dual_full_product(reg, Fpfam) * pairing
    return (
        ComplexElement(k1, frozenset({fpfam.name, Fpfam.name})),
        ComplexElement(pairing, frozenset({fpfam.name})),
    )


def theorem1_map(kind: str, e: ComplexElement, Ffam) -> ComplexElement:
    """One of the four complex morphisms, keyed by the family it adjoins or
    removes.  Wrong-side inputs raise DomainError; the kernels multiply on the
    right of the argument, the order under which all four maps commute with
    the boundary."""
    if not isinstance(e, ComplexElement):
        raise TypeError("theorem1_map acts on ComplexElement values")
    elem = e.element
    reg = elem.reg
    fam = reg.odd_family(Ffam)
    name = fam.name
    carries = any(fam.owns_rank(r) for r in elem.support_ranks())
    if kind == "mult_dual_det":
        if e.dual_families:
            raise DomainError("mult_dual_det expects a primal-side element")
        out = contract_product(fam, elem, dual_full_product(reg, fam))
        return ComplexElement(out, frozenset())
    if kind == "embed_unit":
        if e.dual_families:
            raise DomainError("embed_unit expects a primal-side element")
        if carries:
            raise DomainError(f"embed_unit source may not mention {name!r}")
        return e
    if kind == "project_dual_det":
        if not e.dual_families:
            raise DomainError("project_dual_det expects a dual-side element")
        if name in e.dual_families or carries:
            raise DomainError(f"project_dual_det source may not mention {name!r}")
        out = elem * dual_full_product(reg, fam)
        return ComplexElement(out, e.dual_families | {name})
    if kind == "project_unit":
        if name not in e.dual_families:
            raise DomainError(f"project_unit needs {name!r} in the dual role")
        kept = {
            w: c
            for w, c in elem.terms.items()
            if not any(fam.owns_rank(r) for r in w)
        }
        return ComplexElement(Element._wrap(reg, kept), e.dual_families - {name})
    raise ValueError(f"unknown map kind {kind!r}")


# ---------------------------------------------------------------------------
# transport between registries


def transport(p: Poly, dst: FamilyRegistry, gmap: dict) -> Poly:
    """Rebuild ``p`` over ``dst``, renaming commuting generators via ``gmap``.

    A renaming that keeps the generators' order, as ``_family_gmap``'s
    always does, keeps every monomial sorted; any other is sorted again.
    """
    gens = sorted(gmap)
    keeps_order = all(gmap[g] < gmap[h] for g, h in zip(gens, gens[1:]))
    terms = {}
    for mono, c in p.terms.items():
        new = [(gmap[g], exp) for g, exp in mono]
        terms[tuple(new if keeps_order else sorted(new))] = c
    return Poly._wrap(dst, terms)


def _family_gmap(src: FamilyRegistry, dst: FamilyRegistry, fam) -> dict:
    fam = dst.comm_family(fam)
    if src.num_comm != fam.arity:
        raise ValueError("variable counts differ")
    return {g: fam.base + g for g in range(src.num_comm)}


def lift(polys, dst: FamilyRegistry, fam) -> list[Poly]:
    """Rebuild polynomials over ``dst``, their variables renamed onto the
    commuting family ``fam``.

    Constants become constant polynomials and polynomials already over
    ``dst`` pass through unchanged.
    """
    out = []
    gmap = None
    for p in polys:
        if not isinstance(p, Poly):
            out.append(Poly.const(dst, p))
        elif p.reg is dst:
            out.append(p)
        else:
            if gmap is None:
                gmap = _family_gmap(p.reg, dst, fam)
            out.append(transport(p, dst, gmap))
    return out


# ---------------------------------------------------------------------------
# lemma verifiers


def verify_lemma1(a, b, instance: str = "") -> IdentityReport:
    """The contraction route and the minor-expansion route agree.

    The bordered determinant wedges the full dual word against the column
    product and partially contracts; the minor expansion recomputes the value
    with no contractions at all.  With constant entries throughout, the
    entries are scaled to integers once (``scaled_to_integers``) and both
    routes run on those integers: each gives d^n times its value, so they
    agree exactly when they agree on the given entries, and their
    coefficients are integers.  A failure renders both routes' values on
    the given entries.
    """
    s, t = len(a), len(b)
    n = len(a[0]) if s else len(b[0])
    reg = FamilyRegistry()
    f = reg.odd("f", s)
    granks = reg.odd("g", t).primal_ranks() if t else []
    # column k of b against the g primals, its scalars read as they are
    oddrow = [{(r,): row[k] for r, row in zip(granks, b) if row[k]} for k in range(n)]
    scaled = scaled_to_integers(reg, a, oddrow)
    args = (a, oddrow) if scaled is None else scaled
    contraction = bordered_det(*args, f, reg)
    expansion = bordered_minor_expansion(*args, f, reg)
    return verdict(
        "lemma1",
        instance,
        contraction == expansion,
        lambda: f"contraction {render_element(bordered_det(a, oddrow, f, reg))}; "
        f"expansion {render_element(bordered_minor_expansion(a, oddrow, f, reg))}",
    )


def verify_lemma2(b, instance: str = "") -> tuple[IdentityReport, IdentityReport]:
    """Partial contraction gives the exponential; full contraction gives 1.

    ``b`` is a t x s scalar matrix; the contracted product has columns
    f_i - sum_j g_j b[j][i].
    """
    t = len(b)
    s = len(b[0]) if t else 0
    reg = FamilyRegistry()
    f = reg.odd("f", s)
    g = reg.odd("g", t) if t else None
    granks = g.primal_ranks() if t else []
    images = [column(reg, granks, b, i) for i in range(s)]
    product = wedge_chain(
        [dual_full_product(reg, f)]
        + [odd_gen(reg, f, i + 1) - gpart for i, gpart in enumerate(images)]
    )
    lhs1 = bot_contract(f, product)
    rhs1 = Element.unit(reg)
    if s:
        pairs = [
            (images[i], odd_gen(reg, f, i + 1, dual=True))
            for i in range(s)
        ]
        live = [(u, v) for u, v in pairs if not u.is_zero]
        rhs1 = grassmann_exp(live) if live else Element.unit(reg)
    lhs2 = top_contract(f, product)
    return (
        sides_verdict("lemma2.1", instance, lhs1, rhs1),
        verdict(
            "lemma2.2",
            instance,
            lhs2 == Element.unit(reg),
            lambda: f"lhs {render_element(lhs2)}",
        ),
    )


def verify_lemma3(f, instance: str = "") -> IdentityReport:
    """The full dual word of the system family is a cocycle."""
    if not f:
        raise ValueError("need at least one polynomial")
    n = f[0].reg.num_comm
    s = len(f)
    reg = FamilyRegistry()
    reg.commuting("x", n)
    fx = reg.odd("fx", s)
    ba = BoundaryAssignment(reg, {"fx": lift(f, reg, "x")})
    e = ComplexElement(dual_full_product(reg, fx), frozenset({"fx"}))
    out = boundary(ba, e).element
    return verdict("lemma3", instance, out.is_zero, lambda: f"boundary {render_element(out)}")


# ---------------------------------------------------------------------------
# the suites' random draws


def below(rng, n: int) -> int:
    """A draw from [0, n), taken from ``rng``'s stream exactly as
    ``random.Random`` takes one for ``randrange(n)``, ``choice`` of n items
    or ``randint(a, a + n - 1) - a``: n.bit_length() bits from the public
    ``getrandbits``, drawn again while they read n or more.  The value and
    the generator state after it are the same, and the suites' instances
    are defined on this stream."""
    if n <= 0:
        # a rejection loop would never end
        raise ValueError(f"empty range [0, {n})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _sample(rng, population, k) -> list:
    """``rng.sample(population, k)``.  On a population of at most 21 the
    stdlib keeps the unpicked items in a pool, whatever k; this repeats it
    draw for draw through ``below``, and calls the stdlib on larger ones
    and to refuse a k outside [0, n]."""
    n = len(population)
    if n > 21 or not 0 <= k <= n:
        return rng.sample(population, k)
    pool = list(population)
    out = []
    for i in range(k):
        j = below(rng, n - i)
        out.append(pool[j])
        pool[j] = pool[n - i - 1]
    return out


def _random_words(rng, reg, ranks, gens, terms=3, deg=2) -> Element:
    """1 to ``terms`` random words of at most three of ``ranks``, each with a
    coefficient in [-3, 3] times 0 to ``deg`` random ``gens``, summed in one
    map."""
    acc: dict = {}
    for _ in range(1 + below(rng, terms)):
        sign, word = sort_word(_sample(rng, ranks, below(rng, min(len(ranks), 3) + 1)))
        c = sign * (below(rng, 7) - 3)
        exps: dict = {}
        for _ in range(below(rng, deg + 1)):
            g = gens[below(rng, len(gens))]
            exps[g] = exps.get(g, 0) + 1
        if c:
            accumulate(acc, word, Poly._wrap(reg, {tuple(sorted(exps.items())): c}))
    return Element._wrap(reg, acc)


# ---------------------------------------------------------------------------
# theorem 1: kernel closure and chain-map commutation


def verify_theorem1(f, F, rng, samples: int = 50, instance: str = "") -> list:
    """Kernel closure plus boundary-commutation of all four morphisms.

    Needs at least one polynomial on each side; the second system ``F`` is
    the one the maps adjoin and remove.  Each map reports the first of
    ``samples`` random c = sum of p_w * w with boundary(map(c)) !=
    map(boundary(c)), and that difference.  The boundary and the maps are
    k[x]-linear (even coefficients; the derivation, the multipliers and the
    domain checks read only words), so the difference is sum of p_w * D_w,
    with D_w = boundary(map(w)) - map(boundary(w)) once per drawn word w.
    """
    if not f or not F:
        raise ValueError("need nonempty systems f and F")
    n = f[0].reg.num_comm
    s, t = len(f), len(F)
    reg = FamilyRegistry()
    xgens = list(reg.commuting("x", n).gens())
    fx = reg.odd("fx", s)
    fpx = reg.odd("fpx", s)
    Fx = reg.odd("Fx", t)
    Fpx = reg.odd("Fpx", t)
    fimg = lift(f, reg, "x")
    Fimg = lift(F, reg, "x")
    ba = BoundaryAssignment(reg, {"fx": fimg, "fpx": fimg, "Fx": Fimg, "Fpx": Fimg})
    k1, k2 = theorem1_kernels(reg, fx, fpx, Fpx)
    reports = []
    for label, kernel in (("theorem1.kernel_det", k1), ("theorem1.kernel_unit", k2)):
        out = boundary(ba, kernel).element
        reports.append(
            verdict(label, instance, out.is_zero, lambda: f"boundary {render_element(out)}")
        )
    domains = {
        "mult_dual_det": (fx.primal_ranks() + Fx.primal_ranks(), frozenset()),
        "embed_unit": (fx.primal_ranks(), frozenset()),
        "project_dual_det": (fx.dual_ranks(), frozenset({"fx"})),
        "project_unit": (fx.dual_ranks() + Fx.dual_ranks(), frozenset({"fx", "Fx"})),
    }
    for kind, (ranks, tags) in domains.items():
        diffs: dict = {}
        bad = None
        for k in range(samples):
            acc: dict = {}
            for w, p in _random_words(rng, reg, ranks, xgens).terms.items():
                if w not in diffs:
                    one = ComplexElement(Element.word(reg, w), tags)
                    left = boundary(ba, theorem1_map(kind, one, Fx)).element
                    diffs[w] = (left - theorem1_map(kind, boundary(ba, one), Fx).element).terms
                for w2, c in diffs[w].items():
                    accumulate(acc, w2, p * c)
            if acc:
                bad = (k, Element._wrap(reg, acc))
                break
        reports.append(
            verdict(
                f"theorem1.map.{kind}",
                instance,
                bad is None,
                lambda: f"sample {bad[0]}: difference {render_element(bad[1])}",
            )
        )
    return reports


# ---------------------------------------------------------------------------
# theorem 2: the two transgression identities


def _renaming_orientation(e: Element, fam) -> Element:
    """``e`` with each term signed by (-1)^(m(m-1)/2), m the number of
    ``fam``'s generators in its word: the sign that reverses an m-word."""
    fam = e.reg.odd_family(fam)
    terms = {}
    for w, c in e.terms.items():
        m = sum(1 for r in w if fam.owns_rank(r))
        terms[w] = -c if m * (m - 1) // 2 & 1 else c
    return Element(e.reg, terms)


def verify_theorem2(f, F, instance: str = "") -> tuple[IdentityReport, IdentityReport]:
    """Both displayed identities, evaluated exactly on each side.

    Each side renames one family through an exponential kernel: contracting
    prod_i (1 + a_i b_i*) against a word holding b_i1 .. b_im (ascending)
    leaves a_i1 .. a_im in their place times (-1)^(m(m-1)/2), because the
    anchor pairs the dual word against the primal word with both ascending,
    so the kernel's interleaved pairs come out reversed.  The identities
    read the kernel as the renaming itself, so each side is compared in
    the orientation that undoes this sign in its renamed family
    (``_renaming_orientation``); words with at most one renamed generator
    keep their sign.
    """
    if not f:
        raise ValueError("need at least one polynomial in f")
    n = f[0].reg.num_comm
    s, t = len(f), len(F)
    reg = FamilyRegistry()
    reg.commuting("x", n)
    reg.commuting("y", n)
    fx = reg.odd("fx", s)
    fy = reg.odd("fy", s)
    fpx = reg.odd("fpx", s)
    fpy = reg.odd("fpy", s)
    Fx = reg.odd("Fx", t) if t else None
    Fy = reg.odd("Fy", t) if t else None
    Fpx = reg.odd("Fpx", t) if t else None
    Fpy = reg.odd("Fpy", t) if t else None
    u = reg.odd("u", n)
    gradf = gradient(lift(f, reg, "x"), reg)
    gradF = gradient(lift(F, reg, "x"), reg)

    def exp_pairs(primal, dual, k):
        return grassmann_exp(
            [(odd_gen(reg, primal, i), odd_gen(reg, dual, i, dual=True)) for i in range(1, k + 1)]
        )

    fdiff, fpdiff = odd_differences(reg, fx, fy), odd_differences(reg, fpx, fpy)
    tdetf = transgression_det([(gradf, fdiff)], u)
    if t:
        Fdiff, Fpdiff = odd_differences(reg, Fx, Fy), odd_differences(reg, Fpx, Fpy)
        bigdet = transgression_det([(gradF, Fdiff), (gradf, fdiff)], u)
    else:
        bigdet = tdetf

    # identity 1
    if t:
        lhs1 = contract_product(Fy, bigdet * dual_full_product(reg, fy), exp_pairs(Fpy, Fy, t))
        lhs1 = _renaming_orientation(top_contract(fy, lhs1), Fpy)
        rhs1 = contract_product(Fpx, exp_pairs(Fx, Fpx, t), transgression_det([(gradF, Fpdiff)], u))
        rhs1 = _renaming_orientation(rhs1, Fx)
    else:
        # With no F block the right side is a determinant with zero columns,
        # which vanishes for n >= 1; the identity degenerates to lhs = 0.
        lhs1 = contract_product(fy, bigdet, dual_full_product(reg, fy))
        rhs1 = Element.zero(reg)

    # identity 2
    lhs2 = _renaming_orientation(contract_product(fy, tdetf, exp_pairs(fpy, fy, s)), fpy)
    core = exp_pairs(fx, fpx, s)
    if t:
        bigdetp = transgression_det([(gradF, Fpdiff), (gradf, fpdiff)], u)
        core = top_contract(fpx, contract_product(Fpx, dual_full_product(reg, Fpx) * core, bigdetp))
    else:
        bigdetp = transgression_det([(gradf, fpdiff)], u)
        core = contract_product(fpx, core, bigdetp)
    sign = -1 if (t * n) & 1 else 1
    rhs2 = _renaming_orientation(core, fx) * sign
    return (
        sides_verdict("theorem2.1", instance, lhs1, rhs1),
        sides_verdict("theorem2.2", instance, lhs2, rhs2),
    )


def gradient(polys, reg) -> list:
    """Divided-difference matrix: entry [k][j] is the k-th difference of polys[j]."""
    n = reg.comm_family("x").arity
    cols = [divided_diff(p, "x", "y") for p in polys]
    return [[cols[j][k] for j in range(len(polys))] for k in range(n)]


# ---------------------------------------------------------------------------
# homotopy witnesses

# the most candidate columns (words x monomials) a witness search may take
WITNESS_COLUMN_LIMIT = 250_000


def _next_layer(gens, layer):
    """The monomials in the sorted ``gens`` one degree above those of ``layer``.

    Each monomial grows by every generator from its last one on, so the
    layers built up from [()] each come out in lexicographic order.
    """
    out = []
    for mono in layer:
        for g in gens:
            if mono and g < mono[-1][0]:
                continue
            if mono and g == mono[-1][0]:
                grown = mono[:-1] + ((g, mono[-1][1] + 1),)
            else:
                grown = mono + ((g, 1),)
            out.append(grown)
    return out


class _WitnessColumns(Sequence):
    """The witness search's candidate columns, built on demand.

    The candidates m * w, for w in ``words`` and m a monomial in ``gens`` of
    degree at most ``bound``, run by the degree of m, then by word, then by
    m; ``monos`` lists the monomials by degree, a degree's layer built when
    first reached.  A column is the sparse boundary of its candidate, keyed
    by the row numbers of ``rows``, {(word, mono): row} in order of first
    use: the boundary is linear over the polynomial ring, so it is the
    word's boundary, computed once, with every monomial shifted by m.
    ``indexed`` is one past the last column indexed.
    """

    def __init__(self, ba: BoundaryAssignment, reg, words, gens, bound):
        self.ba, self.reg, self.words = ba, reg, words
        self.gens = sorted(gens)
        self.monos = [()]
        self._top = [()]  # the monomials of the highest degree built
        self._len = len(words) * math.comb(bound + len(gens), len(gens))
        self._counts = [1]  # degree d -> monomials of degree <= d
        self.rows: dict[tuple, int] = {}
        self._pieces: dict[int, list] = {}  # word index -> [(word, mono, shifts, c)]
        self._shifts: dict[tuple, list] = {}  # mono -> [monos[g] * mono for the g reached]
        self.indexed = 0

    def __len__(self):
        return self._len

    def candidate(self, j):
        """(k, g) with column j the boundary of monos[g] * words[k]."""
        counts, n = self._counts, len(self.gens)
        q = j // len(self.words)  # j is in layer d iff counts[d - 1] <= q < counts[d]
        while counts[-1] <= q:
            counts.append(math.comb(len(counts) + n, n))
        d = bisect_right(counts, q)
        first = counts[d - 1] if d else 0  # monomials of degree < d
        k, i = divmod(j - len(self.words) * first, counts[d] - first)
        while len(self.monos) <= first + i:
            self._top = _next_layer(self.gens, self._top)
            self.monos.extend(self._top)
        return k, first + i

    def __getitem__(self, j):
        if not 0 <= j < self._len:
            raise IndexError(j)
        k, g = self.candidate(j)
        self.indexed = max(self.indexed, j + 1)
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
            while len(shifts) <= g:
                shifts.append(mono_mul(monos[len(shifts)], mono))
            col[rows.setdefault((word, shifts[g]), len(rows))] = c
        return col


def homotopy_witness(lhs: Element, rhs: Element, ba: BoundaryAssignment, degree_bound=None):
    """Search for w with boundary(w) = lhs - rhs; None when not found.

    The difference must be a primal-side cocycle (raises NotCocycleError
    otherwise).  Candidate words run over primal generators of the assigned
    families in every wedge degree one above a degree present in the
    difference; candidate coefficients run over monomials in the commuting
    generators appearing in the difference or in the assigned images, up to
    the bound.  More than ``WITNESS_COLUMN_LIMIT`` candidates is an input
    error (ValueError), raised before any is built.  The candidates are
    solved for exactly, in ascending coefficient degree (``_WitnessColumns``),
    up to the first prefix whose span holds the difference, so the witness
    has the least coefficient degree of any within the bound and is the same
    for every bound at or above that degree.  Any solution is re-verified
    before being returned.
    """
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
    fam_names = sorted(
        {reg.rank_info(r)[0] for r in diff.support_ranks()} | set(ba.images)
    )
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
    words = [
        w
        for k in sorted(degrees)
        for w in itertools.combinations(sorted(prim_ranks), k)
    ]
    if not words:
        return None
    columns = _WitnessColumns(ba, reg, words, gens, degree_bound)
    if len(columns) > WITNESS_COLUMN_LIMIT:
        raise ValueError(
            f"witness search at degree bound {degree_bound} has {len(columns)} candidates, "
            f"more than {WITNESS_COLUMN_LIMIT}"
        )
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
    for j, coeff in enumerate(sol[: columns.indexed]):
        if coeff:
            k, g = columns.candidate(j)
            terms.setdefault(words[k], {})[columns.monos[g]] = coeff
    w = Element(reg, {word: Poly(reg, cs) for word, cs in terms.items()})
    check = _element_boundary(ba, w, frozenset())
    if check != diff:
        raise AssertionError("witness failed re-verification")
    return w
