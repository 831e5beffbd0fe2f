"""Boundary operator, chain maps, lemma and transgression verifiers.

The witness search shifts each word's boundary by monomials; its system must
equal, column for column and row for row, the one ``_per_basis_system`` builds
from the boundary of every basis element m*w taken in full, the earlier
column build kept here as an oracle.
"""

import random
from fractions import Fraction

import pytest

from koszulkit import koszul
from koszulkit.cli import main
from koszulkit.grassmann import Element, dual_full_product, grassmann_exp
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
from koszulkit.ring import FamilyRegistry, Poly, parse_poly


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


def rand_element(rng, reg, ranks, gens, terms=3):
    e = Element.zero(reg)
    for _ in range(rng.randrange(1, terms + 1)):
        word = rng.sample(ranks, rng.randrange(0, min(3, len(ranks)) + 1))
        coeff = Poly.const(reg, rng.randint(-3, 3))
        for _ in range(rng.randrange(3)):
            coeff = coeff * Poly.variable(reg, rng.choice(gens))
        e = e + Element.word(reg, word) * coeff
    return e


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
        rng = random.Random(53)
        for n in (1, 2):
            reg = FamilyRegistry()
            x = reg.commuting("x", n)
            gens = list(x.gens())
            for s in (1, 2):
                for t in (1, 2):
                    f = [rand_poly(rng, reg, gens, 2) for _ in range(s)]
                    F = [rand_poly(rng, reg, gens, 2) for _ in range(t)]
                    r1, r2 = verify_theorem2(f, F, instance=f"n={n} s={s} t={t}")
                    assert r1.status == "equal", f"{r1.instance}: {r1.detail}"
                    assert r2.status == "equal", f"{r2.instance}: {r2.detail}"


def _per_basis_system(ba, diff, words, monos):
    """The witness system with one boundary per basis element m*w.

    Returns (columns, target, row_index) with columns and target keyed by
    (word, mono) and the row index in order of first appearance.
    """
    reg = diff.reg
    row_index = {}
    columns = []
    for w in words:
        for m in monos:
            elem = Element(reg, {w: Poly(reg, {m: Fraction(1)})})
            img = koszul._element_boundary(ba, elem, frozenset())
            col = {}
            for word, poly in img.terms.items():
                for mono, c in poly.terms.items():
                    row_index.setdefault((word, mono), len(row_index))
                    col[word, mono] = c
            columns.append(col)
    target = {}
    for word, poly in diff.terms.items():
        for mono, c in poly.terms.items():
            row_index.setdefault((word, mono), len(row_index))
            target[word, mono] = c
    return columns, target, row_index


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
        real = koszul._witness_system
        seen = []

        def recorded(ba, diff, words, monos):
            columns, target, row_index = real(ba, diff, words, monos)
            keys = list(row_index)
            keyed = (
                keys,
                [{keys[i]: v for i, v in col.items()} for col in columns],
                {keys[i]: v for i, v in target.items()},
            )
            o_columns, o_target, o_index = _per_basis_system(ba, diff, words, monos)
            seen.append((keyed, (list(o_index), o_columns, o_target)))
            return columns, target, row_index

        monkeypatch.setattr(koszul, "_witness_system", recorded)
        code = main(["verify", "thm3", "--seed", str(seed)])
        capsys.readouterr()
        assert seen
        for keyed, oracle in seen:
            assert keyed == oracle
        assert code == 0


def test_report_serialization_is_stable():
    r = verify_lemma1([[1]], [[1]], instance="unit")
    d = r.to_dict()
    assert d["name"] == "lemma1"
    assert d["instance"] == "unit"
    assert d["status"] == "equal"
    assert d["witness"] is None and d["elapsed"] is None
