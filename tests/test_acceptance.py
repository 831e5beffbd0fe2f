"""Acceptance gate: one test per contract criterion, each printing a verdict.

Every identity in this package is exact over the rationals, so each check is
equality, not approximation.  Each criterion also carries a wall-clock
budget; exceeding it fails the criterion.
"""

import json
import random
import time
from fractions import Fraction

from koszulkit.ring import FamilyRegistry, Poly, divided_diff
from koszulkit.grassmann import Element
from koszulkit.koszul import BoundaryAssignment, ComplexElement, boundary, transport, _family_gmap
from koszulkit.quotient import groebner, mul_matrix, quotient_basis
from koszulkit.dual_element import dual_element
from koszulkit.cli import (
    main,
    suite_lemma1,
    suite_lemma2,
    suite_lemma3,
    suite_thm1,
    suite_thm2,
    suite_thm3,
    suite_thm4,
    _pinned_thm4,
)

from dense_matrices import dense, poly_at_matrix
from substitution import subst

SEED = 12042


def _verdict(num, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num:2d} [{label}]: {status} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} ({label}): identity check failed"
    assert elapsed < budget, f"criterion {num} ({label}): {elapsed:.2f}s over budget {budget}s"


def test_criterion_01_bordered_determinant_identity():
    t0 = time.monotonic()
    reports = suite_lemma1(n=3, s=3, t=3, seed=SEED, count=25)
    ok = len(reports) == 27 * 25 and all(r.status == "equal" for r in reports)
    _verdict(1, "bordered determinant, all shapes to 3, 25 per shape", ok,
             time.monotonic() - t0, 10)


def test_criterion_02_exponential_contraction_and_sign_anchor():
    t0 = time.monotonic()
    reports = suite_lemma2(s=3, t=3, seed=SEED, count=25)
    ok = len(reports) == 9 * 25 * 2 and all(r.status == "equal" for r in reports)
    _verdict(2, "exponential kernel and the +1 anchor", ok, time.monotonic() - t0, 5)


def test_criterion_03_full_dual_word_is_closed():
    t0 = time.monotonic()
    reports = suite_lemma3(n=3, s=3, deg=3, seed=SEED, count=5)
    ok = len(reports) == 9 * 5 and all(r.status == "equal" for r in reports)
    _verdict(3, "closedness of the full dual word", ok, time.monotonic() - t0, 5)


def test_criterion_04_kernels_closed_and_maps_commute():
    t0 = time.monotonic()
    reports = suite_thm1(n=2, s=2, t=2, deg=2, seed=SEED, count=50)
    ok = bool(reports) and all(r.status == "equal" for r in reports)
    _verdict(4, "kernel closure and the four morphisms, 50 elements each", ok,
             time.monotonic() - t0, 30)


def test_criterion_05_transgression_identities():
    t0 = time.monotonic()
    reports = suite_thm2(n=2, s=2, t=2, deg=2, seed=SEED, count=25)
    ok = len(reports) >= 25 * 2 and all(r.status == "equal" for r in reports)
    _verdict(5, "both transgression identities with the sign", ok,
             time.monotonic() - t0, 60)


def test_criterion_06_embedded_system_comparison():
    t0 = time.monotonic()
    reports = suite_thm3(seed=SEED, count=10)
    pinned = [r for r in reports if r.instance.startswith("pinned")]
    ok = (
        len(reports) >= 10
        and len(pinned) == 3
        and all(r.status != "failed" for r in reports)
        and all(r.status in ("equal", "homotopic") for r in pinned)
    )
    _verdict(6, "embedded systems: exact parts plus witnesses", ok,
             time.monotonic() - t0, 120)


def test_criterion_07_dual_element_pipeline():
    t0 = time.monotonic()
    reports, certs = suite_thm4()
    by_instance = {}
    for r in reports:
        by_instance.setdefault(r.instance, {})[r.name] = r
    ok = len(certs) == 5
    for label, parts in by_instance.items():
        ok = ok and parts["theorem4.cocycle"].status == "equal"
        ok = ok and parts["theorem4.pairing"].status in ("equal", "homotopic")
    for diagonal in ("f=(x)", "f=(x^2)", "f=(x1, x2)"):
        ok = ok and by_instance[diagonal]["theorem4.pairing"].status == "equal"
    _verdict(7, "dual element: cocycle and pairing on the pinned systems", ok,
             time.monotonic() - t0, 60)


def test_criterion_08_cofactor_reexpansion_and_cayley_hamilton():
    t0 = time.monotonic()
    ok = True
    for f, label in _pinned_thm4():
        e, cert = dual_element(f)
        reg = e.reg
        gmap = _family_gmap(f[0].reg, reg, "x")
        fX = [transport(p, reg, gmap) for p in f]
        n = f[0].reg.num_comm
        for j, T in enumerate(cert["annihilators"]):
            total = Poly.zero(reg)
            for i, fi in enumerate(fX):
                total = total + fi * cert["cofactors"][i][j]
            ok = ok and total == T
        gb = groebner(fX, family="x")
        qb = quotient_basis(gb)
        for j in range(1, n + 1):
            M = dense(mul_matrix(gb, qb, j))
            T = cert["annihilators"][j - 1]
            coeffs = [Fraction(0)] * (T.total_degree() + 1)
            for mono, c in T.terms.items():
                coeffs[mono[0][1] if mono else 0] = c
            value = poly_at_matrix(coeffs, M)
            ok = ok and all(v == 0 for row in value for v in row)
    _verdict(8, "cofactor re-expansion and annihilation of the operator", ok,
             time.monotonic() - t0, 10)


def test_criterion_09_structural_properties():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    ok = True

    reg = FamilyRegistry()
    reg.commuting("x", 2)
    a = reg.odd("a", 2)
    b = reg.odd("b", 2)
    x1 = Poly.variable(reg, 0)
    x2 = Poly.variable(reg, 1)
    ba = BoundaryAssignment(reg, {"a": [x1, x2 * x2], "b": [x1 * x2, x1 + x2]})

    def pool_for(tags):
        ranks = []
        for fam in ("a", "b"):
            dual = fam in tags
            ranks += [reg.odd_rank(fam, i, dual=dual) for i in (1, 2)]
        return ranks

    def rand_elem(ranks, max_terms=4, max_deg=2):
        e = Element.zero(reg)
        for _ in range(rng.randint(1, max_terms)):
            word = tuple(sorted(rng.sample(ranks, rng.randint(0, 3))))
            coeff = Poly.zero(reg)
            for _ in range(rng.randint(1, 3)):
                coeff = coeff + (
                    Poly.const(reg, rng.randint(-3, 3))
                    * x1 ** rng.randint(0, max_deg)
                    * x2 ** rng.randint(0, max_deg)
                )
            e = e + Element(reg, {word: coeff})
        return e

    for _ in range(100):
        tags = frozenset(fam for fam in ("a", "b") if rng.random() < 0.5)
        ce = ComplexElement(rand_elem(pool_for(tags)), tags)
        ok = ok and boundary(ba, boundary(ba, ce)).element.is_zero

    ranks = list(range(reg.num_ranks))
    for _ in range(50):
        wu = tuple(sorted(rng.sample(ranks, rng.randint(0, 3))))
        wv = tuple(sorted(rng.sample(ranks, rng.randint(0, 3))))
        u = Element(reg, {wu: x1 + Poly.const(reg, rng.randint(1, 3))})
        v = Element(reg, {wv: x2 - Poly.const(reg, rng.randint(1, 3))})
        sign = -1 if (len(wu) * len(wv)) & 1 else 1
        ok = ok and u * v == sign * (v * u)
        w = rand_elem(ranks)
        ok = ok and (u * v) * w == u * (v * w)

    reg2 = FamilyRegistry()
    xf = reg2.commuting("x", 3)
    yf = reg2.commuting("y", 3)
    for _ in range(100):
        F = Poly.zero(reg2)
        for _ in range(rng.randint(1, 5)):
            mono = Poly.const(reg2, rng.randint(-4, 4))
            for k in range(1, 4):
                mono = mono * Poly.variable(reg2, reg2.comm_gen(xf, k)) ** rng.randint(0, 3)
            F = F + mono
        diffs = divided_diff(F, xf, yf)
        swap = {reg2.comm_gen(xf, k): Poly.variable(reg2, reg2.comm_gen(yf, k)) for k in range(1, 4)}
        lhs = Poly.zero(reg2)
        for k in range(1, 4):
            xk = Poly.variable(reg2, reg2.comm_gen(xf, k))
            lhs = lhs + (xk - swap[reg2.comm_gen(xf, k)]) * diffs[k - 1]
        ok = ok and lhs == F - subst(F, swap)

    _verdict(9, "boundary squares to zero; wedge laws; divided differences", ok,
             time.monotonic() - t0, 10)


def test_criterion_10_deterministic_reports(capsys, monkeypatch):
    monkeypatch.delenv("KOSZULKIT_SEED", raising=False)
    t0 = time.monotonic()
    code1 = main(["verify", "all", "--seed", "42"])
    out1 = capsys.readouterr().out
    code2 = main(["verify", "all", "--seed", "42"])
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2 and bool(out1)
    data = json.loads(out1)
    ok = ok and data["summary"]["failed"] == 0 and data["summary"]["not_found"] == 0
    elapsed = time.monotonic() - t0
    print(f"criterion 10 [byte-identical reports for the same seed]: "
          f"{'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert ok, "criterion 10 (byte-identical reports): failed"
