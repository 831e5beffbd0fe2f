"""The coefficient rule of ``ring``: an ``int`` when integral, else a Fraction.

Coefficients enter a polynomial through ``Poly.const`` (and through it the
parser, ``as_poly`` and the suites' random draws) and ``Poly.variable``, so
integral coefficients stay plain ``int`` through sums and products.  Three
checks hold the rule:

- a tripwire: no Poly built by the main commands holds a float, a bool or
  anything else but ``int`` and ``Fraction``.  A float would come from an
  ``int / int`` anywhere a coefficient is divided;
- a second tripwire: no value the dual side keeps (functional memos and
  power rows, staircase coordinates, Gram rows, tau) is a Fraction with
  denominator 1;
- an oracle: the same polynomials and elements built from Fraction-valued
  dicts and built through ``Poly.const`` and the parser compare equal and
  render identically, after sums, products and the exterior kernels.

Generation is derandomized, so every run gives the same verdict.
"""

from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit import cli
from koszulkit.dual_element import StaircaseFunctional, dual_element, verify_theorem4
from koszulkit.grassmann import Element, bordered_det, render_element, transgression_det
from koszulkit.koszul import BoundaryAssignment, boundary
from koszulkit.ring import FamilyRegistry, Poly, parse_poly, render_poly

from test_dual_element import det_g_dual_element, is_cocycle

GOLDEN = Path(__file__).parent / "golden"

# every zero-dimensional system file in tests/golden but 4var_d81 and
# 3var_d125, for time
ZERO_DIMENSIONAL = [
    "sys",
    "sq",
    "cube3",
    "cyclic3",
    "3var_d27",
    "4var_d16",
    "3var_d64",
    "4var_dense_d16",
]

# a square system whose Groebner basis divides by many leading coefficients,
# all of them integers
PINNED = (
    "vars: x1 x2 x3\n"
    "f: x1^2 + 2*x1*x2 + x2^2, x2^2 + 6*x2*x3 + 9*x3^2, x3^2 + 2*x1 + 2*x2 + 3\n"
)


@pytest.fixture
def stray_coefficients(monkeypatch):
    """Counter of the coefficient types outside (int, Fraction) of every
    Poly built while the fixture is active."""
    stray = Counter()
    real_init = Poly.__init__

    def checked_init(self, reg, terms=None):
        real_init(self, reg, terms)
        for c in self.terms.values():
            if type(c) not in (int, Fraction):
                stray[type(c).__name__] += 1

    monkeypatch.setattr(Poly, "__init__", checked_init)
    return stray


def test_verify_all_builds_no_stray_coefficient(stray_coefficients, capsys, monkeypatch):
    monkeypatch.delenv("KOSZULKIT_SEED", raising=False)
    assert cli.main(["verify", "all", "--seed", "42"]) == 0
    capsys.readouterr()
    assert not stray_coefficients


@pytest.mark.parametrize("system", ZERO_DIMENSIONAL)
def test_dual_element_builds_no_stray_coefficient(stray_coefficients, capsys, system):
    assert cli.main(["dual-element", str(GOLDEN / f"{system}.txt")]) == 0
    capsys.readouterr()
    assert not stray_coefficients


def test_positive_dimensional_groebner_builds_no_stray_coefficient(stray_coefficients, capsys):
    assert cli.main(["groebner", str(GOLDEN / "posdim3.txt")]) == 0
    capsys.readouterr()
    assert not stray_coefficients


def test_pinned_system_builds_no_stray_coefficient(stray_coefficients):
    f = cli.parse_system_file(PINNED).f
    e, _ = dual_element(f)
    oracle, _ = det_g_dual_element(f)
    assert is_cocycle(e, f) and is_cocycle(oracle, f)
    assert not stray_coefficients


def _ruled(v) -> bool:
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


@pytest.mark.parametrize("system", ZERO_DIMENSIONAL + ["surplus27"])
def test_dual_side_values_follow_the_rule(system):
    """After the cocycle test and the pairing, no value the dual side keeps
    is a Fraction with denominator 1: each functional's recurrence, initial
    values, memo and power rows; for a square system also the staircase's
    coordinates and reduced powers, the Gram rows and tau, their first row."""
    f = cli.parse_system_file((GOLDEN / f"{system}.txt").read_text()).f
    reports, e, cert = verify_theorem4(f)
    assert all(r.ok for r in reports)
    kept = []
    for func in cert["functional"].funcs:
        kept += [*func.rec, *func.initials, *func._memo]
        kept += [c for row in func._powers for c in row]
    if isinstance(e.functional, StaircaseFunctional):
        algebra = e.functional.algebra
        assert algebra._memo and e.functional.rows
        kept += [c for vec in algebra._memo.values() for c in vec.values()]
        kept += [c for rem in algebra._remainders.values() for c in rem]
        kept += [c for row in e.functional.rows for c in row]
    else:
        assert any(func._memo for func in cert["functional"].funcs)
    stray = [v for v in kept if not _ruled(v)]
    assert not stray, stray[:5]


# ---------------------------------------------------------------------------
# Fraction-valued construction against the coefficient rule

REG = FamilyRegistry()
X = REG.commuting("x", 3)
E = REG.odd("e", 2)  # the wedge words and the odd rows
R = REG.odd("r", 2)  # rows of the bordered determinant
U = REG.odd("u", 2)  # the auxiliary family of the transgression determinant

ORACLE = settings(max_examples=60, derandomize=True, database=None, deadline=None)

monomials = st.lists(
    st.tuples(st.integers(0, 2), st.integers(1, 3)), max_size=3, unique_by=lambda ge: ge[0]
).map(lambda pairs: tuple(sorted(pairs)))
# integral values half the time, so both routes meet int and Fraction
coefficients = st.one_of(
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
).filter(bool)
term_dicts = st.dictionaries(monomials, coefficients, max_size=4)


def both_ways(terms: dict) -> tuple[Poly, Poly]:
    """(Fraction-valued Poly, the same Poly through Poly.const and the parser)."""
    as_fractions = Poly(REG, dict(terms))
    via_const = Poly.zero(REG)
    for m, c in terms.items():
        term = Poly.const(REG, c)
        for g, e in m:
            term = term * Poly.variable(REG, g) ** e
        via_const = via_const + term
    via_parser = parse_poly(REG, str(as_fractions))
    assert via_parser.terms == via_const.terms
    assert {m: type(c) for m, c in via_parser.terms.items()} == {
        m: type(c) for m, c in via_const.terms.items()
    }
    for c in via_const.terms.values():
        assert type(c) is (int if c.denominator == 1 else Fraction)
    return as_fractions, via_parser


def same(a, b, render) -> None:
    assert a == b
    assert render(a) == render(b)


def element_both_ways(draw, words) -> tuple[Element, Element]:
    pairs = {w: both_ways(draw(term_dicts)) for w in words}
    return tuple(
        Element(REG, {w: p[side] for w, p in pairs.items() if p[side]}) for side in (0, 1)
    )


@ORACLE
@given(st.data())
def test_polynomial_arithmetic_matches_fraction_route(data):
    p0, p1 = both_ways(data.draw(term_dicts))
    q0, q1 = both_ways(data.draw(term_dicts))
    same(p0, p1, render_poly)
    same(p0 + q0, p1 + q1, render_poly)
    same(p0 - q0, p1 - q1, render_poly)
    same(p0 * q0, p1 * q1, render_poly)
    same(p0 * q0 * q0 + p0, p1 * q1 * q1 + p1, render_poly)


@ORACLE
@given(st.data())
def test_exterior_kernels_match_fraction_route(data):
    e1, e2 = E.primal_ranks()
    words = [(), (e1,), (e2,), (e1, e2)]
    a = element_both_ways(data.draw, words)
    b = element_both_ways(data.draw, words)
    same(a[0], a[1], render_element)
    same(a[0] * b[0], a[1] * b[1], render_element)

    linear = [(), (e1,), (e2,), (E.dual_ranks()[0],)]
    oddrow = [element_both_ways(data.draw, linear) for _ in range(2)]
    matrix = [[both_ways(data.draw(term_dicts)) for _ in range(2)] for _ in range(2)]

    def side(k):
        return [[entry[k] for entry in row] for row in matrix], [odd[k] for odd in oddrow]

    same(bordered_det(*side(0), R), bordered_det(*side(1), R), render_element)
    same(transgression_det([side(0)], U), transgression_det([side(1)], U), render_element)

    images = [both_ways(data.draw(term_dicts)) for _ in range(2)]
    ba = [BoundaryAssignment(REG, {"e": [p[k] for p in images]}) for k in (0, 1)]
    same(boundary(ba[0], a[0]), boundary(ba[1], a[1]), render_element)
