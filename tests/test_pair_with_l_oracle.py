"""``pair``'s value of l against the per-monomial evaluator it replaced.

``pair_with_l`` pairs the word-free element with multiplier 1 over the
product functional l (``FunctionalElement.pair_poly``), so l(p) comes from
l's moments.  The methods that computed it before, ``eval_mono`` and
``eval_poly``, survive in ``product_evaluation`` as the oracle.  On the
functionals of golden systems and on random ones, rational ones included, at
exponents across ``MEMO_LIMIT`` and ``DIGIT_LIMIT``:

- where the oracle gives a value, the moment route gives the same value;
- where the oracle raises, the moment route raises one of the messages the
  oracle's factors raise, with one exception.  The moment route evaluates a
  monomial's factors l_j(x_j^b_j) in coordinate order and stops at the first
  zero, so a monomial whose digit-cap overflow comes after a zero factor
  pairs to 0 there; the oracle evaluates every factor and raises.

A generator outside l's family raises "monomial leaves the paired family"
on both.  Generation is derandomized, so every run gives the same verdict.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszulkit import cli
from koszulkit.dual_element import (
    DIGIT_LIMIT,
    MEMO_LIMIT,
    Functional1D,
    ProductFunctional,
    dual_element,
    _pipeline_registry,
)
from koszulkit.ring import Poly

from product_evaluation import eval_poly
from test_dual_element import l_value
from test_functional_oracle import outcome, values

GOLDEN = Path(__file__).parent / "golden"

ORACLE = settings(max_examples=40, derandomize=True, database=None, deadline=None)

# small exponents, both sides of the memo limit, and two past the digit cap
# for roots of modulus about 3 and up (about 0.5 decimal digits per unit)
exponents = st.one_of(
    st.integers(0, 12),
    st.sampled_from([MEMO_LIMIT - 1, MEMO_LIMIT, MEMO_LIMIT + 1, 30_000, 70_000]),
)


def _factors(l, mono) -> list:
    """The exponent of each coordinate of l in ``mono``."""
    exps = [0] * len(l.funcs)
    for g, e in mono:
        exps[l._coord[g]] = e
    return exps


def _in_order(l, p):
    """(sum, raised): l(p) with each monomial's factors taken in coordinate
    order up to the first zero one, and the messages of the factors so
    reached that raise; every monomial reaching one is left out of the sum."""
    total, raised = 0, set()
    for mono, c in p.terms.items():
        val = c
        for func, k in zip(l.funcs, _factors(l, mono)):
            kind, v = outcome(lambda: func.eval(k))
            if kind == "raises":
                raised.add(v)
                break
            val *= v
            if not val:
                break
        else:
            total += val
    return total, raised


def check_against_oracle(l, p) -> None:
    got = outcome(lambda: l_value(l, p))
    want = outcome(lambda: eval_poly(l, p))
    if want[0] == "value":
        assert got == want
    total, raised = _in_order(l, p)
    if raised:
        assert want[0] == "raises"
        assert got[0] == "raises" and got[1] in raised, (got, raised)
    else:
        assert got == ("value", total)


@st.composite
def polys(draw, reg, gens, exps=exponents):
    """One to four terms over ``gens``, coefficients by the coefficient rule."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        mono = tuple((g, e) for g in gens if (e := draw(exps)))
        terms[mono] = draw(values.filter(bool))
    return Poly(reg, terms)


@st.composite
def random_functionals(draw):
    """A product functional over x with one to three random recurrences of
    order one to three, rational ones included."""
    n = draw(st.integers(1, 3))
    reg = _pipeline_registry(n, n)
    funcs = []
    for _ in range(n):
        d = draw(st.integers(1, 3))
        rec = tuple(draw(st.lists(values, min_size=d, max_size=d)))
        funcs.append(Functional1D(rec, tuple(draw(st.lists(values, min_size=d, max_size=d)))))
    return ProductFunctional(reg, "x", funcs)


def _golden_functional(name) -> ProductFunctional:
    return dual_element(cli.parse_system_file((GOLDEN / f"{name}.txt").read_text()).f)[1][
        "functional"
    ]


@ORACLE
@given(random_functionals(), st.data())
def test_random_functionals_match_the_oracle(l, data):
    check_against_oracle(l, data.draw(polys(l.reg, list(l.reg.comm_family("x").gens()))))


# one and two variables, s = n and s > n, and surplus27's order-27 recurrences
@pytest.mark.parametrize("system", ["sq", "sys", "tower_s5", "surplus3", "surplus27"])
@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_golden_functionals_match_the_oracle(system, data):
    l = _golden_functional(system)
    check_against_oracle(l, data.draw(polys(l.reg, list(l.reg.comm_family("x").gens()))))


def test_a_lone_overflow_raises_the_oracle_message():
    """x - 10^6 passes ``DIGIT_LIMIT`` digits well before 5000, past the memo
    limit: both routes refuse the value with the same message."""
    reg = _pipeline_registry(1, 1)
    l = ProductFunctional(reg, "x", [Functional1D((-(10**6),), (1,))])
    x = reg.comm_gen("x", 1)
    p = Poly(reg, {((x, 5000),): 1, ((x, 3),): 2})
    message = f"power 5000 of a variable, reduced modulo its annihilator, needs more than {DIGIT_LIMIT} digits"
    assert outcome(lambda: eval_poly(l, p)) == ("raises", message)
    assert outcome(lambda: l_value(l, p)) == ("raises", message)
    check_against_oracle(l, p)


def test_a_zero_factor_before_an_overflow_pairs_to_zero():
    """l_1(x_1) = 0, so l(x_1 x_2^5000) is 0 whatever l_2(x_2^5000) is; the
    oracle evaluates that factor anyway and meets the digit cap."""
    reg = _pipeline_registry(2, 2)
    l = ProductFunctional(
        reg, "x", [Functional1D((0, 0), (1, 0)), Functional1D((-(10**6),), (1,))]
    )
    x1, x2 = (reg.comm_gen("x", j) for j in (1, 2))
    p = Poly(reg, {((x1, 1), (x2, 5000)): 1, ((x2, 2),): Fraction(1, 2)})
    assert outcome(lambda: eval_poly(l, p))[0] == "raises"
    assert l_value(l, p) == Fraction(10**12, 2)
    check_against_oracle(l, p)


@ORACLE
@given(random_functionals(), st.data())
def test_generator_outside_the_family_raises_on_both(l, data):
    """A term in the y copy of the variables, among terms in x."""
    reg = l.reg
    x = list(reg.comm_family("x").gens())
    p = data.draw(polys(reg, x, st.integers(0, 12)))
    y = data.draw(st.sampled_from(list(reg.comm_family("y").gens())))
    p = p + Poly(reg, {((y, data.draw(st.integers(1, 3))),): 1})
    message = "monomial leaves the paired family"
    assert outcome(lambda: eval_poly(l, p)) == ("raises", message)
    assert outcome(lambda: l_value(l, p)) == ("raises", message)
