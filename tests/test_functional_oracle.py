"""The dual side's functionals against their all-``Fraction`` oracle.

``Functional1D`` and ``Staircase`` follow the coefficient rule of ``ring``:
integral recurrences, initial values, memo entries, power rows, coordinates
and Gram entries are ``int``, and a ``Fraction`` appears only where a
denominator exists.  The classes they replaced, with every value a
``Fraction``, survive in ``fraction_functionals`` as the oracle: on random
recurrences, rational ones included, and on the staircases of golden and
rationally scaled systems, both must give equal values, and the rule's
values must carry no ``Fraction`` with denominator 1.  The indices cross
the ``MEMO_LIMIT`` and ``DIGIT_LIMIT`` boundaries.  Generation is
derandomized, so every run gives the same verdict.
"""

import random
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
    Staircase,
    recurrent_functional,
)
from koszulkit.quotient import charpoly_T, expvec, groebner, mul_matrix, quotient_basis
from koszulkit.ring import FamilyRegistry

from fraction_functionals import FractionFunctional1D, FractionStaircase
from test_dual_element import _ladder

GOLDEN = Path(__file__).parent / "golden"

ORACLE = settings(max_examples=60, derandomize=True, database=None, deadline=None)

# integral values half the time, so the rule meets both int and Fraction
values = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


def ruled(v) -> bool:
    """Whether v follows the coefficient rule."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def outcome(call):
    """call()'s value, or the ValueError it raises, as a comparable pair."""
    try:
        return "value", call()
    except ValueError as exc:
        return "raises", str(exc)


@st.composite
def functional_pairs(draw):
    """(Functional1D, FractionFunctional1D) on the same random recurrence."""
    d = draw(st.integers(1, 4))
    rec = tuple(draw(st.lists(values, min_size=d, max_size=d)))
    initials = tuple(draw(st.lists(values, min_size=d, max_size=d)))
    return Functional1D(rec, initials), FractionFunctional1D(rec, initials)


def check_pair(func, oracle, indices) -> None:
    for k in indices:
        assert outcome(lambda: func.eval(k)) == outcome(lambda: oracle.eval(k)), k
        # at every index, past the memo or not, the value is square-and-multiply's
        assert outcome(lambda: func.eval(k)) == outcome(lambda: oracle.eval_by_squaring(k)), k
        assert outcome(lambda: func.reduced_power(k)) == outcome(
            lambda: oracle.reduced_power(k)
        ), k
        if k < 200:
            assert func.power(k) == oracle.power(k), k
    assert func.rec == oracle.rec and func.initials == oracle.initials
    assert len(func._memo) == len(oracle._memo)
    for v in [*func.rec, *func.initials, *func._memo, *(c for row in func._powers for c in row)]:
        assert ruled(v), v
    for k in indices:
        kind, got = outcome(lambda: func.reduced_power(k))
        if kind == "value":
            assert all(ruled(c) for c in got), k


@ORACLE
@given(functional_pairs(), st.lists(st.integers(0, 60), max_size=8))
def test_small_indices_match_the_fraction_functional(pair, indices):
    func, oracle = pair
    check_pair(func, oracle, [*indices, 0, 1, 17])


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(functional_pairs())
def test_indices_across_the_memo_limit_match(pair):
    func, oracle = pair
    check_pair(func, oracle, [MEMO_LIMIT - 1, MEMO_LIMIT, MEMO_LIMIT + 1, 3 * MEMO_LIMIT])


@pytest.mark.parametrize("root", [1, -1, 10**6, Fraction(1, 10**6), Fraction(-3, 7)])
def test_single_roots_across_the_digit_limit_match(root):
    """x - root: |root| = 10^6 passes ``DIGIT_LIMIT`` digits at k = 3334,
    where the memo stops; 3/7 takes longer; roots of modulus 1 never do."""
    rec, initials = (-root,), (1,)
    func, oracle = Functional1D(rec, initials), FractionFunctional1D(rec, initials)
    indices = [3333, 3334, 4000, MEMO_LIMIT, MEMO_LIMIT + 1, 10**5]
    check_pair(func, oracle, indices)
    assert DIGIT_LIMIT < 6 * 3334


def test_repeated_root_across_the_digit_limit_matches():
    # (x - 2)^2 and (x + 1/2)^3: values grow as k * 2^k and k^2 / 2^k
    for rec in ((4, -4), (Fraction(1, 8), Fraction(3, 4), Fraction(3, 2))):
        initials = (0,) * (len(rec) - 1) + (1,)
        func, oracle = Functional1D(rec, initials), FractionFunctional1D(rec, initials)
        check_pair(func, oracle, [100, MEMO_LIMIT - 1, MEMO_LIMIT, 50_000, 70_000])


@ORACLE
@given(st.data())
def test_zero_test_matches_the_fraction_functionals(data):
    """``vanishes`` on the rule's functionals and on the oracle's, for random
    multipliers and for multipliers in the ideal of the annihilators."""
    reg = FamilyRegistry()
    reg.commuting("x", 2)
    pairs = [data.draw(functional_pairs()) for _ in range(2)]
    l = ProductFunctional(reg, "x", [func for func, _ in pairs])
    lo = ProductFunctional(reg, "x", [oracle for _, oracle in pairs])
    exps = st.tuples(st.integers(0, 9), st.integers(0, 9))
    terms = data.draw(st.dictionaries(exps, values.filter(bool), max_size=5))
    assert l.vanishes(dict(terms)) == lo.vanishes(dict(terms))
    # T_1(x_1) * x^mu: every such multiplier kills l
    func = pairs[0][0]
    T = {(func.degree, 0): 1, **{(i, 0): c for i, c in enumerate(func.rec) if c}}
    mu = data.draw(exps)
    shifted = {(a + mu[0], b + mu[1]): c for (a, b), c in T.items()}
    assert l.vanishes(shifted) and lo.vanishes(shifted)


def _staircases(f):
    """The quotient of f as (Staircase, FractionStaircase), built as
    ``dual_element`` builds it."""
    n = f[0].reg.num_comm
    gb = groebner(f, family="x")
    qb = quotient_basis(gb)
    fam = gb.reg.comm_family("x")
    exponents = tuple(expvec(fam, m) for m in qb.monomials)
    mats = tuple(mul_matrix(gb, qb, j) for j in range(1, n + 1))
    funcs, oracles = [], []
    for j in range(1, n + 1):
        T, _ = charpoly_T(gb, j, mat=mats[j - 1])
        d = T.total_degree()
        initials = (0,) * (d - 1) + (1,)
        func = recurrent_functional(T, initials)
        funcs.append(func)
        oracles.append(FractionFunctional1D(func.rec, func.initials))
    return Staircase(exponents, mats, tuple(funcs)), FractionStaircase(
        exponents, mats, tuple(oracles)
    )


def _systems():
    for name in ("sys", "sq", "cube3", "3var_d27", "4var_d16"):
        yield name, cli.parse_system_file((GOLDEN / f"{name}.txt").read_text()).f
    # the benchmark's ladder rungs, variables scaled by seeded rationals, so
    # the multiplication matrices and annihilators carry denominators
    for k, f in enumerate(_ladder(201)):
        if len(f) == f[0].reg.num_comm:
            yield f"ladder201_{k}", f


@pytest.mark.parametrize("name, f", list(_systems()), ids=[name for name, _ in _systems()])
def test_staircase_matches_the_fraction_staircase(name, f):
    algebra, oracle = _staircases(f)
    rng = random.Random(f"staircase-oracle:{name}")
    degrees = [func.degree for func in algebra.funcs]
    points = list(algebra.exponents)
    points += [tuple(rng.randint(0, d + 2) for d in degrees) for _ in range(25)]
    for b in points:
        got, want = algebra.coords(b), oracle.coords(b)
        assert got == want, b
        assert all(ruled(v) for v in got.values()), b
    terms = {b: rng.choice((1, -2, Fraction(3, 5))) for b in rng.sample(points, 6)}
    assert algebra.reduce(terms) == oracle.reduce(terms)
    assert all(ruled(v) for v in algebra.reduce(terms).values())
    d = len(algebra.exponents)
    rational = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
    for vals in ([0] * (d - 1) + [1], rational):
        got, want = algebra.gram(vals), oracle.gram(vals)
        assert got == want
        assert all(ruled(v) for row in got for v in row)
    for memo in algebra._memo.values():
        assert all(ruled(v) for v in memo.values())
