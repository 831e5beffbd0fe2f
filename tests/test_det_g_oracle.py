"""The dual element of a system with more equations than variables,
e = det G * l, against the two forms of det G the package once computed side
by side (``tests/product_determinants.py``): G bordered by -Fx with the
Fx-free terms kept (the kernel route), and G under a zero odd row, both by
multiplying out the columns and contracting.  ``dual_element`` computes one
determinant, by Laplace expansion; all three must give the same multipliers,
with the orientation (-1)^(k(k-1)/2), k = s - n, applied to the oracles on
their own.
"""

import importlib
import random
from pathlib import Path

import pytest

from koszulkit import cli
from koszulkit.dual_element import dual_element
from koszulkit.ring import FamilyRegistry, Poly

from product_determinants import direct_det_g, kernel_det_g
from test_dual_element import is_cocycle

# the package re-exports the function dual_element under the module's name
dual_module = importlib.import_module("koszulkit.dual_element")

GOLDEN = Path(__file__).parent / "golden"

# the systems of test_dual_element's test_surplus_equations_pair_to_one
SURPLUS_SYSTEMS = [
    ("x", "x, x, x"),
    ("x", "x - 1, x^2 - 1, x^3 - 1"),
    ("x", "x, x^2, x^3, x^4"),
    ("x", "x^2, x^3, x^4, x^5, x^6"),
    ("x1 x2", "x1, x2, x1, x2"),
    ("x1 x2", "x1^2 - x2, x2^2, x1*x2, x1^3, x2^3"),
]


def _assert_matches_oracles(f):
    e, cert = dual_element(f)
    assert is_cocycle(e, f)
    G, l = cert["cofactors"], cert["functional"]
    assert e.comps == kernel_det_g(G, l)
    assert e.comps == direct_det_g(G, l)
    # the function itself, on the certificate's G and l
    assert dual_module._det_g_element(G, l).comps == e.comps
    return e


def test_redundant_square():
    sf = cli.parse_system_file("vars: x\nf: x, x^2\n")
    e = _assert_matches_oracles(sf.f)
    assert e.comps


@pytest.mark.parametrize("name", ["triple_x", "tower_s5", "surplus3"])
def test_golden_systems(name):
    sf = cli.parse_system_file((GOLDEN / f"{name}.txt").read_text())
    assert len(sf.f) > len(sf.labels)
    e = _assert_matches_oracles(sf.f)
    assert e.comps


@pytest.mark.parametrize("names, system", SURPLUS_SYSTEMS, ids=[s for _, s in SURPLUS_SYSTEMS])
def test_surplus_systems(names, system):
    sf = cli.parse_system_file(f"vars: {names}\nf: {system}\n")
    e = _assert_matches_oracles(sf.f)
    assert {len(w) for w in e.comps} == {len(sf.f) - len(sf.labels)}


def _random_system(rng):
    """n <= 2 variables and n + 1 to n + 3 equations.  The first n are
    x_j^a_j plus terms of lower total degree, so the system is
    zero-dimensional whatever follows; each further equation is a random
    combination of them (often) or a random polynomial of its own.  A few
    elementary moves, f_i += p * f_j, then mix the equations without
    changing their ideal, so that the cofactors of the annihilators involve
    more than one of them."""
    n = rng.randint(1, 2)
    reg = FamilyRegistry()
    reg.commuting("x", n)
    xs = [Poly.variable(reg, g) for g in range(n)]

    def poly(deg):
        p = Poly.const(reg, rng.randint(-2, 2))
        for _ in range(rng.randint(0, 3)):
            mono = Poly.const(reg, rng.randint(-2, 2))
            left = deg
            for x in xs:
                k = rng.randint(0, left)
                mono = mono * x**k
                left -= k
            p = p + mono
        return p

    f = []
    for x in xs:
        a = rng.randint(1, 3)
        f.append(x**a + poly(a - 1))
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.8:
            f.append(sum((poly(1) * g for g in f[:n]), Poly.zero(reg)))
        else:
            f.append(poly(2))
    for _ in range(3):
        i, j = rng.sample(range(len(f)), 2)
        f[i] = f[i] + poly(1) * f[j]
    rng.shuffle(f)
    return f


def test_random_systems():
    rng = random.Random(25)
    shapes = set()
    nontrivial = 0
    for _ in range(60):
        f = _random_system(rng)
        e = _assert_matches_oracles(f)
        shapes.add((f[0].reg.num_comm, len(f) - f[0].reg.num_comm))
        nontrivial += any(m.total_degree() > 0 for m in e.comps.values())
    # every n <= 2 with every s - n from 1 to 3, most of them with a
    # multiplier that is not a constant
    assert shapes == {(n, k) for n in (1, 2) for k in (1, 2, 3)}
    assert nontrivial >= 30
