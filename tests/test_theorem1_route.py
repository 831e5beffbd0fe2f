"""Theorem 1's per-word route against the per-sample check, and the linearity
it rests on.

``verify_theorem1`` takes one difference D_w = boundary(map(w)) -
map(boundary(w)) per distinct drawn word w and sums p_w * D_w per sample.
It must give the reports of ``per_sample_theorem1``, the earlier check that
took two boundaries and two maps per sample, and leave the generator in the
same state: on random systems of every shape up to n = s = t = 3, and with
defects patched into ``theorem1_map``, where both routes must name the same
failing sample with the same difference.  The route is sound because the
boundary and the four maps are k[x]-linear, which the property tests check
on random polynomial multiples of elements with polynomial coefficients,
primal and dual-tagged.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from theorem1_samples import per_sample_theorem1, theorem1_setting

from koszulkit import koszul
from koszulkit.cli import _rand_system
from koszulkit.grassmann import Element
from koszulkit.koszul import ComplexElement, boundary, theorem1_map, verify_theorem1
from koszulkit.ring import PRIMAL, FamilyRegistry, Poly

SHAPES = list(itertools.product(range(1, 4), repeat=3))


def _systems(seed, n, s, t):
    rng = random.Random(seed)
    reg = FamilyRegistry()
    reg.commuting("x", n)
    return _rand_system(rng, reg, n, s, 2), _rand_system(rng, reg, n, t, 2)


def _same_route(f, F, seed, samples):
    """Both routes on one generator seed: their reports, as the CLI prints
    them, and the generator state they leave."""
    fast, slow = random.Random(seed), random.Random(seed)
    got = [r.to_dict() for r in verify_theorem1(f, F, fast, samples=samples)]
    want = [r.to_dict() for r in per_sample_theorem1(f, F, slow, samples=samples)]
    assert got == want
    assert fast.getstate() == slow.getstate()
    return got


@pytest.mark.parametrize("n, s, t", SHAPES)
def test_per_word_route_matches_per_sample_check(n, s, t):
    for seed in range(3):
        f, F = _systems(1000 * seed + 100 * n + 10 * s + t, n, s, t)
        reports = _same_route(f, F, seed, samples=20)
        assert all(r["status"] == "equal" for r in reports)


def _drop_singletons(kind, e, Ffam, _map=theorem1_map):
    out = _map(kind, e, Ffam).element
    kept = {w: c for w, c in out.terms.items() if len(w) != 1}
    return ComplexElement(Element._wrap(out.reg, kept), e.dual_families)


def _double_odd_words(kind, e, Ffam, _map=theorem1_map):
    out = _map(kind, e, Ffam)
    scaled = {w: c * 2 if len(w) % 2 else c for w, c in out.element.terms.items()}
    return ComplexElement(Element._wrap(out.element.reg, scaled), out.dual_families)


@pytest.mark.parametrize("defect", [_drop_singletons, _double_odd_words])
def test_patched_maps_fail_at_the_same_sample(monkeypatch, defect):
    """A k[x]-linear map that does not commute with the boundary: both
    routes report the same sample index and the same difference."""
    monkeypatch.setattr(koszul, "theorem1_map", defect)
    failed = 0
    for seed, (n, s, t) in enumerate(SHAPES):
        f, F = _systems(seed, n, s, t)
        reports = _same_route(f, F, seed, samples=20)
        failed += sum(r["status"] == "failed" for r in reports)
    assert failed >= len(SHAPES)


# linearity over k[x]: the registry of verify_theorem1 at n = 2, s = t = 2

_F2 = _systems(7, 2, 2, 2)
REG, BA, FX, _, _, DOMAINS = theorem1_setting(*_F2)
PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)

monomials = st.lists(
    st.tuples(st.integers(0, 1), st.integers(1, 3)), max_size=2, unique_by=lambda ge: ge[0]
).map(lambda pairs: tuple(sorted(pairs)))
polys = st.dictionaries(monomials, st.integers(-5, 5), min_size=1, max_size=4).map(
    lambda terms: Poly(REG, terms)
)


def elements(ranks):
    words = st.lists(st.sampled_from(ranks), max_size=3, unique=True).map(
        lambda w: tuple(sorted(w))
    )
    return st.dictionaries(words, polys, max_size=4).map(lambda t: Element(REG, t))


def _tagged(draw_tags):
    """Ranks for a dual-role family set: every generator of the other
    families, and only the dual generators of the tagged ones."""
    tags = frozenset(draw_tags)
    ranks = [
        r
        for r in range(REG.num_ranks)
        if not (REG.rank_info(r)[0] in tags and REG.rank_info(r)[2] == PRIMAL)
    ]
    return tags, ranks


tagged_elements = st.sets(st.sampled_from(["fx", "fpx", "Fx", "Fpx"])).map(_tagged).flatmap(
    lambda tr: st.tuples(st.just(tr[0]), elements(tr[1]))
)


@PROPERTY
@given(polys, tagged_elements)
def test_boundary_is_coefficient_linear(p, tagged):
    tags, e = tagged
    assert boundary(BA, ComplexElement(e * p, tags)).element == (
        boundary(BA, ComplexElement(e, tags)).element * p
    )


@pytest.mark.parametrize("kind", sorted(DOMAINS))
def test_maps_are_coefficient_linear(kind):
    ranks, tags = DOMAINS[kind]

    @PROPERTY
    @given(polys, elements(ranks))
    def check(p, e):
        scaled = theorem1_map(kind, ComplexElement(e * p, tags), FX)
        base = theorem1_map(kind, ComplexElement(e, tags), FX)
        assert scaled.element == base.element * p
        assert scaled.dual_families == base.dual_families

    check()
