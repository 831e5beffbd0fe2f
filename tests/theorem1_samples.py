"""Theorem 1's map check sample by sample, the oracle of
``koszul.verify_theorem1``'s per-word route.

It is the check the package ran before that route: for each of the four
maps, every random sample c takes two boundaries and two maps, and the
first sample with boundary(map(c)) != map(boundary(c)) is reported.  The
samples are drawn by the same ``_random_words`` calls in the same order, so
the two routes leave the generator in the same state.  The package itself
needs none of it.
"""

from koszulkit import koszul
from koszulkit.grassmann import render_element
from koszulkit.koszul import BoundaryAssignment, ComplexElement, verdict
from koszulkit.ring import FamilyRegistry


def theorem1_setting(f, F):
    """``verify_theorem1``'s registry, boundary assignment, the family F_x,
    the two kernels, the generators x and the four maps' sample domains
    ({kind: (ranks, dual-role tags)})."""
    n = f[0].reg.num_comm
    s, t = len(f), len(F)
    reg = FamilyRegistry()
    x = reg.commuting("x", n)
    fx = reg.odd("fx", s)
    fpx = reg.odd("fpx", s)
    Fx = reg.odd("Fx", t)
    Fpx = reg.odd("Fpx", t)
    fimg = koszul.lift(f, reg, "x")
    Fimg = koszul.lift(F, reg, "x")
    ba = BoundaryAssignment(reg, {"fx": fimg, "fpx": fimg, "Fx": Fimg, "Fpx": Fimg})
    kernels = koszul.theorem1_kernels(reg, fx, fpx, Fpx)
    domains = {
        "mult_dual_det": (
            [reg.odd_rank(fx, i) for i in range(1, s + 1)]
            + [reg.odd_rank(Fx, j) for j in range(1, t + 1)],
            frozenset(),
        ),
        "embed_unit": ([reg.odd_rank(fx, i) for i in range(1, s + 1)], frozenset()),
        "project_dual_det": (
            [reg.odd_rank(fx, i, dual=True) for i in range(1, s + 1)],
            frozenset({"fx"}),
        ),
        "project_unit": (
            [reg.odd_rank(fx, i, dual=True) for i in range(1, s + 1)]
            + [reg.odd_rank(Fx, j, dual=True) for j in range(1, t + 1)],
            frozenset({"fx", "Fx"}),
        ),
    }
    return reg, ba, Fx, kernels, list(x.gens()), domains


def per_sample_theorem1(f, F, rng, samples: int = 50, instance: str = "") -> list:
    """``verify_theorem1`` with two boundaries and two maps per sample; it
    calls ``koszul.boundary`` and ``koszul.theorem1_map`` through the module,
    so a test that patches either patches both routes."""
    if not f or not F:
        raise ValueError("need nonempty systems f and F")
    reg, ba, Fx, kernels, xgens, domains = theorem1_setting(f, F)
    boundary, theorem1_map = koszul.boundary, koszul.theorem1_map
    reports = []
    for label, kernel in zip(("theorem1.kernel_det", "theorem1.kernel_unit"), kernels):
        out = boundary(ba, kernel).element
        reports.append(
            verdict(label, instance, out.is_zero, lambda: f"boundary {render_element(out)}")
        )
    for kind, (ranks, tags) in domains.items():
        bad = None
        for k in range(samples):
            c = ComplexElement(koszul._random_words(rng, reg, ranks, xgens), tags)
            left = boundary(ba, theorem1_map(kind, c, Fx)).element
            right = theorem1_map(kind, boundary(ba, c), Fx).element
            if left != right:
                bad = (k, left - right)
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
