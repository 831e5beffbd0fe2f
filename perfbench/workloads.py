"""The four seeded workloads: input generation, one operation, output check.

Each workload turns the benchmark seed into inputs (``build``: a list of
operations, tuples whose first entry is a label), runs one
operation on one input (``run``) and checks the operation's output
(``check``, which returns a list of problems, empty when the output is
right).  ``build`` is part of the measured set-up; ``run`` is timed; ``check``
runs after the timed region.  The program only ever sees the generated
inputs: system files, or suite seeds on its command line.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import re
from fractions import Fraction

# ROADMAP ladder rungs that finish today: (name, variables, system, dimension).
# 3var_d27 (a^3-b-1, b^3-c+a, c^3-a*b) is left out: it does not finish in 120 s.
LADDER = (
    ("x12", "x", "x^12", 12),
    ("dense2_d9", "x1 x2", "x1^3 - x2 + 1, x2^3 - x1", 9),
    ("dense2_d16", "x1 x2", "x1^4 - x2 + 1, x2^4 - x1 - 2", 16),
    ("cube3", "a b c", "a^2-b, b^2-c, c^2", 8),
    ("cyclic3", "a b c", "a+b+c, a*b+b*c+c*a, a*b*c-1", 6),
)

# (variables, degree) of the dense systems; dimension is degree^variables.
SHAPES = ((2, 3), (2, 4), (3, 2), (2, 5), (2, 6))
# One set of shapes takes 1.6-3.1 s, mostly in the degree-6 system, and its
# cost varies by about 20% between seeds; ten sets per pass average most of
# that out.
SYSTEMS_PER_SHAPE = 10

IDENTITY_SUITES = ("lemma1", "lemma2", "lemma3", "thm1", "thm2", "thm4")

# Suite seeds per verify pass.  One thm3 suite takes 1.5-3.5 s on a 2-core
# x86 box, and its cost varies by 20% between seeds (32 seeds measured), so a
# thm3 pass takes thirteen, about 28 s, to vary by about 5.5%.  The six
# identity suites take about 2.4 s per seed and vary by about 5%; they run at
# the first eight of the same seeds.
THM3_SEEDS = 13
IDENTITY_SEEDS = 8


def run_cli(cli, argv):
    """``cli.main(argv)`` in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def suite_seeds(seed, count):
    """``count`` suite seeds; a smaller count gives a prefix of a larger one."""
    rng = random.Random(f"suite-seeds:{seed}")
    return rng.sample(range(1, 1_000_000), count)


def _substitute(text, images):
    """Replace every variable name in ``text`` by its image, simultaneously."""
    pattern = re.compile(r"\b(" + "|".join(images) + r")\b")
    return pattern.sub(lambda m: f"({images[m.group(1)]})", text)


def _scaled_system(rng, names, system):
    """x_j -> c_j * x_j for seeded nonzero rationals c_j."""
    images = {}
    for v in names:
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))
        images[v] = f"{c}*{v}"
    return _substitute(system, images)


def _dense_system(rng, n, deg):
    """n dense polynomials of degree deg in x1..xn with exactly deg^n roots.

    Before the change of coordinates, polynomial i has its top-degree form
    in x1..x_{n-i} only, with a nonzero x_{n-i}^deg coefficient: the top
    forms share no zero but the origin, so Bezout's bound is met.  A seeded
    unimodular integer change of coordinates, which keeps that property,
    then mixes all variables into every top form.
    """
    names = [f"x{k + 1}" for k in range(n)]

    def coef():
        return rng.choice((-1, 1)) * rng.randint(1, 3)

    polys = []
    for i in range(n):
        last = n - i - 1
        terms = []
        for exps in itertools.product(range(deg + 1), repeat=n):
            d = sum(exps)
            if d > deg or (d == deg and any(exps[last + 1 :])):
                continue
            if not (d == deg and exps[last] == deg) and rng.random() < 0.2:
                continue
            mono = "*".join(f"{v}^{e}" for v, e in zip(names, exps) if e) or "1"
            terms.append(f"{coef()}*{mono}")
        polys.append(" + ".join(terms))
    upper = [[int(i == j) or (rng.randint(-1, 1) if j > i else 0) for j in range(n)] for i in range(n)]
    lower = [[int(i == j) or (rng.randint(-1, 1) if j < i else 0) for j in range(n)] for i in range(n)]
    images = {}
    for i, v in enumerate(names):
        row = [sum(upper[i][k] * lower[k][j] for k in range(n)) for j in range(n)]
        images[v] = " + ".join(f"{c}*{w}" for c, w in zip(row, names) if c)
    return names, [_substitute(p, images) for p in polys]


def _write(workdir, name, text):
    path = workdir / f"{name}.txt"
    path.write_text(text)
    return path


def _parse(cli, path):
    return cli.parse_system_file(path.read_text())


class DualLadder:
    """``koszulkit dual-element SYS`` on the five ladder rungs that finish,
    each variable scaled by a seeded nonzero rational."""

    name = "dual-ladder"
    hot = (
        "dual_element.cocycle",
        "dual_element.bordered_det",
        "dual_element.transgression_pairing",
        "grassmann.transgression_det",
        "cli.parse_system_file",
        "cli.render",
    )

    def build(self, kk, seed, workdir):
        rng = random.Random(f"dual-ladder:{seed}")
        ops = []
        for rung, variables, system, dim in LADDER:
            text = f"vars: {variables}\nf: {_scaled_system(rng, variables.split(), system)}\n"
            path = _write(workdir, rung, text)
            _parse(kk.cli, path)
            ops.append((rung, str(path), dim))
        return ops

    def run(self, kk, op):
        return run_cli(kk.cli, ["dual-element", op[1]])

    def check(self, op, out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        data = json.loads(text)
        problems = [
            f"{r['name']} is {r['status']}"
            for r in data["reports"]
            if r["status"] not in ("equal", "homotopic")
        ]
        if len(data["reports"]) != 2:
            problems.append(f"{len(data['reports'])} reports, expected 2")
        dim = data["certificates"][0]["dimension"]
        if dim != op[2]:
            problems.append(f"dimension {dim}, expected {op[2]}")
        return problems


class Verify:
    """``koszulkit verify SUITE --seed S`` for each suite at each suite seed."""

    def __init__(self, name, suites, seeds, hot):
        self.name = name
        self.suites = suites
        self.seeds = seeds
        self.hot = hot

    def build(self, kk, seed, workdir):
        return [
            (f"{suite} --seed {s}", suite, s)
            for s in suite_seeds(seed, self.seeds)
            for suite in self.suites
        ]

    def run(self, kk, op):
        return run_cli(kk.cli, ["verify", op[1], "--seed", str(op[2])])

    def check(self, op, out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        summary = json.loads(text)["summary"]
        problems = [f"{summary[k]} {k}" for k in ("failed", "not_found") if summary[k]]
        if not summary["total"]:
            problems.append("no reports")
        return problems


class Annihilators:
    """groebner, quotient_basis and charpoly_T of every coordinate, on seeded
    dense systems of growing quotient dimension."""

    name = "annihilators"
    hot = (
        "quotient.groebner",
        "quotient.reduce_with_cofactors",
        "quotient.mul_matrix",
        "quotient.charpoly_T",
        "linalg.charpoly",
    )

    def build(self, kk, seed, workdir):
        rng = random.Random(f"annihilators:{seed}")
        ops = []
        for k, (n, deg) in itertools.product(range(SYSTEMS_PER_SHAPE), SHAPES):
            names, polys = _dense_system(rng, n, deg)
            label = f"n{n}_d{deg}_{k}"
            path = _write(workdir, label, f"vars: {' '.join(names)}\nf: {', '.join(polys)}\n")
            ops.append((label, _parse(kk.cli, path).f, deg**n))
        return ops

    def run(self, kk, op):
        q = kk.quotient
        f = op[1]
        gb = q.groebner(f)
        qb = q.quotient_basis(gb)
        n = f[0].reg.num_comm
        return f, len(qb), [q.charpoly_T(gb, j) for j in range(1, n + 1)]

    def check(self, op, out):
        f, dim, annihilators = out
        problems = [] if dim == op[2] else [f"dimension {dim}, expected {op[2]}"]
        for j, (T, G) in enumerate(annihilators, start=1):
            g = T.reg.comm_gen("x", j)
            if T.support_gens() != {g} or T.total_degree() != dim or T.coeff(((g, dim),)) != 1:
                problems.append(f"T_{j} is not monic of degree {dim} in x{j}: {T}")
            expansion = sum((fi * gi for fi, gi in zip(f, G)), T.zero(T.reg))
            if expansion != T:
                problems.append(f"T_{j} is not sum_i f_i G_i{j}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        DualLadder(),
        Verify(
            "verify-witness",
            ("thm3",),
            THM3_SEEDS,
            ("koszul.homotopy_witness", "linalg.solve", "dual_element.theorem3_compare"),
        ),
        Verify(
            "verify-identities",
            IDENTITY_SUITES,
            IDENTITY_SEEDS,
            (
                "koszul.verify_lemma1",
                "koszul.verify_lemma2",
                "koszul.verify_theorem1",
                "koszul.verify_theorem2",
                "koszul.bordered_minor_expansion",
                "koszul.boundary",
                "grassmann.Element.__mul__",
                "grassmann.top_contract",
                "grassmann.bot_contract",
                "grassmann.transgression_det",
                "ring.Poly.__mul__",
            ),
        ),
        Annihilators(),
    )
}
