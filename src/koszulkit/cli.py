"""Command-line front end.

Parses polynomial-system files, runs the verification suites on pinned plus
randomized instances, computes dual elements with their certificates, and
emits deterministic JSON reports.  Exit codes: 0 all identities verified,
1 identity failure, 2 usage or input error, 3 not zero-dimensional,
4 internal error (an unexpected exception, never an identity failure).
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import functools
import json
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

# sha256 from the interpreter's own module, as ``random`` takes sha512:
# ``hashlib`` would map OpenSSL's libcrypto, about 3.6 MB, for one digest
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

from . import __version__
from .ring import FamilyRegistry, Poly, accumulate, parse_poly
from .koszul import (
    NotCocycleError,
    below,
    lift,
    verify_lemma1,
    verify_lemma2,
    verify_lemma3,
    verify_theorem1,
    verify_theorem2,
)
from .quotient import NotZeroDimensional, groebner, quotient_basis
from .dual_element import (
    FunctionalElement,
    HypothesisError,
    StaircaseFunctional,
    dual_element,
    theorem3_compare,
    verify_theorem4,
)

SUITES = ("lemma1", "lemma2", "lemma3", "thm1", "thm2", "thm3", "thm4", "all")


# ---------------------------------------------------------------------------
# system files


@dataclass
class SystemFile:
    reg: FamilyRegistry
    labels: list
    f: list
    F: list | None = None
    G: list | None = None
    order: str = "grevlex"
    degree_bound: int | None = None
    seed: int | None = None


def _split_rows(text: str):
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError("matrix value must look like [[...], [...]]")
    inner = text[1:-1]
    rows = []
    depth = 0
    start = 0
    for i, ch in enumerate(inner):
        if ch == "[":
            if depth == 0:
                start = i + 1
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced brackets in matrix")
            if depth == 0:
                rows.append(inner[start:i])
        elif depth == 0 and ch not in ", \t":
            raise ValueError(f"unexpected character {ch!r} between matrix rows")
    if depth != 0:
        raise ValueError("unbalanced brackets in matrix")
    return rows


def _check_degree_bound(bound):
    """``bound`` itself; a negative witness degree bound is an input error."""
    if bound is not None and bound < 0:
        raise ValueError(f"degree bound must be >= 0, got {bound}")
    return bound


# the sweep-size flags of ``verify`` and the least value each may take
_SIZE_FLAGS = (("n", 1), ("s", 1), ("t", 0), ("deg", 0), ("count", 1))


def _size_kwargs(args) -> dict:
    """The sweep-size flags that were given, as suite-runner keywords; a
    value below its flag's least is an input error."""
    out = {}
    for name, least in _SIZE_FLAGS:
        value = getattr(args, name)
        if value is not None:
            if value < least:
                raise ValueError(f"--{name} must be >= {least}, got {value}")
            out[name] = value
    return out


def parse_system_file(text: str) -> SystemFile:
    """Line-oriented grammar: ``vars:``, ``f:``, optional ``F:``, ``G:``,
    ``order:``, ``degree-bound:``, ``seed:``; ``_`` in a key reads as ``-``.
    ``#`` starts a comment."""
    fields: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        key = key.strip().replace("_", "-")
        if not sep or not key:
            raise ValueError(f"expected 'key: value', got {raw.strip()!r}")
        if key in fields:
            raise ValueError(f"duplicate key {key!r}")
        fields[key] = rest.strip()

    if "vars" not in fields:
        raise ValueError("missing 'vars:' line")
    if "f" not in fields:
        raise ValueError("missing 'f:' line")
    labels = fields.pop("vars").replace(",", " ").split()
    if not labels:
        raise ValueError("'vars:' must declare at least one variable")
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate variable names")
    reg = FamilyRegistry()
    reg.commuting("x", len(labels), labels=labels)

    def polys(text):
        return [parse_poly(reg, chunk) for chunk in text.split(",")]

    out = SystemFile(reg=reg, labels=labels, f=polys(fields.pop("f")))
    if "F" in fields:
        out.F = polys(fields.pop("F"))
    if "G" in fields:
        out.G = [polys(row) if row.strip() else [] for row in _split_rows(fields.pop("G"))]
    if "order" in fields:
        order = fields.pop("order")
        if order not in ("grevlex", "lex"):
            raise ValueError(f"unknown order {order!r}")
        out.order = order
    if "degree-bound" in fields:
        out.degree_bound = _check_degree_bound(int(fields.pop("degree-bound")))
    if "seed" in fields:
        out.seed = int(fields.pop("seed"))
    if fields:
        raise ValueError(f"unknown keys in system file: {sorted(fields)}")
    if out.G is not None:
        if len(out.G) != len(out.f):
            raise ValueError("G must have one row per f generator")
        if out.F is not None and any(len(row) != len(out.F) for row in out.G):
            raise ValueError("G rows must have one entry per F generator")
    return out


# ---------------------------------------------------------------------------
# randomized instance generators (all draws from one seeded stream)


# the 19 x 4 outcomes of Fraction(randint(-9, 9), randint(1, 4)), p/q at [p + 9][q - 1]
_FRACTIONS = [[Fraction(p, q) for q in range(1, 5)] for p in range(-9, 10)]


def _rand_fraction(rng) -> Fraction:
    return _FRACTIONS[below(rng, 19)][below(rng, 4)]


def _rand_matrix(rng, rows, cols):
    return [[_rand_fraction(rng) for _ in range(cols)] for _ in range(rows)]


def _rand_system(rng, reg, n, count, deg, terms=3):
    out = []
    for _ in range(count):
        acc: dict = {}
        for _ in range(terms):
            c = below(rng, 7) - 3
            # every exponent is drawn, zero or not
            mono = tuple((g, e) for g in range(n) if (e := below(rng, deg + 1)))
            accumulate(acc, mono, c)
        out.append(Poly._wrap(reg, acc))
    return out


# ---------------------------------------------------------------------------
# suite runners (ascending sweeps: the first failure is the smallest)


def suite_lemma1(n=3, s=3, t=3, deg=None, seed=0, count=25, degree_bound=None):
    rng = random.Random(seed)
    reports = []
    for nn in range(1, n + 1):
        for ss in range(1, s + 1):
            for tt in range(1, t + 1):
                for k in range(count):
                    a = _rand_matrix(rng, ss, nn)
                    b = _rand_matrix(rng, tt, nn)
                    reports.append(
                        verify_lemma1(a, b, instance=f"n={nn} s={ss} t={tt} #{k}")
                    )
    return reports


def suite_lemma2(n=None, s=3, t=3, deg=None, seed=0, count=25, degree_bound=None):
    rng = random.Random(seed)
    reports = []
    for ss in range(1, s + 1):
        for tt in range(1, t + 1):
            for k in range(count):
                b = _rand_matrix(rng, tt, ss)
                reports.extend(verify_lemma2(b, instance=f"s={ss} t={tt} #{k}"))
    return reports


def suite_lemma3(n=3, s=3, t=None, deg=3, seed=0, count=5, degree_bound=None, system=None):
    if system is not None:
        return [verify_lemma3(system.f, instance="file")]
    rng = random.Random(seed)
    reports = []
    for nn in range(1, n + 1):
        for ss in range(1, s + 1):
            for k in range(count):
                reg = FamilyRegistry()
                reg.commuting("x", nn)
                f = _rand_system(rng, reg, nn, ss, deg)
                reports.append(verify_lemma3(f, instance=f"n={nn} s={ss} #{k}"))
    return reports


def suite_thm1(n=2, s=2, t=2, deg=2, seed=0, count=50, degree_bound=None):
    rng = random.Random(seed)
    reports = []
    for nn in range(1, n + 1):
        for ss in range(1, s + 1):
            for tt in range(1, t + 1):
                reg = FamilyRegistry()
                reg.commuting("x", nn)
                f = _rand_system(rng, reg, nn, ss, deg)
                F = _rand_system(rng, reg, nn, tt, deg)
                reports.extend(
                    verify_theorem1(
                        f, F, rng, samples=count, instance=f"n={nn} s={ss} t={tt}"
                    )
                )
    return reports


def suite_thm2(n=2, s=2, t=2, deg=2, seed=0, count=25, degree_bound=None):
    rng = random.Random(seed)
    shapes = [
        (nn, ss, tt)
        for nn in range(1, n + 1)
        for ss in range(1, s + 1)
        for tt in range(0, t + 1)
    ]
    per_shape = max(1, -(-count // len(shapes)))
    reports = []
    for nn, ss, tt in shapes:
        for k in range(per_shape):
            reg = FamilyRegistry()
            reg.commuting("x", nn)
            f = _rand_system(rng, reg, nn, ss, deg)
            F = _rand_system(rng, reg, nn, tt, deg)
            reports.extend(
                verify_theorem2(f, F, instance=f"n={nn} s={ss} t={tt} #{k}")
            )
    return reports


def _pinned_thm3():
    reg1 = FamilyRegistry()
    reg1.commuting("x", 1)
    x = Poly.variable(reg1, 0)
    one = Poly.const(reg1, 1)
    reg2 = FamilyRegistry()
    reg2.commuting("x", 2)
    x1 = Poly.variable(reg2, 0)
    x2 = Poly.variable(reg2, 1)
    z = Poly.zero(reg2)
    return [
        ([x], [x * x], [[x]], "pinned f=(x) F=(x^2) G=(x)"),
        ([x * x], [x**4], [[x * x]], "pinned f=(x^2) F=(x^4) G=(x^2)"),
        (
            [x1, x2],
            [x1 * x1, x2 * x2],
            [[x1, z], [z, x2]],
            "pinned f=(x1,x2) F=(x1^2,x2^2) G=diag",
        ),
    ]


def suite_thm3(n=2, s=2, t=2, deg=2, seed=0, count=10, degree_bound=None, system=None):
    if system is not None:
        if system.F is None or system.G is None:
            raise ValueError("thm3 needs 'F:' and 'G:' lines in the system file")
        bound = degree_bound if degree_bound is not None else system.degree_bound
        rep = theorem3_compare(system.f, system.F, system.G, bound=bound)
        rep.instance = "file"
        return [rep]
    reports = []
    for f, F, G, label in _pinned_thm3():
        rep = theorem3_compare(f, F, G, bound=degree_bound)
        rep.instance = label
        reports.append(rep)
    rng = random.Random(seed)
    # randomized rungs, smallest shapes first; G entries stay low-degree so
    # the witness searches solve quickly, and a tight explicit bound keeps
    # the not-found answers (honest per the report contract) fast
    ladder = [
        (1, 1, 1, deg, 1),
        (1, 1, min(2, t), deg, 1),
        (1, min(2, s), 1, deg, 1),
        (1, min(2, s), min(2, t), deg, 1),
        (min(2, n), 1, 1, min(2, deg), 0),
        (min(2, n), min(2, s), 1, 1, 0),
        (min(2, n), min(2, s), min(2, t), 1, 0),
    ]
    k = 0
    while len(reports) < count:
        nn, ss, tt, fdeg, gdeg = ladder[k % len(ladder)]
        k += 1
        reg = FamilyRegistry()
        reg.commuting("x", nn)
        f = _rand_system(rng, reg, nn, ss, fdeg, terms=2)
        G = [
            [
                _rand_system(rng, reg, nn, 1, gdeg, terms=1)[0]
                for _ in range(tt)
            ]
            for _ in range(ss)
        ]
        F = [
            sum((f[i] * G[i][j] for i in range(ss)), Poly.zero(reg))
            for j in range(tt)
        ]
        if any(p.is_zero for p in F):
            continue
        bound = degree_bound
        if bound is None:
            bound = max(p.total_degree() for p in F) + 2
        rep = theorem3_compare(f, F, G, bound=bound)
        rep.instance = f"random n={nn} s={ss} t={tt} #{k}"
        reports.append(rep)
    return reports


def _pinned_thm4():
    reg1 = FamilyRegistry()
    reg1.commuting("x", 1)
    x = Poly.variable(reg1, 0)
    reg2 = FamilyRegistry()
    reg2.commuting("x", 2)
    x1 = Poly.variable(reg2, 0)
    x2 = Poly.variable(reg2, 1)
    return [
        ([x], "f=(x)"),
        ([x * x], "f=(x^2)"),
        ([x, x * x], "f=(x, x^2)"),
        ([x1, x2], "f=(x1, x2)"),
        ([x1 * x1 - x2, x2 * x2], "f=(x1^2 - x2, x2^2)"),
    ]


def suite_thm4(n=None, s=None, t=None, deg=None, seed=0, count=None, degree_bound=None, system=None):
    cases = (
        [(system.f, "file")]
        if system is not None
        else _pinned_thm4()
    )
    bound = degree_bound
    if bound is None and system is not None:
        bound = system.degree_bound
    reports = []
    certificates = []
    for f, label in cases:
        reps, e, cert = verify_theorem4(f, bound=bound, instance=label)
        reports.extend(reps)
        certificates.append((label, e, cert))
    return reports, certificates


_SUITE_RUNNERS = {
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "lemma3": suite_lemma3,
    "thm1": suite_thm1,
    "thm2": suite_thm2,
    "thm3": suite_thm3,
    "thm4": suite_thm4,
}

_FILE_SUITES = ("lemma3", "thm3", "thm4")


# ---------------------------------------------------------------------------
# report assembly


# Past this many bits, ints convert to decimal through ``decimal`` rather than
# str(): int-to-str is quadratic in the digit count before Python 3.12.
_DECIMAL_STR_BITS = 40_000
_DECIMAL_BASE_BITS = 128


def _int_str(n: int) -> str:
    """str(n), by divide and conquer over libmpdec for large n.

    The split n = hi * 2^w + lo halves the bit length at each level, and the
    powers 2^w are exact Decimals shared between levels: the method
    CPython 3.12 uses internally for large ints.
    """
    if n.bit_length() <= _DECIMAL_STR_BITS:
        return str(n)
    D = decimal.Decimal
    powers: dict[int, decimal.Decimal] = {}

    def pow2(w):
        result = powers.get(w)
        if result is None:
            if w <= _DECIMAL_BASE_BITS:
                result = D(2) ** w
            elif w - 1 in powers:
                result = powers[w - 1] * 2
            else:
                half = w >> 1
                result = pow2(half) * pow2(w - half)
            powers[w] = result
        return result

    def convert(m, w):
        if w <= _DECIMAL_BASE_BITS:
            return D(m)
        half = w >> 1
        hi = m >> half
        lo = m - (hi << half)
        return convert(lo, half) + convert(hi, w - half) * pow2(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        digits = str(convert(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


def _frac_str(x) -> str:
    """str(Fraction(x)), fast for huge numerators and denominators."""
    x = Fraction(x)
    if x.denominator == 1:
        return _int_str(x.numerator)
    return f"{_int_str(x.numerator)}/{_int_str(x.denominator)}"


def _render_functional_element(e) -> list:
    """One entry per dual word: its multiplier m over a product functional;
    over a staircase functional, the values of m * tau on the staircase."""
    out = []
    words = sorted(e.comps, key=lambda w: (len(w), w))
    l = e.functional
    for w in words:
        item = {"word": [e.reg.odd_label(r) for r in w]}
        if isinstance(l, StaircaseFunctional):
            terms = l.by_exponent(e.comps[w])[()]
            item["values"] = [_frac_str(v) for v in l.staircase_values(terms)]
        else:
            item["multiplier"] = str(e.comps[w])
        out.append(item)
    return out


def _render_certificate(label, e, cert) -> dict:
    return {
        "instance": label,
        "dimension": cert["dimension"],
        "order": cert["order"],
        "annihilators": [str(T) for T in cert["annihilators"]],
        "cofactors": [[str(g) for g in row] for row in cert["cofactors"]],
        "initials": [[_frac_str(c) for c in row] for row in cert["initials"]],
        "element": _render_functional_element(e),
    }


def _header(command, digest) -> dict:
    """The fields every report opens with."""
    return {
        "tool": "koszulkit",
        "version": __version__,
        "command": command,
        "input_digest": digest,
    }


def assemble_report(command, digest, seed, reports, certificates=None, timing=None):
    counts = {"equal": 0, "homotopic": 0, "failed": 0, "not_found": 0}
    first_failure = None
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
        if first_failure is None and not r.ok:
            first_failure = r.to_dict()
    return {
        **_header(command, digest),
        "seed": seed,
        "summary": {"total": len(reports), **counts},
        "first_failure": first_failure,
        "reports": [r.to_dict() for r in reports],
        "certificates": certificates,
        "timing": timing,
    }


def _emit(data, out_path=None) -> None:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _digest(data: bytes) -> str:
    return _sha256(data).hexdigest()


def _read_system(path):
    """(system, digest): the system file at ``path``, parsed, and the sha256
    of its text."""
    with open(path) as fh:
        text = fh.read()
    return parse_system_file(text), _digest(text.encode())


@contextlib.contextmanager
def _any_digits():
    """Let ints of any size convert to decimal strings for the duration.

    Python 3.11 and later cap int-to-str conversion at 4,300 digits by
    default.  Commands lift the cap only once their inputs are parsed, where
    it keeps an over-long literal an input error, so that exact results of
    any size render; the cap is restored afterwards.
    """
    setter = getattr(sys, "set_int_max_str_digits", None)
    if setter is None:
        yield
        return
    saved = sys.get_int_max_str_digits()
    setter(0)
    try:
        yield
    finally:
        setter(saved)


# ---------------------------------------------------------------------------
# commands


def cmd_verify(args) -> int:
    _check_degree_bound(args.degree_bound)
    sizes = _size_kwargs(args)
    seed = args.seed
    env = os.environ.get("KOSZULKIT_SEED")
    if env is not None:
        seed = int(env)
    system = None
    if args.file is not None:
        if args.suite == "all" or args.suite not in _FILE_SUITES:
            raise ValueError(
                f"--file applies only to suites {', '.join(_FILE_SUITES)}"
            )
        system, digest = _read_system(args.file)
    else:
        key = (
            f"{args.suite} n={args.n} s={args.s} t={args.t} deg={args.deg} "
            f"seed={seed} count={args.count} bound={args.degree_bound}"
        )
        digest = _digest(key.encode())

    with _any_digits():
        suites = list(_SUITE_RUNNERS) if args.suite == "all" else [args.suite]
        t0 = time.time()
        reports = []
        certificates = None
        for name in suites:
            runner = _SUITE_RUNNERS[name]
            kwargs = {"seed": seed, "degree_bound": args.degree_bound, **sizes}
            if name in _FILE_SUITES:
                kwargs["system"] = system
            if name == "thm4":
                reps, certs = runner(**kwargs)
                certificates = [_render_certificate(*c) for c in certs]
            else:
                reps = runner(**kwargs)
            if not reps:
                raise ValueError(f"verify {name} made no report with these sizes")
            reports.extend(reps)
        elapsed = time.time() - t0
        data = assemble_report(
            f"verify {args.suite}",
            digest,
            seed,
            reports,
            certificates=certificates,
            timing=round(elapsed, 3) if args.timing else None,
        )
        _emit(data)
        return 0 if all(r.ok for r in reports) else 1


def cmd_dual_element(args) -> int:
    system, digest = _read_system(args.file)
    with _any_digits():
        reports, e, cert = verify_theorem4(system.f, bound=system.degree_bound, instance="file")
        data = assemble_report(
            "dual-element",
            digest,
            system.seed,
            reports,
            certificates=[_render_certificate("file", e, cert)],
        )
        _emit(data, args.out)
    return 0 if all(r.ok for r in reports) else 1


def cmd_pair(args) -> int:
    system, digest = _read_system(args.file)
    p = parse_poly(system.reg, args.poly)
    with _any_digits():
        e, cert = dual_element(system.f)
        pX = lift([p], e.reg, "x")[0]
        l_elem = FunctionalElement(cert["functional"], "fx", {(): Poly.const(e.reg, 1)})
        data = {
            **_header("pair", digest),
            "poly": str(p),
            "pair_with_e": _frac_str(e.pair_poly(pX)),
            "pair_with_l": _frac_str(l_elem.pair_poly(pX)),
        }
        _emit(data)
    return 0


def cmd_groebner(args) -> int:
    system, digest = _read_system(args.file)
    with _any_digits():
        gb = groebner(system.f, order=system.order, family="x")
        try:
            qb = quotient_basis(gb)
            dimension = len(qb)
            staircase = [str(Poly(gb.reg, {m: Fraction(1)})) for m in qb.monomials]
        except NotZeroDimensional:
            dimension = None
            staircase = None
        data = {
            **_header("groebner", digest),
            "order": gb.order,
            "basis": [str(p) for p in gb.basis],
            "cofactors": [[str(c) for c in row] for row in gb.cofactors],
            "dimension": dimension,
            "staircase": staircase,
        }
        _emit(data)
    return 0


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``main`` may be
    called many times in one process, and building takes about 1 ms."""
    p = argparse.ArgumentParser(
        prog="koszulkit",
        description="Exact verification of contraction and boundary identities, "
        "and dual elements of zero-dimensional polynomial systems.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITES)
    v.add_argument("--n", type=int, default=None, help="cap on variable count")
    v.add_argument("--s", type=int, default=None, help="cap on first system size")
    v.add_argument("--t", type=int, default=None, help="cap on second system size")
    v.add_argument("--deg", type=int, default=None, help="cap on entry degree")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--count", type=int, default=None, help="instances per shape")
    v.add_argument("--degree-bound", type=int, default=None, dest="degree_bound")
    v.add_argument("--file", default=None, help="system file (lemma3, thm3, thm4)")
    v.add_argument("--timing", action="store_true", help="include wall-clock timing")
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("dual-element", help="compute the dual element and certificate")
    d.add_argument("file")
    d.add_argument("--out", default=None, help="also write the report to this path")
    d.set_defaults(func=cmd_dual_element)

    pr = sub.add_parser("pair", help="pair the dual element against a polynomial")
    pr.add_argument("file")
    pr.add_argument("--poly", required=True)
    pr.set_defaults(func=cmd_pair)

    g = sub.add_parser("groebner", help="basis, cofactors and staircase of a system")
    g.add_argument("file")
    g.set_defaults(func=cmd_groebner)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotZeroDimensional as ex:
        print(f"error: not zero-dimensional: {ex}", file=sys.stderr)
        return 3
    except HypothesisError as ex:
        print(f"error: hypothesis violated: {ex}", file=sys.stderr)
        return 2
    except NotCocycleError as ex:
        print(f"error: identity failure: {ex}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except Exception as ex:
        traceback.print_exc()
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
