"""Span recorder for the traced run.

Wrappers are attached around koszulkit's public functions from outside the
package.  ``from .quotient import groebner``-style imports copy a function
into every importing module, so each wrapper replaces the original under
every name, in every koszulkit module and class, that holds it.  Submodules
are reached through ``importlib.import_module``: the package attribute
``koszulkit.dual_element`` is the function of that name, not the module.

A span records a call count and self seconds: its duration minus the
durations of the spans it encloses.  Size counters are computed from
arguments and return values after the span has stopped; the time they take
is booked to the ``trace.counters`` pseudo-span, so no layer pays for it.
Every second of a traced pass therefore lands in exactly one self time, or
in the time spent outside every span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _terms(polys):
    return sum(len(p.terms) for p in polys)


def _solve_sizes(args, result):
    rows = args[0]
    return {
        "linalg.solve.rows": len(rows),
        "linalg.solve.cols": len(rows[0]) if rows else 0,
        "linalg.solve.nnz": sum(1 for row in rows for v in row if v),
    }


def _charpoly_T_sizes(args, result):
    T, G = result
    return {
        "quotient.annihilator_degree_sum": T.total_degree(),
        "quotient.cofactor_terms": _terms(G),
    }


def _dual_element_sizes(args, result):
    return {"dual_element.multiplier_terms": _terms(result[0].comps.values())}


# (module, attribute, span name, size counters, modules to rebind in or None
# for every koszulkit module).  An entry restricted to some modules must come
# before the unrestricted entry for the same function.
SPANS = (
    ("cli", "main", "cli.main", None, None),
    ("cli", "parse_system_file", "cli.parse_system_file", None, None),
    ("cli", "assemble_report", "cli.render", None, None),
    ("cli", "_render_certificate", "cli.render", None, None),
    ("cli", "_emit", "cli.render", None, None),
    ("quotient", "groebner", "quotient.groebner",
     lambda a, r: {"quotient.gb_len": len(r.basis)}, None),
    ("quotient", "quotient_basis", "quotient.quotient_basis",
     lambda a, r: {"quotient.dimension": len(r)}, None),
    ("quotient", "reduce_with_cofactors", "quotient.reduce_with_cofactors", None, None),
    ("quotient", "source_cofactors", "quotient.source_cofactors", None, None),
    ("quotient", "mul_matrix", "quotient.mul_matrix", None, None),
    ("quotient", "charpoly_T", "quotient.charpoly_T", _charpoly_T_sizes, None),
    ("_linalg", "solve", "linalg.solve", _solve_sizes, None),
    ("_linalg", "charpoly", "linalg.charpoly", None, None),
    ("dual_element", "dual_element", "dual_element.dual_element", _dual_element_sizes, None),
    ("dual_element", "FunctionalElement.boundary", "dual_element.cocycle", None, None),
    ("dual_element", "FunctionalElement.is_zero", "dual_element.cocycle", None, None),
    ("dual_element", "pair_transgression", "dual_element.pair_transgression", None, None),
    ("dual_element", "transgression_pairing", "dual_element.transgression_pairing", None, None),
    ("dual_element", "theorem3_compare", "dual_element.theorem3_compare", None, None),
    ("dual_element", "verify_theorem4", "dual_element.verify_theorem4", None, None),
    ("grassmann", "bordered_det", "dual_element.bordered_det", None, ("dual_element",)),
    ("grassmann", "transgression_det", "grassmann.transgression_det",
     lambda a, r: {"dual_element.tdet_terms": _terms(r.terms.values())}, ("dual_element",)),
    ("grassmann", "transgression_det", "grassmann.transgression_det", None, None),
    ("grassmann", "top_contract", "grassmann.top_contract", None, None),
    ("grassmann", "bot_contract", "grassmann.bot_contract", None, None),
    ("grassmann", "Element.__mul__", "grassmann.Element.__mul__", None, None),
    ("koszul", "boundary", "koszul.boundary", None, None),
    ("koszul", "homotopy_witness", "koszul.homotopy_witness", None, None),
    ("koszul", "bordered_minor_expansion", "koszul.bordered_minor_expansion", None, None),
    ("koszul", "verify_lemma1", "koszul.verify_lemma1", None, None),
    ("koszul", "verify_lemma2", "koszul.verify_lemma2", None, None),
    ("koszul", "verify_lemma3", "koszul.verify_lemma3", None, None),
    ("koszul", "verify_theorem1", "koszul.verify_theorem1", None, None),
    ("koszul", "verify_theorem2", "koszul.verify_theorem2", None, None),
    ("ring", "Poly.__mul__", "ring.Poly.__mul__", None, None),
)

# every counter the size functions above can report, so idle ones read 0
COUNTERS = (
    "quotient.gb_len",
    "quotient.dimension",
    "quotient.annihilator_degree_sum",
    "quotient.cofactor_terms",
    "linalg.solve.rows",
    "linalg.solve.cols",
    "linalg.solve.nnz",
    "dual_element.multiplier_terms",
    "dual_element.tdet_terms",
)
LAYERS = ("cli", "quotient", "linalg", "dual_element", "koszul", "grassmann", "ring")
COUNTERS_SPAN = "trace.counters"


class Recorder:
    """Call counts, self seconds and size counters, aggregated by span name."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters: dict[str, int] = {}
        # child-time accumulators of the open spans; the bottom entry sums
        # the durations of top-level spans
        self._stack = [0.0]

    def wrap(self, fn, name, sizes=None):
        stat = self.spans.setdefault(name, [0, 0.0])
        counter_stat = self.spans.setdefault(COUNTERS_SPAN, [0, 0.0])
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stack[-1] += dt
            if sizes is not None:
                t1 = clock()
                for key, value in sizes(args, result).items():
                    counters[key] = counters.get(key, 0) + value
                dt = clock() - t1
                counter_stat[0] += 1
                counter_stat[1] += dt
                stack[-1] += dt
            return result

        return span

    @property
    def spanned_s(self) -> float:
        """Total duration of the top-level spans."""
        return self._stack[0]


def _package_namespaces():
    """Every koszulkit module, and every class defined in one."""
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "koszulkit" or name.startswith("koszulkit."):
            out.append(mod)
            out.extend(
                v for v in vars(mod).values()
                if isinstance(v, type) and v.__module__ == name
            )
    return out


def install(recorder: Recorder):
    """Attach every span; returns an undo list for ``uninstall``."""
    namespaces = _package_namespaces()
    undo = []
    for modname, attr, name, sizes, where in SPANS:
        owner = importlib.import_module(f"koszulkit.{modname}")
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = vars(owner)[path[-1]]
        span = recorder.wrap(original, name, sizes)
        if where is None:
            targets = namespaces
        else:
            targets = [importlib.import_module(f"koszulkit.{m}") for m in where]
        for ns in targets:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, span)
                    undo.append((ns, key, original))
    return undo


def uninstall(undo):
    for ns, key, original in reversed(undo):
        setattr(ns, key, original)

