"""Structure of the package: no code that nothing uses.

Every module-level function or class in ``src/koszulkit`` must be referenced
by name somewhere in ``src/`` outside its own definition, or be exported in
the package's ``__all__``.  Every public method, classmethod or property of a
class there must be referenced as an attribute somewhere in ``src/`` outside
its own body, or be named in the benchmark harness under ``perfbench/``.
A public method or property named like an attribute of a builtin
container, ``str`` or ``int`` fails the second check outright: counting
attributes cannot tell a call of ``dict.values`` from a call of a method of
that name.
"""

import ast
from collections import Counter
from pathlib import Path

import koszulkit

SRC = Path(koszulkit.__file__).parent
PERFBENCH = SRC.parent.parent / "perfbench"


def _used_names(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _attribute_counts(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _perfbench_names() -> set[str]:
    """Names, attributes and dotted string parts (such as the span table's
    ``"FunctionalElement.boundary"``) in the benchmark harness."""
    out = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        out |= _used_names(tree)
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out.update(sub.value.split("."))
    return out


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_module_level_definition_is_used_or_exported():
    trees = _trees()
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in koszulkit.__all__:
                continue
            # references from every module, this definition's own body left out
            used = set()
            for other_name, other in trees.items():
                for top in other.body:
                    if not (other_name == name and top is node):
                        used |= _used_names(top)
            if node.name not in used:
                unused.append(f"{name}:{node.name}")
    assert unused == []


# builtin types whose attribute names attribute counting cannot tell apart
# from a method of the same name
BUILTIN_TYPES = (dict, list, tuple, set, frozenset, str, int)


def test_every_public_method_is_used():
    trees = _trees()
    bench = _perfbench_names()
    everywhere = sum((_attribute_counts(tree) for tree in trees.values()), Counter())
    builtin = {attr for t in BUILTIN_TYPES for attr in dir(t)}
    unused = []
    for name, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("_"):
                    continue
                # no count can vouch for a name a builtin type also has
                if node.name in builtin or (
                    node.name not in bench
                    # references from all of src/, this method's own body left out
                    and everywhere[node.name] == _attribute_counts(node)[node.name]
                ):
                    unused.append(f"{name}:{cls.name}.{node.name}")
    assert unused == []
