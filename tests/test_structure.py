"""Structure of the package: no module-level code that nothing uses.

Every module-level function or class in ``src/koszulkit`` must be referenced
by name somewhere in ``src/`` outside its own definition, or be exported in
the package's ``__all__``.
"""

import ast
from pathlib import Path

import koszulkit

SRC = Path(koszulkit.__file__).parent


def _used_names(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_module_level_definition_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
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
