"""The two sides of every check share only the side-neutral layers: the
group side (`groups`, `wreath`) and the Fock side (`fock`) import nothing of
each other, and `linop`, like the scalar layer, imports no `wfk` module.
Imports are read from the source with `ast`, function-level ones included."""

import ast
from pathlib import Path

import wfk

SRC = Path(wfk.__file__).parent


def wfk_imports(module: str) -> set[str]:
    """The wfk modules `module` imports.  Every module sits at the top of the
    package, so a relative import names a module of `wfk`."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["wfk", node.module])) if node.level else node.module
            names += [f"{base}.{a.name}" for a in node.names]
    return {name.split(".")[1] for name in names if name.startswith("wfk.")}


def test_sides_share_only_neutral_layers():
    # the reader sees top-level, function-level and `from . import` imports
    assert {"exact", "linop", "linalg", "report"} <= wfk_imports("fock")
    assert {"groups", "fock", "wreath"} <= wfk_imports("charmap")

    assert wfk_imports("linop") == set()
    assert not wfk_imports("fock") & {"groups", "wreath", "charmap", "mckay"}
    for module in ("groups", "wreath"):
        assert not wfk_imports(module) & {"fock", "charmap"}, module
