"""The two sides of every check share only the side-neutral layers: the
group side (`groups`, `wreath`) and the Fock side (`fock`) import nothing of
each other, and `linop`, like the scalar layer, imports no `wfk` module.
Imports are read from the source with `ast`, function-level ones included.

The group table is stored once, as the `mult` array: no module reads an
attribute named `rows`, and only `FiniteGroup.to_json` turns `mult` into
nested lists."""

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


class TableReads(ast.NodeVisitor):
    """The scopes (module.Class.function) that read `.rows` and `.mult.tolist`."""

    def __init__(self, module: str):
        self.scope = [module]
        self.rows: list[str] = []
        self.mult_tolist: list[str] = []

    def visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

    def visit_Attribute(self, node):
        where = ".".join(self.scope)
        if node.attr == "rows":
            self.rows.append(where)
        if (node.attr == "tolist" and isinstance(node.value, ast.Attribute)
                and node.value.attr == "mult"):
            self.mult_tolist.append(where)
        self.generic_visit(node)


def test_one_stored_group_table():
    rows, mult_tolist = [], []
    for path in sorted(SRC.glob("*.py")):
        reads = TableReads(path.stem)
        reads.visit(ast.parse(path.read_text(encoding="utf-8")))
        rows += reads.rows
        mult_tolist += reads.mult_tolist
    assert rows == []
    assert mult_tolist == ["groups.FiniteGroup.to_json"]
