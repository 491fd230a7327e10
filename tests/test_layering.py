"""The two sides of every check share only the side-neutral layers: the
group side (`groups`, `wreath`) and the Fock side (`fock`) import nothing of
each other, and `linop`, like the scalar layer, imports no `wfk` module.
Imports are read from the source with `ast`, function-level ones included.

The group table is stored once, as the `mult` array: no module reads an
attribute named `rows`, and only `FiniteGroup.to_json` turns `mult` into
nested lists.  The elements of Gamma_n are encoded once, by `WreathLevel`:
no module reads an explicit group's `wreath_elements`, and only the tuple
oracle of `wreath` (`wreath_mult`, `wreath_inverse`, `wreath_identity` and
`WreathBatch.elements`) builds a `WreathElement`.  Permutations are enumerated
once: only `wreath._permutation_rows` calls `itertools.permutations`, and S_n
takes its table from the one fill.  Helpers that only the tests
call live in `tests/reference_*.py`, and no module of `wfk` defines them."""

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


class Reads(ast.NodeVisitor):
    """The scopes (module.Class.function) that read `.rows`, `.mult.tolist`
    or `.wreath_elements`, or that call `WreathElement` or
    `itertools.permutations`."""

    def __init__(self, module: str):
        self.scope = [module]
        self.found: dict[str, list[str]] = {
            "rows": [], "mult.tolist": [], "wreath_elements": [], "WreathElement()": [],
            "permutations()": []}

    def visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

    def visit_Attribute(self, node):
        where = ".".join(self.scope)
        if node.attr in ("rows", "wreath_elements"):
            self.found[node.attr].append(where)
        if (node.attr == "tolist" and isinstance(node.value, ast.Attribute)
                and node.value.attr == "mult"):
            self.found["mult.tolist"].append(where)
        self.generic_visit(node)

    def visit_Call(self, node):
        func, where = node.func, ".".join(self.scope)
        if isinstance(func, ast.Name) and func.id == "WreathElement":
            self.found["WreathElement()"].append(where)
        # `itertools.permutations(...)`, or `permutations(...)` imported by name
        if (isinstance(func, ast.Name) and func.id == "permutations") or (
                isinstance(func, ast.Attribute) and func.attr == "permutations"
                and isinstance(func.value, ast.Name) and func.value.id == "itertools"):
            self.found["permutations()"].append(where)
        self.generic_visit(node)


def src_reads() -> dict[str, list[str]]:
    """`Reads.found`, pooled over every module of `wfk`."""
    found: dict[str, list[str]] = {}
    for path in sorted(SRC.glob("*.py")):
        reads = Reads(path.stem)
        reads.visit(ast.parse(path.read_text(encoding="utf-8")))
        for what, scopes in reads.found.items():
            found.setdefault(what, []).extend(scopes)
    return found


def test_one_stored_group_table():
    found = src_reads()
    assert found["rows"] == []
    assert found["mult.tolist"] == ["groups.FiniteGroup.to_json"]


def test_one_element_encoding():
    # Gamma_n elements come from `WreathLevel` as arrays; the tuple element
    # is built only by the row-by-row oracle and by `WreathBatch.elements`
    found = src_reads()
    assert found["wreath_elements"] == []
    assert set(found["WreathElement()"]) == {
        "wreath.wreath_mult", "wreath.wreath_inverse", "wreath.wreath_identity",
        "wreath.WreathBatch.elements"}


def test_one_permutation_enumeration():
    # S_n and every Gamma_n read their permutations from `_permutation_rows`
    assert src_reads()["permutations()"] == ["wreath._permutation_rows"]


# test-only helpers, kept in the `tests/reference_*.py` module of their side
TEST_ONLY = {"p_minus_adjoint", "delta1_explicit_group", "cyc_arith", "operators_equal_below"}


def test_test_only_helpers_stay_out_of_src():
    defined = [f"{path.stem}.{node.name}"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in TEST_ONLY]
    assert defined == []
