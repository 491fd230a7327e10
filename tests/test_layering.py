"""The two sides of every check share only the side-neutral layers: the
group side (`groups`, `wreath`) and the Fock side (`fock`) import nothing of
each other.  Imports are read from the source with `ast`, function-level
ones included.

The group table is stored once, as the `mult` array: no module reads an
attribute named `rows`, and only `FiniteGroup.to_json` turns `mult` into
nested lists.  The elements of Gamma_n are encoded once, by `WreathLevel`:
no module reads an explicit group's `wreath_elements`, and only the tuple
oracle of `wreath` (`wreath_mult`, `wreath_inverse` and
`WreathBatch.elements`) builds a `WreathElement`; the identity element of
that oracle is a helper of the tests.  Permutations are enumerated
once: only `wreath._permutation_rows` calls `itertools.permutations`, and S_n
takes its table from the one fill.  The Fock bracket suites compare grade
blocks: `fock.heisenberg_check` and `fock.virasoro_check` call no `apply`,
and the per-vector `_basis_vectors` is gone.  The Fock side has one
normal-product path, the grade blocks: the term-dict kernel (`_nop_apply`,
`_vanishes`, `_Field.apply_mode`) and `FockOperator._columns_block` are gone
from `wfk`.  Every Heisenberg mode is applied from its grade blocks:
the term-dict mode columns (`create`, `annihilate`) are gone from `wfk`, and
no operator `ColorSpace.mode` returns has a column function.  A
`FockOperator` is its grade blocks: its constructor takes no column
function, `block` takes only the weight, and the join and projective
boundary operators, the cubic, every W^k_n and every normal product
`wfk` builds has a `grade_block`; the column-function operator stays in
`tests/reference_fock.py` as the gate.  `FockOperator.apply` multiplies a
vector by the blocks: no column path is left in `wfk` (no
`FockVector.basis_vector` or `sum_scaled`, no `FockOperator._column`), and
the column path it replaced stays in `tests/reference_fock.py` as its gate.  A Frobenius algebra owns its Fock
space (`ColorSpace.of_algebra(alg) is alg.space`), the space keeps the
normal products of its fields, `W_operator` reads them and does not call
`_nop_into` itself, and no cache of `fock` is keyed by `id(...)`.  On the
group side p_k(gamma) is its level blocks: `wreath.heisenberg_check` calls no `apply`,
`HeisenbergOperator.block` takes only the level.  The group side has no
operator class: `wfk.linop` and its `LinearOperator` are gone, no module
imports `linop`, and `WreathClassFunction` keeps none of the vector
protocol it served (`terms`, `basis_vector`, `sum_scaled`); `charmap`
extends Delta_i and p_k(gamma) linearly over their cached columns itself,
and the column class stays in `tests/reference_linop.py` as the gate.  No
level labels all its elements: `WreathLevel._labels` is gone.  Helpers
that only the tests call live in `tests/reference_*.py`, and no module of
`wfk` defines them.  No
module calls `np.unique`, whose first call imports `numpy.ma`, and a run
over the groups, their tables and the Gamma_n labels imports no `numpy.ma`."""

import ast
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import wfk
from wfk.charmap import _p_field, colored_space, cubic_formula, fock_side_p
from wfk.exact import CycNum
from wfk.fock import (ColorSpace, FockOperator, W_operator, boundary_operator, builtin_model,
                      join_boundary, normal_order, p2_model, q_mode)
from wfk.groups import cyclic_group
from wfk.wreath import HeisenbergOperator

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
    assert {"exact", "linalg", "report"} <= wfk_imports("fock")
    assert {"groups", "fock", "wreath"} <= wfk_imports("charmap")

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
        "wreath.wreath_mult", "wreath.wreath_inverse", "wreath.WreathBatch.elements"}


def test_one_permutation_enumeration():
    # S_n and every Gamma_n read their permutations from `_permutation_rows`
    assert src_reads()["permutations()"] == ["wreath._permutation_rows"]


# test-only helpers, kept in the `tests/reference_*.py` module of their side
TEST_ONLY = {"p_minus_adjoint", "delta1_explicit_group", "cyc_arith", "operators_equal_below",
             "transfer_bracket", "weighted_gram_wreath", "wcf_from_class_function",
             "wcf_to_class_function", "wreath_identity"}


def test_test_only_helpers_stay_out_of_src():
    defined = [f"{path.stem}.{node.name}"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in TEST_ONLY]
    assert defined == []


def test_fock_suites_compare_blocks():
    # the bracket suites compare grade blocks; no per-vector loop comes back
    tree = ast.parse((SRC / "fock.py").read_text(encoding="utf-8"))
    defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_basis_vectors" not in defined
    for suite in ("heisenberg_check", "virasoro_check"):
        calls = [node.func.attr for node in ast.walk(defined[suite])
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
        assert "apply" not in calls, suite
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert "_basis_vectors" not in names


def test_wreath_suite_compares_level_blocks():
    # p_k(gamma) is its level blocks, and the bracket suite multiplies them
    tree = ast.parse((SRC / "wreath.py").read_text(encoding="utf-8"))
    defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    calls = [node.func.attr for node in ast.walk(defined["heisenberg_check"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    assert "apply" not in calls
    assert list(inspect.signature(HeisenbergOperator.block).parameters) == ["self", "m"]


def src_names(names: set[str]) -> list[str]:
    """module.name for every definition, attribute or name of `names` in
    `wfk`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name in names:
                found.append(f"{path.stem}.{name}")
    return found


def test_one_normal_product_path():
    # W^k_n and normal products read their columns off grade blocks, and mode
    # blocks are built from the monomials of a grade; the term-dict kernel
    # stays in `tests/reference_fock.py` as their gate
    assert src_names({"_nop_apply", "_vanishes", "apply_mode", "_columns_block"}) == []


def test_one_heisenberg_mode_path():
    # every mode, of rational or cyclotomic coefficients, is its grade blocks;
    # the term-dict columns stay in `tests/reference_fock.py` as their gate
    assert src_names({"create", "annihilate"}) == []
    alg = builtin_model("exterior2")
    spaces = [(ColorSpace.of_algebra(alg), [alg.basis(i) for i in range(alg.dim)]),
              (ColorSpace.of_algebra(builtin_model("p2")),
               [[Fraction(1, 2), CycNum.zeta(3), 0]])]
    G = cyclic_group(3)
    space = colored_space(G)
    spaces.append((space, [_p_field(G, gamma) for gamma in G.character_table().irreducibles]))
    for space, fields in spaces:
        for coeffs in fields:
            for n in range(-2, 3):
                assert is_block_operator(space.mode(n, coeffs)), (space.name, coeffs, n)
    for n in range(-2, 3):
        assert is_block_operator(q_mode(alg, n, alg.basis(1)))
        assert is_block_operator(ColorSpace.of_algebra(alg).field(alg.basis(1)).mode(n))
        if n:
            assert is_block_operator(fock_side_p(G, n, G.character_table().irreducibles[1]))


def is_block_operator(op) -> bool:
    """Whether `op` is a `FockOperator` with grade blocks and no column
    function."""
    return isinstance(op, FockOperator) and callable(op.grade_block) and not hasattr(op, "fn")


def test_fock_operator_is_its_grade_blocks():
    # the constructor takes no column function and `block` only the weight;
    # the term-dict operator stays in `tests/reference_fock.py` as the gate
    assert list(inspect.signature(FockOperator).parameters) == [
        "space", "max_weight", "name", "grade_block", "lowers"]
    assert list(inspect.signature(FockOperator.block).parameters) == ["self", "d"]
    p2 = builtin_model("p2")
    point = ColorSpace(["x"], [0], [[1]])
    ops = [join_boundary(point),
           boundary_operator(builtin_model("affine-plane"), "affine-plane"),
           boundary_operator(p2, "projective-with-trivial-K"),
           boundary_operator(p2, "projective-with-trivial-K", 4),
           cubic_formula(4),
           W_operator(p2, 2, 1, p2.unit, 4),
           W_operator(p2, 3, 0, p2.unit, None),
           normal_order(p2, [p2.unit, p2.unit], 4, 0)]
    for op in ops:
        assert is_block_operator(op), op.name


def src_methods() -> set[str]:
    """Class.method for every method a class of `wfk` defines."""
    return {f"{cls.name}.{node.name}"
            for path in sorted(SRC.glob("*.py"))
            for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, ast.FunctionDef)}


def test_fock_operator_applies_its_blocks():
    # one apply rule, the block times the vector; the column path that
    # `linop` ran stays in `tests/reference_fock.py` as its gate
    assert not {"FockVector.basis_vector", "FockVector.sum_scaled",
                "FockOperator._column"} & src_methods()
    assert FockOperator.__bases__ == (object,)
    assert "apply" in vars(FockOperator)


def test_group_side_has_no_operator_class():
    # Delta_i and p_k(gamma) are linear extensions local to `charmap`; the
    # operator class and its vector protocol stay in `tests/reference_linop.py`
    # and `tests/reference_wreath.py` as the gate, and the class sizes of the
    # orbifold count come from `class_size`, not from labels of every element
    assert not (SRC / "linop.py").exists()
    assert [path.stem for path in sorted(SRC.glob("*.py"))
            if "linop" in wfk_imports(path.stem)] == []
    assert src_names({"LinearOperator", "_labels"}) == []
    assert not {"WreathClassFunction.sum_scaled", "WreathClassFunction.basis_vector",
                "WreathClassFunction.terms", "WreathLevel._labels"} & src_methods()


def test_algebra_owns_its_space():
    for alg in [builtin_model(name) for name in ("point", "p2", "exterior2")] + [p2_model()]:
        assert ColorSpace.of_algebra(alg) is alg.space


def test_W_operator_reads_kept_products():
    # the normal products are built by the space that keeps them, and no
    # cache of the Fock side is keyed by the address of an object
    tree = ast.parse((SRC / "fock.py").read_text(encoding="utf-8"))
    defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names = {node.id for node in ast.walk(defined["W_operator"]) if isinstance(node, ast.Name)}
    assert "_nop_into" not in names
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "id"] == []


def test_no_numpy_ma():
    # the first `np.unique` call of a process imports `numpy.ma` (numpy 2.4),
    # about 10 ms and 0.5 MB; a run that closes an SL2 group, computes its
    # classes and table and labels the elements of Gamma_n loads none
    assert src_names({"unique"}) == []
    script = ("import contextlib, io, sys\n"
              "from wfk import cli\n"
              "for query in sys.argv[1:]:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert cli.run(query.split()) == 0, query\n"
              "print('numpy.ma' in sys.modules)")
    env = {k: v for k, v in os.environ.items() if k != "WFK_BUDGET"}
    env["PYTHONPATH"] = str(SRC.parent)
    proc = subprocess.run([sys.executable, "-c", script,
                           "mckay --group builtin:binary-tetrahedral", "verify conv-cubic --n 4",
                           "chartable --group builtin:symmetric:4"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
