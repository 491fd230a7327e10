"""The benchmark tracer (`perfbench/tracer.py`) wraps charmap, fock, groups
and wreath functions by name and reads their arguments in its hooks.  A
rename or a new signature there breaks a traced run, not the untraced tests,
so traced conv-cubic and lehn-sorger runs, traced runs of the Fock modes on
both sides of `ch`, and a traced McKay run, whose multiplicities are
`groups.inner_product` calls, are checked here, in a fresh process as the
benchmark worker runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, importlib, io, pkgutil, sys
import wfk
for module in pkgutil.iter_modules(wfk.__path__):
    importlib.import_module(f"wfk.{module.name}")
from tracer import Tracer, install
tracer = Tracer()
install(tracer)
from wfk import cli
codes = []
for query in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run(query.split()))
hook = sys.argv[1]
print(codes, (tracer.counts[hook] or tracer.spans.get(hook, [0])[0]) > 0)
"""


def run_traced(counter: str, *queries: str) -> str:
    """The first stdout line of the traced queries: their exit codes, and
    whether `counter` (a count, or the calls of a span) moved."""
    env = {k: v for k, v in os.environ.items() if k != "WFK_BUDGET"}
    env["PYTHONPATH"] = f"{ROOT / 'src'}{os.pathsep}{ROOT / 'perfbench'}"
    proc = subprocess.run([sys.executable, "-c", SCRIPT, counter, *queries],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")[0]


def test_traced_conv_cubic_and_lehn_sorger_exit_zero():
    assert run_traced("charmap.convolve_by_class.calls", "verify conv-cubic --n 3",
                      "verify lehn-sorger --n 3") == "[0, 0] True"


# the modes of an algebra's space, which the suite compares as grade blocks
# over the traced `monomial_basis`, and the p_k(gamma) of the colored space
# and the join boundary block, which `FockOperator.apply` applies
TRACED_FOCK_HOOKS = {
    "fock verify --model builtin:p2 --suite heisenberg --modes 1 --cutoff 2":
        "fock.monomial_basis",
    "verify heisenberg-transport --group builtin:cyclic:2 --modes 1":
        "fock.FockOperator_apply.calls",
    "verify lehn-sorger --n 3": "fock.FockOperator_apply.calls",
}


@pytest.mark.parametrize("query", TRACED_FOCK_HOOKS)
def test_traced_fock_modes_exit_zero(query):
    assert run_traced(TRACED_FOCK_HOOKS[query], query) == "[0] True"


def test_traced_mckay_counts_inner_products():
    # the tracer rebinds `groups.inner_product` by that name, in `groups` and
    # in every module that imported it (mckay, wreath); `dot` is not traced
    assert run_traced("groups.inner_product.calls",
                      "mckay --group builtin:binary-tetrahedral") == "[0] True"
