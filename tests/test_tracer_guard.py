"""The benchmark tracer (`perfbench/tracer.py`) wraps charmap, fock and wreath
functions by name and reads their arguments in its hooks.  A rename or a new
signature there breaks a traced run, not the untraced tests, so a traced
conv-cubic and lehn-sorger run is checked here, in a fresh process as the
benchmark worker runs it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, importlib, io, pkgutil
import wfk
for module in pkgutil.iter_modules(wfk.__path__):
    importlib.import_module(f"wfk.{module.name}")
from tracer import Tracer, install
tracer = Tracer()
install(tracer)
from wfk import cli
codes = []
for argv in (["verify", "conv-cubic", "--n", "3"], ["verify", "lehn-sorger", "--n", "3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run(argv))
print(codes, tracer.counts["charmap.convolve_by_class.calls"] > 0)
"""


def test_traced_conv_cubic_and_lehn_sorger_exit_zero():
    env = {k: v for k, v in os.environ.items() if k != "WFK_BUDGET"}
    env["PYTHONPATH"] = f"{ROOT / 'src'}{os.pathsep}{ROOT / 'perfbench'}"
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "[0, 0] True"
