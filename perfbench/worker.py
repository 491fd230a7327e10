"""One fresh wfk process, as a `wfk` invocation would start.

Usage: worker.py WORKLOAD SEED TRACED

The worker imports the library from the checkout's `src`, draws the seeded
probe inputs and writes `ready`.  It then reads one line: `quit` ends it
(a set-up-only sample), `go` runs the workload's queries through
`wfk.cli.run` with stdout captured, then its probes, and writes one JSON line
with every output, the solve time and the host-speed samples taken during
the pass.  The harness reads the worker's peak RSS from its rusage when it
exits.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import pkgutil
import random
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120  # SIGALRM ends a pass that hangs, well inside the run limit
SAMPLE_EVERY_S = 0.025  # of the worker's CPU time, between two speed samples


def reference() -> float:
    """Seconds for one fixed piece of plain rational arithmetic, about 1 ms.
    It runs no wfk code, so no change to wfk can make it faster; the harness
    divides by it to follow the host's speed."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 130):
        acc += Fraction(i % 7 - 3, i % 11 + 1) * Fraction(3, i % 5 + 1)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class SpeedSampler:
    """Times `reference` every SAMPLE_EVERY_S of CPU time (SIGPROF), at
    whatever point the pass has reached, so the samples follow the host's
    speed uniformly over the pass."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(reference())

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)


def _run_query(cli, argv) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(list(argv))
        except Exception as exc:  # a raising query is a failed verdict, not a crash
            rc = None
            err.write(f"raised {exc!r}")
    return [rc, out.getvalue(), err.getvalue()]


def main() -> None:
    signal.alarm(TIMEOUT_S)
    name, seed, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    sys.path.insert(0, str(ROOT / "src"))
    import wfk
    if Path(wfk.__file__).resolve().parent != ROOT / "src" / "wfk":
        sys.exit(f"wfk imported from {wfk.__file__}, not from this checkout")
    # the queries import modules lazily; importing them all here keeps that
    # cost in set-up and lets the tracer rebind every by-name import
    for module in pkgutil.iter_modules(wfk.__path__):
        importlib.import_module(f"wfk.{module.name}")
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(random.Random(seed))
    proto = sys.stdout
    proto.write("ready\n")
    proto.flush()
    if sys.stdin.readline().strip() != "go":
        return

    tracer = None
    if traced:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    cli = sys.modules["wfk.cli"]
    # the traced pass takes no speed samples: the tracer counts every Fraction
    sampler = SpeedSampler() if tracer is None else contextlib.nullcontext(SpeedSampler())
    with sampler as speed:
        start = time.perf_counter()
        queries = [_run_query(cli, q.argv) for q in workload.queries]
        probes = []
        for inp in inputs:
            try:
                probes.append(workload.probe(inp))
            except Exception as exc:  # a raising probe is a failed verdict, not a crash
                probes.append(f"raised {exc!r}")
        solve_s = time.perf_counter() - start
    # solve_s leaves out the time the samples took
    result = {"solve_s": solve_s - sum(speed.samples), "speed": speed.samples,
              "queries": queries, "probes": probes}
    if tracer is not None:
        result["metrics"] = tracer.metrics()
        result["spans"] = tracer.spans
    proto.write(json.dumps(result) + "\n")
    proto.flush()


if __name__ == "__main__":
    main()
