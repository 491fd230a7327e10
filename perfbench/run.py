"""wfk benchmark: time to an exact verdict, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of sl2-tables, fock-modes, wreath-oracles, or `all` to run each
in turn.  Load model: one closed-loop client.  Each pass starts a fresh
worker process (perfbench/worker.py), which runs the workload's queries one
at a time and then its seeded probes; only one worker runs at any moment.

--trace 0 runs a set-up-only worker and a pass, again until the next pair
would end after S seconds (at least once), tops the set-up samples up to
MIN_SETUPS, and reports medians: solve_s, setup_s, peak_rss_mb and
passed_share.  The two times are scaled to a nominal host speed by the
reference samples the workers take during their passes (`host_scaled`); the
summary also prints them as measured.
--trace 1 runs one untraced and one traced pass, checks that their query
outputs are byte-identical, and reports the per-layer metrics of the traced
pass.  Every output is checked against its known answer; the last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DIGESTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUPS = 7
REFERENCE_S = 0.001  # the reference work's time on the nominal host


def host_scaled(seconds: float, samples: list[float]) -> float:
    """`seconds` as they would read on a host where the worker's reference
    work takes REFERENCE_S: the measured time divided by the host's speed,
    which the mean of the reference samples taken meanwhile follows."""
    return seconds * REFERENCE_S / statistics.fmean(samples)


class BenchError(RuntimeError):
    """The harness could not measure: no result is printed."""


@dataclass
class Pass:
    setup_s: float
    solve_s: float = 0.0
    speed: list = field(default_factory=list)  # seconds per reference sample in the pass
    rss_mb: float = 0.0
    queries: list = field(default_factory=list)  # [exit code, stdout, stderr] per query
    probes: list = field(default_factory=list)  # None or the failure, per probe
    metrics: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)


def spawn(workload: str, seed: int, traced: bool = False, go: bool = True) -> Pass:
    """Start one worker; with go=False it exits after set-up."""
    env = {k: v for k, v in os.environ.items() if k != "WFK_BUDGET"}
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(int(traced))]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, cwd=ROOT, env=env)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready != "ready\n":
            raise BenchError(f"worker for {workload} did not start")
        proc.stdin.write("go\n" if go else "quit\n")
        proc.stdin.close()
        reply = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        # the worker's own rusage: RUSAGE_CHILDREN would report the largest
        # worker this process has waited for so far
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited with {proc.returncode}")
    p = Pass(setup_s, rss_mb=usage.ru_maxrss / 1024)
    if go:
        data = json.loads(reply)
        p.solve_s, p.queries, p.probes = data["solve_s"], data["queries"], data["probes"]
        p.speed = data["speed"]
        if not traced and not p.speed:
            raise BenchError(f"worker for {workload} took no speed samples")
        p.metrics, p.spans = data.get("metrics", {}), data.get("spans", {})
    return p


def failures(workload: str, p: Pass) -> list[tuple[str, str, str]]:
    """(what, why, known defect) for every query or probe that failed."""
    out = []
    for q, (rc, stdout, stderr) in zip(WORKLOADS[workload].queries, p.queries):
        digest = DIGESTS.get(q.label)
        if rc != 0:
            reason = f"exit code {rc} {stderr.strip()[:200]}".strip()
        else:
            try:
                reason = q.check(stdout)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable output: {exc!r}"
        if reason is None and digest is None and not q.known_defect:
            reason = "no recorded stdout digest"
        elif reason is None and digest and hashlib.sha256(stdout.encode()).hexdigest() != digest:
            reason = "stdout differs from the recorded digest"
        if reason:
            out.append((f"query `wfk {q.label}`", reason, q.known_defect))
    out += [(f"probe {i}", reason, "") for i, reason in enumerate(p.probes) if reason]
    return out


def _attempts(passes: list[Pass]) -> int:
    return sum(len(p.queries) + len(p.probes) for p in passes)


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return "n=1"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}"


def report_failures(found: list) -> None:
    for what in sorted(set(found)):
        label, reason, defect = what
        note = f" [known defect: {defect}]" if defect else ""
        print(f"  FAILED x{found.count(what)} {label}: {reason}{note}")


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, int, list]:
    passes: list[Pass] = []
    setup_only: list[Pass] = []
    longest = 0.0
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        # a set-up-only worker before each pass spreads the set-up samples
        # over the whole run, as the passes are
        setup_only.append(spawn(workload, seed, go=False))
        passes.append(spawn(workload, seed))
        longest = max(longest, time.perf_counter() - begun)
        if time.perf_counter() - start + longest > seconds:
            break
    while len(setup_only) + len(passes) < MIN_SETUPS:
        setup_only.append(spawn(workload, seed, go=False))
    setups = [p.setup_s for p in setup_only + passes]
    found = [f for p in passes for f in failures(workload, p)]
    attempted = _attempts(passes)
    # each pass is scaled by its own samples, because the host's speed
    # changes within a run; set-up is too short to sample, so it is scaled by
    # all the samples of the run
    solve = [host_scaled(p.solve_s, p.speed) for p in passes]
    samples = [r for p in passes for r in p.speed]
    setup = host_scaled(statistics.median(setups), samples)
    rss = [p.rss_mb for p in passes]
    wall = [p.solve_s for p in passes]
    print(f"{workload} seed={seed}: {len(passes)} passes, {len(setups)} set-ups, "
          f"reference {1000 * statistics.fmean(samples):.4f} ms")
    report_failures(found)
    print(f"  solve_s      {statistics.median(solve):.4f} s   ({_spread(solve)})")
    print(f"  setup_s      {setup:.4f} s")
    print(f"  peak_rss_mb  {statistics.median(rss):.1f} MB   ({_spread(rss)})")
    print(f"  failed_share {len(found) / attempted:.4f} ratio ({len(found)} of {attempted})")
    print(f"  wall times   solve {statistics.median(wall):.4f} s ({_spread(wall)}), "
          f"setup {statistics.median(setups):.4f} s ({_spread(setups)})")
    values = {"solve_s": statistics.median(solve), "setup_s": setup,
              "peak_rss_mb": statistics.median(rss),
              "passed_share": 1 - len(found) / attempted}
    return values, attempted, found


def traced_run(workload: str, seed: int) -> tuple[dict, int, list]:
    base = spawn(workload, seed)
    traced = spawn(workload, seed, traced=True)
    found = failures(workload, base) + failures(workload, traced)
    for q, a, b in zip(WORKLOADS[workload].queries, base.queries, traced.queries):
        if a[:2] != b[:2]:
            found.append((f"query `wfk {q.label}`", "traced output differs from untraced", ""))
    values = dict(traced.metrics)
    values["trace.overhead_s"] = traced.solve_s - base.solve_s
    print(f"{workload} seed={seed}: traced solve {traced.solve_s:.4f} s, "
          f"untraced {base.solve_s:.4f} s")
    report_failures(found)
    print("  span                                    calls       total_s    self_s")
    for name, (calls, total, own) in sorted(traced.spans.items(), key=lambda kv: -kv[1][2]):
        print(f"  {name:38s} {calls:9d} {total:12.4f} {own:9.4f}")
    return values, _attempts([base, traced]), found


def run(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    if trace:
        values, attempted, found = traced_run(workload, seed)
        wanted = spec["per_layer"]
    else:
        values, attempted, found = timed_run(workload, seed, seconds)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value measured for {missing}")
    return {
        # a failure counts in `failed`; only one listed as a known defect
        # leaves the run correct
        "correct": all(defect for _, _, defect in found),
        "attempted": attempted,
        "failed": len(found),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wfk" / "__init__.py").is_file():
        print(f"perfbench: no wfk sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run(name, args.seed, args.seconds, bool(args.trace), spec)
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
