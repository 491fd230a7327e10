"""Self-tests of the benchmark harness.

The tracing tests start fresh wfk workers and take about two minutes, so this
file is not named test_*.py and the repository's own test run does not
collect it.  Run it from the root of a checkout with

    python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import json

import pytest

import run
from workloads import DIGESTS, SL2_QUERIES, WORKLOADS, WREATH_QUERIES, FOCK_QUERIES


def _count_metrics() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tracing_keeps_outputs_and_counts_repeat(workload):
    plain = run.spawn(workload, 5)
    first = run.spawn(workload, 5, traced=True)
    second = run.spawn(workload, 5, traced=True)
    for q, a, b, c in zip(WORKLOADS[workload].queries, plain.queries,
                          first.queries, second.queries):
        assert a[:2] == b[:2] == c[:2], q.label
    assert first.probes == second.probes == plain.probes
    # only the untraced pass samples the host's speed
    assert plain.speed and not first.speed and not second.speed
    counts = _count_metrics()
    assert {k: first.metrics[k] for k in counts} == {k: second.metrics[k] for k in counts}


def test_every_query_without_a_known_defect_has_a_digest():
    for wl in WORKLOADS.values():
        for q in wl.queries:
            assert (q.label in DIGESTS) != bool(q.known_defect), q.label


def _query(queries, *argv):
    return next(q for q in queries if q.argv[:len(argv)] == argv)


def test_known_answer_checks_reject_wrong_output():
    mckay = _query(SL2_QUERIES, "mckay", "--group", "builtin:binary-tetrahedral")
    good = {"marks": [1, 1, 1, 2, 2, 2, 3],
            "matrix": [[2, 0, 0, 0, 0, -1, 0], [0, 2, 0, 0, -1, 0, 0],
                       [0, 0, 2, -1, 0, 0, 0], [0, 0, -1, 2, 0, 0, -1],
                       [0, -1, 0, 0, 2, 0, -1], [-1, 0, 0, 0, 0, 2, -1],
                       [0, 0, 0, -1, -1, -1, 2]],
            "type": "E6~"}
    assert mckay.check(json.dumps(good)) is None
    bad = json.loads(json.dumps(good))
    bad["matrix"][0][5] = bad["matrix"][5][0] = 0
    assert mckay.check(json.dumps(bad))

    table = _query(SL2_QUERIES, "chartable", "--group", "builtin:cyclic:16")
    one = {"conductor": 1, "coeffs": [["1", "1"]]}
    assert table.check(json.dumps({"degrees": [1] * 16, "table": [[one] * 16] * 16}))

    gottsche = _query(FOCK_QUERIES, "series", "gottsche")
    assert gottsche.check(json.dumps({"q^0": {"t^0": "1"}}))

    orbifold = _query(WREATH_QUERIES, "series", "orbifold-euler")
    probes = [{"equal": True, "lhs": str(v), "probe": f"n={n}", "rhs": str(v)}
              for n, v in enumerate([1, 2, 5, 10, 20, 35])]
    assert orbifold.check(json.dumps({"pass": True, "probes": probes, "suite": "x"}))
