"""Every benchmark query that `perfbench/workloads.py` records a stdout digest
for, run in process through `wfk.cli.run`: its stdout must hash to that
digest, so a change of output, a key order included, fails here before the
benchmark compares digests.  `perfbench` is read, never written: its
directory goes on the import path, as the traced runs of
`tests/test_tracer_guard.py` put it there."""

import hashlib
import sys
from pathlib import Path

import pytest

from wfk.cli import run

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

QUERIES = {q.label: q.argv for w in workloads.WORKLOADS.values() for q in w.queries
           if q.label in workloads.DIGESTS}


def test_every_digest_has_a_query():
    assert set(QUERIES) == set(workloads.DIGESTS)


@pytest.mark.parametrize("label", QUERIES)
def test_query_stdout_matches_its_digest(capsys, monkeypatch, label):
    monkeypatch.delenv("WFK_BUDGET", raising=False)
    code = run(list(QUERIES[label]))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == workloads.DIGESTS[label]
