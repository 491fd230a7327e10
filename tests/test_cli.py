import json

import pytest

from wfk.cli import run


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_series_euler(capsys):
    code, out = capture(capsys, ["series", "euler", "--e", "1", "--order", "5"])
    assert code == 0
    assert json.loads(out) == ["1", "1", "2", "3", "5", "7"]


def test_series_euler_deterministic(capsys):
    _, out1 = capture(capsys, ["series", "euler", "--e", "2", "--order", "6"])
    _, out2 = capture(capsys, ["series", "euler", "--e", "2", "--order", "6"])
    assert out1 == out2


def test_mckay_cyclic4(capsys):
    code, out = capture(capsys, ["mckay", "--group", "builtin:cyclic:4"])
    assert code == 0
    data = json.loads(out)
    assert data["type"] == "A3~"
    assert data["marks"] == [1, 1, 1, 1]


def test_group_emit_round_trip(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, _ = capture(capsys, ["group", "--builtin", "binary-dihedral:3",
                               "--emit", str(target)])
    assert code == 0
    data = json.loads(target.read_text())
    assert data["order"] == 12
    from wfk.groups import FiniteGroup
    G = FiniteGroup.from_json(data)
    assert G.order == 12


def test_wreath_classes(capsys):
    code, out = capture(capsys, ["wreath-classes", "--group", "builtin:cyclic:2",
                                 "--n", "3"])
    assert code == 0
    data = json.loads(out)
    assert len(data) == 10
    assert all("classes" in t for t in data)


def test_verify_heisenberg_exit_zero(capsys):
    code, out = capture(capsys, ["verify", "heisenberg",
                                 "--group", "builtin:cyclic:2",
                                 "--modes", "1", "--levels", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert all(p["equal"] for p in data["probes"])


def test_verify_conv_cubic(capsys):
    code, out = capture(capsys, ["verify", "conv-cubic", "--n", "3"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_eq_sign(capsys):
    code, out = capture(capsys, ["verify", "eq-sign",
                                 "--group", "builtin:trivial", "--n", "3"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_fock_verify_builtin_model(capsys):
    code, out = capture(capsys, ["fock", "verify", "--model", "builtin:p2",
                                 "--suite", "virasoro", "--cutoff", "2",
                                 "--modes", "1"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_fock_verify_model_file(tmp_path, capsys):
    from wfk.fock import p2_model
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(p2_model().to_json()))
    code, out = capture(capsys, ["fock", "verify", "--model", str(path),
                                 "--suite", "heisenberg", "--cutoff", "2",
                                 "--modes", "2"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_usage_error_exit_code(capsys):
    code = run(["mckay", "--group", "builtin:nope"])
    assert code == 1


def test_bad_subcommand(capsys):
    assert run(["frobnicate"]) == 1


def test_csv_report(capsys):
    code, out = capture(capsys, ["verify", "lehn-sorger", "--n", "2", "--csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "probe,lhs,rhs,equal"
    assert lines[-1].startswith("pass,")


def test_empty_report_shape():
    from wfk.cli import emit
    from wfk.report import VerificationReport
    rep = VerificationReport("empty")
    text = emit(rep)
    assert json.loads(text) == {"suite": "empty", "probes": [], "pass": True}


def test_cyclotomic_values_serialized_per_schema(capsys):
    code, out = capture(capsys, ["chartable", "--group", "builtin:cyclic:3"])
    assert code == 0
    data = json.loads(out)
    assert data["degrees"] == [1, 1, 1]
    entry = data["table"][1][1]
    assert set(entry) == {"conductor", "coeffs"}
    from wfk.exact import CycNum
    val = CycNum.from_json(entry)
    assert val.conductor in (1, 3)


def test_budget_flag_is_scoped_to_one_call(capsys, monkeypatch):
    from wfk import budget
    monkeypatch.delenv("WFK_BUDGET", raising=False)
    argv = ["verify", "koszul-thom", "--group", "builtin:cyclic:2", "--n", "2"]
    assert run(argv + ["--budget", "7"]) == 1  # Gamma_2 has 8 elements
    assert "exceeds budget 7" in capsys.readouterr().err
    assert budget.budget() == budget.DEFAULT_BUDGET
    assert run(argv) == 0
    monkeypatch.setenv("WFK_BUDGET", "7")
    assert run(argv) == 1
    assert run(argv + ["--budget", "100"]) == 0
    assert budget.budget() == 7


def test_budget_applies_to_cached_wreath(capsys, monkeypatch):
    monkeypatch.delenv("WFK_BUDGET", raising=False)
    argv = ["series", "orbifold-euler", "--group", "builtin:cyclic:2", "--nmax", "3"]
    assert run(argv) == 0  # builds and caches the explicit Gamma_2 and Gamma_3
    assert run(argv + ["--budget", "7"]) == 1
    assert "build_wreath(cyclic-2, 2): 8 elements exceeds budget 7" in capsys.readouterr().err


def test_orbifold_series_cli(capsys):
    code, out = capture(capsys, ["series", "orbifold-euler",
                                 "--group", "builtin:cyclic:2",
                                 "--points", "1", "--nmax", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert [p["lhs"] for p in data["probes"]] == ["1", "2", "5", "10"]
