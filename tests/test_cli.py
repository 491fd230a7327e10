import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from wfk.cli import run

SRC = Path(__file__).resolve().parents[1] / "src"


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


# the options each `wfk verify` suite reads; every other one is refused
VERIFY_OPTIONS = {
    "heisenberg": {"--group", "--modes", "--levels"},
    "heisenberg-transport": {"--group", "--modes"},
    "conv-cubic": {"--n"},
    "fw-virasoro": {"--group", "--modes", "--levels", "--class"},
    "lehn-sorger": {"--n"},
    "koszul-thom": {"--group", "--n"},
    "eq-sign": {"--group", "--n"},
}
OPTION_VALUES = {"--group": "builtin:binary-tetrahedral", "--modes": "1", "--levels": "1",
                 "--n": "2", "--class": "0"}


@pytest.mark.parametrize("suite, option", [
    (suite, option) for suite, read in VERIFY_OPTIONS.items()
    for option in OPTION_VALUES if option not in read])
def test_verify_refuses_options_it_does_not_read(capsys, suite, option):
    assert run(["verify", suite, option, OPTION_VALUES[option]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {option} {OPTION_VALUES[option]}" in captured.err


def test_format_flags_are_exclusive(capsys):
    assert run(["verify", "lehn-sorger", "--n", "2", "--csv", "--pretty"]) == 1
    assert "not allowed with argument --csv" in capsys.readouterr().err
    code, out = capture(capsys, ["verify", "lehn-sorger", "--n", "2", "--pretty", "--pretty"])
    assert code == 0 and out.startswith("suite: lehn-sorger(n<=2)\n")


def test_unwritable_emit_path_is_an_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    assert run(["verify", "lehn-sorger", "--n", "2", "--emit", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("wfk: error: ")
    assert not target.exists()


@pytest.mark.parametrize("argv, message", [
    (["verify", "fw-virasoro", "--class", "7"], "class index 7 out of range"),
    (["verify", "fw-virasoro", "--class", "-1"], "class index -1 out of range"),
    (["series", "orbifold-euler", "--group", "builtin:cyclic:2", "--swap"],
     "at least two points to swap, got 1"),
])
def test_out_of_range_inputs_are_errors(capsys, argv, message):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("wfk: error: ") and message in err


# a family name, with ':k' exactly when the family takes a parameter k in range
@pytest.mark.parametrize("spec", [
    "builtin:cyclic", "builtin:symmetric", "builtin:binary-dihedral",
    "builtin:binary-tetrahedral:5", "builtin:trivial:3", "builtin:cyclic:0",
    "builtin:binary-dihedral:0", "builtin:cyclic:1:2", "builtin:symmetric:-1",
    "builtin:cyclic:two"])
def test_malformed_group_specs_are_usage_errors(capsys, spec):
    assert run(["chartable", "--group", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("wfk: error: ")


@pytest.mark.parametrize("family, digits", [("cyclic", 5000), ("binary-dihedral", 4300)])
def test_oversized_group_parameters_are_refused_by_digit_count(capsys, monkeypatch,
                                                               family, digits):
    # past Python's int/str digit limit, the refusal is still the budget's
    monkeypatch.delenv("WFK_BUDGET", raising=False)
    assert run(["chartable", "--group", f"builtin:{family}:{'9' * digits}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"wfk: error: group {family}: a parameter of {digits} digits exceeds budget 50000\n")


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


@pytest.mark.parametrize("argv", [
    ["verify", "heisenberg", "--modes", "-1"],
    ["verify", "heisenberg", "--levels", "-1"],
    ["verify", "eq-sign", "--n", "-2"],
    ["wreath-classes", "--group", "builtin:cyclic:2", "--n", "-1"],
    ["fock", "verify", "--model", "builtin:p2", "--suite", "heisenberg", "--cutoff", "-1"],
    ["fock", "verify", "--model", "builtin:p2", "--suite", "heisenberg", "--modes", "-1"],
    ["series", "orbifold-euler", "--group", "builtin:cyclic:2", "--nmax", "-1"],
    ["series", "orbifold-euler", "--group", "builtin:cyclic:2", "--points", "-1"],
    ["series", "euler", "--e", "1", "--order", "-1"],
    ["series", "gottsche", "--betti", "1,0,1,0,1", "--order", "-3"],
], ids=lambda argv: " ".join(argv[:2] + argv[-2:]))
def test_size_options_refuse_negative_values(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: wfk ")
    assert f"argument {argv[-2]}: expected a non-negative integer, got '{argv[-1]}'" in captured.err
    assert "Traceback" not in captured.err


def test_euler_exponent_may_be_negative(capsys):
    assert capture(capsys, ["series", "euler", "--e", "-2", "--order", "3"]) == (
        0, '["1","-2","-1","2"]\n')


def test_budget_flag_is_scoped_to_one_call(capsys, monkeypatch):
    from wfk import budget
    monkeypatch.delenv("WFK_BUDGET", raising=False)
    argv = ["verify", "koszul-thom", "--group", "builtin:cyclic:2", "--n", "2"]
    assert run(argv + ["--budget", "4"]) == 1  # level 2 has 5 types, one determinant each
    assert "koszul-thom at level 2: 5 elements exceeds budget 4" in capsys.readouterr().err
    assert budget.budget() == budget.DEFAULT_BUDGET
    assert run(argv) == 0
    monkeypatch.setenv("WFK_BUDGET", "4")
    assert run(argv) == 1
    assert run(argv + ["--budget", "100"]) == 0
    assert budget.budget() == 4


def test_lehn_sorger_reaches_s8_under_the_budget(capsys, monkeypatch):
    # the largest class table of S_8 labels 5 rows x 28 transpositions: 140
    # (z, y) pairs, within the default budget, one above 139.  The rows are
    # charged on every call, so the refusal is the same after a run that
    # counted and kept them
    monkeypatch.delenv("WFK_BUDGET", raising=False)
    argv = ["verify", "lehn-sorger", "--n", "8"]
    refusal = ("wfk: error: class table of Type(0:[2, 1, 1, 1, 1, 1, 1]) in level 8: "
               "140 elements exceeds budget 139\n")
    proc = module_run(*argv, "--budget", "139")
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", refusal)
    code, out = capture(capsys, argv)
    assert code == 0 and json.loads(out)["pass"] is True
    assert run(argv + ["--budget", "139"]) == 1
    assert capsys.readouterr() == ("", refusal)


def test_conv_cubic_reaches_s12_under_the_budget(capsys, monkeypatch):
    # S_12 has 479,001,600 elements, but the classes and class tables the
    # check builds hold at most 5,082 rows
    monkeypatch.delenv("WFK_BUDGET", raising=False)
    code, out = capture(capsys, ["verify", "conv-cubic", "--n", "12"])
    assert code == 0 and json.loads(out)["pass"] is True


def test_conv_cubic_stops_at_the_type_code_limit(capsys, monkeypatch):
    # S_16 passes every budget check of conv-cubic, but the type codes of its
    # elements, 16 sorted keys in base 16, do not fit in int64
    monkeypatch.delenv("WFK_BUDGET", raising=False)
    assert run(["verify", "conv-cubic", "--n", "16"]) == 1
    assert capsys.readouterr() == ("", "wfk: error: the type codes of level 16 do not fit "
                                       "in int64\n")


def test_fw_virasoro_on_the_binary_tetrahedral_group_is_refused(capsys, monkeypatch):
    # the class table of K_1(c, 3) on the 140 types of level 3 of BT labels
    # 140 x 432 = 60480 (z, y) pairs, over the default budget
    monkeypatch.delenv("WFK_BUDGET", raising=False)
    assert run(["verify", "fw-virasoro", "--group", "builtin:binary-tetrahedral"]) == 1
    assert capsys.readouterr().err == ("wfk: error: class table of Type(0:[1], 1:[2]) in level 3: "
                                       "60480 elements exceeds budget 50000\n")


def python_run(*args, timeout=120, address_space=None):
    """`python ARGS` in a fresh process, without WFK_BUDGET, its address space
    capped at `address_space` bytes when given."""
    env = {k: v for k, v in os.environ.items() if k != "WFK_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def cap():
        if address_space is not None:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=timeout, preexec_fn=cap)


def module_run(*argv, **kwargs):
    """`python -m wfk.cli ARGV` in a fresh process, without WFK_BUDGET."""
    return python_run("-m", "wfk.cli", *argv, **kwargs)


def test_module_entry_point_runs_the_command(capsys):
    argv = ["verify", "lehn-sorger", "--n", "3"]
    proc = module_run(*argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == capture(capsys, argv)[1]
    proc = module_run("verify", "lehn-sorger", "--n", "3", "--budget", "2")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("wfk: error: class Type(0:[2, 1]) in level 3: "
                           "3 elements exceeds budget 2\n")


S8_CEILING = "symmetric_group(8): explicit table of 40320 elements exceeds the table ceiling 8000"
GIB = 1 << 30


def test_symmetric_8_is_refused_by_the_table_ceiling():
    # S_8 passes the default budget; its 40320 x 40320 table must be refused
    # before it is allocated, so a child capped at 1 GB refuses it within seconds
    child = ("from wfk.budget import BudgetExceeded\n"
             "from wfk.groups import builtin_group\n"
             "try:\n"
             "    builtin_group('symmetric:8')\n"
             "except BudgetExceeded as exc:\n"
             "    print(exc)\n")
    proc = python_run("-c", child, timeout=5, address_space=GIB)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, S8_CEILING + "\n", "")
    proc = module_run("chartable", "--group", "builtin:symmetric:8", timeout=5,
                      address_space=GIB)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"wfk: error: {S8_CEILING}\n")


@pytest.mark.parametrize("value", ["-1", "0", "x", "2.5"])
def test_budget_flag_takes_a_positive_integer(capsys, value):
    assert run(["series", "euler", "--e", "1", "--order", "3", "--budget", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: wfk ")
    assert f"argument --budget: expected a positive integer, got '{value}'" in captured.err


@pytest.mark.parametrize("value", ["-5", "0", "abc", ""])
@pytest.mark.parametrize("argv", [["series", "euler", "--e", "1", "--order", "3"],
                                  ["group", "--builtin", "trivial"]], ids=lambda argv: argv[0])
def test_bad_budget_variable_is_an_input_error(capsys, monkeypatch, argv, value):
    monkeypatch.setenv("WFK_BUDGET", value)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"wfk: error: WFK_BUDGET must be a positive integer, got '{value}'\n"


def test_budget_applies_to_cached_wreath(capsys, monkeypatch):
    monkeypatch.delenv("WFK_BUDGET", raising=False)
    argv = ["series", "orbifold-euler", "--group", "builtin:cyclic:2", "--nmax", "3"]
    assert run(argv) == 0  # caches the levels Gamma_2 and Gamma_3 and their labels
    assert run(argv + ["--budget", "7"]) == 1
    err = capsys.readouterr().err
    assert "orbifold commuting-pair count at level 2: 8 elements exceeds budget 7" in err


def test_orbifold_series_cli(capsys):
    code, out = capture(capsys, ["series", "orbifold-euler",
                                 "--group", "builtin:cyclic:2",
                                 "--points", "1", "--nmax", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert [p["lhs"] for p in data["probes"]] == ["1", "2", "5", "10"]


# sha256 of the stdout of `series orbifold-euler --group builtin:cyclic:2 --nmax 5`,
# recorded while the count still ran on the explicit Gamma_n and its GSet
ORBIFOLD_NMAX5_SHA256 = "96280ade9ad8b8e9e4d5874499084d6e78e25a2f8b4f80c7d8897bf767da64c3"


def test_orbifold_series_builds_no_explicit_group(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("explicit Gamma_n built")

    monkeypatch.setattr("wfk.wreath.build_wreath", refuse)
    monkeypatch.setattr("wfk.series.wreath_gset", refuse)
    code, out = capture(capsys, ["series", "orbifold-euler", "--group", "builtin:cyclic:2",
                                 "--nmax", "5"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORBIFOLD_NMAX5_SHA256


def test_orbifold_series_one_level_beyond(capsys, monkeypatch):
    # Z/2 wr S6 has 46,080 elements: past the explicit table, within the default budget
    monkeypatch.delenv("WFK_BUDGET", raising=False)
    code, out = capture(capsys, ["series", "orbifold-euler", "--group", "builtin:cyclic:2",
                                 "--nmax", "6"])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["probes"][6]["lhs"] == "65"


# sha256 of the stdout of `series orbifold-euler ...`, recorded while the
# count still walked every (representative, element) pair of each level
ORBIFOLD_SHA256 = {
    "--group builtin:cyclic:3 --nmax 4":
        "0d047ae763f0c88dd384dc8187980b124f83f53efeb08b633c9e105f29a541d8",
    "--group builtin:cyclic:2 --points 2 --swap --nmax 4":
        "741485387c447aeac1515d0724fcb38158ced4a72dde73a063f9be57bc230d83",
    "--group builtin:binary-dihedral:2 --nmax 3":
        "0ee3583633b822135128ac6a47a0e8945af594f66169709ebe9742a71647716a",
    "--group builtin:cyclic:2 --nmax 6":
        "740244930e05b951e1e9339dd849bf4c6475a550415392d5a14d80f4a72b4fbe",
}


@pytest.mark.parametrize("query", sorted(ORBIFOLD_SHA256))
def test_orbifold_series_stdout_is_pinned(capsys, monkeypatch, query):
    monkeypatch.delenv("WFK_BUDGET", raising=False)
    code, out = capture(capsys, ["series", "orbifold-euler", *query.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORBIFOLD_SHA256[query]


def test_orbifold_series_level_7_exceeds_default_budget(capsys, monkeypatch):
    monkeypatch.delenv("WFK_BUDGET", raising=False)
    argv = ["series", "orbifold-euler", "--group", "builtin:cyclic:2", "--nmax", "7"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "orbifold commuting-pair count at level 7: 645120 elements exceeds budget 50000" in err


# sha256 of `wfk chartable --group G` stdout, recorded before linear characters
# moved from the regular-representation eigensplitter to integer exponents.
# Each value is written at the conductor its engine produced, so these digests
# pin the conductors as well as the values.
CHARTABLE_SHA256 = {
    "cyclic:1": "ffff38e2c0433b90c87d5b0c2b7804dfab27873fbe5da182d95852731a5943ea",
    "cyclic:2": "fc829ab0b93ad5907248331161dddee38644645d1eef342c02862f2e9072c716",
    "cyclic:3": "0ac89325edbac250741f93bc04f0b3fe8247a7776ff3444cf0c73f40a72ee7f2",
    "cyclic:4": "c668f3aa97928cce860c4f7e6a31b5434d7a198d2c07d4e1d69f5b3d53be7764",
    "cyclic:5": "3373e196373ab857fb94d8cc36c3063cfdcacf9221ac6f5c20eac4bcb07163c0",
    "cyclic:6": "09fee9dd0451686854795906ff950bc7a2ac37f720ed73581ad73ec4160a2d10",
    "cyclic:7": "6868b4afe28d41aa959ea279e562671832bfe0cc024c95b9f9c8b453e28f3bbc",
    "cyclic:8": "665b9451e7d076e6a3b584befec32af54fa2bb897737b99bbb7caa5fa5a2187c",
    "cyclic:9": "d69e4a059cf511cafe5fba97bef36ce1a32ab6a537a22f467428804fc3c1057e",
    "cyclic:10": "5712de80ab55ce877fe996abdf6000b02adfbb8054971664c51398096f25c3bf",
    "cyclic:11": "261415f189c6f655a50ee7bd05b3a976339dc384456418d17273df1976c93ec1",
    "cyclic:12": "5faf75fa54afcd5e8c197e2b3de4dffe33253bdcbefb479b6cefed1fe7470bb5",
    "binary-dihedral:2": "5dbd7d3e91722b03d68cb0d6cd18a9666a31d4344c4f390d0f02332f8696a73b",
    "binary-dihedral:3": "47af2373750f00f979f231f8d99a41a84227ffc6819641a60a4f332e101e01ad",
    "binary-dihedral:4": "eaf68b3b1774c374d98f2a68db40cdde52934bc1abb5a938daaa546fe98d7472",
    "binary-dihedral:5": "6984efedb26fb5b4e2a82d4a8d1a2d75033a4de545ab2660239b87b3d204ede7",
    "binary-tetrahedral": "e8faa015709b9bfe1f7d5b1679299f8590bf4bce47221eac976454869af0c7d3",
    "binary-octahedral": "bdce5267368584a4864ebdeb517b403bceff40cbc5d3817b092b6852a4f3f597",
    "binary-icosahedral": "b65417d3b617241e8fc2c75543139f29134bd7feee76807f84e51bb832305de8",
    "symmetric:1": "ffff38e2c0433b90c87d5b0c2b7804dfab27873fbe5da182d95852731a5943ea",
    "symmetric:2": "fc829ab0b93ad5907248331161dddee38644645d1eef342c02862f2e9072c716",
    "symmetric:3": "0900b760974f27aa57ff7b167acaadfa1fc1306b1d237e2c00648d0d37566e4a",
    "symmetric:4": "7c0dbff74d80e4c15265d42021973ea4eaa3cd782d815adfc571b9a606820996",
    "symmetric:5": "7fd73948c24af0fdfda21773d9c003d1828dbe16fc95feb5d7de09120e9552ee",
}


# sha256 of `wfk group --builtin symmetric:k` stdout (the table and the labels),
# recorded while S_n still had a table comprehension of its own
GROUP_SHA256 = {
    "symmetric:0": "b4ce2b05d825b7a490945f9c55aca3b73c47703f8050818bd46e9cff17526130",
    "symmetric:1": "4bc1b5d64fcd6696129a54f8999f5286b7f7b5c17f5a6d113a0b32c3718dd9f0",
    "symmetric:2": "9bf22e125725307e37d1578b15937c7f50edd1f3e68e7ffd9024d41dbd3bf144",
    "symmetric:3": "4f767361bd1f56354417664f88de99639af88b1dc42b1936b75baf3e095669b0",
    "symmetric:4": "6673f3a5cddc87e8e7eeafbdf374120b0e975f018d28bf9b28d23d6be226055b",
    "symmetric:5": "7ce1dc95c22a1c7879e2c973137105eaa09ecb7886d2f49f97dd62e4d60c2a02",
}


@pytest.mark.parametrize("group", GROUP_SHA256)
def test_group_output_is_pinned(capsys, group):
    code, out = capture(capsys, ["group", "--builtin", group])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GROUP_SHA256[group]


@pytest.mark.parametrize("group", CHARTABLE_SHA256)
def test_chartable_output_is_pinned(capsys, group):
    code, out = capture(capsys, ["chartable", "--group", group])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHARTABLE_SHA256[group]


# sha256 of `wfk verify ...` stdout, recorded before induction and p_{-k}
# became sums over the support: reports print `WreathClassFunction.values`,
# so these pin the values and their key order as well as the verdicts.
VERIFY_SHA256 = {
    "heisenberg --group builtin:cyclic:3 --modes 2 --levels 2":
        "132d55b1f83dd816256e9c9bef3ddf3f3ca2f48b7e83256e1fa49deff94769fa",
    "heisenberg --group builtin:binary-dihedral:2 --modes 1 --levels 2":
        "c37b5b3110aa277fbed36d89e554316240f00955fa0f78518d953052644c7012",
    "heisenberg --group builtin:binary-tetrahedral --modes 1 --levels 1":
        "e4e598645dc1ee13e56bd11888a0b00d1492c8e08e90d5576e1487d6510fae8d",
    "heisenberg-transport --group builtin:binary-dihedral:2 --modes 3":
        "db23f0eeb5e5c53cd5a1fe5f1b83c91d631c1083d66d23a855c29ad80aa4bbd8",
    "fw-virasoro --group builtin:cyclic:2 --levels 3":
        "bd3e5a67d24a692d072728d07be0708f86a7e2cb3d8fb00d93413d06edef3fb9",
    # cyclotomic values through `scale` and `__add__`, which Z/2 does not
    # reach; the Z/3 query is pinned in OPERATOR_SHA256
    "fw-virasoro --group builtin:binary-dihedral:2 --levels 1":
        "b87197d3e75bdbd107a43906e514806aa0a02a485b8ff5bfa17655809a59349b",
}


@pytest.mark.parametrize("query", VERIFY_SHA256)
def test_verify_output_is_pinned(capsys, query):
    code, out = capture(capsys, ["verify", *query.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[query]


# sha256 of Fock-side `wfk` stdout, recorded before Fock operators accumulated
# their applications in place; the exterior2 suite has no benchmark digest.
FOCK_SHA256 = {
    "fock verify --model builtin:p2 --suite heisenberg --modes 2 --cutoff 3":
        "4ae88b7de2eef3afd155c5e2aa4e1be2130c6b5998943442bb4b08aa8262a9fc",
    "fock verify --model builtin:p2 --suite virasoro --modes 2 --cutoff 4":
        "5ee0cc33986a9122a584741e2b0895d9a2c5ddc2858b5ce11261b36334308d98",
    "fock verify --model builtin:exterior2 --suite heisenberg --modes 2 --cutoff 4":
        "964000b258a4834853bed74424db70bcb8ad931bf049d20869272346108a0050",
    "series gottsche --betti 1,2,1,2,1 --order 10":
        "8e866407caa058302a665b4cd2e41255c6d3ff9b631e093640301b48edd795f5",
}


@pytest.mark.parametrize("query", FOCK_SHA256)
def test_fock_output_is_pinned(capsys, query):
    code, out = capture(capsys, query.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FOCK_SHA256[query]


# sha256 of `wfk verify ...` stdout, recorded before the Fock-side and the
# group-side operator classes became one column-cached `LinearOperator`:
# fw-virasoro prints `WreathClassFunction.values` in the key order the
# operators sum into, and eq-sign, conv-cubic and lehn-sorger print the Fock
# vectors of the creation, cubic and join operators.
OPERATOR_SHA256 = {
    "eq-sign --group builtin:cyclic:3 --n 4":
        "7bacec35d554ada094aa6ce310e47f22ab1ab83a8138a100a3ec55238ae1c357",
    "eq-sign --group builtin:binary-dihedral:2 --n 3":
        "908aa973e0463320a895c2d0c76e3d64b45a91a51b0d471d57fc01dacb43a260",
    "conv-cubic --n 5":
        "69285a4f3deec8d805b7ca1f936472693cc20f420d6728296c4d36acc1f6395a",
    "lehn-sorger --n 4":
        "0534ff058a2ab5eb47cc00b3c9d60ff7a5aa08e647ec385fd5fc346494ee75a6",
    "fw-virasoro --group builtin:cyclic:3 --levels 2":
        "a2dca79379327533608d97ab13ebda358ff0188fbe67d2f40c289d0de9fe0ebd",
    # class 1 of Z/3 is not its own inverse, so its convolution sums run over
    # a class other than the one its inverse names
    "fw-virasoro --group builtin:cyclic:3 --class 1 --levels 2":
        "2f427ebded8d125d5f9f7373aa9a23dd31744ecb16ed2d95968b25188a87b7df",
    # recorded before the fw-Virasoro operators summed their columns through
    # `+` and `scale`: at `--modes 2` multi-term columns meet L_{+-2}
    "fw-virasoro --group builtin:cyclic:2 --modes 2 --levels 2":
        "a666c947ec35a547446dc28017c34171d70efb8a2f33732fa5530fb551a54124",
    "fw-virasoro --group builtin:cyclic:3 --modes 2 --levels 1":
        "37ea7624cd8d01e90c1c3f73851e3d127216277938548f03be95b8a78d7961ed",
    # the colored modes p_k(gamma) on a third and a fourth group
    "heisenberg-transport --group builtin:binary-tetrahedral --modes 2":
        "5b603778beb7beea771229b2df7552b1878312fce8ca6b9865a863713cd59ba5",
    "eq-sign --group builtin:binary-dihedral:3 --n 3":
        "093b659378a0470fc3042116b3b5d6e32b4847bbe2f27c5c53b72998b5f270d6",
}


@pytest.mark.parametrize("query", OPERATOR_SHA256)
def test_operator_output_is_pinned(capsys, query):
    code, out = capture(capsys, ["verify", *query.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OPERATOR_SHA256[query]


# each suite once past its default size (`--modes 2` where it takes the
# option, `--modes 3` for the Fock suites, whose default is 2): a verdict or
# a typed refusal, never a failing verdict on valid input
PAST_DEFAULT = [
    "verify heisenberg --group builtin:cyclic:3 --modes 2 --levels 2",
    "verify heisenberg-transport --group builtin:cyclic:3 --modes 2",
    "verify conv-cubic --n 5",
    "verify fw-virasoro --group builtin:cyclic:2 --modes 2 --levels 2",
    "verify fw-virasoro --group builtin:cyclic:3 --modes 2 --levels 1",
    "verify lehn-sorger --n 5",
    "verify koszul-thom --group builtin:cyclic:3 --n 4",
    "verify eq-sign --group builtin:cyclic:3 --n 4",
    "fock verify --model builtin:p2 --suite heisenberg --modes 3 --cutoff 4",
    "fock verify --model builtin:p2 --suite virasoro --modes 3 --cutoff 4",
    "fock verify --model builtin:exterior2 --suite heisenberg --modes 3 --cutoff 4",
    # refused: exterior2 has no coproduct
    "fock verify --model builtin:exterior2 --suite virasoro --modes 3 --cutoff 4",
]


def test_past_default_covers_every_suite():
    from wfk.cli import _VERIFY_SUITES
    verify = {q.split()[1] for q in PAST_DEFAULT if q.startswith("verify ")}
    fock = {q.split()[q.split().index("--suite") + 1] for q in PAST_DEFAULT
            if q.startswith("fock ")}
    assert verify == set(_VERIFY_SUITES)
    assert fock == {"heisenberg", "virasoro"}


@pytest.mark.parametrize("query", PAST_DEFAULT)
def test_suites_past_their_default_never_fail(capsys, query):
    code = run(query.split())
    err = capsys.readouterr().err
    assert code == 0 or (code == 1 and err.startswith("wfk: error: ")), (code, err)
