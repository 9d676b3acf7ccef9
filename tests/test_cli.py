import json
from pathlib import Path

import numpy as np
import pytest

from conecert import analysis, cli
from conecert.analysis import AnalysisOptions, full_report
from conecert.cli import main
from conecert.cones import sample_extreme_rays
from conecert.fixtures import builtin, names
from conecert.model import _plain, load_problem

DATA = Path(__file__).resolve().parents[1] / "src" / "conecert" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_report_text_mode(capsys):
    code, out, _ = run(capsys, "report", str(DATA / "ex2_1.json"))
    assert code == 0
    assert "CertifiedMinimal" in out
    assert "validity" in out


def test_report_json_mode(capsys):
    code, out, _ = run(capsys, "report", str(DATA / "ex4_1.json"), "--inequality", "nu", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["final_verdict"] == "CertifiedNotMinimal"


def test_text_and_json_agree_on_verdicts(capsys):
    code, text_out, _ = run(capsys, "report", str(DATA / "ex2_4.json"))
    assert code == 0
    code, json_out, _ = run(capsys, "report", str(DATA / "ex2_4.json"), "--json")
    assert code == 0
    doc = json.loads(json_out)
    for item in doc:
        assert item["final_verdict"] in text_out


def test_report_unknown_inequality(capsys):
    code, _, err = run(capsys, "report", str(DATA / "ex2_1.json"), "--inequality", "zzz")
    assert code == 2
    assert "zzz" in err


def test_malformed_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "report", str(bad))
    assert code == 2
    assert "JSON" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "report", "/no/such/file.json")
    assert code == 2


def test_theta_command(capsys):
    code, out, _ = run(capsys, "theta", str(DATA / "ex2_1.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["theta"] == pytest.approx(-2.0, abs=1e-6)


def test_support_command(capsys):
    code, out, _ = run(
        capsys, "support", str(DATA / "ex4_1.json"), "--inequality", "nu", "--z", "1", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["sigma"] == pytest.approx(3.0 ** 0.5, abs=1e-6)


def _count_branch_batches(monkeypatch) -> list:
    """Record the row count of every batch of the branch program."""
    batches = []
    real_batch = analysis.solve_batch
    monkeypatch.setattr(analysis, "solve_batch",
                        lambda p, rhs, opts=None, c=None: batches.append(len(rhs))
                        or real_batch(p, rhs, opts, c))
    return batches


@pytest.mark.parametrize("name", ["cmir", "ex2_4"])
def test_report_solves_one_branch_batch_per_file(capsys, monkeypatch, name):
    """`report` solves the branch programs of every inequality of a file in
    one batch: per inequality a row per branch and, with two or more rows
    in A, a row per distinct image of the tight-ray samples (K has no
    Lorentz block of dim >= 3), each with the inequality's mu as objective,
    then a row per branch at objective 0 for Assumption 2. Its JSON is that
    of full_report, inequality by inequality."""
    path = DATA / f"{name}.json"
    problem = load_problem(path.read_text())
    dset, ineqs = problem.dset, problem.inequalities
    assert len(ineqs) == 2
    want = json.dumps(_plain([{"inequality": q.name, **full_report(dset, q).to_dict()}
                              for q in ineqs]), indent=2) + "\n"
    objectives = []
    real_batch = analysis.solve_batch
    monkeypatch.setattr(analysis, "solve_batch",
                        lambda p, rhs, opts=None, c=None: objectives.append(c)
                        or real_batch(p, rhs, opts, c))
    code, out, _ = run(capsys, "report", str(path), "--json")
    assert code == 0 and out == want
    samples = len({tuple(np.round(dset.A @ z, 12)) for z in sample_extreme_rays(dset.K, 256)})
    n_b = len(dset.B.expand())
    per_mu = n_b + (samples if dset.m > 1 else 0)
    want_c = np.vstack([np.tile(q.mu, (per_mu, 1)) for q in ineqs] + [np.zeros((n_b, dset.n))])
    assert len(objectives) == 1 and np.array_equal(objectives[0], want_c)


@pytest.mark.parametrize("command", ["theta", "support"])
@pytest.mark.parametrize("name", ["cmir", "ex2_4"])
def test_theta_and_support_solve_one_branch_batch_per_file(capsys, monkeypatch, command, name):
    path = DATA / f"{name}.json"
    problem = load_problem(path.read_text())
    singles = []
    for q in problem.inequalities:
        code, out, _ = run(capsys, command, str(path), "--inequality", q.name, "--json")
        assert code == 0
        singles += json.loads(out)
    batches = _count_branch_batches(monkeypatch)
    code, out, _ = run(capsys, command, str(path), "--json")
    assert code == 0 and json.loads(out) == singles
    assert batches == [len(problem.inequalities) * len(problem.dset.B.expand())]


@pytest.mark.parametrize("name", sorted(p.stem for p in DATA.glob("*.json")))
def test_theta_and_support_print_the_report_values(capsys, name):
    """`theta` prints each inequality's validity values and `support`
    (without --z) its inf_sigma values, as `report` records them, with the
    inequality's name first."""
    path = str(DATA / f"{name}.json")
    docs = {}
    for command in ("report", "theta", "support"):
        code, out, _ = run(capsys, command, path, "--json")
        assert code == 0
        docs[command] = json.loads(out)
    assert len(docs["theta"]) == len(docs["support"]) == len(docs["report"])
    for rep, th, sup in zip(docs["report"], docs["theta"], docs["support"]):
        rungs = {c["name"]: c["values"] for c in rep["checks"]}
        for got, rung in ((th, "validity"), (sup, "inf_sigma")):
            want = {"inequality": rep["inequality"], **rungs[rung]}
            assert got == want and list(got) == list(want), (rep["inequality"], rung)


def test_support_z_solves_one_branch_batch_per_file(capsys, monkeypatch):
    """`support --z` fills the support handles of every selected inequality
    in one batch of one row each, with the output of the inequalities one
    by one."""
    path = DATA / "cmir.json"
    problem = load_problem(path.read_text())
    singles = ""
    for q in problem.inequalities:
        code, out, _ = run(capsys, "support", str(path), "--inequality", q.name, "--z", "1,2")
        assert code == 0
        singles += out
    batches = _count_branch_batches(monkeypatch)
    code, out, _ = run(capsys, "support", str(path), "--z", "1,2")
    assert code == 0 and out == singles
    assert batches == [len(problem.inequalities)]


@pytest.mark.parametrize("command", ["report", "theta", "support"])
def test_zero_mu_in_a_file_is_rejected(tmp_path, capsys, command):
    doc = json.loads((DATA / "cmir.json").read_text())
    doc["inequalities"].append({"name": "zero", "mu": [0.0] * 5, "eta0": 0.0})
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path), "--json")
    assert code == 2 and not out
    assert err == "error: mu must be nonzero\n"


def _strict_json(text: str):
    """The document, read by a parser that rejects NaN and Infinity."""
    def reject(token):
        raise ValueError(f"non-finite number {token} in the JSON output")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", [
    ("report", "ex4_1.json", "--max-iters", "3"),
    ("theta", "cmir.json", "--max-iters", "2"),
    ("support", "cmir.json", "--inequality", "cmir_cut", "--max-iters", "2"),
    ("separate", "ex2_1.json", "--point", "1,0,0.5", "--max-iters", "2"),
    ("demo", "ex4_1", "--max-iters", "2"),
    ("equations", "cmir.json"),
])
def test_json_output_parses_strictly_at_a_solver_limit(capsys, argv):
    """At a low iteration cap some values are nan or infinite; --json writes
    them as strings, so a strict parser reads every subcommand's output.
    report, theta and support wrote bare NaN tokens here before."""
    command, target, *rest = argv
    if target.endswith(".json"):
        target = str(DATA / target)
    _, out, _ = run(capsys, command, target, *rest, "--json")
    assert out
    _strict_json(out)
    if command in ("report", "theta", "support"):
        assert '"nan"' in out


def test_plain_writes_non_finite_numbers_as_strings():
    nan, inf = float("nan"), float("inf")
    doc = {"a": nan, "b": [inf, -inf, np.float64(nan)], "c": np.array([[1.0, nan], [-inf, 2.0]]),
           "d": np.array([True, False])}
    assert _plain(doc) == {"a": "nan", "b": ["inf", "-inf", "nan"],
                           "c": [1.0, "nan", "-inf", 2.0], "d": [1.0, 0.0]}
    _strict_json(json.dumps(_plain(doc), allow_nan=False))
    fx = builtin("ex2_1")
    rep = full_report(fx.dset, fx.inequalities[0].inequality)
    rep.entries[0].values["nan"] = nan
    assert _strict_json(rep.to_json())["checks"][0]["values"]["nan"] == "nan"


def test_equations_command(capsys):
    code, out, _ = run(capsys, "equations", str(DATA / "cmir.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 1
    assert doc[0]["eta0"] == pytest.approx(0.0, abs=1e-9)


def test_separate_command(capsys):
    code, out, _ = run(
        capsys, "separate", str(DATA / "ex2_4.json"), "--point", "0,0", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] and doc["verified"]
    assert doc["violation"] > 1e-6


def test_separate_feasible_point(capsys):
    code, out, _ = run(
        capsys, "separate", str(DATA / "ex2_4.json"), "--point", "2,0", "--json"
    )
    assert code == 0
    assert not json.loads(out)["found"]


def test_separate_bad_point(capsys):
    code, _, err = run(capsys, "separate", str(DATA / "ex2_4.json"), "--point", "1,2,3")
    assert code == 2


def test_demo_pass_lines(capsys):
    # every built-in demo, among them ex2_2's Assumption 2 Fails note,
    # ex4_2's infeasible right-hand side and ex4_3's lattice
    for name in names():
        code, out, _ = run(capsys, "demo", name)
        assert code == 0, (name, out)
        assert "PASS" in out, name
        assert "FAIL" not in out, (name, out)


def test_demo_reads_assumption2_from_the_reports(capsys, monkeypatch):
    # ex2_2 notes Assumption 2 Fails; the report of its valid inequality
    # carries the set's result, so the objective-0 rows are solved once
    zero_rows = []
    real = analysis.branch_tables

    def spy(handles, labeled, directions):
        zero_rows.extend(h for h in handles if isinstance(h, analysis._ZeroObjective))
        return real(handles, labeled, directions)

    monkeypatch.setattr(analysis, "branch_tables", spy)
    code, text, _ = run(capsys, "demo", "ex2_2")
    assert code == 0 and len(zero_rows) == 1
    code, doc, _ = run(capsys, "demo", "ex2_2", "--json")
    assert code == 0 and len(zero_rows) == 2
    # the same line as from the check on its own
    status, _, margin = analysis.assumption2_check(builtin("ex2_2").dset)
    line = {"check": "assumption2 Fails", "pass": status.value == "Fails",
            "detail": f"margin={cli._fmt(margin)}"}
    assert f"PASS  {line['check']}  ({line['detail']})" in text.splitlines()
    assert line in json.loads(doc)["checks"]


def test_demo_cmir_vertices(capsys):
    code, out, _ = run(capsys, "demo", "cmir", "--f", "0.25", "--M", "10")
    assert code == 0
    assert "dmu vertices" in out
    assert "FAIL" not in out
    assert "np.float64" not in out


def test_demo_checks_theta_of_both_cmir_inequalities(capsys):
    code, out, _ = run(capsys, "demo", "cmir", "--json")
    assert code == 0
    checks = {c["check"]: c for c in json.loads(out)["checks"]}
    for name in ("cmir_cut", "t_eq_gamma2"):
        assert checks[f"{name} theta"]["pass"] is True, checks


@pytest.mark.parametrize("argv", [("ex2_1", "--M", "3"), ("ex2_2", "--f", "0.5"),
                                  ("ex4_3", "--f", "0.5")])
def test_demo_rejects_a_parameter_the_fixture_does_not_take(capsys, argv):
    code, out, err = run(capsys, "demo", *argv)
    assert code == 2 and not out
    assert f"fixture {argv[0]} takes no parameter {argv[1][2:]}" in err


@pytest.mark.parametrize("base, step", [([0.5, 0.5], [1.0]), ([0.5], [1.0, 0.0])])
def test_theta_rejects_a_lattice_whose_base_and_step_differ_in_length(
        tmp_path, capsys, base, step):
    doc = json.loads((DATA / "ex4_3.json").read_text())
    doc["rhs"]["lattice"].update(base=base, step=step)
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "theta", str(path))
    assert code == 2 and not out
    assert "base" in err and "step" in err


def test_negative_vectors_parse(capsys):
    code, out, _ = run(capsys, "separate", str(DATA / "ex2_4.json"), "--point", "-1,0", "--json")
    assert code == 0
    code, joined, _ = run(capsys, "separate", str(DATA / "ex2_4.json"), "--point=-1,0", "--json")
    assert code == 0 and joined == out
    assert json.loads(out)["found"]
    code, out, _ = run(capsys, "support", str(DATA / "cmir.json"), "--inequality", "cmir_cut",
                       "--z", "-1,2", "--json")
    assert code == 0
    assert json.loads(out)[0]["z"] == [-1.0, 2.0]


@pytest.mark.parametrize("argv", [
    ("--point", "-x,0"),
    ("--point", "-1,0,0"),
    ("--point", "--json"),
    ("--point",),
])
def test_malformed_point_names_the_flag(capsys, argv):
    try:
        code, out, err = run(capsys, "separate", str(DATA / "ex2_4.json"), *argv)
    except SystemExit as exc:  # argparse's own errors
        code, err = exc.code, capsys.readouterr().err
    assert code == 2
    assert "--point" in err


@pytest.mark.parametrize("command, flag", [
    (cmd, flag) for cmd in ("theta", "support") for flag in ("--tol", "--seed", "--samples")
] + [("separate", "--seed"), ("separate", "--samples"), ("separate", "--normalization"),
      ("report", "--seed")] + [
    ("equations", flag)
    for flag in ("--tol", "--seed", "--samples", "--max-iters", "--feas-tol", "--gap-tol")
])
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, command, flag):
    argv = [command, str(DATA / "ex2_4.json"), flag, "1"]
    if command == "separate":
        argv += ["--point", "0,0"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flag, argv", [
    ("--point", ("separate", str(DATA / "cmir.json"), "--point", "nan,0,0,0,0")),
    ("--point", ("separate", str(DATA / "ex2_4.json"), "--point", "0,inf")),
    ("--z", ("support", str(DATA / "cmir.json"), "--z", "nan,1")),
    ("--z", ("support", str(DATA / "ex4_1.json"), "--inequality", "nu", "--z=-inf")),
])
def test_non_finite_vectors_rejected(capsys, flag, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert flag in err and "finite" in err and not out


def test_invalid_tol_rejected(capsys):
    code, _, err = run(capsys, "report", str(DATA / "ex2_1.json"), "--tol", "-1")
    assert code == 2


@pytest.mark.parametrize("flag, value", [
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"),
    ("--feas-tol", "-1"), ("--feas-tol", "nan"), ("--gap-tol", "0"), ("--gap-tol", "inf"),
    ("--max-iters", "0"), ("--max-iters", "-3"),
])
def test_invalid_numeric_options_rejected(capsys, flag, value):
    code, out, err = run(capsys, "report", str(DATA / "ex4_1.json"), flag, value)
    assert code == 2
    assert flag in err and not out


def test_solver_breakdown_exit_code(capsys, monkeypatch):
    # np.linalg.LinAlgError subclasses ValueError, yet it is a solver
    # breakdown, not a format error
    def breakdown(*args, **kwargs):
        raise np.linalg.LinAlgError("singular KKT system")

    monkeypatch.setattr(cli, "full_reports", breakdown)
    code, _, err = run(capsys, "report", str(DATA / "ex2_4.json"))
    assert code == 3
    assert "solver breakdown" in err


def test_repeated_calls_share_one_parser(capsys):
    argv = ("report", str(DATA / "ex2_4.json"), "--json")
    first = run(capsys, *argv)
    assert run(capsys, *argv, "--tol", "1e-3", "--samples", "8")[0] == 0
    assert run(capsys, *argv) == first
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv", [
    ("report", "p.json"), ("demo", "ex2_4"), ("theta", "p.json"),
    ("support", "p.json"), ("separate", "p.json", "--point", "0"),
])
def test_flag_defaults_are_the_option_defaults(argv):
    assert cli._options(cli.build_parser().parse_args(argv)) == AnalysisOptions()
