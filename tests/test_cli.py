"""Command line interface: exit codes, report formats, error paths."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fde
from fde import EXAMPLE_IDS, TrigPoly, build_example, parse_problem
from fde.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# -- example emission --------------------------------------------------


def test_every_example_emits_and_reparses(capsys, tmp_path):
    for ex in EXAMPLE_IDS:
        path = tmp_path / f"{ex}.json"
        code, out, err = run(capsys, "example", ex, "--out", str(path))
        assert code == 0 and err == ""
        prob = parse_problem(path.read_text())
        assert prob.content_hash() == build_example(ex).content_hash()


def test_example_params_change_problem(capsys):
    code, out, _ = run(capsys, "example", "duffing-delay", "--param", "c=2.0")
    assert code == 0
    prob = parse_problem(out)
    assert prob.content_hash() == build_example("duffing-delay", c=2.0).content_hash()
    assert prob.content_hash() != build_example("duffing-delay").content_hash()


def test_unknown_example_and_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "no-such-thing")
    assert code == 4
    assert "no such file or example" in err


# -- analyze -----------------------------------------------------------


def test_analyze_every_example_passes(capsys):
    for ex in EXAMPLE_IDS:
        code, out, _ = run(capsys, "analyze", ex)
        assert code == 0, ex
        doc = json.loads(out)
        assert doc["L1"] and doc["L2"] and doc["L3"] and doc["L4"], ex
        assert doc["K"], ex
        assert doc["nu"] >= 1


def test_analyze_degenerate_deviation_exits_2(capsys, tmp_path):
    _, out, _ = run(capsys, "example", "duffing-delay")
    doc = json.loads(out)
    doc["Psi"]["entries"][0][0] = {"atoms": [], "densities": []}
    path = tmp_path / "bad_psi.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 2
    rep = json.loads(out)
    assert rep["L3"] is False


# -- check-ll ----------------------------------------------------------


def test_check_ll_verdict_flip(capsys):
    code, out, _ = run(capsys, "check-ll", "duffing-delay")
    assert code == 0
    doc = json.loads(out)
    assert doc["conditions_pass"] is True
    assert doc["R2"]["holds"] and doc["N2"]["holds"]
    assert doc["degree"]["degree"] == -1

    _, big, _ = run(capsys, "example", "duffing-delay", "--param", "c=2.0")
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
        f.write(big)
        name = f.name
    try:
        code, out, _ = run(capsys, "check-ll", name)
    finally:
        os.unlink(name)
    assert code == 2
    doc = json.loads(out)
    assert doc["R2"]["holds"] is True
    assert doc["N2"]["holds"] is False
    assert doc["degree"]["degree"] == 0
    assert doc["conditions_pass"] is False


def test_check_ll_beam_reports_refusals_without_failing(capsys):
    code, out, _ = run(capsys, "check-ll", "beam")
    assert code == 0
    doc = json.loads(out)
    assert doc["conditions_pass"] is True
    assert doc["degree"] is None and "degree_note" in doc
    assert doc["ll_margin"] is None and "ll_note" in doc


# -- solve / verify ----------------------------------------------------


def test_solve_then_verify_json(capsys, tmp_path):
    sol = tmp_path / "sol.json"
    code, _, _ = run(capsys, "solve", "duffing-delay", "--out", str(sol))
    assert code == 0
    doc = json.loads(sol.read_text())
    assert doc["converged"] is True
    assert doc["pointwise_residual"] < 1e-8

    code, out, _ = run(capsys, "verify", "duffing-delay",
                       "--solution", str(sol))
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert rep["pointwise_residual"] < 1e-8


def test_solve_csv_roundtrip(capsys, tmp_path):
    sol = tmp_path / "sol.csv"
    code, _, _ = run(capsys, "solve", "duffing-delay",
                     "--format", "csv", "--out", str(sol))
    assert code == 0
    header = sol.read_text().splitlines()[0]
    assert header.split(",")[0] == "t"

    code, out, _ = run(capsys, "verify", "duffing-delay",
                       "--solution", str(sol), "--kmax", "64")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_solve_exit_3_when_iteration_budget_exhausted(capsys, tmp_path):
    _, out, _ = run(capsys, "example", "duffing-delay")
    doc = json.loads(out)
    doc["solve"]["max_iter"] = 1
    path = tmp_path / "starved.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 3
    assert json.loads(out)["converged"] is False


@pytest.mark.parametrize("kmax", ["8", "6"])
def test_solve_exit_3_when_band_too_narrow(capsys, kmax):
    # kmax 8 meets the coefficient tolerance with a pointwise defect near
    # 5e-4; at kmax 6 the residual also moves when the grid doubles
    code, out, _ = run(capsys, "solve", "duffing-delay", "--kmax", kmax)
    assert code == 3
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["pointwise_residual"] > 1e-8
    if kmax == "6":
        assert doc["trace"][-1]["residual_2M"] > 10 * doc["trace"][-1]["residual_M"]


def test_verify_exit_3_on_wrong_solution(capsys, tmp_path):
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(TrigPoly.cosine(1, amplitude=0.3).to_dict()))
    code, out, _ = run(capsys, "verify", "duffing-delay",
                       "--solution", str(wrong))
    assert code == 3
    rep = json.loads(out)
    assert rep["pass"] is False
    assert rep["pointwise_residual"] > 1e-2


# -- malformed input ---------------------------------------------------


def test_invalid_json_exits_4(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 4
    assert "not valid JSON" in err


def test_schema_violation_reports_path(capsys, tmp_path):
    _, out, _ = run(capsys, "example", "duffing-delay")
    doc = json.loads(out)
    del doc["g"]
    path = tmp_path / "no_g.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 4
    assert "'g' is a required property" in err


def test_missing_saturation_limits_rejected(capsys, tmp_path):
    _, out, _ = run(capsys, "example", "duffing-delay")
    doc = json.loads(out)
    del doc["g"]["components"][0]["hi"]
    path = tmp_path / "no_limits.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 4
    assert "asymptotic limits" in err
    assert "R1" in err
    assert "$.g.components[0]" in err


def test_legacy_jacobian_keys_load_and_sign_table_solve_fails(capsys, tmp_path):
    # files written when the solver had a finite-difference Jacobian mode
    # still load; a sign-table g still cannot be solved (no derivative)
    _, out, _ = run(capsys, "example", "duffing-delay")
    doc = json.loads(out)
    doc["solve"].update(jacobian="finite-difference", fd_step=1e-7)
    assert parse_problem(json.dumps(doc)).solve.kmax == doc["solve"]["kmax"]
    doc["g"] = {"kind": "sign_table", "table": {"+": [1.0], "-": [-1.0]}}
    path = tmp_path / "sign.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "solve", str(path))
    assert code == 4
    assert "not differentiable" in err


def test_declared_h_sup_is_ignored(capsys, tmp_path):
    # the N2 budget comes from the perturbation's own terms; a "sup" key in
    # the file cannot shrink it
    _, out, _ = run(capsys, "example", "gompertz-system", "--param", "h_amp=0.9")
    doc = json.loads(out)
    doc["h"].pop("sup", None)
    reports = []
    for name, sup in (("plain", None), ("declared", 0.0)):
        if sup is not None:
            doc["h"]["sup"] = sup
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        _, out, _ = run(capsys, "check-ll", str(path))
        reports.append(json.loads(out)["N2"])
    assert reports[1]["margin"] == reports[0]["margin"]
    assert reports[1]["h_budget"] == reports[0]["h_budget"] > 0.0


def test_singular_leading_coefficient_rejected(capsys, tmp_path):
    _, out, _ = run(capsys, "example", "duffing-delay")
    doc = json.loads(out)
    doc["P"][-1] = [[0.0]]
    path = tmp_path / "singular_lead.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 4
    assert "singular" in err


def test_bad_param_exits_4(capsys):
    code, _, err = run(capsys, "example", "duffing-delay", "--param", "c=abc")
    assert code == 4
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("check-ll", "duffing-delay", "--samples", "abc"),
    ("analyze", "duffing-delay", "--kmax", "999", "--format", "csv"),
    ("check-ll", "duffing-delay", "--samples", "0"),
])
def test_usage_errors_exit_4(capsys, argv):
    # exit 2 is a failed condition; a command line the command cannot
    # read (bad value, flag it does not take) is a usage error
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == "" and "error:" in err


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "check-ll", "--help")
    assert code == 0 and "--samples" in out and "--kmax" not in out


# -- determinism -------------------------------------------------------


@pytest.mark.parametrize("cmd", ["analyze", "check-ll", "solve"])
def test_reports_byte_identical(capsys, cmd):
    _, first, _ = run(capsys, cmd, "weakly-coupled")
    _, second, _ = run(capsys, cmd, "weakly-coupled")
    assert first == second and first


def test_import_loads_no_scipy():
    # importing scipy costs about a second; the package loads it only when
    # it first samples a kernel sphere
    src = os.path.dirname(os.path.dirname(os.path.abspath(fde.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", "import fde, sys; assert 'scipy' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_out_file_matches_stdout(capsys, tmp_path):
    _, streamed, _ = run(capsys, "analyze", "gompertz-system")
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "gompertz-system", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == streamed
