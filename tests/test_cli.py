"""Command line interface: exit codes, report formats, error paths."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import fde
from fde import (EXAMPLE_IDS, TrigPoly, analyze_grid, build_example, certify,
                 emit_example, eval_grid, load_problem, parse_problem)
from fde.cli import emit_json, main

TWO_PI = 2.0 * np.pi


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


def test_content_hash_is_pinned():
    # the hash names a problem across processes and versions: sha256 of the
    # sorted JSON without the solve block, read as a 63-bit integer
    assert build_example("duffing-delay").content_hash() == 6364679115992769546
    assert build_example("beam").content_hash() == 708386190593626035


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


def test_check_ll_fails_where_the_field_vanishes_on_a_stratum(capsys, tmp_path):
    # with c1 = 4 / pi and c2 = 0 the projected field of weakly-coupled
    # vanishes at the single-slot element, where the second component of
    # Psi w is identically zero; the stratum enters the sphere scan
    _, doc, _ = run(capsys, "example", "weakly-coupled", "--param",
                    "c1=1.2732395447351628", "--param", "c2=0")
    path = tmp_path / "found.json"
    path.write_text(doc)
    code, out, _ = run(capsys, "check-ll", str(path))
    assert code == 2
    doc = json.loads(out)
    assert doc["R2"]["holds"] is False and doc["R2"]["stratum"] is True
    assert doc["conditions_pass"] is False


def test_check_ll_n2_is_minus_infinity_where_the_deviation_annihilates(capsys, tmp_path):
    # Psi = 0 sends every kernel element to zero, so no sample has a
    # deviated direction to pair with: N2 is -inf on a two-dimensional
    # kernel as on larger ones, and the conditions fail
    _, out, _ = run(capsys, "example", "duffing-delay")
    doc = json.loads(out)
    doc["Psi"]["entries"][0][0] = {"atoms": [], "densities": []}
    path = tmp_path / "zero_psi.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check-ll", str(path))
    assert code == 2
    doc = json.loads(out)
    assert doc["N2"]["margin"] == "-inf" and doc["N2"]["holds"] is False
    assert doc["N2"]["certified"] is True
    assert doc["conditions_pass"] is False


def test_check_ll_beam_reports_refusals_without_failing(capsys):
    code, out, _ = run(capsys, "check-ll", "beam")
    assert code == 0
    doc = json.loads(out)
    assert doc["conditions_pass"] is True
    assert doc["degree"] is None and "degree_note" in doc
    assert doc["ll_margin"] is None and "ll_note" in doc


def variant_file(tmp_path, family, params) -> str:
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(emit_example(family, **params)))
    return str(path)


@pytest.mark.parametrize("name", EXAMPLE_IDS)
def test_check_ll_prints_the_certify_record(capsys, name):
    code, out, _ = run(capsys, "check-ll", name)
    assert code == 0
    assert out == emit_json(certify(build_example(name)))


# (family, params, check-ll exit code).  On two-dimensional kernels R2, N2
# and the degree are closed forms, so the code is pinned (the critical gain
# of duffing-delay is 4/pi); the four-dimensional kernels of weakly-coupled
# and beam are sampled, so only the record is pinned and exact coverings of
# their spheres may still move a verdict (None)
CHECK_LL_VARIANTS = [
    *[("duffing-delay", {"c": c}, 0) for c in (0.5, 1.25, 1.26, 1.27, 1.272)],
    ("duffing-delay", {"tau": 1.0}, 0),
    ("duffing-delay", {"c": 1.3}, 2), ("duffing-delay", {"c": 2.0}, 2),
    ("duffing-distributed", {"c": 1.3}, 2), ("gompertz-system", {"c": 1.5}, 2),
    ("distributed-uniform", {"c": 1.5}, 2), ("distributed-sine", {"m": 3}, 0),
    *[("weakly-coupled", {"c1": c}, None) for c in (1.25, 1.27, 1.30, 2.0)],
    ("weakly-coupled", {"c1": 1.2732395447351628, "c2": 0}, None),
    ("beam", {"c1": 0.3, "c2": 0.15}, None), ("beam", {"c1": 1.0}, None),
]


@pytest.mark.parametrize("family, params, want", CHECK_LL_VARIANTS)
def test_check_ll_prints_the_record_of_each_variant(capsys, tmp_path, family, params, want):
    path = variant_file(tmp_path, family, params)
    prob = load_problem(path)
    assert prob.resonance_report().nu == (2 if want is None else 1)
    code, out, _ = run(capsys, "check-ll", path)
    doc = certify(prob)
    assert out == emit_json(doc)
    assert code == (0 if doc["conditions_pass"] else 2)
    if want is not None:
        assert code == want


def test_check_ll_passes_without_resonance(capsys, tmp_path):
    # u' + u(t - tau) resonates at k = 1 only for tau = pi/2: at tau = 1
    # L is invertible, and bounded g and h give a solution
    path = variant_file(tmp_path, "gompertz-system", {"tau": 1.0})
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0 and json.loads(out)["K"] == []
    code, out, err = run(capsys, "check-ll", path)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["conditions_pass"] is True
    assert [doc[key] for key in ("R2", "N2", "degree", "ll_margin")] == [None] * 4
    assert "invertible" in doc["note"]
    assert run(capsys, "solve", path)[0] == 0


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


@pytest.mark.parametrize("ex", EXAMPLE_IDS)
def test_solve_and_verify_report_the_same_defect(capsys, tmp_path, ex):
    # exit 0 from solve means the defect fde verify reads, bit for bit
    sol = tmp_path / "sol.json"
    code, _, _ = run(capsys, "solve", ex, "--out", str(sol))
    assert code == 0
    solved = json.loads(sol.read_text())["pointwise_residual"]
    code, out, _ = run(capsys, "verify", ex, "--solution", str(sol))
    assert code == 0
    assert json.loads(out)["pointwise_residual"] == solved


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


@pytest.mark.parametrize("ex", EXAMPLE_IDS)
def test_solve_csv_verifies_at_the_solve_band(capsys, tmp_path, ex):
    # the CSV holds the verification grid of the solve, so verify reads it
    # back at the solve's own kmax; read at 4x that band, the rounding of
    # the printed samples fills the top modes and the k^4 term of beam
    # amplifies it past the tolerance
    sol = tmp_path / "sol.csv"
    code, _, _ = run(capsys, "solve", ex, "--format", "csv", "--out", str(sol))
    assert code == 0
    code, out, _ = run(capsys, "verify", ex, "--solution", str(sol))
    rep = json.loads(out)
    assert code == 0 and rep["pass"] is True, rep
    assert rep["kmax"] == build_example(ex).solve.kmax


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


def test_solve_wide_band_traces_the_coarse_stage(capsys):
    code, out, _ = run(capsys, "solve", "gompertz-system", "--kmax", "256")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True and doc["kmax"] == 256
    assert {e["kmax"] for e in doc["trace"] if "kmax" in e} == {16, 32}
    assert "kmax" not in doc["trace"][-1]


def test_verify_dense_csv_stays_small(capsys, tmp_path):
    # 2048 samples read at kmax 1023 put the defect on 8184 points; a dense
    # (points x modes) phase table there would take about 300 MB
    prob = build_example("duffing-delay")
    M = 2048
    vals = eval_grid(fde.solve_best(prob).u, M)[:, 0]
    t = 2.0 * np.pi * np.arange(M) / M
    sol = tmp_path / "dense.csv"
    sol.write_text("t,u1\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(t, vals)))
    code, out, _ = run(capsys, "verify", "duffing-delay", "--solution", str(sol),
                       "--kmax", "1023")
    rep = json.loads(out)
    assert code == 0 and rep["pass"] is True and rep["kmax"] == 1023

    u = analyze_grid(vals[:, None], 1023)
    tracemalloc.start()
    try:
        fde.verify_pointwise(prob, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_verify_exit_3_on_wrong_solution(capsys, tmp_path):
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps(TrigPoly.cosine(1, amplitude=0.3).to_dict()))
    code, out, _ = run(capsys, "verify", "duffing-delay",
                       "--solution", str(wrong))
    assert code == 3
    rep = json.loads(out)
    assert rep["pass"] is False
    assert rep["pointwise_residual"] > 1e-2


@pytest.mark.parametrize("name, text", [
    ("list.json", "[]"),
    ("null.json", '{"u": null}'),
    ("no_re.json", '{"n": 1, "kmax": 1, "coeffs": [{"k": 1, "im": [0.5]}]}'),
    ("header_only.csv", "t,u1\n"),
])
def test_verify_malformed_solution_exits_4(capsys, tmp_path, name, text):
    # a solution file that holds no polynomial is bad input, not a crash
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "verify", "duffing-delay", "--solution", str(path))
    assert code == 4 and out == ""
    assert err.startswith("error: solution ")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_solution_of_another_size_exits_4(capsys, tmp_path, fmt):
    sol = tmp_path / f"sol.{fmt}"
    code, _, _ = run(capsys, "solve", "gompertz-system", "--format", fmt,
                     "--out", str(sol))
    assert code == 0
    code, out, err = run(capsys, "verify", "duffing-delay", "--solution", str(sol))
    assert code == 4 and out == ""
    assert err == "error: solution has 2 components, the problem 1\n"


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


def test_problem_schema_is_valid():
    # the schema is checked once here, not on every load; staying valid
    # JSON Schema keeps jsonschema usable as the validator's test oracle
    from jsonschema.validators import validator_for
    from fde.catalog import PROBLEM_SCHEMA
    validator_for(PROBLEM_SCHEMA).check_schema(PROBLEM_SCHEMA)


def test_missing_g_raises_at_document_root():
    from fde.errors import ProblemFormatError
    doc = fde.emit_example("duffing-delay")
    del doc["g"]
    with pytest.raises(ProblemFormatError,
                       match=r"^\$: 'g' is a required property$") as info:
        parse_problem(json.dumps(doc))
    assert info.value.path == "$"


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


@pytest.mark.parametrize("member, value", [
    ("components", True), ("components", [1.5]), ("terms", ["x"]),
])
def test_malformed_untyped_member_exits_4(capsys, tmp_path, member, value):
    # the schema does not type these members; reading them must still fail
    # as bad input, not crash
    doc = fde.emit_example("gompertz-system")
    doc["g" if member == "components" else "h"][member] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 4 and out == ""
    assert err.startswith("error: $: malformed field:")


def test_negative_forcing_kmax_exits_4(capsys, tmp_path):
    doc = fde.emit_example("duffing-delay")
    doc["p"].update(kmax=-1, coeffs=[])
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 4 and out == ""
    assert err == "error: $: kmax must be nonnegative, got -1\n"


def test_negative_solution_kmax_exits_4(capsys, tmp_path):
    path = tmp_path / "negative.json"
    path.write_text('{"n": 1, "kmax": -1, "coeffs": []}')
    code, out, err = run(capsys, "verify", "duffing-delay", "--solution", str(path))
    assert code == 4 and out == ""
    assert err == "error: kmax must be nonnegative, got -1\n"


@pytest.mark.parametrize("cmd, member, literal", [
    ("solve", "delay", "NaN"), ("check-ll", "amp", "Infinity"), ("analyze", "amp", "-1e999"),
])
def test_non_finite_number_exits_4(capsys, tmp_path, cmd, member, literal):
    # Python's json reads NaN, Infinity and an overflowing literal as
    # floats; a NaN delay crashed solve and an infinite h passed check-ll
    doc = fde.emit_example("gompertz-system")
    term = doc["h"]["terms"][0]
    (term["taps"][0] if member == "delay" else term)[member] = 1234.5
    text = json.dumps(doc)
    assert text.count("1234.5") == 1
    path = tmp_path / "non_finite.json"
    path.write_text(text.replace("1234.5", literal))
    code, out, err = run(capsys, cmd, str(path))
    assert code == 4 and out == ""
    assert err == f"error: $: not valid JSON: non-finite number {literal}\n"


@pytest.mark.parametrize("name, text", [
    ("nan.json", '{"n": 1, "kmax": 1, "coeffs": [{"k": 1, "re": [NaN], "im": [0]}]}'),
    ("nan.csv", "t,u1\n" + "".join(f"{TWO_PI * j / 4!r},{'nan' if j == 2 else 0.0}\n"
                                   for j in range(4))),
], ids=["json", "csv"])
def test_non_finite_solution_exits_4(capsys, tmp_path, name, text):
    # a NaN cell made verify report a failed check (exit 3)
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, "verify", "duffing-delay", "--solution", str(path))
    assert code == 4 and out == ""
    assert err.startswith("error: ") and "non-finite number" in err


@pytest.mark.parametrize("cmd", ["analyze", "check-ll", "solve"])
def test_unknown_perturbation_profile_exits_4(capsys, tmp_path, cmd):
    doc = fde.emit_example("gompertz-system")
    doc["h"]["terms"][0]["profile"] = "bogus"
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, cmd, str(path))
    assert code == 4 and out == ""
    assert err == "error: $: unknown perturbation profile 'bogus'\n"


@pytest.mark.parametrize("member, profile, message", [
    ("g", "sech", "unknown saturation profile 'sech'"),
    ("h", "atan", "unknown perturbation profile 'atan'"),
])
def test_profile_of_the_other_catalog_exits_4(capsys, tmp_path, member, profile, message):
    # g and h read one profile table, but each accepts only its own names
    doc = fde.emit_example("gompertz-system")
    (doc["g"]["components"] if member == "g" else doc["h"]["terms"])[0]["profile"] = profile
    path = tmp_path / "other.json"
    path.write_text(json.dumps(doc))
    for cmd in ("analyze", "check-ll", "solve"):
        code, out, err = run(capsys, cmd, str(path))
        assert code == 4 and out == ""
        assert err == f"error: $: {message}\n"


def test_tapless_h_term_is_solved_and_verified(capsys, tmp_path):
    # h = 0.3 cos(0): a term with no taps is a constant the solution must meet
    doc = fde.emit_example("duffing-delay")
    doc["h"] = {"terms": [{"component": 0, "amp": 0.3, "profile": "cos", "taps": []}]}
    path, sol, plain = (tmp_path / name for name in ("tapless.json", "s.json", "plain.json"))
    path.write_text(json.dumps(doc))
    assert run(capsys, "solve", str(path), "--out", str(sol))[0] == 0
    assert run(capsys, "verify", str(path), "--solution", str(sol))[0] == 0
    # the solution of the equation without h misses the constant by 0.3
    assert run(capsys, "solve", "duffing-delay", "--out", str(plain))[0] == 0
    code, out, _ = run(capsys, "verify", str(path), "--solution", str(plain))
    assert code == 3
    assert json.loads(out)["pointwise_residual"] >= 0.29


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


def test_missing_null_and_empty_solve_blocks_take_the_defaults(capsys, tmp_path):
    # duffing-delay's own solve block holds the defaults, kmax 64
    doc = fde.emit_example("duffing-delay")
    assert doc["solve"] == fde.SolveConfig().to_dict()
    _, expect, _ = run(capsys, "solve", "duffing-delay")
    assert json.loads(expect)["kmax"] == 64
    for name in ("absent", "null", "empty"):
        d = {k: v for k, v in doc.items() if k != "solve"}
        if name != "absent":
            d["solve"] = None if name == "null" else {}
        assert parse_problem(json.dumps(d)).solve == fde.SolveConfig()
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(d))
        code, out, _ = run(capsys, "solve", str(path))
        assert code == 0 and out == expect, name


def test_legacy_format_keys_are_ignored(capsys, tmp_path):
    # files written before the format dropped the unread orthogonality
    # flag and the fixed solver settings load and report as without them;
    # an M below 4 kmax was rejected when the grid was a setting
    doc = fde.emit_example("gompertz-system")
    legacy = json.loads(json.dumps(doc))
    legacy["h"]["kernel_orthogonal"] = True
    legacy["solve"].update(damping=[1e-4, 8.0, 0.25], seed_samples=64,
                           seed_radii=[0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
                           M=100)
    reports = []
    for name, d in (("current", doc), ("legacy", legacy)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(d))
        reports.append([run(capsys, cmd, str(path))[:2]
                        for cmd in ("check-ll", "solve")])
    assert reports[1] == reports[0]
    assert [code for code, _ in reports[0]] == [0, 0]


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


def _python(*args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(fde.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_loads_no_scipy(tmp_path):
    # importing scipy costs about a second, and no package path loads it.
    # Problem files are validated without jsonschema, which only the tests
    # use
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(fde.emit_example("gompertz-system")))
    proc = _python("-c", "import fde, sys; assert 'scipy' not in sys.modules; "
                         "fde.load_problem(sys.argv[1]); "
                         "assert 'jsonschema' not in sys.modules", str(path))
    assert proc.returncode == 0, proc.stderr


# hashlib maps OpenSSL (only content_hash reads it), numpy.polynomial
# builds the Gauss-Legendre rule of gamma_convergence, fde.sobol holds the
# Sobol draw of sphere_samples, and numpy.random (which imports hashlib) is
# read by no fde path
UNUSED_AT_START = ("hashlib", "_hashlib", "numpy.polynomial", "numpy.random", "fde.sobol")


def test_import_solve_and_certificates_load_no_unused_module(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(fde.emit_example("weakly-coupled")))
    proc = _python("-c", "import sys\n"
                         f"unused = {UNUSED_AT_START!r}\n"
                         "import fde\n"
                         "assert not [m for m in unused if m in sys.modules]\n"
                         "prob = fde.load_problem(sys.argv[1])\n"
                         "assert not [m for m in unused if m in sys.modules]\n"
                         "u = fde.solve_best(prob).u\n"
                         "assert not [m for m in unused if m in sys.modules]\n"
                         "fde.verify_pointwise(prob, u)\n"
                         "assert not [m for m in unused if m in sys.modules]\n"
                         "fde.certify(prob)\n"
                         "assert not [m for m in unused if m in sys.modules]", str(path))
    assert proc.returncode == 0, proc.stderr
    for cmd in ("check-ll beam", "solve weakly-coupled"):
        proc = _python("-c", "import os, sys; from fde.cli import main; "
                             f"assert main({cmd.split()!r} + ['--out', os.devnull]) == 0; "
                             f"assert not [m for m in {UNUSED_AT_START!r} if m in sys.modules]")
        assert proc.returncode == 0, (cmd, proc.stderr)


def test_check_ll_on_a_two_dimensional_kernel_loads_no_scipy():
    # its certificates are closed form, and the small-set diagnostic and
    # the seed scan of solve read the phase circle instead of a Sobol draw.
    # Larger kernels read a numpy Kronecker lattice: each command runs cold
    proc = _python("-c", "import os, sys; from fde.cli import main; "
                         "assert main(['check-ll', 'duffing-delay']) == 0; "
                         "assert main(['solve', 'duffing-delay', '--out', os.devnull]) == 0; "
                         "assert 'scipy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr
    for cmd in ("check-ll beam", "check-ll weakly-coupled", "solve weakly-coupled"):
        proc = _python("-c", "import os, sys; from fde.cli import main; "
                             f"assert main({cmd.split()!r} + ['--out', os.devnull]) == 0; "
                             "assert 'scipy' not in sys.modules")
        assert proc.returncode == 0, (cmd, proc.stderr)


def test_library_certificates_and_solves_load_no_scipy():
    # the sphere scan, the product degree, the solve and its pointwise
    # check on kernels of dimension 4, in a fresh process
    proc = _python("-c", "import sys, fde\n"
                         "for name in ('beam', 'weakly-coupled'):\n"
                         "    prob = fde.build_example(name)\n"
                         "    fde.sphere_scan(prob)\n"
                         "    try:\n"
                         "        fde.degree_product(prob)\n"
                         "    except fde.BlockStructureError:\n"
                         "        pass\n"
                         "    fde.verify_pointwise(prob, fde.solve_best(prob).u)\n"
                         "assert 'scipy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_certificate_calls_load_no_scipy():
    # the calls of the benchmark's certificate task, on every example, in a
    # fresh process: sphere_samples draws its Sobol points with numpy and
    # its own PCG64, so neither numpy.random nor OpenSSL is loaded
    proc = _python("-c", "import sys, fde\n"
                         "for name in fde.EXAMPLE_IDS:\n"
                         "    prob = fde.build_example(name)\n"
                         "    rep = fde.resonant_set(prob.P, prob.Lam)\n"
                         "    fde.sphere_scan(prob, rep, n_samples=256)\n"
                         "    for cert in (fde.degree_product, fde.ll_margin):\n"
                         "        try:\n"
                         "            cert(prob, rep)\n"
                         "        except fde.BlockStructureError:\n"
                         "            pass\n"
                         "    if rep.nu == 1:\n"
                         "        fde.degree_winding(prob, rep)\n"
                         "    w = fde.sphere_samples(rep, 1, seed=0)[0]\n"
                         "    fde.small_set_measure(w, 0.1)\n"
                         "    fde.gamma_convergence(prob, w, (1e2, 1e3, 1e4))\n"
                         "loaded = ('scipy', 'numpy.random', 'hashlib', '_hashlib')\n"
                         "assert not [m for m in loaded if m in sys.modules]")
    assert proc.returncode == 0, proc.stderr


def test_commands_run_with_scipy_unimportable(tmp_path):
    # numpy is the only runtime dependency: with every scipy import made to
    # fail, each command exits 0 on every example
    proc = _python("-c", "import sys\n"
                         "sys.modules['scipy'] = None\n"
                         "import os\n"
                         "from fde import EXAMPLE_IDS\n"
                         "from fde.cli import main\n"
                         "for name in EXAMPLE_IDS:\n"
                         "    sol = os.path.join(sys.argv[1], name + '.json')\n"
                         "    for argv in (['analyze', name, '--out', os.devnull],\n"
                         "                 ['check-ll', name, '--out', os.devnull],\n"
                         "                 ['solve', name, '--out', sol],\n"
                         "                 ['verify', name, '--solution', sol, '--out', os.devnull]):\n"
                         "        assert main(argv) == 0, argv", str(tmp_path))
    assert proc.returncode == 0, proc.stderr


def test_check_ll_beam_loads_no_numpy_ma():
    # np.unique imports numpy.ma (10-17 ms) on first use; beam's root and
    # panel breakpoints are deduplicated without it
    proc = _python("-c", "import os, sys; from fde.cli import main; "
                         "assert main(['check-ll', 'beam', '--out', os.devnull]) == 0; "
                         "assert 'numpy.ma' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    proc = _python("-c", "import fde; missing = [n for n in fde.__all__ if not hasattr(fde, n)]; "
                         "assert not missing, missing; "
                         "assert len(set(fde.__all__)) == len(fde.__all__); "
                         "exec('from fde import *')")
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_runs_clean():
    proc = _python("-m", "fde.cli", "analyze", "duffing-delay")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["nu"] == 1


def test_out_file_matches_stdout(capsys, tmp_path):
    _, streamed, _ = run(capsys, "analyze", "gompertz-system")
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "gompertz-system", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text() == streamed
