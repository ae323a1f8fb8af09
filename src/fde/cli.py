"""Command line front end: problem ingestion, dispatch, report emission.

Commands
    fde analyze   PROBLEM    resonant set, kernel bases, structural checks
    fde check-ll  PROBLEM    existence certificates (range, pairing, degree)
    fde solve     PROBLEM    harmonic-balance solution, report or CSV
    fde verify    PROBLEM --solution FILE   pointwise defect of a solution
    fde example   ID         emit a built-in problem file

``PROBLEM`` is a path to a problem JSON file, or the name of a built-in
example.  Exit codes: 0 success / conditions hold, 2 existence conditions
fail, 3 solver did not converge, 4 input or runtime error.

Reports are JSON with sorted keys and stable float formatting, so
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np
import jsonschema

from .catalog import EXAMPLE_IDS, build_example, emit_example
from .errors import BlockStructureError, DimensionMismatch, FdeError, ProblemFormatError
from .lazer_leach import (certificate, degree_product, degree_winding,
                          ll_margin, small_set_measure, sphere_samples,
                          sphere_scan)
from .problem import ProblemSpec, SolveConfig
from .resonance import check_linear_conditions, resonant_set
from .solver import VERIFY_TOL, solve_best, verify_pointwise
from .trigpoly import TrigPoly, analyze_grid, eval_grid

_MEASURE_SCHEMA = {
    "type": "object",
    "required": ["atoms", "densities"],
    "properties": {
        "atoms": {"type": "array",
                  "items": {"type": "object",
                            "required": ["theta", "weight"],
                            "properties": {"theta": {"type": "number"},
                                           "weight": {"type": "number"}}}},
        "densities": {"type": "array",
                      "items": {"type": "object",
                                "required": ["a", "b", "profile"],
                                "properties": {
                                    "a": {"type": "number"},
                                    "b": {"type": "number"},
                                    "profile": {"type": "object",
                                                "required": ["kind"]}}}}},
}

_MATRIX_SCHEMA = {
    "type": "object",
    "required": ["n", "entries"],
    "properties": {"n": {"type": "integer", "minimum": 1},
                   "entries": {"type": "array",
                               "items": {"type": "array",
                                         "items": _MEASURE_SCHEMA}}},
}

PROBLEM_SCHEMA = {
    "type": "object",
    "required": ["n", "P", "Lambda", "Psi", "g", "p"],
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "P": {"type": "array", "minItems": 1,
              "items": {"type": "array", "items": {"type": "array",
                                                   "items": {"type": "number"}}}},
        "Lambda": _MATRIX_SCHEMA,
        "Psi": _MATRIX_SCHEMA,
        "g": {"type": "object", "required": ["kind"],
              "properties": {"kind": {"enum": ["componentwise", "radial",
                                               "sign_table"]}}},
        "h": {"type": ["object", "null"]},
        "p": {"type": "object", "required": ["n", "kmax", "coeffs"]},
        "solve": {"type": ["object", "null"]},
    },
}


def parse_problem(text: str) -> ProblemSpec:
    """Validated problem from JSON text.

    Schema violations and semantic rejections (singular leading
    coefficient, missing asymptotic limits, dimension mismatches) raise
    :class:`ProblemFormatError` locating the offending entry.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"not valid JSON: {exc}", path="$") from None
    try:
        jsonschema.validate(doc, PROBLEM_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ProblemFormatError(exc.message, path=exc.json_path) from None

    g = doc.get("g", {})
    if g.get("kind") == "componentwise":
        for i, comp in enumerate(g.get("components", [])):
            if "lo" not in comp or "hi" not in comp:
                raise ProblemFormatError(
                    "saturating component must declare both asymptotic "
                    "limits lo and hi (condition R1); evaluation-only "
                    "nonlinearities are not accepted",
                    path=f"$.g.components[{i}]")
    try:
        return ProblemSpec.from_dict(doc)
    except ProblemFormatError:
        raise
    except FdeError as exc:
        raise ProblemFormatError(str(exc), path="$") from None
    except (KeyError, ValueError, TypeError) as exc:
        raise ProblemFormatError(f"malformed field: {exc}", path="$") from None


def load_problem(ref: str) -> ProblemSpec:
    """Problem from a file path or a built-in example name."""
    if os.path.exists(ref):
        with open(ref, "r", encoding="utf-8") as fh:
            return parse_problem(fh.read())
    if ref in EXAMPLE_IDS:
        return build_example(ref)
    raise ProblemFormatError(f"no such file or example: {ref}")


# -- float-stable JSON -------------------------------------------------


def _plain(obj):
    # numpy scalars/arrays to builtin types; floats pass through at full
    # precision (repr round-trips, so identical runs emit identical bytes)
    if isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            return repr(obj)
        return obj
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.floating):
        return _plain(float(obj))
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    return obj


def emit_json(doc: dict) -> str:
    return json.dumps(_plain(doc), indent=2, sort_keys=True) + "\n"


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- commands ----------------------------------------------------------


def cmd_analyze(prob: ProblemSpec, args) -> tuple[dict, int]:
    report = resonant_set(prob.P, prob.Lam, tol=args.tol or 1e-9)
    report.flags = check_linear_conditions(report, prob.Psi)
    doc = report.to_dict()
    return doc, 0 if report.flags.all_pass else 2


def cmd_check_ll(prob: ProblemSpec, args) -> tuple[dict, int]:
    report = resonant_set(prob.P, prob.Lam, tol=args.tol or 1e-9)
    report.flags = check_linear_conditions(report, prob.Psi)
    scan = sphere_scan(prob, report, n_samples=args.samples or 32)
    doc = scan.to_dict()
    doc["linear"] = report.flags.to_dict()

    try:
        if report.nu == 1:
            deg = degree_winding(prob, report)
        else:
            deg = degree_product(prob, report)
        doc["degree"] = certificate("R3", margin=doc["R2"]["margin"],
                                    degree=deg, samples=None, witness=None)
    except (BlockStructureError, DimensionMismatch, FdeError) as exc:
        doc["degree"] = None
        doc["degree_note"] = str(exc)
        deg = None

    try:
        doc["ll_margin"] = ll_margin(prob, report)
    except (BlockStructureError, DimensionMismatch) as exc:
        doc["ll_margin"] = None
        doc["ll_note"] = str(exc)

    w0 = sphere_samples(report, 1, seed=0)[0]
    doc["diagnostics"] = {
        "c_psi": report.flags.c_psi,
        "small_set": {"eps": 0.1, "value": small_set_measure(w0, 0.1)},
    }
    ok = bool(doc["R2"]["holds"]
              and (doc["N2"]["holds"] or (deg is not None and deg != 0)))
    doc["conditions_pass"] = ok
    return doc, 0 if ok else 2


def _solution_csv(u: TrigPoly, M: int) -> str:
    t = 2.0 * np.pi * np.arange(M) / M
    vals = eval_grid(u, M)
    head = "t," + ",".join(f"u{j + 1}" for j in range(u.n))
    lines = [head]
    for i in range(M):
        row = [f"{t[i]:.17g}"] + [f"{vals[i, j]:.17g}" for j in range(u.n)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cmd_solve(prob: ProblemSpec, args) -> tuple[object, int]:
    config = prob.solve if prob.solve is not None else SolveConfig()
    if args.kmax or args.tol:
        d = config.to_dict()
        if args.kmax:
            d["kmax"] = args.kmax
            d["M"] = None
        if args.tol:
            d["tol_residual"] = args.tol
        config = SolveConfig.from_dict(d)
    result = solve_best(prob, config)
    if args.format == "csv":
        doc = _solution_csv(result.u, max(8 * config.kmax, 64))
    else:
        doc = result.to_dict()
    return doc, 0 if result.converged else 3


def _load_solution(path: str, kmax_flag: int | None) -> TrigPoly:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        doc = json.loads(text)
        if isinstance(doc, dict) and "u" in doc:
            doc = doc["u"]
        return TrigPoly.from_dict(doc)
    rows = [line.split(",") for line in text.strip().splitlines()]
    if not rows or not rows[0] or rows[0][0] != "t":
        raise ProblemFormatError("solution CSV must start with header t,u1,...")
    data = np.array([[float(v) for v in r] for r in rows[1:]])
    M = data.shape[0]
    t = data[:, 0]
    expected = 2.0 * np.pi * np.arange(M) / M
    if np.max(np.abs(t - expected)) > 1e-9:
        raise ProblemFormatError("solution CSV must sample the uniform grid "
                                 "t_j = 2 pi j / M")
    kmax = kmax_flag or (M - 1) // 2
    return analyze_grid(data[:, 1:], min(kmax, (M - 1) // 2))


def cmd_verify(prob: ProblemSpec, args) -> tuple[dict, int]:
    if not args.solution:
        raise ProblemFormatError("verify needs --solution FILE")
    u = _load_solution(args.solution, args.kmax)
    tol = args.tol or VERIFY_TOL
    resid = verify_pointwise(prob, u, max(8 * u.kmax, 64))
    doc = {"pointwise_residual": resid, "tol": tol, "kmax": u.kmax,
           "pass": bool(resid <= tol)}
    return doc, 0 if doc["pass"] else 3


def _parse_params(pairs) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ProblemFormatError(f"--param wants key=value, got {item!r}")
        key, val = item.split("=", 1)
        try:
            out[key] = int(val)
        except ValueError:
            try:
                out[key] = float(val)
            except ValueError:
                raise ProblemFormatError(
                    f"parameter {key} must be numeric, got {val!r}") from None
    return out


def cmd_example(args) -> tuple[dict, int]:
    return emit_example(args.problem, **_parse_params(args.param)), 0


# -- entry point -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fde",
        description="Resonance analysis, existence certificates and "
                    "harmonic-balance solving for periodic "
                    "functional-differential systems with measure delays.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("analyze", "resonant frequencies, kernels, structural checks"),
            ("check-ll", "existence condition certificates"),
            ("solve", "compute a periodic solution"),
            ("verify", "pointwise defect of a stored solution"),
            ("example", "emit a built-in problem file")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("problem",
                       help="problem JSON path or built-in example id")
        p.add_argument("--kmax", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", default=None, help="write report here")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if name == "verify":
            p.add_argument("--solution", default=None,
                           help="solution file (.json report or .csv grid)")
        if name == "example":
            p.add_argument("--param", action="append", default=[],
                           metavar="KEY=VALUE")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "example":
            doc, code = cmd_example(args)
        else:
            prob = load_problem(args.problem)
            if args.command == "analyze":
                doc, code = cmd_analyze(prob, args)
            elif args.command == "check-ll":
                doc, code = cmd_check_ll(prob, args)
            elif args.command == "solve":
                doc, code = cmd_solve(prob, args)
            else:
                doc, code = cmd_verify(prob, args)
    except FdeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4

    text = doc if isinstance(doc, str) else emit_json(doc)
    _write(text, args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
