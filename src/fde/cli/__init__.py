"""Command line front end: dispatch and report emission.

Commands
    fde analyze   PROBLEM    resonant set, kernel bases, structural checks
    fde check-ll  PROBLEM    existence certificates (range, pairing, degree)
    fde solve     PROBLEM    harmonic-balance solution, report or CSV
    fde verify    PROBLEM --solution FILE   pointwise defect of a solution
    fde example   ID         emit a built-in problem file

``PROBLEM`` is a path to a problem JSON file, or the name of a built-in
example (see :func:`fde.catalog.load_problem`).  Each command takes only
the flags it reads.  Exit codes: 0 success / conditions hold, 2 existence
conditions fail, 3 solver did not converge, 4 usage, input or runtime
error.

Reports are JSON with sorted keys and stable float formatting, so
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from ..catalog import emit_example, finite_float, load_problem
from ..errors import FdeError, ProblemFormatError
from ..lazer_leach import certify
from ..problem import ProblemSpec
from ..resonance import check_linear_conditions, resonant_set
from ..solver import (VERIFY_OVERSAMPLE, VERIFY_TOL, solve_best, verify_grid,
                      verify_pointwise)
from ..trigpoly import TrigPoly, analyze_grid, eval_grid

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


def _report(prob: ProblemSpec, args):
    report = resonant_set(prob.P, prob.Lam, tol=1e-9 if args.tol is None else args.tol)
    report.flags = check_linear_conditions(report, prob.Psi)
    return report


def cmd_analyze(prob: ProblemSpec, args) -> tuple[dict, int]:
    report = _report(prob, args)
    return report.to_dict(), 0 if report.flags.all_pass else 2


def cmd_check_ll(prob: ProblemSpec, args) -> tuple[dict, int]:
    doc = certify(prob, _report(prob, args), 32 if args.samples is None else args.samples)
    return doc, 0 if doc["conditions_pass"] else 2


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
    config = prob.solve
    if args.kmax is not None:
        config = dataclasses.replace(config, kmax=args.kmax)
    if args.tol is not None:
        config = dataclasses.replace(config, tol_residual=args.tol)
    result = solve_best(prob, config)
    if args.format == "csv":
        doc = _solution_csv(result.u, verify_grid(result.u.kmax))
    else:
        doc = result.to_dict()
    return doc, 0 if result.converged else 3


def _load_solution(path: str, kmax_flag: int | None) -> TrigPoly:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        try:
            doc = json.loads(text, parse_float=finite_float, parse_constant=finite_float)
            if isinstance(doc, dict) and "u" in doc:
                doc = doc["u"]
            return TrigPoly.from_dict(doc)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProblemFormatError("solution JSON must be a polynomial {n, kmax, coeffs} "
                                     f"or a solve report with one as u ({exc!r})") from None
    rows = [line.split(",") for line in text.strip().splitlines()]
    if len(rows) < 2 or rows[0][0] != "t" or any(len(r) != len(rows[0]) for r in rows):
        raise ProblemFormatError("solution CSV must be a header t,u1,... and a row per grid point")
    data = np.array([[finite_float(v) for v in r] for r in rows[1:]])
    M = data.shape[0]
    t = data[:, 0]
    expected = 2.0 * np.pi * np.arange(M) / M
    if np.max(np.abs(t - expected)) > 1e-9:
        raise ProblemFormatError("solution CSV must sample the uniform grid "
                                 "t_j = 2 pi j / M")
    # the band a solve wrote on its verification grid of M points
    kmax = M // VERIFY_OVERSAMPLE if kmax_flag is None else kmax_flag
    return analyze_grid(data[:, 1:], min(kmax, (M - 1) // 2))


def cmd_verify(prob: ProblemSpec, args) -> tuple[dict, int]:
    u = _load_solution(args.solution, args.kmax)
    if u.n != prob.n:
        raise ProblemFormatError(f"solution has {u.n} components, the problem {prob.n}")
    tol = VERIFY_TOL if args.tol is None else args.tol
    resid = verify_pointwise(prob, u)
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


def _positive(kind):
    def parse(text):
        value = kind(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value
    parse.__name__ = kind.__name__      # argparse names it in "invalid int value"
    return parse


_FLAGS = {
    "kmax": dict(type=_positive(int), default=None),
    "samples": dict(type=_positive(int), default=None),
    "tol": dict(type=_positive(float), default=None),
    "format": dict(choices=("json", "csv"), default="json"),
    "solution": dict(required=True, help="solution file (.json report or .csv grid)"),
    "param": dict(action="append", default=[], metavar="KEY=VALUE"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fde",
        description="Resonance analysis, existence certificates and "
                    "harmonic-balance solving for periodic "
                    "functional-differential systems with measure delays.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, helptext, flags in (
            ("analyze", "resonant frequencies, kernels, structural checks", ("tol",)),
            ("check-ll", "existence condition certificates", ("samples", "tol")),
            ("solve", "compute a periodic solution", ("kmax", "tol", "format")),
            ("verify", "pointwise defect of a stored solution", ("solution", "kmax", "tol")),
            ("example", "emit a built-in problem file", ("param",))):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("problem",
                       help="problem JSON path or built-in example id")
        p.add_argument("--out", default=None, help="write report here")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, a code that means a failed
        # condition here; --help exits 0
        return 4 if exc.code else 0
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
    except (FdeError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4

    text = doc if isinstance(doc, str) else emit_json(doc)
    _write(text, args.out)
    return code
