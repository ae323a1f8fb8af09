"""Workloads: seeded problem generation, the tasks, and the correctness gate.

Every workload draws the keyword parameters of the catalog families from
``RANGES`` with the run's seed and writes each problem with
``fde.emit_example`` to a JSON file.  The program under test only sees those
files, loaded through ``fde.load_problem``.

A task is one generated problem pushed through the workload's pipeline; it
returns the list of correctness checks it failed (empty when it passed).
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

PI = math.pi

FAMILIES = ("duffing-delay", "duffing-distributed", "gompertz-system",
            "weakly-coupled", "distributed-uniform", "distributed-sine",
            "beam")

# Parameter boxes inside which each family stays resonant, passes the
# linear conditions L1-L4 and keeps a positive Lazer-Leach margin
# ``|jump|/pi - |phat(k)|``.  gompertz-system keeps its default delay:
# ``u' + u(t - tau)`` is singular at k = 1 only for tau = pi/2.
RANGES = {
    "duffing-delay": {"c": (0.5, 1.0), "tau": (PI / 4, 3 * PI / 4)},
    "duffing-distributed": {"c": (0.5, 1.0), "width": (PI / 4, PI)},
    "gompertz-system": {"c": (0.3, 0.7), "h_amp": (0.1, 0.3)},
    "weakly-coupled": {"tau": (PI / 8, PI / 2), "c1": (0.3, 0.7),
                       "c2": (0.2, 0.6), "eps": (0.02, 0.08)},
    "distributed-uniform": {"c": (0.2, 0.5)},
    "distributed-sine": {"c": (0.2, 0.5)},
    "beam": {"c1": (0.1, 0.3), "c2": (0.05, 0.15)},
}

# Brouwer degree of the stock examples; None: the degree is refused
# (beam resonates twice in one component, so no block structure exists)
DEGREE = {"duffing-delay": -1, "duffing-distributed": -1,
          "gompertz-system": -1, "weakly-coupled": 1,
          "distributed-uniform": -1, "distributed-sine": -1, "beam": None}

DEFECT_TOL = 1e-8     # pointwise defect a verified solution must meet
MARGIN_TOL = 1e-12    # closed-form margin agreement
SMALL_SET_TOL = 2e-3  # grid count against the closed-form small-set measure
GAMMA_S = (1e2, 1e3, 1e4)


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple
    rounds: int               # problems per family in the pool
    kmax: int | None = None   # overrides the catalog bandwidth

    @property
    def round_size(self) -> int:
        return len(self.families)


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("sweep-warm", FAMILIES, 4),
    Workload("wide-band", ("gompertz-system", "weakly-coupled"), 4, kmax=256),
    Workload("certify-dense", FAMILIES, 4),
)}


# -- generation ---------------------------------------------------------


def draw_params(rng: random.Random, family: str) -> dict:
    return {key: rng.uniform(lo, hi)
            for key, (lo, hi) in sorted(RANGES[family].items())}


def closed_form_margin(family: str, params: dict):
    """``min_j |jump_j|/pi - |phat_j(k_j)|`` from the catalog definitions
    (limits -+1 on every saturating component, -+1.5 on the second
    component of weakly-coupled; cosine forcing ``c cos(k t)`` has
    ``|phat(k)| = c/2``); None where the margin is refused."""
    if family == "beam":
        return None
    if family == "weakly-coupled":
        return min(2.0 / PI - params["c1"] / 2.0, 3.0 / PI - params["c2"] / 2.0)
    return 2.0 / PI - params["c"] / 2.0


def generate(fde, workload: Workload, seed: int, outdir: str) -> list:
    """Write the workload's problem pool under ``outdir``; returns the
    manifest, one entry per problem in task order (round by round)."""
    rng = random.Random(seed)
    os.makedirs(outdir, exist_ok=True)
    manifest = []
    for rnd in range(workload.rounds):
        for family in workload.families:
            params = draw_params(rng, family)
            doc = fde.emit_example(family, **params)
            if workload.kmax is not None:
                doc["solve"]["kmax"] = workload.kmax
                doc["solve"]["M"] = None
            path = os.path.join(outdir, f"{len(manifest):03d}-{family}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
            manifest.append({
                "file": path, "family": family, "round": rnd,
                "params": params,
                "content_hash": fde.load_problem(path).content_hash(),
                "degree": DEGREE[family],
                "margin": closed_form_margin(family, params)})
    return manifest


# -- correctness gate ---------------------------------------------------


def check_linear(fails, flags):
    if not flags.all_pass:
        fails.append(f"linear conditions fail: {flags.to_dict()}")


def check_r2(fails, margin):
    if not margin > 0.0:
        fails.append(f"R2 margin {margin} is not positive")


def check_degree(fails, meta, degree):
    if degree != meta["degree"]:
        fails.append(f"degree {degree}, expected {meta['degree']}")


def check_margin(fails, meta, margin):
    want = meta["margin"]
    if want is None or margin is None:
        if want is not margin:
            fails.append(f"ll_margin {margin}, expected {want}")
    elif abs(margin - want) > MARGIN_TOL:
        fails.append(f"ll_margin {margin!r}, closed form {want!r}")


def check_solution(fails, converged, defect):
    if not converged:
        fails.append("solve did not converge")
    if defect is None or not defect <= DEFECT_TOL:
        fails.append(f"pointwise defect {defect} above {DEFECT_TOL}")


def check_small_set(fails, nu, eps, value):
    # for a 2-d kernel the unit sample is sqrt(2) cos(k t - phi), whose
    # small set {|w| < eps} has measure (2/pi) asin(eps / sqrt(2))
    if nu == 1:
        want = 2.0 / PI * math.asin(eps / math.sqrt(2.0))
        if abs(value - want) > SMALL_SET_TOL:
            fails.append(f"small-set measure {value}, closed form {want}")
    elif not 0.0 < value < 1.0:
        fails.append(f"small-set measure {value} outside (0, 1)")


def check_decreasing(fails, values):
    vals = list(values)
    if not all(b < a for a, b in zip(vals, vals[1:])):
        fails.append(f"gamma_convergence not decreasing in s: {vals}")


# -- library tasks ------------------------------------------------------


def degree(fde, prob, report):
    """The CLI's degree path: winding on 2-d kernels, the product degree
    otherwise; None when the product degree is refused."""
    try:
        if report.nu == 1:
            return fde.degree_winding(prob, report)
        return fde.degree_product(prob, report)
    except fde.BlockStructureError:
        return None


def sweep_task(fde, prob, meta) -> list:
    fails: list = []
    report = fde.resonant_set(prob.P, prob.Lam)
    check_linear(fails, fde.check_linear_conditions(report, prob.Psi))
    scan = fde.sphere_scan(prob, report, n_samples=32)
    check_r2(fails, scan.r2["margin"])
    check_degree(fails, meta, degree(fde, prob, report))
    result = fde.solve_best(prob, report=report)
    check_solution(fails, result.converged,
                   fde.verify_pointwise(prob, result.u))
    return fails


def wide_task(fde, prob, meta) -> list:
    fails: list = []
    result = fde.solve_best(prob)
    check_solution(fails, result.converged,
                   fde.verify_pointwise(prob, result.u))
    return fails


def certify_task(fde, prob, meta) -> list:
    fails: list = []
    report = fde.resonant_set(prob.P, prob.Lam)
    scan = fde.sphere_scan(prob, report, n_samples=256)
    check_r2(fails, scan.r2["margin"])
    check_degree(fails, meta, degree(fde, prob, report))
    try:
        margin = fde.ll_margin(prob, report)["margin"]
    except fde.BlockStructureError:
        margin = None
    check_margin(fails, meta, margin)
    w = fde.sphere_samples(report, 1, seed=0)[0]
    check_small_set(fails, report.nu, 0.1, fde.small_set_measure(w, 0.1))
    check_decreasing(fails, fde.gamma_convergence(prob, w, GAMMA_S))
    return fails


LIBRARY_TASKS = {"sweep-warm": sweep_task, "wide-band": wide_task,
                 "certify-dense": certify_task}
