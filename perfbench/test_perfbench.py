"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

Covers the seeded generator, the correctness gate, span nesting and the
self-time arithmetic, and checks that the metric names the harness emits
are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import procs  # noqa: E402

procs.pin_self()

import fde  # noqa: E402
import pytest  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from run import CLI_METRICS, cli_layer, unit_of  # noqa: E402


# -- generator ----------------------------------------------------------


def test_generator_is_seeded_and_stays_in_range(tmp_path):
    w = wl.WORKLOADS["wide-band"]
    a = wl.generate(fde, w, 7, str(tmp_path / "a"))
    b = wl.generate(fde, w, 7, str(tmp_path / "b"))
    c = wl.generate(fde, w, 8, str(tmp_path / "c"))
    assert [m["content_hash"] for m in a] == [m["content_hash"] for m in b]
    assert [m["params"] for m in a] == [m["params"] for m in b]
    assert [m["content_hash"] for m in a] != [m["content_hash"] for m in c]
    assert len(a) == w.rounds * len(w.families)
    for m in a + c:
        for key, (lo, hi) in wl.RANGES[m["family"]].items():
            assert lo <= m["params"][key] <= hi
        prob = fde.load_problem(m["file"])
        assert prob.solve.kmax == 256


def test_every_family_draws_only_its_own_keywords():
    import random
    rng = random.Random(0)
    for family in wl.FAMILIES:
        fde.build_example(family, **wl.draw_params(rng, family))


# -- correctness gate ---------------------------------------------------


def _meta(family, **params):
    return {"family": family, "degree": wl.DEGREE[family],
            "margin": wl.closed_form_margin(family, params)}


def test_gate_flags_wrong_outputs():
    meta = _meta("duffing-delay", c=0.6)
    fails: list = []
    wl.check_degree(fails, meta, -1)
    wl.check_margin(fails, meta, 2.0 / wl.PI - 0.3)
    wl.check_solution(fails, True, 1e-12)
    wl.check_r2(fails, 0.1)
    wl.check_decreasing(fails, [0.3, 0.2, 0.1])
    wl.check_small_set(fails, 1, 0.1, 0.0451)
    assert fails == []

    wl.check_degree(fails, meta, 1)
    wl.check_margin(fails, meta, 2.0 / wl.PI - 0.31)
    wl.check_margin(fails, meta, None)
    wl.check_solution(fails, False, 1e-12)
    wl.check_solution(fails, True, 1e-6)
    wl.check_r2(fails, 0.0)
    wl.check_decreasing(fails, [0.3, 0.3, 0.1])
    wl.check_small_set(fails, 1, 0.1, 0.06)
    assert len(fails) == 8


def test_gate_expects_the_beam_refusal():
    meta = _meta("beam", c1=0.2, c2=0.1)
    fails: list = []
    wl.check_degree(fails, meta, None)
    wl.check_margin(fails, meta, None)
    assert fails == []
    wl.check_degree(fails, meta, 1)
    wl.check_margin(fails, meta, 0.1)
    assert len(fails) == 2


def test_library_tasks_pass_on_generated_problems(tmp_path):
    manifest = wl.generate(fde, wl.WORKLOADS["sweep-warm"], 3, str(tmp_path))
    for meta in manifest[:7]:
        prob = fde.load_problem(meta["file"])
        assert wl.sweep_task(fde, prob, meta) == [], meta["family"]


def test_cli_layer_traces_load_and_dispatch(tmp_path):
    manifest = wl.generate(fde, wl.WORKLOADS["wide-band"], 3,
                           str(tmp_path / "problems"))
    files = [m["file"] for m in manifest[:2]]
    failures: list = []
    out = cli_layer(files, str(tmp_path), failures)
    assert failures == []
    assert out["cli.main.calls"] == 2
    assert out["cli.load_problem.calls"] == 2
    assert out["layer.import.self_s"] > 0.0
    assert all(k.startswith(CLI_METRICS) for k in out)


# -- spans --------------------------------------------------------------


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_span_nesting_and_self_time():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    tr = spans.Tracer(clock=_fake_clock([0, 1, 4, 5, 6, 7, 9, 10]))
    tr.task = "t0"
    with tr.span("solver.solve_best"):
        with tr.span("solver.seed_kernel"):
            pass
        with tr.span("solver.solve_periodic") as sp:
            sp.info = {"iters": 3, "converged": 1}
            with tr.span("trigpoly.eval_grid"):
                pass
    parents = [s[3] for s in tr.spans]
    assert parents == [-1, 0, 0, 2]
    assert all(s[4] == "t0" for s in tr.spans)
    assert spans.self_times(tr.spans) == [3, 3, 3, 1]

    out = spans.summarize(tr.spans, scale=0.5)
    assert out["solver.solve_best.s"] == 5.0
    assert out["solver.solve_best.self_s"] == 1.5
    assert out["solver.solve_periodic.calls"] == 0.5
    assert out["solver.newton_iters"] == 1.5
    assert out["solver.solve_best.useful_ratio"] == 1.0
    assert out["layer.solver.self_s"] == 4.5
    assert out["layer.trigpoly.self_s"] == 0.5


def test_nested_same_name_counts_inclusive_time_once():
    tr = spans.Tracer(clock=_fake_clock([0, 2, 5, 10]))
    with tr.span("trigpoly.eval_grid"):
        with tr.span("trigpoly.eval_grid"):
            pass
    out = spans.summarize(tr.spans)
    assert out["trigpoly.eval_grid.calls"] == 2
    assert out["trigpoly.eval_grid.s"] == 10
    assert out["trigpoly.eval_grid.self_s"] == 10


def test_install_wraps_module_bindings_and_restores_them():
    original = fde.solver.nemytskii_eval
    tr = spans.Tracer()
    tr.install(fde)
    try:
        assert fde.solver.nemytskii_eval is not original
        assert fde.nemytskii_eval is fde.solver.nemytskii_eval
        prob = fde.build_example("duffing-delay")
        fde.nemytskii_eval(prob, fde.TrigPoly.zero(1, 4), 32)
    finally:
        tr.uninstall()
    assert fde.solver.nemytskii_eval is original
    names = [s[0] for s in tr.spans]
    assert names[0] == "nonlinearity.nemytskii_eval"
    assert {"measures.apply_deviation", "trigpoly.eval_grid",
            "trigpoly.analyze_grid"} <= set(names[1:])
    assert all(s[3] == 0 for s in tr.spans[1:])


def test_counts_follow_the_package_grids():
    prob = fde.build_example("duffing-delay")
    report = fde.resonant_set(prob.P, prob.Lam)
    w = fde.sphere_samples(report, 1, seed=0)[0]
    u = fde.TrigPoly.zero(1, 4)
    tr = spans.Tracer()
    tr.install(fde)
    try:
        fde.gamma_convergence(prob, w, [1e2, 1e3], M=4096)
        fde.coefficient_jacobian(prob, u)
    finally:
        tr.uninstall()
    out = spans.summarize(tr.spans)
    # one eval_grid call on an M-point grid per s
    assert out["lazer_leach.gamma_convergence.grid_points"] == 2 * 4096
    # ncol = 2 kmax + 1 = 9 columns of an (M, 1) array
    M = fde.solver._grid_size(u, None, prob)
    assert out["solver.coefficient_jacobian.bytes_computed"] == 8 * 9 * M


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       900 |       9000 |   numpy\n"
            "import time:      1000 |      50000 |     scipy.stats\n"
            "import time:      2000 |      80000 | fde\n")
    out = spans.parse_importtime(text)
    assert out["import.fde.s"] == pytest.approx(0.08)
    assert out["import.scipy_stats.s"] == pytest.approx(0.05)
    assert out["import.numpy.s"] == pytest.approx(0.009)
    assert out["import.jsonschema.s"] == 0.0


# -- BENCHMARK.json -----------------------------------------------------


def test_metric_names_match_benchmark_json():
    with open(os.path.join(procs.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == {n: unit_of(n) for n in
                   ("setup_s", "tasks_per_s", "task_s.p50", "peak_rss_mb",
                    "ok_ratio")}
    names = (list(spans.IMPORTS.values()) + list(spans.summarize([]))
             + ["trace.tasks_per_s", "trace.untraced_tasks_per_s",
                "trace.overhead_tasks_per_s"])
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == {n: unit_of(n) for n in names}
