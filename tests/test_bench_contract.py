"""The names the benchmark harness under ``perfbench/`` reads from ``fde``,
and the correctness gates of its tasks.

The harness is frozen between benchmark changes, so a rename, a deletion
or a changed verdict in the package would only show when the benchmark
runs, as a failed run or a lower ``ok_ratio``.  These tests read the
harness sources without importing them as packages: they check every name
against a fresh ``import fde``, and run every library task on the seed-7
pool of its workload.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fde

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"

# a package attribute chain such as fde.solver._grid_size, not a metric
# name such as "import.fde.s"
_FDE_NAME = re.compile(r"(?<![\w.])fde((?:\.[A-Za-z_]\w*)+)")


def traced_pairs() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [list(pair) for pair in spans.TRACED]


def load_workloads(monkeypatch):
    """``perfbench/workloads.py`` as a module; registered in ``sys.modules``
    while a test runs, because ``@dataclass`` looks its module up there."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def used_names() -> list:
    return sorted({m.group(1)[1:] for path in BENCH.glob("*.py")
                   for m in _FDE_NAME.finditer(path.read_text())})


_PROBE = """
import inspect, json, sys
import fde
traced, names = json.loads(sys.argv[1])
missing = [f"fde.{mod}.{fn}" for mod, fn in traced
           if not callable(getattr(sys.modules.get("fde." + mod), fn, None))]
for name in names:
    obj = fde
    for part in name.split("."):
        if not hasattr(obj, part):
            missing.append("fde." + name)
            break
        obj = getattr(obj, part)
prob = fde.build_example("duffing-delay")
u = fde.TrigPoly.zero(1, 4)
inspect.signature(fde.solver._grid_size).bind(u, None, prob)
assert isinstance(fde.solver._grid_size(u, None, prob), int)
print(json.dumps(missing))
"""


def probe(traced, names) -> list:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps([traced, names])],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_benchmark_names_resolve_in_a_fresh_import():
    traced, names = traced_pairs(), used_names()
    assert ["solver", "coefficient_jacobian"] in traced
    assert "solver._grid_size" in names and "cli.main" in names
    assert probe(traced, names) == []


def test_the_probe_reports_a_missing_name():
    assert probe([["solver", "no_such_function"]], ["solver.no_such_name"]) == [
        "fde.solver.no_such_function", "fde.solver.no_such_name"]


@pytest.mark.parametrize("name", ["sweep-warm", "wide-band", "certify-dense"])
def test_every_library_task_passes_on_the_seed_7_pool(name, monkeypatch, tmp_path):
    # the gates behind ok_ratio, among them the refusals of the product
    # degree and the classical margin on beam that certify-dense expects
    workloads = load_workloads(monkeypatch)
    assert sorted(workloads.LIBRARY_TASKS) == sorted(workloads.WORKLOADS)
    task = workloads.LIBRARY_TASKS[name]
    manifest = workloads.generate(fde, workloads.WORKLOADS[name], 7, str(tmp_path))
    fails = {Path(m["file"]).name: task(fde, fde.load_problem(m["file"]), m)
             for m in manifest}
    assert len(fails) == len(manifest) > 0
    assert {f: v for f, v in fails.items() if v} == {}
