"""fde benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep-warm --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The benchmark draws the workload's
problems from the seed, writes them under ``.perfbench_runs/``, times
``setup_s`` over fresh processes that import ``fde`` and load those files,
then runs the workload for ``--seconds`` and checks every output.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run (see ``worker.py``) with its own
overhead, and those of the cli layer and the import of ``fde`` from one
traced fresh process that runs ``fde analyze`` on the files (see
``launch.py``).  The last line of standard output is the result
object; the line before it records the environment and the inputs.  The
exit code is 1 when any correctness check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import procs
from workloads import WORKLOADS, generate

SETUP_LAUNCHES = 3
IMPORT_LAUNCHES = 3
LOAD = "import sys, fde; [fde.load_problem(p) for p in sys.argv[1:]]"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {"git_sha": _git_sha(), "src_sha256": _tree_digest(procs.SRC),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": dict(procs.PINNED), "seed": seed}


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=procs.ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _tree_digest(top: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _median(values):
    return statistics.median(values) if values else 0.0


# -- set-up and import --------------------------------------------------


def measure_setup(files: list, failures: list) -> list:
    """Wall time of fresh processes that import fde and load the files."""
    times = []
    for i in range(SETUP_LAUNCHES):
        child = procs.run(["-c", LOAD, *files], timeout=120)
        if child.code != 0:
            failures.append(f"set-up launch {i} exited {child.code}: "
                            f"{child.stderr.strip()[-300:]}")
        times.append(child.wall_s)
    return times


def import_breakdown(failures: list) -> dict:
    """Median cumulative import time of fde, scipy.stats, jsonschema and
    numpy over fresh ``python -X importtime`` children."""
    from spans import parse_importtime
    runs = []
    for _ in range(IMPORT_LAUNCHES):
        child = procs.run(["-X", "importtime", "-c", "import fde"], timeout=120)
        if child.code != 0:
            failures.append(f"import child exited {child.code}")
        runs.append(parse_importtime(child.stderr))
    return {key: _median([r[key] for r in runs]) for key in runs[0]}


# -- cli layer ----------------------------------------------------------

# metrics the traced CLI pass supplies; the worker does not trace loading
CLI_METRICS = ("cli.", "layer.cli.", "layer.import.")


def cli_layer(files: list, workdir: str, failures: list) -> dict:
    """Per-layer metrics of the cli layer and the import of fde, from one
    fresh process that imports fde and runs ``fde analyze`` on every file
    through the tracing launcher: the set-up path, with dispatch."""
    from spans import summarize
    path = os.path.join(workdir, "cli.spans.json")
    child = procs.run([os.path.join(procs.HERE, "launch.py"), path, *files],
                      timeout=120)
    if child.code != 0 or not os.path.exists(path):
        failures.append(f"traced analyze exited {child.code}: "
                        f"{child.stderr.strip()[-300:]}")
        return {}
    with open(path, encoding="utf-8") as fh:
        spans = json.load(fh)
    return {k: v for k, v in summarize(spans).items()
            if k.startswith(CLI_METRICS)}


# -- library workloads --------------------------------------------------


def library(name, manifest_path, seconds, trace, workdir) -> dict:
    out = os.path.join(workdir, "worker.json")
    worker = os.path.join(procs.HERE, "worker.py")
    child = procs.run([worker, "--workload", name, "--manifest", manifest_path,
                       "--seconds", repr(seconds), "--trace", str(trace),
                       "--out", out], timeout=seconds + 150)
    if child.code != 0 or not os.path.exists(out):
        return {"attempted": 1, "failed": 1, "latencies": [],
                "peak_rss_mb": child.peak_rss_mb,
                "failures": [f"worker exited {child.code}: "
                             f"{child.stderr.strip()[-500:]}"]}
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result["peak_rss_mb"] = child.peak_rss_mb
    return result


# -- main ---------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_avg = os.getloadavg()
    procs.require_package()
    procs.pin_self()
    import fde
    if not os.path.abspath(fde.__file__).startswith(procs.SRC + os.sep):
        raise SystemExit(f"perfbench: imported fde from {fde.__file__}, "
                         f"not from {procs.SRC}")

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(procs.ROOT, ".perfbench_runs",
                           f"{workload.name}-s{args.seed}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    manifest = generate(fde, workload, args.seed, os.path.join(workdir, "problems"))
    manifest_path = os.path.join(workdir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)

    record = {"workload": workload.name, "trace": args.trace,
              "seconds": args.seconds, "load_avg_start": load_avg,
              "env": environment(args.seed),
              "problems": [{k: m[k] for k in ("family", "params", "content_hash")}
                           for m in manifest]}
    harness_failures: list = []
    if args.trace:
        metrics = import_breakdown(harness_failures)
        res = library(workload.name, manifest_path, args.seconds, 1, workdir)
        metrics.update(res.get("layers", {}))
        metrics.update(cli_layer([m["file"] for m in manifest], workdir,
                                 harness_failures))
        traced_rate = res.get("traced_tasks_per_s", 0.0)
        plain_rate = res.get("untraced_tasks_per_s", 0.0)
        metrics["trace.tasks_per_s"] = traced_rate
        metrics["trace.untraced_tasks_per_s"] = plain_rate
        metrics["trace.overhead_tasks_per_s"] = traced_rate - plain_rate
        record["rounds"] = res.get("rounds")
    else:
        setup = measure_setup([m["file"] for m in manifest], harness_failures)
        res = library(workload.name, manifest_path, args.seconds, 0, workdir)
        lat = res["latencies"]
        metrics = {
            "setup_s": _median(setup),
            "tasks_per_s": len(lat) / sum(lat) if lat else 0.0,
            "task_s.p50": _median(lat),
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_ratio": (res["attempted"] - res["failed"]) / res["attempted"],
        }
        record.update(setup_s=setup, task_s=lat)

    failures = harness_failures + res["failures"]
    record["failures"] = failures
    attempted = res["attempted"]
    failed = min(res["failed"] + len(harness_failures), attempted)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()}}))
    return 0 if not failures else 1


def unit_of(name: str) -> str:
    for suffix, unit in ((".calls", "count"), (".candidates", "count"),
                         (".newton_iters", "count"), (".grid_points", "count"),
                         (".bytes_computed", "B"), ("ratio", "ratio"),
                         ("tasks_per_s", "1/s"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "s"


if __name__ == "__main__":
    sys.exit(main())
