"""Runs one library workload in a fresh process and writes its result.

    python perfbench/worker.py --workload sweep-warm --manifest M.json \
        --seconds 15 --trace 0 --out RESULT.json

Untraced, it loads the workload's problem files and runs whole rounds of
the pool (one problem per family) in order until ``--seconds`` have passed.
Traced, it repeats the first round of the pool until ``--seconds`` have
passed, running every task once untraced and once traced; per-layer values
are per round, so counts repeat exactly for a given seed.  Loading the files
is set-up and is not traced here.  Spans are written next to the result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import procs

procs.pin_self()

import fde  # noqa: E402  (after the thread pinning above)

from spans import Tracer, summarize  # noqa: E402
from workloads import LIBRARY_TASKS, WORKLOADS  # noqa: E402


def run_task(task, prob, meta) -> list:
    try:
        return task(fde, prob, meta)
    except Exception as exc:  # a crash fails the task; the run goes on
        return [f"crash: {type(exc).__name__}: {exc}"]


def untraced(task, manifest, round_size, seconds) -> dict:
    problems = [fde.load_problem(m["file"]) for m in manifest]
    latencies, failures, failed = [], [], 0
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        first = rounds * round_size % len(problems)
        for j in range(first, first + round_size):
            t0 = time.perf_counter()
            fails = run_task(task, problems[j], manifest[j])
            latencies.append(time.perf_counter() - t0)
            failures.extend(f"round {rounds} ({manifest[j]['family']}): {f}"
                            for f in fails)
            failed += bool(fails)
        rounds += 1
    return {"attempted": len(latencies), "failed": failed,
            "failures": failures, "latencies": latencies}


def traced(task, manifest, round_size, seconds, spans_path) -> dict:
    problems = [fde.load_problem(m["file"]) for m in manifest[:round_size]]
    tracer = Tracer()

    plain_s = traced_s = 0.0
    failures, failed = [], 0
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() - start < seconds:
        for j in range(round_size):
            t0 = time.perf_counter()
            plain_fails = run_task(task, problems[j], manifest[j])
            t1 = time.perf_counter()
            tracer.task = f"{rounds}:{j}"
            tracer.install(fde)
            try:
                t2 = time.perf_counter()
                traced_fails = run_task(task, problems[j], manifest[j])
                t3 = time.perf_counter()
            finally:
                tracer.uninstall()
            plain_s += t1 - t0
            traced_s += t3 - t2
            failures.extend(f"round {rounds} ({manifest[j]['family']}): {f}"
                            for f in plain_fails + traced_fails)
            failed += bool(plain_fails) + bool(traced_fails)
        rounds += 1

    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    tasks = rounds * round_size
    return {"attempted": 2 * tasks, "failed": failed, "failures": failures,
            "rounds": rounds,
            "layers": summarize(tracer.spans, scale=1.0 / rounds),
            "traced_tasks_per_s": tasks / traced_s,
            "untraced_tasks_per_s": tasks / plain_s}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(LIBRARY_TASKS))
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(args.manifest, encoding="utf-8") as fh:
        manifest = json.load(fh)
    task = LIBRARY_TASKS[args.workload]
    if args.trace:
        spans_path = os.path.splitext(args.out)[0] + ".spans.json"
        result = traced(task, manifest, WORKLOADS[args.workload].round_size,
                        args.seconds, spans_path)
    else:
        result = untraced(task, manifest, WORKLOADS[args.workload].round_size,
                          args.seconds)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
