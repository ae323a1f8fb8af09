"""Pinned environment and child processes for the benchmark.

Every process the benchmark starts runs ``sys.executable`` from the
checkout root with ``PYTHONPATH=src`` and BLAS pinned to one thread, and
is waited for with ``os.wait4`` so its own peak resident memory is known.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")

PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = SRC
    return env


def pin_self() -> None:
    """Pin this process's BLAS threads and make ``src`` importable; call
    before numpy is imported."""
    os.environ.update(PINNED)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def require_package() -> None:
    """Refuse to run without the package sources in the checkout."""
    if not os.path.isfile(os.path.join(SRC, "fde", "__init__.py")):
        raise SystemExit(f"perfbench: no package sources at {SRC}")


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run(args, timeout: float = 120.0) -> Child:
    """Run ``python *args`` to completion and report its exit code, wall
    time (spawn to exit) and peak RSS; kill it after ``timeout`` s."""
    argv = [sys.executable, *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out, err = _drain(proc)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 out.decode("utf-8", "replace"), err.decode("utf-8", "replace"))


def _drain(proc):
    # read both pipes to EOF without reaping the child, so wait4 still
    # sees it and reports its resource usage
    chunks = {"out": [], "err": []}

    def pump(stream, key):
        for block in iter(lambda: stream.read(65536), b""):
            chunks[key].append(block)
        stream.close()

    threads = [threading.Thread(target=pump, args=(proc.stdout, "out")),
               threading.Thread(target=pump, args=(proc.stderr, "err"))]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return b"".join(chunks["out"]), b"".join(chunks["err"])
