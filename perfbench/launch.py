"""Runs ``fde analyze`` on problem files with the tracer installed.

    python perfbench/launch.py SPANS.json problem.json...

The import of ``fde`` is recorded as the span ``import.fde``; each file then
goes through ``fde.cli.main(["analyze", FILE])``, which loads and validates
it and dispatches the command, with the report written to ``os.devnull``.
The spans are written to ``SPANS.json`` at the end.  The exit code is the
first non-zero exit code of a command (a failed linear condition gives 2),
0 when every command succeeded.
"""

from __future__ import annotations

import json
import os
import sys

from spans import Tracer


def main(argv) -> int:
    spans_path, files = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("import.fde"):
        import fde.cli
    tracer.install(fde)
    codes = []
    try:
        for path in files:
            tracer.task = path
            codes.append(fde.cli.main(["analyze", path, "--out", os.devnull]))
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return next((code for code in codes if code), 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
