"""One traced in-process CLI run; writes its spans to a JSON file.

Usage: python3 traced.py SPANS.json EXPERIMENT --config INI --seed N --out DIR

Times the import of ``nyfold.cli``, wraps the package's public functions
(see tracer.py), runs the CLI's ``main`` in this process, restores the
originals, and writes ``{"import_s", "exit_code", "spans"}``.
"""

import json
import sys
import time

t0 = time.perf_counter()
import nyfold.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
try:
    code = nyfold.cli.main(sys.argv[2:])
finally:
    tracer.restore()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"import_s": import_s, "exit_code": code, "spans": tracer.spans}, fh)
sys.exit(code)
