"""Print the machine facts a result is recorded with, as one JSON line.

Importing ``nyfold.cli`` here also compiles the package's bytecode before any
timed run, so no timed process pays that one-off cost.
"""

import json
import os
import platform
import re
import sys

import nyfold.cli  # noqa: F401  (warms the bytecode cache)
import numpy
import scipy


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            match = re.search(r"^model name\s*:\s*(.+)$", fh.read(), re.MULTILINE)
    except OSError:
        match = None
    return match.group(1).strip() if match else platform.processor() or "unknown"


def blas() -> dict:
    info = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {key: info.get(key) for key in ("name", "version", "openblas configuration")
            if key in info}


print(json.dumps({
    "nproc": os.cpu_count(),
    "affinity_cpus": len(os.sched_getaffinity(0)),
    "cpu_model": cpu_model(),
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": blas(),
    "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
}))
