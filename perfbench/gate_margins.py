#!/usr/bin/env python3
"""Margin of each acceptance criterion's runtime to its timing gate.

Run from the repository root (takes a few minutes; it is not a workload):

    python3 perfbench/gate_margins.py

Runs ``pytest -s tests/test_acceptance.py``, pairs each printed
``criterion NN PASS: ... in X s`` line with the ``assert elapsed < G`` in that
criterion's test function, and prints the margin ``(G - X) / G``. Exits with
pytest's exit code.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITE = "tests/test_acceptance.py"

PASS_LINE = re.compile(r"criterion (\d{2}) PASS: .* in ([0-9.]+) s\b")
TEST_DEF = re.compile(r"^def test_criterion_(\d{2})_", re.MULTILINE)
GATE = re.compile(r"assert elapsed < ([0-9.]+)")


def gates(source: str) -> dict[int, float]:
    """Criterion number -> its ``elapsed <`` gate, from the test source."""
    found = {}
    starts = list(TEST_DEF.finditer(source))
    for match, nxt in zip(starts, starts[1:] + [None]):
        body = source[match.end():nxt.start() if nxt else len(source)]
        gate = GATE.search(body)
        if gate:
            found[int(match.group(1))] = float(gate.group(1))
    return found


def margins(output: str, source: str) -> list[tuple[int, float, float | None]]:
    """(criterion, elapsed s, gate s or None) for every timed PASS line."""
    gate_of = gates(source)
    return [(int(m.group(1)), float(m.group(2)), gate_of.get(int(m.group(1))))
            for m in PASS_LINE.finditer(output)]


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", SUITE], cwd=ROOT,
                          env=env, capture_output=True, text=True)
    source = (ROOT / SUITE).read_text(encoding="utf-8")
    rows = margins(proc.stdout, source)
    for criterion, elapsed, gate in rows:
        if gate is None:
            print(f"criterion {criterion:02d}: {elapsed:g} s, no timing gate")
        else:
            print(f"criterion {criterion:02d}: {elapsed:g} s of a {gate:g} s gate, "
                  f"margin {(gate - elapsed) / gate:.1%}")
    print(proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no pytest output")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
