#!/usr/bin/env python3
"""Check the six desk presets' outputs against committed SHA-256 digests.

Run from the repository root:

    python3 tools/desk_digests.py            # compare against tools/desk_digests.json
    python3 tools/desk_digests.py --write    # record the current outputs' digests
    python3 tools/desk_digests.py zone-id mod-constant          # only these presets
    python3 tools/desk_digests.py --write mod-constant          # re-record only this one

Named experiments run and compare alone, and ``--write`` then replaces only
their entries; an unknown name exits 2.

Each experiment runs as a fresh ``python -m nyfold.cli EXPERIMENT --scale desk
--seed 0 --plots`` process with ``PYTHONPATH=src``, one at a time, into a
temporary directory. Its ``results.csv``, any extra table (``spectrogram.csv``),
its SVG plot (``plot_<experiment>.svg``, hyphens as underscores) and its
``manifest.txt`` without the ``wall_clock_s`` line are hashed whole and row by
row. The script prints each run's wall seconds, CPU seconds (the child's
user plus system time, steadier than wall time on a busy host), peak RSS and
minor page faults (the child's ``ru_maxrss`` and ``ru_minflt``), then
``match`` or ``mismatch`` per file, and on a mismatch the first row whose
digest differs. Desk ``recovery-sweep`` alone took 140-160 s on a 2-core
VM, and the other five about 54 s together. Exit status: 0 all match, 1 any
mismatch or failed run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().with_name("desk_digests.json")
sys.path.insert(0, str(ROOT / "src"))
from nyfold.experiments import EXPERIMENTS  # noqa: E402

SEED = 0
ROW_DIGEST_CHARS = 8


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rows(path: Path) -> list[str]:
    rows = path.read_text(encoding="utf-8").splitlines()
    if path.name == "manifest.txt":
        rows = [row for row in rows if not row.startswith("wall_clock_s = ")]
    return rows


def file_digest(rows: list[str]) -> dict:
    """Whole-file and per-row digests of one output's rows."""
    return {"sha256": _sha256("\n".join(rows) + "\n"),
            "rows": " ".join(_sha256(row)[:ROW_DIGEST_CHARS] for row in rows)}


def run_preset(experiment: str, out_dir: Path) -> tuple[dict, float, float, float, int]:
    """Run one desk preset in a fresh process and digest the files it writes.

    Returns the digests, the process's wall seconds, its user plus system CPU
    seconds, its peak RSS in MB and its minor page faults (the child's
    ``ru_utime + ru_stime``, ``ru_maxrss`` and ``ru_minflt`` from ``os.wait4``).
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "nyfold.cli", experiment, "--scale", "desk",
             "--seed", str(SEED), "--out", str(out_dir), "--plots"],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace").strip()
            raise RuntimeError(f"{experiment} exited {proc.returncode}: {stderr}")
    digests = {path.name: file_digest(_rows(path)) for path in sorted(out_dir.iterdir())}
    cpu_s = usage.ru_utime + usage.ru_stime
    return digests, wall_s, cpu_s, usage.ru_maxrss / 1024.0, usage.ru_minflt


def compare(experiment: str, expected: dict, actual: dict) -> bool:
    """Print one line per file; on a mismatch, the first differing row."""
    ok = True
    for name in sorted(set(expected) | set(actual)):
        want, got = expected.get(name), actual.get(name)
        if want is None or got is None:
            missing = "not written" if got is None else "no digest"
            print(f"{experiment}/{name}: mismatch ({missing})")
            ok = False
        elif want["sha256"] == got["sha256"]:
            print(f"{experiment}/{name}: match")
        else:
            want_rows, got_rows = want["rows"].split(), got["rows"].split()
            row = next((i for i, (a, b) in enumerate(zip(want_rows, got_rows)) if a != b),
                       min(len(want_rows), len(got_rows)))
            print(f"{experiment}/{name}: mismatch, first differing row {row + 1} "
                  f"({len(want_rows)} rows expected, {len(got_rows)} written)")
            ok = False
    return ok


def load_digests(path: Path = DIGESTS) -> dict:
    """The committed digest file: experiment -> file name -> digests."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help=f"run only these presets (default: all six): {', '.join(EXPERIMENTS)}")
    parser.add_argument("--write", action="store_true",
                        help="record the current outputs' digests instead of comparing")
    args = parser.parse_args(argv)
    unknown = [name for name in args.experiments if name not in EXPERIMENTS]
    if unknown:  # choices= would also refuse an empty list
        parser.error(f"unknown experiment {', '.join(unknown)}; choose from {', '.join(EXPERIMENTS)}")
    chosen = [name for name in EXPERIMENTS if name in args.experiments] or EXPERIMENTS
    committed = {} if args.write and not args.experiments else load_digests(DIGESTS)
    recorded, ok = dict(committed), True  # a partial --write keeps the other entries
    with tempfile.TemporaryDirectory() as tmp:
        for experiment in chosen:
            try:
                actual, wall_s, cpu_s, peak_rss_mb, minor_faults = run_preset(
                    experiment, Path(tmp) / experiment)
            except RuntimeError as exc:
                print(f"{experiment}: failed: {exc}")
                ok = False
                continue
            print(f"{experiment}: {wall_s:.1f} s wall, {cpu_s:.1f} s CPU, "
                  f"{peak_rss_mb:.1f} MB peak RSS, "
                  f"{minor_faults} minor page faults")
            if args.write:
                recorded[experiment] = actual
                print(f"{experiment}: recorded {', '.join(actual)}")
            else:
                ok &= compare(experiment, committed.get(experiment, {}), actual)
    if args.write and ok:
        DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
