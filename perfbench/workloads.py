"""The benchmark's workloads and the output check for one run's ``results.csv``.

Each workload is one CLI experiment at its desk preset with the sweep written
out in full, so the INI the program reads and the rows the check expects come
from the same values. Trial counts are sized so one CLI process takes about
7-9 s on a 2-core machine: long enough that the workload's hot layer, not the
interpreter start and import, takes most of it.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    experiment: str
    section: str  # INI section holding the sweep
    axes: tuple  # (ini key, csv column, values), outermost loop first
    trials: int
    fieldnames: tuple

    def ini_text(self) -> str:
        lines = [f"[{self.section}]"]
        for key, _, values in self.axes:
            lines.append(f"{key} = {' '.join(repr(v) for v in values)}")
        lines.append(f"trials = {self.trials}")
        return "\n".join(lines) + "\n"

    def expected_keys(self) -> list[tuple]:
        return list(itertools.product(*(values for _, _, values in self.axes)))


WORKLOADS = {
    "recovery": Workload(
        # OMP: one length-N adjoint FFT per iteration; synthesis is sample-only
        experiment="recovery-sweep",
        section="sweep",
        axes=(("sparsity", "sparsity", tuple(range(3, 19, 3))),
              ("snr_db", "snr_db", (20.0, 10.0))),
        trials=3,
        fieldnames=("sparsity", "snr_db", "trials", "failures", "failure_fraction",
                    "standard_error"),
    ),
    "zone-id": Workload(
        # full-grid synthesis and noise, read at <= 2000 samples; 15 operators
        experiment="zone-id",
        section="zones",
        axes=(("k_values", "k_samples",
               (100, 150, 200, 250, 300, 400, 500, 600, 800, 1000, 1200, 1400, 1600,
                1800, 2000)),),
        trials=15,
        fieldnames=("k_samples", "theorem_lower_bound", "crb_probability",
                    "empirical_probability", "successes", "trials", "standard_error"),
    ),
    "deviation": Workload(
        # forward plus adjoint FFT per random support; no OMP; three schedules
        experiment="deviation-sweep",
        section="sweep",
        axes=(("f_dev_hz", "f_dev_hz", (0.0, 1e7, 1e8)),
              ("sparsity", "sparsity", tuple(range(200, 2001, 200)))),
        trials=5,
        fieldnames=("f_dev_hz", "sparsity", "trials", "max_deviation", "p95_deviation",
                    "mean_deviation"),
    ),
}


def check_csv(workload: Workload, text: str) -> tuple[list[str], int]:
    """Invariants of one run's results.csv that hold for any seed.

    Returns the problems found and the total trial count over all rows.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != workload.fieldnames:
        return [f"header {rows[0] if rows else None} != {list(workload.fieldnames)}"], 0
    expected = workload.expected_keys()
    if len(rows) - 1 != len(expected):
        return [f"{len(rows) - 1} rows, sweep has {len(expected)}"], 0
    problems = []
    total_trials = 0
    for line, (cells, keys) in enumerate(zip(rows[1:], expected), start=2):
        if len(cells) != len(workload.fieldnames):
            problems.append(f"row {line}: {len(cells)} cells")
            continue
        try:
            r = {name: float(cell) for name, cell in zip(workload.fieldnames, cells)}
        except ValueError:
            problems.append(f"row {line}: a cell is not a number")
            continue
        problems.extend(f"row {line}: {p}" for p in _row_problems(workload, r, keys))
        total_trials += int(r["trials"])
    return problems, total_trials


def _row_problems(workload: Workload, r: dict, keys: tuple):
    if not all(math.isfinite(v) for v in r.values()):
        yield "non-finite value"
        return
    for (_, column, _), key in zip(workload.axes, keys):
        if r[column] != key:
            yield f"{column} = {r[column]!r}, sweep point is {key!r}"
    trials = r["trials"]
    if trials != workload.trials:
        yield f"trials = {trials!r}, configured {workload.trials}"
    if workload.experiment == "recovery-sweep":
        failures, fraction = r["failures"], r["failure_fraction"]
        if not (0 <= failures <= trials and failures == int(failures)):
            yield f"failures = {failures!r} outside [0, {trials!r}]"
        if fraction != failures / trials:
            yield f"failure_fraction {fraction!r} != failures/trials"
        if not math.isclose(r["standard_error"],
                            math.sqrt(fraction * (1.0 - fraction) / trials), abs_tol=1e-15):
            yield "standard_error does not match failure_fraction"
    elif workload.experiment == "zone-id":
        successes, fraction = r["successes"], r["empirical_probability"]
        if not (0 <= successes <= trials and successes == int(successes)):
            yield f"successes = {successes!r} outside [0, {trials!r}]"
        if not math.isclose(fraction, successes / trials, rel_tol=1e-12, abs_tol=1e-15):
            yield f"empirical_probability {fraction!r} != successes/trials"
        for column in ("theorem_lower_bound", "crb_probability", "empirical_probability"):
            if not 0.0 <= r[column] <= 1.0:
                yield f"{column} = {r[column]!r} outside [0, 1]"
        if r["theorem_lower_bound"] > r["crb_probability"]:
            yield "theorem_lower_bound > crb_probability"
    else:
        # mean <= p95 holds for any sample of at most 20 trials (p95 is then
        # interpolated between the two largest values); the workload uses fewer
        mean, p95, top = r["mean_deviation"], r["p95_deviation"], r["max_deviation"]
        if not (0.0 <= mean <= p95 * (1.0 + 1e-12) and p95 <= top):
            yield f"deviation order broken: mean {mean!r}, p95 {p95!r}, max {top!r}"
