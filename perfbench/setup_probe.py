"""Set-up work of one workload in a fresh interpreter; the parent times the process.

Usage: python3 setup_probe.py EXPERIMENT CONFIG.ini

Imports ``nyfold.cli``, resolves the experiment's desk config with the INI
overlaid, and builds every SampleSchedule and SensingOperator the run uses.
Grid and clock come from the CLI's own config helpers, so the probe builds
the schedules the timed run builds.
"""

import sys

import nyfold.cli  # noqa: F401  (its import is part of set-up)
from nyfold.experiments import (
    _build_clock,
    _build_grid,
    _floats,
    _ints,
    load_config_file,
    resolve_config,
)
from nyfold.sensing import SensingOperator
from nyfold.signal_clock import compute_sample_schedule

experiment, ini = sys.argv[1], sys.argv[2]
config = resolve_config(experiment, "desk", load_config_file(ini))
grid = _build_grid(config)

if experiment == "deviation-sweep":
    operators = [SensingOperator(grid, compute_sample_schedule(
                     _build_clock(config, f_dev_override=f), grid))
                 for f in _floats(config, "sweep", "f_dev_hz")]
elif experiment == "zone-id":
    full = compute_sample_schedule(_build_clock(config), grid)
    operators = [SensingOperator(grid, full.truncated(k))
                 for k in _ints(config, "zones", "k_values")]
else:
    operators = [SensingOperator(grid, compute_sample_schedule(_build_clock(config), grid))]
print(f"{len(operators)} operators")
