"""The names the benchmark in ``perfbench/`` looks up in the package still resolve.

``perfbench/tracer.py`` wraps package functions and methods by name and reads
result attributes in its count hooks; ``perfbench/setup_probe.py`` imports
config helpers from ``nyfold.experiments``. A rename in the package breaks
them without failing any other test, so these run both on tiny configs.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nyfold.cli  # noqa: F401  (loads every module the tracer patches)
from nyfold import cli, omp
from nyfold.experiments import write_sections
from nyfold.sensing import SensingOperator, SparseSpectrum
from nyfold.signal_clock import ClockConfig, LinearChirp, TimeGrid, compute_sample_schedule

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

TINY = {
    "zone-id": {"zones": {"k_values": "100 400", "trials": "2"}},
    "recovery-sweep": {
        "grid": {"n_points": "16384"},
        "clock": {"period_s": "1.6384e-6"},
        "sweep": {"sparsity": "2", "snr_db": "10", "trials": "2"},
    },
    "deviation-sweep": {
        "grid": {"n_points": "16384"},
        "sweep": {"f_dev_hz": "0 1e8", "sparsity": "2 4", "trials": "2"},
    },
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_cli_runs(tmp_path):
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    codes = []
    tracer.install()
    try:
        for experiment in ("zone-id", "recovery-sweep"):
            ini = tmp_path / f"{experiment}.ini"
            write_sections(ini, TINY[experiment])
            out = tmp_path / experiment
            codes.append(cli.main([experiment, "--config", str(ini), "--seed", "3",
                                   "--out", str(out)]))
        # the runners call omp_recover_batch; the tracer counts omp_recover's results
        grid = TimeGrid(1e-10, 4096)
        op = SensingOperator(grid, compute_sample_schedule(
            ClockConfig(2e8, LinearChirp(1e7, grid.duration)), grid))
        omp.omp_recover(op, op.forward(SparseSpectrum([5, 100], [1.0, 0.5j])), max_iters=2)
    finally:
        tracer.restore()

    assert codes == [0, 0]
    metrics, problems = tracer_module.layer_metrics(tracer.spans)
    assert problems == []
    for name in ("sensing.adjoint_calls", "signal_clock.crossings", "signal_clock.noise_draws",
                 "crb.nz_trial_count", "rip.modconst_harmonics"):
        assert metrics[name][0] > 0, name
    assert metrics["omp.iterations"][0] == 2


@pytest.mark.parametrize("experiment", sorted(TINY))
def test_setup_probe_runs(experiment, tmp_path):
    ini = tmp_path / "tiny.ini"
    write_sections(ini, TINY[experiment])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), experiment, str(ini)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("operators")
