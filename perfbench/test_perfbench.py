"""Self-tests of the benchmark's own code.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

import csv
import io
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from gate_margins import margins  # noqa: E402
from tracer import Tracer, _covered, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, check_csv  # noqa: E402


# ---------------------------------------------------------------------------
# span arithmetic

SPANS = [
    ["cli.main", None, 0.0, 10.0, {}],
    ["experiments.run", 0, 1.0, 9.0, {}],
    ["omp.omp_recover", 1, 2.0, 5.0, {"iterations": 2, "samples_in": 7}],
    ["sensing.adjoint", 2, 2.5, 3.5, {"fft_points": 8, "fft_flop": 120, "fft_bytes": 256}],
    ["sensing.adjoint", 2, 4.0, 4.5, {"fft_points": 8, "fft_flop": 120, "fft_bytes": 256}],
    ["experiments.write_outputs", 0, 9.0, 9.5, {}],
]


def test_self_time_is_duration_minus_children():
    assert self_times(SPANS) == pytest.approx([1.5, 5.0, 1.5, 1.0, 0.5, 0.5])


def test_covered_merges_overlaps_and_clips():
    assert _covered([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert _covered([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)


def test_layer_self_times_sum_to_runner_time():
    metrics, problems = layer_metrics(SPANS)
    assert problems == []
    assert metrics["experiments.self_s"][0] == pytest.approx(6.5)
    assert metrics["omp.self_s"][0] == pytest.approx(1.5)
    assert metrics["sensing.adjoint_s"][0] == pytest.approx(1.5)
    assert metrics["experiments.write_s"][0] == pytest.approx(0.5)
    self_metrics = [v for k, (v, unit) in metrics.items()
                    if unit == "s" and k != "trace.runner_s"]
    assert sum(self_metrics) == pytest.approx(metrics["trace.runner_s"][0]) == 10.0
    assert metrics["sensing.adjoint_calls"][0] == 2
    assert metrics["sensing.fft_points"][0] == 16
    assert metrics["omp.iterations"][0] == 2
    assert metrics["omp.recover_ms_p50"][0] == pytest.approx(3000.0)


def test_malformed_span_tree_is_reported():
    spans = [["cli.main", None, 0.0, 10.0, {}], ["omp.omp_recover", 0, 5.0, 12.0, {}]]
    _, problems = layer_metrics(spans)
    assert any("sum to" in p for p in problems)
    _, problems = layer_metrics(spans[:1] + [["mystery.call", 0, 1.0, 2.0, {}]])
    assert any("no self-time metric" in p for p in problems)


# ---------------------------------------------------------------------------
# output check


def valid_csv(workload) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(workload.fieldnames)
    t = workload.trials
    for keys in workload.expected_keys():
        if workload.experiment == "recovery-sweep":
            f = 1 / t
            rest = [t, 1, f, math.sqrt(f * (1 - f) / t)]
        elif workload.experiment == "zone-id":
            rest = [0.25, 0.75, 1 / t, 1, t, 0.1]
        else:
            rest = [t, 0.3, 0.2, 0.1]
        writer.writerow([repr(v) for v in keys] + [repr(v) for v in rest])
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_accepts_a_valid_file(name):
    workload = WORKLOADS[name]
    problems, trials = check_csv(workload, valid_csv(workload))
    assert problems == []
    assert trials == workload.trials * len(workload.expected_keys())


# {t} is the workload's trial count and {f} is 1/{t}, as valid_csv writes them
@pytest.mark.parametrize("name, old, new", [
    ("recovery", ",{t},1,", ",{t},{t}1,"),  # failures above trials
    ("recovery", ",1,{f},", ",1,0.25,"),  # fraction != failures / trials
    ("zone-id", "0.25,0.75", "0.85,0.75"),  # theorem bound above the CRB
    ("zone-id", "0.75,{f},1", "1.75,{f},1"),  # probability above 1
    ("deviation", "0.3,0.2,0.1", "0.3,0.1,0.2"),  # mean above p95
    ("deviation", "\n0.0,200,", "\n0.0,400,"),  # wrong sweep point
    ("deviation", "0.3,0.2,0.1\n", "0.3,0.2,nan\n"),  # non-finite value
])
def test_check_rejects_a_corrupted_file(name, old, new):
    workload = WORKLOADS[name]
    fill = {"t": workload.trials, "f": repr(1 / workload.trials)}
    old, new = old.format(**fill), new.format(**fill)
    text = valid_csv(workload)
    assert old in text
    problems, _ = check_csv(workload, text.replace(old, new, 1))
    assert problems


def test_check_rejects_missing_rows_and_header():
    workload = WORKLOADS["zone-id"]
    text = valid_csv(workload)
    assert check_csv(workload, text.rsplit("\n", 2)[0] + "\n")[0]
    assert check_csv(workload, text.split("\n", 1)[1])[0]


# ---------------------------------------------------------------------------
# wrapping and restore


def snapshot():
    import numpy.fft

    import nyfold.experiments
    import nyfold.sensing

    modules = {n: dict(vars(m)) for n, m in sys.modules.items()
               if n == "nyfold" or n.startswith("nyfold.")}
    runners = dict(nyfold.experiments.RUNNERS)
    methods = dict(vars(nyfold.sensing.SensingOperator))
    ffts = (numpy.fft.fft, numpy.fft.ifft)
    return modules, runners, methods, ffts


def test_wrappers_cover_every_lookup_and_restore_exactly():
    import numpy as np

    import nyfold.cli  # noqa: F401  (loads every module the CLI binds)
    from nyfold import crb, experiments, omp, sensing, signal_clock
    from nyfold.sensing import SensingOperator, SparseSpectrum
    from nyfold.signal_clock import ClockConfig, LinearChirp, TimeGrid

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert crb.omp_recover is not before[0]["nyfold.crb"]["omp_recover"]
        assert experiments.omp_recover is not before[0]["nyfold.experiments"]["omp_recover"]
        assert omp.omp_recover is not before[0]["nyfold.omp"]["omp_recover"]
        assert crb.synthesize_signal is not before[0]["nyfold.crb"]["synthesize_signal"]
        assert all(experiments.RUNNERS[k] is not v for k, v in before[1].items())
        assert SensingOperator.adjoint is not before[2]["adjoint"]
        assert np.fft.fft is not before[3][0]

        grid = TimeGrid(1e-10, 4096)
        clock = ClockConfig(2e8, LinearChirp(1e7, grid.duration))
        schedule = signal_clock.compute_sample_schedule(clock, grid)
        op = sensing.SensingOperator(grid, schedule)
        y = op.forward(SparseSpectrum([5, 100], [1.0, 0.5j]))
        result = crb.omp_recover(op, y, max_iters=2)
    finally:
        tracer.restore()

    assert snapshot() == before
    names = [s[0] for s in tracer.spans]
    assert names[:3] == ["signal_clock.compute_sample_schedule", "sensing.operator_init",
                         "sensing.forward"]
    omp_index = names.index("omp.omp_recover")
    adjoints = [s for s in tracer.spans if s[0] == "sensing.adjoint"]
    assert len(adjoints) == result.iterations == 2
    assert all(s[1] == omp_index and s[4]["fft_points"] == 4096 for s in adjoints)
    assert tracer.spans[0][4]["crossings"] == schedule.size


# ---------------------------------------------------------------------------
# gate margins

def test_gate_margins_pair_pass_lines_with_gates():
    source = (
        "def test_criterion_04_energy():\n    assert elapsed < 30.0\n\n"
        "def test_criterion_07_sweep():\n    pass\n"
    )
    output = ("criterion 04 PASS: error 1e-12 in 27.2 s\n"
              "criterion 07 PASS: fractions in 82 s\n"
              "criterion 11 PASS: reruns identical\n")
    assert margins(output, source) == [(4, 27.2, 30.0), (7, 82.0, None)]
