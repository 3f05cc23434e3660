"""Acceptance gate: one test per shipped claim, tolerances pinned.

Each test exercises a headline behavior end to end and prints a single
``criterion NN PASS`` line with the measured values (visible with ``-s`` or on
failure). Runtime ceilings are asserted where a criterion states one; the
Monte Carlo experiments run at their desk-scale presets with pinned seeds, so
every number below is reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

from nyfold import cli
from nyfold.crb import ChirpModel, fisher_information, quartic_power_sum
from nyfold.experiments import RUNNERS, resolve_config
from nyfold.omp import GramSingularError, omp_recover
from nyfold.rip import (
    estimate_modulation_constant,
    guaranteed_sparsity_convex,
    kth_spectrum,
    omp_guarantee_threshold,
    pairwise_deviation_bound,
)
from nyfold.sensing import SensingOperator, SparseSpectrum
from nyfold.signal_clock import (
    ClockConfig,
    LinearChirp,
    TimeGrid,
    compute_sample_schedule,
)

# reference strip table at N = 1e6, K = 20000, delta = sqrt(2) - 1
STRIP_TABLE = {0.1: 84, 0.05: 42, 0.01: 8, 0.005: 4}

# modulation-constant targets for the two standard clock windows
C_LONG_WINDOW = (1.21, 0.10)   # 100 us window, f_dev 10 MHz
C_SHORT_WINDOW = (1.23, 0.10)  # 10 us window, f_dev 10 MHz
DELTA2_TARGET = (0.0382, 0.004)
TRIPLE_DELTA2_TARGET = (0.369, 0.04)

def report(criterion: int, detail: str) -> None:
    print(f"criterion {criterion:02d} PASS: {detail}")


@pytest.fixture(scope="module")
def grid218():
    return TimeGrid(1e-10, 2**18)


@pytest.fixture(scope="module")
def clock218(grid218):
    # snap f_s1 so every harmonic image lands exactly on a bin
    cycles = round(2e8 * grid218.duration)
    return ClockConfig(cycles / grid218.duration, LinearChirp(1e7, grid218.duration))


def test_criterion_01_strip_table_exact():
    t0 = time.perf_counter()
    config = resolve_config("strip-table", "full")
    manifest = RUNNERS["strip-table"](config, seed=1234567, scale="full")
    elapsed = time.perf_counter() - t0
    table = {r["tolerance"]: r["max_sparsity"] for r in manifest.records}
    assert table == STRIP_TABLE
    assert elapsed < 1.0
    report(1, f"sparsity table {table} in {elapsed:.3f} s")


def test_criterion_02_uniform_sampling_collision():
    t0 = time.perf_counter()
    grid = TimeGrid(1e-11, 1_000_000)  # 100 GHz atomic rate, 10 us window
    clock = ClockConfig(2e9, None)
    schedule = compute_sample_schedule(clock, grid)
    op = SensingOperator(grid, schedule)
    k, n = schedule.size, grid.n_points
    assert k == 20_000

    # congruent pair: identical atoms, deviation exactly 1
    _, _, dev_hit = op.gram_eigen_bounds([123, 123 + k])
    hit = op.spectral_norm_deviation(
        SparseSpectrum([123, 123 + k], [1.0, 1.0])
    )
    assert abs(dev_hit - 1.0) <= 1e-9
    assert abs(hit - 1.0) <= 1e-9

    # neighboring bins: orthogonal atoms, deviation exactly 0
    _, _, dev_miss = op.gram_eigen_bounds([123, 124])
    miss = op.spectral_norm_deviation(SparseSpectrum([123, 124], [1.0, 1.0]))
    assert dev_miss <= 1e-9
    assert miss <= 1e-9

    # one FFT of the sampling mask gives every pairwise Gram entry:
    # g(delta) = conj(FFT(mask))[delta] / K
    mask = np.zeros(n)
    mask[schedule.indices] = 1.0
    gram_row = np.conj(np.fft.fft(mask)) / k

    rng = np.random.default_rng(20_260_815)
    j1 = rng.integers(0, n, size=100_000)
    j2 = rng.integers(0, n, size=100_000)
    keep = j1 != j2
    j1, j2 = j1[keep], j2[keep]

    # cross-check the identity against the operator on 200 draws:
    # equal-amplitude two-tone deviation is | |1 + g| - 1 |
    for a, b in zip(j1[:200], j2[:200]):
        lo, hi = sorted((int(a), int(b)))
        measured = op.spectral_norm_deviation(SparseSpectrum([lo, hi], [1.0, 1.0]))
        predicted = abs(abs(1.0 + gram_row[(hi - lo) % n]) - 1.0)
        assert abs(measured - predicted) <= 1e-9

    deviations = np.abs(np.abs(1.0 + gram_row[(j2 - j1) % n]) - 1.0)
    zero_fraction = float(np.mean(deviations <= 1e-9))
    elapsed = time.perf_counter() - t0
    assert zero_fraction >= 0.9999
    assert elapsed < 60.0
    report(
        2,
        f"congruent dev {dev_hit:.12f}, neighbor dev {dev_miss:.2e}, "
        f"zero-deviation frequency {zero_fraction:.6f} over {len(j1)} draws "
        f"in {elapsed:.1f} s",
    )


def test_criterion_03_modulation_constant_chain():
    t0 = time.perf_counter()
    long_grid = TimeGrid(1e-10, 1_000_000)
    long_clock = ClockConfig(2e8, LinearChirp(1e7, 1e-4))
    c_long = estimate_modulation_constant(long_clock, long_grid, 20).c_value
    assert abs(c_long - C_LONG_WINDOW[0]) <= C_LONG_WINDOW[1]

    short_grid = TimeGrid(1e-10, 100_000)
    short_clock = ClockConfig(2e8, LinearChirp(1e7, 1e-5))
    c_short = estimate_modulation_constant(short_clock, short_grid, 20).c_value
    assert abs(c_short - C_SHORT_WINDOW[0]) <= C_SHORT_WINDOW[1]

    delta2 = pairwise_deviation_bound(c_long, long_grid.f_res, 1e7)
    assert abs(delta2 - DELTA2_TARGET[0]) <= DELTA2_TARGET[1]
    assert guaranteed_sparsity_convex(delta2) == 5

    threshold = omp_guarantee_threshold(2)
    assert abs(threshold - 0.41421) <= 1e-5

    delta2_short = pairwise_deviation_bound(c_short, short_grid.f_res, 1e7)
    triple = 3.0 * delta2_short
    assert abs(triple - TRIPLE_DELTA2_TARGET[0]) <= TRIPLE_DELTA2_TARGET[1]
    assert triple < threshold

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(
        3,
        f"C_long {c_long:.4f}, C_short {c_short:.4f}, delta2 {delta2:.4f}, "
        f"s* {guaranteed_sparsity_convex(delta2)}, 3*delta2_short {triple:.4f} "
        f"< {threshold:.5f} in {elapsed:.1f} s",
    )


def test_criterion_04_harmonic_spectrum_energy(grid218, clock218):
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        x = rng.standard_normal(grid218.n_points) + 1j * rng.standard_normal(
            grid218.n_points
        )
        x_norm = np.linalg.norm(x)
        for k in range(-10, 11):
            ratio = np.linalg.norm(kth_spectrum(x, k, clock218, grid218)) / x_norm
            worst = max(worst, abs(ratio - 1.0))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 30.0
    report(4, f"max energy-ratio error {worst:.2e} over 50 x 21 spectra in {elapsed:.1f} s")


def test_criterion_05_two_tone_worst_case_bound(grid218, clock218):
    t0 = time.perf_counter()
    schedule = compute_sample_schedule(clock218, grid218)
    op = SensingOperator(grid218, schedule)
    c_value = estimate_modulation_constant(clock218, grid218, 20).c_value
    bound = c_value * math.sqrt(grid218.f_res / clock218.f_dev)

    # adjacent harmonic images: bins a whole clock harmonic apart
    stride = round(clock218.f_s1 / grid218.f_res)
    rng = np.random.default_rng(5)
    worst = 0.0
    for draw in range(50):
        j1 = int(rng.integers(0, grid218.n_points - stride))
        phases = np.exp(2j * np.pi * rng.random(2))
        for ratio in (1.0, 10.0, 100.0):
            amps = np.array([1.0, ratio]) if draw % 2 else np.array([ratio, 1.0])
            spectrum = SparseSpectrum([j1, j1 + stride], amps * phases)
            dev = op.spectral_norm_deviation(spectrum)
            worst = max(worst, dev)
            assert dev <= bound
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        5,
        f"worst fold-equivalent deviation {worst:.4f} <= bound {bound:.4f} "
        f"(150 draws) in {elapsed:.1f} s",
    )


def test_criterion_06_omp_exactness_and_collision_failure():
    t0 = time.perf_counter()
    grid = TimeGrid(1e-10, 2**16)
    cycles = round(2e8 * grid.duration)
    # keep f_res/f_dev at the reference operating ratio of 1e-3
    f_dev = 1000.0 * grid.f_res
    clock = ClockConfig(cycles / grid.duration, LinearChirp(f_dev, grid.duration))
    op = SensingOperator(grid, compute_sample_schedule(clock, grid))

    rng = np.random.default_rng(6)
    successes = 0
    for _ in range(100):
        s = int(rng.integers(1, 6))
        while True:
            bins = np.sort(rng.choice(grid.n_points, size=s, replace=False))
            if s == 1 or int(np.min(np.diff(bins))) >= 3:
                break
        coefficients = (0.5 + 1.5 * rng.random(s)) * np.exp(
            2j * np.pi * rng.random(s)
        )
        spectrum = SparseSpectrum(bins, coefficients)
        y = op.forward(spectrum)
        result = omp_recover(op, y, max_iters=s)
        if sorted(result.support) != list(bins):
            continue
        recovered = dict(zip(result.support, result.coefficients))
        if all(abs(recovered[b] - c) <= 1e-6 for b, c in zip(bins, coefficients)):
            successes += 1
    assert successes == 100

    # unmodulated clock: bins a full alias stride apart share one atom,
    # so the second tone is unrecoverable in principle
    uniform = ClockConfig(1024 / grid.duration, None)
    op_u = SensingOperator(grid, compute_sample_schedule(uniform, grid))
    collided = SparseSpectrum([5000, 5000 + 1024], [1.0, 1.0])
    y = op_u.forward(collided)
    try:
        result = omp_recover(op_u, y, max_iters=2)
        failed = sorted(result.support) != [5000, 6024]
    except GramSingularError:
        failed = True
    assert failed

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(6, f"{successes}/100 exact recoveries, collision defeats OMP, in {elapsed:.1f} s")


def test_criterion_07_recovery_failure_fractions():
    t0 = time.perf_counter()
    config = resolve_config(
        "recovery-sweep", "desk", {"sweep": {"sparsity": "3:18:3", "snr_db": "20 10"}}
    )
    manifest = RUNNERS["recovery-sweep"](config, seed=1234567, scale="desk")
    elapsed = time.perf_counter() - t0

    # 10% target plus twice its own binomial standard error at 50 trials
    ceiling = 0.10 + 2.0 * math.sqrt(0.1 * 0.9 / 50)
    worst = 0.0
    by_snr: dict[float, list[dict]] = {}
    for record in manifest.records:
        assert record["sparsity"] <= 18
        assert record["failure_fraction"] <= ceiling
        worst = max(worst, record["failure_fraction"])
        by_snr.setdefault(record["snr_db"], []).append(record)

    for records in by_snr.values():
        records.sort(key=lambda r: r["sparsity"])
        for prev, nxt in zip(records, records[1:]):
            slack = 2.0 * (prev["standard_error"] + nxt["standard_error"])
            assert nxt["failure_fraction"] >= prev["failure_fraction"] - slack

    report(
        7,
        f"worst failure fraction {worst:.3f} <= {ceiling:.3f} for s<=18 at "
        f"10/20 dB, monotone within 2 SE, in {elapsed:.0f} s",
    )


@pytest.fixture(scope="module")
def zone_manifest():
    config = resolve_config("zone-id", "desk")
    return RUNNERS["zone-id"](config, seed=1234567, scale="desk")


def test_criterion_08_zone_probability_ordering(zone_manifest):
    t0 = time.perf_counter()
    for record in zone_manifest.records:
        lower = record["theorem_lower_bound"]
        empirical = record["empirical_probability"]
        crb = record["crb_probability"]
        slack = 2.0 * record["standard_error"]
        assert lower <= empirical, f"K={record['k_samples']}"
        assert empirical <= crb + slack, f"K={record['k_samples']}"
    gap = float(zone_manifest.notes["midpoint_gap_crb_minus_bound"])
    midpoint = int(zone_manifest.notes["midpoint_k"])
    assert gap >= 0.2
    elapsed = zone_manifest.wall_clock_s + time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        8,
        f"bound <= empirical <= CRB + 2 SE at all {len(zone_manifest.records)} K; "
        f"gap {gap:.3f} at K={midpoint}, in {elapsed:.0f} s",
    )


def test_criterion_09_fisher_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        amplitude = float(rng.uniform(0.5, 3.0))
        # the chirp rate and phase draws keep the pinned models; I(alpha) reads neither
        rng.uniform(1e9, 1e12)
        rng.uniform(0.0, 2.0 * math.pi)
        model = ChirpModel(
            amplitude=amplitude,
            step=float(rng.uniform(1e-9, 1e-7)),
            count=int(rng.integers(2, 400)),
            noise_variance=float(rng.uniform(0.1, 30.0)),
        )
        brute = sum(
            2.0 * model.amplitude**2 * math.pi**2 * (i * model.step) ** 4
            / model.noise_variance
            for i in range(1, model.count + 1)
        )
        worst = max(worst, abs(fisher_information(model) / brute - 1.0))
    assert worst <= 1e-12

    running = 0
    for k in range(1, 10_001):
        running += k**4
        assert quartic_power_sum(k) == running

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(9, f"max Fisher mismatch {worst:.2e}; quartic sums exact to K=10000, in {elapsed:.1f} s")


def test_criterion_10_deviation_slope_linearity():
    t0 = time.perf_counter()
    config = resolve_config("deviation-sweep", "desk")
    manifest = RUNNERS["deviation-sweep"](config, seed=1234567, scale="desk")
    elapsed = time.perf_counter() - t0

    slopes = {}
    for label in ("f_dev_0", "f_dev_1e+07", "f_dev_1e+08"):
        slope = float(manifest.notes[f"{label}_slope_per_tone"])
        r2 = float(manifest.notes[f"{label}_r_squared"])
        assert slope > 0.0, label
        assert r2 >= 0.9, f"{label}: R^2 {r2:.3f}"
        slopes[label] = slope
    spread = max(slopes.values()) / min(slopes.values()) - 1.0
    assert spread <= 0.2
    assert elapsed < 600.0
    report(
        10,
        f"slopes {[f'{s:.3e}' for s in slopes.values()]}, spread {spread:.1%}, "
        f"all R^2 >= 0.9, in {elapsed:.0f} s",
    )


def test_criterion_11_byte_identical_reruns(zone_manifest, tmp_path):
    # zone-id: fresh run against the module-scope run
    config = resolve_config("zone-id", "desk")
    again = RUNNERS["zone-id"](config, seed=1234567, scale="desk")
    first, second = tmp_path / "zone_a.csv", tmp_path / "zone_b.csv"
    zone_manifest.write_csv(first)
    again.write_csv(second)
    assert first.read_bytes() == second.read_bytes()

    # recovery-sweep: reduced noise-trial run, twice
    overlay = {"sweep": {"sparsity": "3:6:3", "snr_db": "20", "trials": "5"}}
    config = resolve_config("recovery-sweep", "desk", overlay)
    rec_a = RUNNERS["recovery-sweep"](config, seed=99, scale="desk")
    rec_b = RUNNERS["recovery-sweep"](config, seed=99, scale="desk")
    first, second = tmp_path / "rec_a.csv", tmp_path / "rec_b.csv"
    rec_a.write_csv(first)
    rec_b.write_csv(second)
    assert first.read_bytes() == second.read_bytes()

    # full CLI path
    out_a, out_b = tmp_path / "cli_a", tmp_path / "cli_b"
    assert cli.main(["strip-table", "--out", str(out_a)]) == 0
    assert cli.main(["strip-table", "--out", str(out_b)]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()

    report(11, "zone-id, recovery-sweep, and CLI strip-table reruns byte-identical")
