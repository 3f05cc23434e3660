"""Tests for the chirp-rate information bound and zone-decision probabilities."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import erf

from nyfold import crb, omp
from nyfold.crb import (
    ChirpModel,
    crb_variance,
    fisher_information,
    nz_probability_from_crb,
    quartic_power_sum,
    simulate_nz_trials,
)
from nyfold.sensing import SensingOperator
from nyfold.signal_clock import (
    ClockConfig,
    LinearChirp,
    TimeGrid,
    ToneSpec,
    add_noise,
    compute_sample_schedule,
    sample_tones,
)


def brute_fisher(model):
    """Sum the per-sample score magnitudes directly.

    For y_i = A exp(j(phi + 2 pi f0 t_i + pi alpha t_i^2)) + noise at
    t_i = i Delta, i = 1..K, the derivative wrt alpha is j pi t_i^2 y_i, so
    each sample contributes 2 A^2 pi^2 t_i^4 / sigma^2 of information.
    """
    total = 0.0
    for i in range(1, model.count + 1):
        t = i * model.step
        total += 2.0 * model.amplitude**2 * math.pi**2 * t**4 / model.noise_variance
    return total


def make_model(rng):
    amplitude = float(rng.uniform(0.5, 3.0))
    # the chirp rate and phase draws keep the seeded models; I(alpha) reads neither
    rng.uniform(1e9, 1e12)
    rng.uniform(0, 2 * math.pi)
    return ChirpModel(
        amplitude=amplitude,
        step=float(rng.uniform(1e-9, 1e-7)),
        count=int(rng.integers(2, 500)),
        noise_variance=float(rng.uniform(0.1, 30.0)),
    )


class TestFisherInformation:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            model = make_model(rng)
            assert_allclose(fisher_information(model), brute_fisher(model), rtol=1e-11)

    def test_scales_with_amplitude_and_noise(self):
        base = ChirpModel(1.0, 5e-9, 100, 1.0)
        double_amp = ChirpModel(2.0, 5e-9, 100, 1.0)
        double_noise = ChirpModel(1.0, 5e-9, 100, 2.0)
        assert_allclose(fisher_information(double_amp), 4 * fisher_information(base))
        assert_allclose(fisher_information(double_noise), fisher_information(base) / 2)

    def test_crb_is_reciprocal(self):
        model = ChirpModel(1.0, 5e-9, 200, 25.0)
        assert_allclose(crb_variance(model), 1.0 / fisher_information(model), rtol=1e-14)

    def test_single_sample_value(self):
        # one sample at t = step contributes 2 A^2 pi^2 step^4 / sigma^2
        model = ChirpModel(1.5, 5e-9, 1, 2.0)
        expected = 2.0 * 1.5**2 * math.pi**2 * (5e-9) ** 4 / 2.0
        assert_allclose(fisher_information(model), expected, rtol=1e-14)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            ChirpModel(0.0, 5e-9, 100, 1.0)
        with pytest.raises(ValueError):
            ChirpModel(1.0, 0.0, 100, 1.0)
        with pytest.raises(ValueError):
            ChirpModel(1.0, 5e-9, 0, 1.0)
        with pytest.raises(ValueError):
            ChirpModel(1.0, 5e-9, 100, 0.0)


class TestQuarticPowerSum:
    def test_exact_against_integer_sum(self):
        running = 0
        for k in range(1, 2001):
            running += k**4
            assert quartic_power_sum(k) == running

    def test_zero_case(self):
        assert quartic_power_sum(0) == 0

    def test_large_value_is_exact_integer(self):
        k = 10**6
        expected = k * (k + 1) * (2 * k + 1) * (3 * k * k + 3 * k - 1) // 30
        assert quartic_power_sum(k) == expected


class TestZoneProbability:
    def _model(self, count):
        return ChirpModel(1.0, 5e-9, count, 25.0)

    def test_interior_zone_uses_two_sided_window(self):
        model = self._model(500)
        p = nz_probability_from_crb(model, slope_spacing=1e12)
        sigma = math.sqrt(crb_variance(model))
        d = 1e12 / (2.0 * sigma)
        assert_allclose(p, erf(d / math.sqrt(2.0)), rtol=1e-12)

    def test_vanishing_spacing_rejected(self):
        model = self._model(500)
        with pytest.raises(ValueError):
            nz_probability_from_crb(model, 0.0)

    def test_probability_saturates_with_samples(self):
        p_small = nz_probability_from_crb(self._model(50), 1e12)
        p_large = nz_probability_from_crb(self._model(2000), 1e12)
        assert p_small < p_large
        assert p_large > 1.0 - 1e-9


@pytest.fixture(scope="module")
def config():
    grid = TimeGrid(1e-10, 100_000)
    clock = ClockConfig(2e8, LinearChirp(1e7, 1e-5))
    return grid, clock, compute_sample_schedule(clock, grid)


class TestSimulatedZoneTrials:

    def test_fractions_are_probabilities(self, config):
        grid, clock, schedule = config
        hits = simulate_nz_trials(
            grid, clock, snr_db=-14.0, n_zones=20, k_values=[200, 800], trials=8, seed=5,
            schedule=schedule,
        )
        assert hits.shape == (2,) and hits.dtype == np.int64
        assert np.all((0 <= hits) & (hits <= 8))

    def test_reproducible(self, config):
        grid, clock, schedule = config
        a = simulate_nz_trials(grid, clock, -14.0, 20, [400], 8, 5, schedule)
        b = simulate_nz_trials(grid, clock, -14.0, 20, [400], 8, 5, schedule)
        assert_array_equal(a, b)

    def test_more_samples_help(self, config):
        grid, clock, schedule = config
        hits = simulate_nz_trials(
            grid, clock, snr_db=-14.0, n_zones=20, k_values=[100, 1500], trials=24, seed=1,
            schedule=schedule,
        )
        assert hits[1] >= hits[0] + 6

    def test_clean_high_k_is_reliable(self, config):
        grid, clock, schedule = config
        hits = simulate_nz_trials(
            grid, clock, snr_db=60.0, n_zones=20, k_values=[1500], trials=12, seed=2,
            schedule=schedule,
        )
        assert hits[0] == 12


def per_trial_hits(grid, clock, snr_db, n_zones, k_values, trials, seed, schedule):
    """Oracle: every trial drawn in the runner's order and pursued on its own."""
    band = n_zones * clock.f_s1 / 2.0
    counts = []
    for ki, k in enumerate(k_values):
        op = SensingOperator(grid, schedule.truncated(k))
        times = op.schedule.indices * grid.t_atom
        hits = 0
        for trial in range(trials):
            rng = np.random.default_rng([seed, ki, trial])
            freq = rng.uniform(0.0, band)
            tone = ToneSpec(freq, 1.0, rng.uniform(0.0, 2.0 * math.pi))
            y = add_noise(sample_tones([tone], times), snr_db, seed=int(rng.integers(2**63)))
            detected = omp.omp_recover(op, y, max_iters=1).support[0]
            hits += math.floor(2.0 * detected * grid.f_res / clock.f_s1) == math.floor(
                2.0 * freq / clock.f_s1
            )
        counts.append(hits)
    return np.array(counts, dtype=np.int64)


class TestBatchedZoneTrials:
    K_VALUES = [200, 800]
    TRIALS = 24

    def test_one_adjoint_per_trial(self, config, monkeypatch):
        grid, clock, schedule = config
        shapes = []

        class CountingOp(SensingOperator):
            def adjoint(self, y, out=None):
                shapes.append(np.shape(y))
                return super().adjoint(y, out=out)

        monkeypatch.setattr(crb, "SensingOperator", CountingOp)
        simulate_nz_trials(grid, clock, -14.0, 20, self.K_VALUES, self.TRIALS, 5, schedule)
        # a one-step pursuit of each trial's row alone: one (K,) call per trial
        assert shapes == [(k,) for k in self.K_VALUES for _ in range(self.TRIALS)]

    def test_batch_equals_per_trial_pursuit(self, config):
        grid, clock, schedule = config
        args = (grid, clock, -14.0, 20, self.K_VALUES, self.TRIALS, 3, schedule)
        got = simulate_nz_trials(*args)
        assert got.tobytes() == per_trial_hits(*args).tobytes()


def _nz_trials(n_zones=1, k_values=(5,), trials=1):
    grid = TimeGrid(t_atom=1e-10, n_points=1000)  # f_atomic / 2 = 5 GHz
    clock = ClockConfig(2e8, LinearChirp(1e7, 1e-7))
    schedule = compute_sample_schedule(clock, grid)  # K = 20
    return simulate_nz_trials(grid, clock, 10.0, n_zones, k_values, trials, 0, schedule)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: _nz_trials(n_zones=0), "n_zones"),
        (lambda: _nz_trials(trials=0), "trial"),
        (lambda: _nz_trials(n_zones=51), "zone span"),  # 51 * f_s1 / 2 = 5.1 GHz
        (lambda: _nz_trials(k_values=(5, 0)), "K = 0"),
        (lambda: _nz_trials(k_values=(21,)), "K = 21"),
        (lambda: quartic_power_sum(-1), "non-negative"),
    ],
    ids=["no-zones", "no-trials", "zone-span", "k-zero", "k-past-schedule", "quartic-negative"],
)
def test_refuses_invalid_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
