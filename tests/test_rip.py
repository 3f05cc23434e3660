"""Tests for the statistical isometry bounds and the modulation constant."""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nyfold import rip
from nyfold.rip import (
    SQRT2_MINUS_1,
    estimate_modulation_constant,
    guaranteed_sparsity_convex,
    kth_spectrum,
    max_recoverable_sparsity,
    omp_guarantee_threshold,
    pairwise_deviation_bound,
    strip_failure_probability,
)
from nyfold.signal_clock import (
    ClockConfig,
    LinearChirp,
    Sinusoid,
    TimeGrid,
    ToneSpec,
    synthesize_signal,
)


def brute_strip_probability(n, k, s, delta):
    # independent re-derivation of the failure bound
    numerator = 2.0 * s / k + (2.0 * s + 7.0) / (n - 3.0)
    shrunk = delta - (s - 1.0) / (n - 1.0)
    return numerator / (shrunk * shrunk)


class TestStripBound:
    def test_matches_brute_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(100, 10**6))
            k = int(rng.integers(10, n))
            s = int(rng.integers(1, 50))
            delta = float(rng.uniform((s - 1) / (n - 1) + 0.01, 0.99))
            assert_allclose(
                strip_failure_probability(n, k, s, delta),
                brute_strip_probability(n, k, s, delta),
                rtol=1e-12,
            )

    def test_monotone_in_measurements(self):
        p_few = strip_failure_probability(10**6, 10**3, 10, 0.4)
        p_many = strip_failure_probability(10**6, 10**5, 10, 0.4)
        assert p_many < p_few

    def test_monotone_in_sparsity(self):
        p_small = strip_failure_probability(10**6, 10**4, 5, 0.4)
        p_big = strip_failure_probability(10**6, 10**4, 50, 0.4)
        assert p_small < p_big

    def test_rejects_delta_below_coherence_floor(self):
        # delta must exceed (s-1)/(n-1)
        with pytest.raises(ValueError):
            strip_failure_probability(101, 10, 51, 0.4)
        with pytest.raises(ValueError):
            strip_failure_probability(10**6, 10**4, 10, 1.5)
        with pytest.raises(ValueError):
            strip_failure_probability(3, 2, 1, 0.4)


class TestMaxRecoverableSparsity:
    def test_largest_passing_sparsity(self):
        n, k, delta, p_fail = 10**6, 20000, SQRT2_MINUS_1, 0.05
        s = max_recoverable_sparsity(n, k, delta, p_fail)
        assert strip_failure_probability(n, k, 2 * s, delta) <= p_fail
        assert strip_failure_probability(n, k, 2 * (s + 1), delta) > p_fail

    def test_zero_when_nothing_passes(self):
        assert max_recoverable_sparsity(100, 4, 0.1, 1e-6) == 0

    def test_headline_row(self):
        assert max_recoverable_sparsity(10**6, 20000, SQRT2_MINUS_1, 0.1) == 84

    def test_matches_upward_scan(self):
        for n in (4, 5, 10, 101, 10**3, 10**4, 10**5):
            for k in (1, 3, 100, 10**4):
                for delta in (0.05, SQRT2_MINUS_1, 0.9):
                    for p_fail in (1e-6, 0.01, 0.1, 0.5, 0.99):
                        assert max_recoverable_sparsity(n, k, delta, p_fail) == scan_sparsity(
                            n, k, delta, p_fail), (n, k, delta, p_fail)

    def test_large_answer_is_the_boundary(self):
        n = k = 10**12
        s = max_recoverable_sparsity(n, k, SQRT2_MINUS_1, 0.1)
        assert s == 2101361112
        assert strip_failure_probability(n, k, 2 * s, SQRT2_MINUS_1) <= 0.1
        assert strip_failure_probability(n, k, 2 * (s + 1), SQRT2_MINUS_1) > 0.1


def scan_sparsity(n, k, delta, p_fail):
    """Oracle: try s = 1, 2, ... until the doubled support fails the bound."""
    s = 1
    while (2 * s - 1) / (n - 1) < delta and strip_failure_probability(n, k, 2 * s, delta) <= p_fail:
        s += 1
    return s - 1


@pytest.fixture(scope="module")
def setup():
    grid = TimeGrid(t_atom=1e-10, n_points=65536)
    clock = ClockConfig(2e8, LinearChirp(1e7, grid.duration))
    return grid, clock


class TestModulatedSpectra:
    def test_unmodulated_order_is_plain_fft(self, setup):
        grid, clock = setup
        rng = np.random.default_rng(1)
        x = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
        assert_allclose(
            kth_spectrum(x, 0, clock, grid), np.fft.fft(x, norm="ortho"), atol=1e-12
        )

    def test_norm_preserved(self, setup):
        grid, clock = setup
        rng = np.random.default_rng(2)
        x = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
        for k in (-3, -1, 1, 2, 7):
            assert_allclose(
                np.linalg.norm(kth_spectrum(x, k, clock, grid)),
                np.linalg.norm(x),
                rtol=1e-12,
            )

    def test_tone_recentered_at_clock_harmonic(self, setup):
        """Order-k demodulation of exp(-jk theta) x lands k clock bins up."""
        grid, clock = setup
        j = 1200
        tone = synthesize_signal([ToneSpec(j * grid.f_res)], grid)
        for k in (1, 3):
            x = tone * np.exp(-1j * k * _theta_on_grid(clock, grid))
            spectrum = kth_spectrum(x, k, clock, grid)
            peak = int(np.argmax(np.abs(spectrum)))
            expected = j + round(k * clock.f_s1 / grid.f_res)
            assert abs(peak - expected) <= 1

    def test_cached_theta_is_bitwise_and_follows_its_key(self, setup):
        """kth_spectrum reuses theta per (modulation, grid) without changing a bit."""
        grid, clock = setup
        other_grid = TimeGrid(t_atom=1e-10, n_points=32768)
        sine = ClockConfig(2e8, Sinusoid(1e7, grid.duration))
        rng = np.random.default_rng(4)
        for g, c, k in [(grid, clock, 2), (grid, clock, -3), (other_grid, clock, 1),
                        (grid, sine, 2), (grid, clock, 2)]:
            x = rng.standard_normal(g.n_points) + 1j * rng.standard_normal(g.n_points)
            phase = k * _theta_on_grid(c, g)
            expected = np.roll(
                scipy.fft.fft(x * np.exp(1j * phase), norm="ortho"),
                int(round(k * c.f_s1 / g.f_res)),
            )
            assert np.array_equal(kth_spectrum(x, k, c, g), expected)
        cached = rip._grid_theta(clock.modulation, grid)
        assert cached is rip._grid_theta(clock.modulation, grid)
        assert not cached.flags.writeable

    def test_cached_theta_key_is_the_law_and_its_parameters(self, setup):
        grid, clock = setup
        law = clock.modulation
        cached = rip._grid_theta(law, grid)
        assert rip._grid_theta(LinearChirp(law.f_dev, law.period), grid) is cached
        other = rip._grid_theta(Sinusoid(law.f_dev, law.period), grid)
        assert other is not cached
        assert not np.array_equal(other, cached)

    @pytest.mark.parametrize("n", [2**18, 10**5, 10**6, 3**9 * 5, 100_003])
    def test_harmonic_spectra_are_scipy_ortho_bitwise(self, n):
        """numpy.fft with scipy's long-double 1/sqrt(N) gives scipy's bits, for
        the odd and the Bluestein size too."""
        grid = TimeGrid(t_atom=1e-10, n_points=n)
        clock = ClockConfig(2e8, LinearChirp(1e7, grid.duration / 3))
        rng = np.random.default_rng(n)
        k = 3
        phase = k * _theta_on_grid(clock, grid)
        for x in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            # the product is written inline, as the package writes it: numpy may
            # round a complex product differently when it reuses a temporary
            expected = np.roll(
                scipy.fft.fft(x * np.exp(1j * phase), norm="ortho"),
                round(k * clock.f_s1 / grid.f_res),
            )
            assert kth_spectrum(x, k, clock, grid).tobytes() == expected.tobytes()
        unit = rip._harmonic_spectrum(1.0, k, clock.modulation, grid)
        assert unit.tobytes() == scipy.fft.fft(np.exp(1j * phase), norm="ortho").tobytes()

    def test_rejects_order_beyond_grid(self, setup):
        grid, clock = setup
        with pytest.raises(ValueError):
            kth_spectrum(np.zeros(grid.n_points, complex), 10**6, clock, grid)


def _theta_on_grid(clock, grid):
    from nyfold.signal_clock import theta_eval

    return theta_eval(clock.modulation, grid.times())


class TestModulationConstant:
    def test_chirp_constant_in_expected_range(self):
        grid = TimeGrid(t_atom=1e-10, n_points=100_000)
        clock = ClockConfig(2e8, LinearChirp(1e7, 1e-5))
        mc = estimate_modulation_constant(clock, grid, k_max=8)
        assert len(mc.per_k) == 8
        assert mc.c_value == max(mc.per_k)
        assert 1.0 < mc.c_value < 1.5

    def test_sinusoid_constant_finite(self):
        grid = TimeGrid(t_atom=1e-10, n_points=100_000)
        clock = ClockConfig(2e8, Sinusoid(1e7, 1e-5))
        mc = estimate_modulation_constant(clock, grid, k_max=4)
        assert np.all(np.isfinite(mc.per_k))
        assert mc.c_value > 0

    @pytest.mark.parametrize(
        "law", [LinearChirp(1e7, 1e-5), Sinusoid(1e7, 1e-5)], ids=["chirp", "sine"]
    )
    def test_per_k_matches_numpy_oracle_from_cached_theta(self, law, monkeypatch):
        """C_k agrees with an independent numpy.fft loop, and theta comes from
        the cache kth_spectrum fills: no second evaluation on the grid."""
        grid = TimeGrid(t_atom=1e-10, n_points=100_000)
        clock = ClockConfig(2e8, law)
        theta = _theta_on_grid(clock, grid)
        rate = law.rate(grid.times()) / (2.0 * math.pi)
        expected = []
        for k in range(1, 6):
            g2 = np.abs(np.fft.fft(np.exp(1j * k * theta), norm="ortho")) ** 2
            lo = math.floor(k * rate.min() / grid.f_res)
            hi = math.ceil(k * rate.max() / grid.f_res)
            band = g2[np.arange(lo, hi + 1) % grid.n_points].sum()
            expected.append(math.sqrt(g2.max() * k * law.f_dev / (grid.f_res * band)))
        rip._grid_theta(law, grid)

        def no_theta(*args):
            raise AssertionError("theta evaluated again")

        monkeypatch.setattr(rip, "theta_eval", no_theta)
        mc = estimate_modulation_constant(clock, grid, k_max=5)
        assert_allclose(mc.per_k, expected, rtol=1e-15, atol=0)

    def test_requires_modulation(self):
        grid = TimeGrid(t_atom=1e-10, n_points=10_000)
        with pytest.raises(ValueError):
            estimate_modulation_constant(ClockConfig(2e8, None), grid, k_max=4)

    def test_pairwise_bound_stable_over_whole_period_windows(self):
        """C itself depends on the window, but C*sqrt(f_res/f_dev) must not:
        doubling a whole-period window doubles the peak concentration while
        halving f_res, leaving the implied two-tone bound unchanged."""
        clock = ClockConfig(2e8, LinearChirp(1e7, 1e-5))
        bounds = []
        for n in (100_000, 200_000):
            grid = TimeGrid(1e-10, n)
            c = estimate_modulation_constant(clock, grid, k_max=1).c_value
            bounds.append(c * math.sqrt(grid.f_res / 1e7))
        assert abs(bounds[0] - bounds[1]) < 0.1 * bounds[0]


class TestRecoveryBounds:
    def test_pairwise_bound_values(self):
        delta2 = pairwise_deviation_bound(1.21, 1e4, 1e7)
        assert_allclose(delta2, 1.21 * math.sqrt(1e-3), rtol=1e-12)

    def test_pairwise_bound_rejects_weak_regime(self):
        with pytest.raises(ValueError):
            pairwise_deviation_bound(1.3, 1e5, 5e5)  # 1.3*sqrt(0.2) > 0.5

    def test_guaranteed_sparsity_examples(self):
        assert guaranteed_sparsity_convex(0.0382) == 5
        assert guaranteed_sparsity_convex(0.2) == 1
        assert guaranteed_sparsity_convex(0.5) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-4, max_value=0.4))
    def test_guaranteed_sparsity_is_maximal(self, delta2):
        s = guaranteed_sparsity_convex(delta2)
        if s > 0:
            assert 2 * s * delta2 < SQRT2_MINUS_1
        assert 2 * (s + 1) * delta2 >= SQRT2_MINUS_1

    def test_omp_threshold(self):
        assert_allclose(omp_guarantee_threshold(1), 0.5)
        assert_allclose(omp_guarantee_threshold(2), 1.0 / (1.0 + math.sqrt(2.0)))
        thresholds = [omp_guarantee_threshold(s) for s in range(1, 10)]
        assert all(a > b for a, b in zip(thresholds, thresholds[1:]))

    def test_omp_threshold_validation(self):
        with pytest.raises(ValueError):
            omp_guarantee_threshold(0)


def scan_convex_sparsity(delta2, s_max):
    """Oracle: every s = 1 .. s_max tested; the passing ones must be 1 .. answer."""
    passing = [s for s in range(1, s_max + 1) if 2.0 * s * delta2 < SQRT2_MINUS_1]
    assert passing == list(range(1, len(passing) + 1)) and len(passing) < s_max
    return len(passing)


def test_guaranteed_sparsity_matches_scan_at_every_boundary():
    """At delta_2 = (sqrt(2) - 1) / 2s, where 2 s delta_2 meets the threshold,
    and at both float neighbours, the search returns the scan's answer."""
    for s in range(1, 2001):
        exact = SQRT2_MINUS_1 / (2 * s)
        for delta2 in (math.nextafter(exact, 0.0), exact, math.nextafter(exact, 1.0)):
            assert guaranteed_sparsity_convex(delta2) == scan_convex_sparsity(delta2, s + 2), delta2


def _tiny_clock_and_grid():
    return ClockConfig(2e8, LinearChirp(1e7, 1e-7)), TimeGrid(t_atom=1e-10, n_points=1000)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: rip.ModulationConstant(np.array([0.0, 0.0])), "c_value"),
        (lambda: rip.ModulationConstant(np.array([-1.2])), "c_value"),
        (lambda: strip_failure_probability(1000, 0, 1, 0.4), "measurement"),
        (lambda: strip_failure_probability(1000, 10, 0, 0.4), "sparsity"),
        (lambda: max_recoverable_sparsity(1000, 10, 0.4, 0.0), "p_fail"),
        (lambda: max_recoverable_sparsity(1000, 10, 0.4, 1.0), "p_fail"),
        (lambda: kth_spectrum(np.ones(999), 1, *_tiny_clock_and_grid()), "length"),
        (lambda: estimate_modulation_constant(*_tiny_clock_and_grid(), k_max=0), "k_max"),
        (lambda: pairwise_deviation_bound(0.0, 1e4, 1e7), "positive"),
        (lambda: pairwise_deviation_bound(1.2, -1e4, 1e7), "positive"),
        (lambda: pairwise_deviation_bound(1.2, 1e4, 0.0), "positive"),
        (lambda: guaranteed_sparsity_convex(0.0), "positive"),
        (lambda: guaranteed_sparsity_convex(-0.1), "positive"),
    ],
    ids=["c-zero", "c-negative", "no-measurements", "no-sparsity", "p_fail-zero", "p_fail-one",
         "spectrum-length", "k_max-zero", "pairwise-c", "pairwise-f_res", "pairwise-f_dev",
         "convex-zero", "convex-negative"],
)
def test_refuses_invalid_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
