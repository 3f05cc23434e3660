"""Tests for the signal/clock model and the zero-crossing sample schedule."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nyfold.experiments import (
    PRESETS,
    RUNNERS,
    SCALES,
    _build_clock,
    _build_grid,
    _value,
    resolve_config,
)
from nyfold.signal_clock import (
    TWO_PI,
    ClockConfig,
    LinearChirp,
    SampleSchedule,
    ScheduleError,
    Sinusoid,
    TimeGrid,
    ToneSpec,
    _robust_cycle_count,
    add_noise,
    compute_sample_schedule,
    fold_tone,
    sample_tones,
    synthesize_signal,
    theta_eval,
)


def reference_schedule(clock, grid):
    """The per-crossing solver: crossing k solves ``2 pi f_s1 t + theta(t) = 2 pi k``
    by damped Newton seeded from the previous crossing, with a bracketed search
    past the previous sample when a sawtooth resweep throws the phase back.
    Returns (indices, times)."""
    f_s1 = clock.f_s1
    omega = TWO_PI * f_s1
    duration = grid.duration
    if duration < 1.0 / f_s1:
        raise ScheduleError("grid shorter than one clock cycle", grid_field="n_points")
    mod = clock.modulation
    k_target = _robust_cycle_count(f_s1, duration)
    tol = 1e-9 * TWO_PI
    max_step = 0.5 / f_s1

    times = np.empty(k_target, dtype=float)
    indices = np.empty(k_target, dtype=np.int64)
    count = 0
    t_prev = -math.inf
    theta_prev = 0.0

    for k in range(k_target):
        target = TWO_PI * k
        t = (target - theta_prev) / omega
        t = _newton_crossing(mod, omega, target, t, tol, max_step)
        if t is None or t <= t_prev:
            t = _bracketed_crossing(mod, omega, target, t_prev, f_s1, tol)
        if t >= duration:
            break
        idx = int(math.ceil(t / grid.t_atom - 0.5))  # ties round to the earlier index
        if idx >= grid.n_points:
            break
        if count > 0 and idx == indices[count - 1]:
            raise ScheduleError(f"crossings {count - 1} and {count} both quantize to grid index "
                                f"{idx}; atomic grid too coarse for this clock",
                                grid_field="t_atom")
        times[count] = t
        indices[count] = idx
        count += 1
        t_prev = t
        theta_prev = _theta(mod, t)
    return indices[:count], times[:count]


def _theta(mod, t):
    return float(theta_eval(mod, t))


def _theta_rate(mod, t):
    return 0.0 if mod is None else float(mod.rate(t))


def _newton_crossing(mod, omega, target, t, tol, max_step):
    for _ in range(50):
        phi = omega * t + _theta(mod, t) - target
        if abs(phi) < tol:
            return t
        step = phi / (omega + _theta_rate(mod, t))
        if step > max_step:
            step = max_step
        elif step < -max_step:
            step = -max_step
        t -= step
    return None


def _bracketed_crossing(mod, omega, target, t_prev, f_s1, tol):
    if not math.isfinite(t_prev):
        raise RuntimeError("crossing search failed to converge")
    lo = t_prev
    hi = t_prev
    # grow the probe geometrically: a sawtooth resweep can throw the phase
    # many cycles backward, leaving the next crossing far downstream
    span = 0.25 / f_s1
    for _ in range(64):
        hi += span
        if omega * hi + _theta(mod, hi) - target >= 0.0:
            break
        lo = hi
        span *= 1.5
    else:
        raise RuntimeError("no zero crossing found beyond the previous sample")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if omega * mid + _theta(mod, mid) - target < 0.0:
            lo = mid
        else:
            hi = mid
    t = _newton_crossing(mod, omega, target, hi, tol, 0.5 / f_s1)
    if t is None or t <= t_prev:
        raise RuntimeError("crossing search failed to converge after resweep")
    return t


def first_passage_indices(clock, grid):
    """Exact first passages of a LinearChirp clock, sweep by sweep. Between
    resweeps the phase rises monotonically; before the resweep at (s + 1) P it
    climbs toward ``2 pi f_s1 (s + 1) P + pi f_dev P`` without attaining it.
    Level 2 pi k is first passed in the first sweep whose peak exceeds it, and
    found there by bisection. Returns the nearest grid indices (ties to the
    earlier) inside the window."""
    mod, omega = clock.modulation, TWO_PI * clock.f_s1
    period, rate = mod.period, math.pi * mod.f_dev / mod.period
    levels = TWO_PI * np.arange(_robust_cycle_count(clock.f_s1, grid.duration))
    sweeps = np.arange(int(grid.duration / period) + 2)
    peaks = omega * (sweeps + 1) * period + math.pi * mod.f_dev * period
    start = np.searchsorted(peaks, levels, side="right") * period
    lo, hi = start, start + period
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = omega * mid + rate * (mid - start) ** 2 < levels
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    indices = np.ceil(hi / grid.t_atom - 0.5).astype(np.int64)
    return indices[indices < grid.n_points]


def preset_schedules():
    """(id, clock, grid) for every preset schedule at both scales, and the
    resweep, sine and uniform clocks of TestSampleSchedule."""
    cases = []
    for scale in SCALES:
        for experiment, sections in PRESETS.items():
            if "grid" not in sections:
                continue
            config = resolve_config(experiment, scale)
            grid = _build_grid(config)
            if experiment == "deviation-sweep":
                for f_dev in _value(config, "sweep", "f_dev_hz"):
                    clock = _build_clock(config, f_dev_override=f_dev)
                    cases.append((f"{experiment}-{scale}-{f_dev:g}", clock, grid))
            else:
                cases.append((f"{experiment}-{scale}", _build_clock(config), grid))
    grid = TimeGrid(t_atom=1e-10, n_points=100_000)
    cases += [
        ("resweep", ClockConfig(2e8, LinearChirp(1e7, 0.5 * grid.duration)), grid),
        ("sine", ClockConfig(2e8, Sinusoid(5e6, 1e-5)), grid),
        ("uniform", ClockConfig(2e8, None), grid),
    ]
    return [pytest.param(clock, grid, id=name) for name, clock, grid in cases]


def modulation_index_for_zone(zone):
    """Signed modulation scaling for a Nyquist zone: 0, -1, 1, -2, 2, ..."""
    return zone // 2 if zone % 2 == 0 else -(zone + 1) // 2


class TestTimeGrid:
    def test_derived_quantities(self):
        grid = TimeGrid(t_atom=1e-10, n_points=1_000_000)
        assert grid.f_atomic == 1e10
        assert_allclose(grid.duration, 1e-4)
        assert_allclose(grid.f_res, 1e4)

    def test_times_are_uniform(self):
        grid = TimeGrid(t_atom=0.5, n_points=4)
        assert_allclose(grid.times(), [0.0, 0.5, 1.0, 1.5])

    @pytest.mark.parametrize("t_atom,n", [(0.0, 10), (-1e-10, 10), (1e-10, 0)])
    def test_rejects_degenerate_grids(self, t_atom, n):
        with pytest.raises(ValueError):
            TimeGrid(t_atom=t_atom, n_points=n)


class TestModulationLaws:
    def test_chirp_phase_quadratic_in_first_period(self):
        mod = LinearChirp(f_dev=1e7, period=1e-4)
        t = 5e-5
        assert_allclose(theta_eval(mod, t), math.pi * (1e7 / 1e-4) * t * t)
        # spot value: 250*pi
        assert_allclose(theta_eval(mod, t), 785.3981633974483, rtol=1e-12)

    def test_chirp_phase_resets_each_period(self):
        mod = LinearChirp(f_dev=1e7, period=1e-4)
        assert_allclose(theta_eval(mod, 1.25e-4), theta_eval(mod, 0.25e-4))

    def test_chirp_rate_spans_deviation(self):
        mod = LinearChirp(f_dev=1e7, period=1e-4)
        t = np.linspace(0.0, 1e-4, 1001)[:-1]
        inst = mod.rate(t) / TWO_PI
        assert inst.min() >= 0.0
        assert inst.max() <= 1e7
        assert_allclose(inst[-1], 1e7 * (1.0 - 1.0 / 1000), rtol=1e-9)

    def test_sinusoid_span_is_symmetric(self):
        mod = Sinusoid(f_dev=1e7, period=1e-5)
        t = np.linspace(0.0, 1e-5, 10001)
        inst = mod.rate(t) / TWO_PI
        assert_allclose(inst.max(), 5e6, rtol=1e-6)
        assert_allclose(inst.min(), -5e6, rtol=1e-6)

    def test_no_modulation_is_zero_phase(self):
        assert theta_eval(None, 0.123) == 0.0

    def test_scalar_in_scalar_out(self):
        mod = Sinusoid(f_dev=1e6, period=1e-5)
        assert isinstance(theta_eval(mod, 1e-6), float)
        assert isinstance(mod.rate(1e-6), float)

    @pytest.mark.parametrize("cls", [LinearChirp, Sinusoid])
    def test_rejects_bad_parameters(self, cls):
        with pytest.raises(ValueError):
            cls(f_dev=-1.0, period=1e-4)
        with pytest.raises(ValueError):
            cls(f_dev=1e6, period=0.0)

    @pytest.mark.parametrize("cls", [LinearChirp, Sinusoid])
    @pytest.mark.parametrize("f_dev,period", [(math.nan, 1e-4), (math.inf, 1e-4),
                                              (1e6, math.nan), (1e6, math.inf)])
    def test_rejects_non_finite_parameters(self, cls, f_dev, period):
        with pytest.raises(ValueError, match="finite"):
            cls(f_dev=f_dev, period=period)

    def test_clock_requires_deviation_below_carrier(self):
        with pytest.raises(ValueError):
            ClockConfig(f_s1=2e8, modulation=LinearChirp(f_dev=3e8, period=1e-4))


class TestSampleSchedule:
    def test_uniform_schedule_is_exact(self):
        grid = TimeGrid(t_atom=1e-10, n_points=100_000)
        clock = ClockConfig(f_s1=2e8, modulation=None)
        sched = compute_sample_schedule(clock, grid)
        # 2e8 * 1e-5 = 2000 crossings, one every 50 atoms
        assert sched.size == 2000
        assert np.array_equal(sched.indices, 50 * np.arange(2000))

    def test_crossings_satisfy_phase_equation(self):
        """Each crossing time of the reference solver, whose indices the
        schedule must match, solves w*t + theta(t) = 2*pi*k."""
        grid = TimeGrid(t_atom=1e-10, n_points=100_000)
        clock = ClockConfig(f_s1=2e8, modulation=LinearChirp(1e7, 1e-5))
        _, times = reference_schedule(clock, grid)
        k = np.arange(len(times))
        residual = TWO_PI * clock.f_s1 * times + theta_eval(clock.modulation, times) - TWO_PI * k
        assert np.max(np.abs(residual)) < 1e-6

    def test_count_matches_nominal_cycle_count(self):
        grid = TimeGrid(t_atom=1e-10, n_points=1_000_000)
        for mod in (None, LinearChirp(1e7, 1e-4), Sinusoid(1e7, 1e-4)):
            sched = compute_sample_schedule(ClockConfig(2e8, mod), grid)
            assert abs(sched.size - 20000) <= 20

    def test_upchirp_compresses_sample_spacing(self):
        grid = TimeGrid(t_atom=1e-10, n_points=100_000)
        clock = ClockConfig(f_s1=2e8, modulation=LinearChirp(1e7, 1e-5))
        gaps = np.diff(compute_sample_schedule(clock, grid).indices)
        # instantaneous rate rises through the sweep, so gaps shrink: from
        # 1 / 2e8 s = 50 atoms to 1 / 2.1e8 s = 47.6 atoms, each within one atom
        assert np.mean(gaps[-100:]) < np.mean(gaps[:100])
        assert np.all(np.abs(gaps[:10] - 50.0) <= 1)
        assert np.all(np.abs(gaps[-10:] - 1e10 / 2.1e8) <= 1)

    def test_indices_quantize_to_nearest_atom(self):
        grid = TimeGrid(t_atom=1e-10, n_points=100_000)
        clock = ClockConfig(f_s1=2e8, modulation=Sinusoid(5e6, 1e-5))
        sched = compute_sample_schedule(clock, grid)
        _, times = reference_schedule(clock, grid)
        offsets = times / grid.t_atom - sched.indices
        assert np.max(np.abs(offsets)) <= 0.5 + 1e-9

    def test_schedule_validation(self):
        for indices in ([3, 3], [4, 3], [], [[1, 2], [3, 4]]):
            with pytest.raises(ValueError):
                SampleSchedule(np.array(indices, dtype=np.int64))

    def test_truncated_prefix(self):
        grid = TimeGrid(t_atom=1e-10, n_points=100_000)
        sched = compute_sample_schedule(ClockConfig(2e8, None), grid)
        head = sched.truncated(10)
        assert head.size == 10
        assert np.array_equal(head.indices, sched.indices[:10])

    def test_duplicate_atoms_raise(self):
        # clock so fast that two crossings land on the same atom
        grid = TimeGrid(t_atom=1e-10, n_points=1000)
        clock = ClockConfig(f_s1=3e10, modulation=None)
        with pytest.raises(ScheduleError, match="both quantize") as info:
            compute_sample_schedule(clock, grid)
        assert info.value.grid_field == "t_atom"

    def test_coarse_grid_fails_before_building_every_level(self):
        """f_s1 * duration crossings would be 3.8 TiB of levels at t_atom = 1e-2;
        N grid points hold at most N of them, so N + 1 levels find the collision."""
        clock = ClockConfig(2e8, LinearChirp(1e7, 2.62144e-5))  # desk recovery-sweep
        with pytest.raises(ScheduleError, match="both quantize") as info:
            compute_sample_schedule(clock, TimeGrid(1e-2, 2**18))
        assert info.value.grid_field == "t_atom"
        tracemalloc.start()
        try:
            with pytest.raises(ScheduleError):
                compute_sample_schedule(clock, TimeGrid(1e-7, 2**18))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6  # 15 MB; 139 MB when all 5.2e6 levels were built

    @pytest.mark.parametrize("clock,grid", preset_schedules())
    def test_matches_per_crossing_reference(self, clock, grid):
        """The array solve gives the reference solver's indices bitwise."""
        indices, _ = reference_schedule(clock, grid)
        assert np.array_equal(compute_sample_schedule(clock, grid).indices, indices)

    def test_crossings_are_first_passages(self):
        # resweeps every 1310 atoms, then at random points of the window: the
        # phase passes some 2 pi k just before a resweep and again after it
        # relocks; the first passage counts
        grid = TimeGrid(t_atom=1e-10, n_points=20_000)
        rng = np.random.default_rng(14)
        laws = [LinearChirp(2.5e7, 1.31e-7)] + [
            LinearChirp(rng.uniform(1e5, 5e7), rng.uniform(0.05, 0.6) * grid.duration)
            for _ in range(40)]
        for law in laws:
            clock = ClockConfig(f_s1=2e8, modulation=law)
            sched = compute_sample_schedule(clock, grid)
            assert np.array_equal(sched.indices, first_passage_indices(clock, grid)), law

    def test_first_passage_just_before_a_resweep(self):
        # crossing 226 is at 11273.958 atoms and the resweep at 11274.479: the
        # level is passed after the last midpoint before the resweep, on the
        # way to a peak the phase never attains
        grid = TimeGrid(t_atom=1e-10, n_points=20_000)
        clock = ClockConfig(2e8, LinearChirp(924013.8983499529, 1.1274478675518747e-06))
        sched = compute_sample_schedule(clock, grid)
        assert sched.indices[226] == 11274
        assert np.array_equal(sched.indices, first_passage_indices(clock, grid))

    def test_survives_sawtooth_resweep(self):
        # two sweeps inside the window: the phase jumps back by
        # pi * f_dev * period at t = period, and the sampler relocks after
        # a gap of about f_dev * period / 2 clock cycles
        grid = TimeGrid(t_atom=1e-10, n_points=100_000)
        period = 0.5 * grid.duration
        clock = ClockConfig(f_s1=2e8, modulation=LinearChirp(1e7, period))
        indices = compute_sample_schedule(clock, grid).indices
        gaps = np.diff(indices)
        widest = int(np.argmax(gaps))
        skipped_cycles = 1e7 * period / 2.0
        assert_allclose(gaps[widest], skipped_cycles / 2e8 / grid.t_atom, rtol=0.05)
        assert abs(indices[widest] - period / grid.t_atom) < 2.0 / 2e8 / grid.t_atom


class TestSynthesisAndNoise:
    def test_single_complex_tone_matches_formula(self):
        grid = TimeGrid(t_atom=1e-3, n_points=64)
        tone = ToneSpec(frequency=25.0, amplitude=2.0, phase=0.5)
        x = synthesize_signal([tone], grid)
        t = grid.times()
        assert_allclose(x, 2.0 * np.exp(1j * (2 * np.pi * 25.0 * t + 0.5)), rtol=1e-12)

    def test_real_mode_is_cosine(self):
        grid = TimeGrid(t_atom=1e-3, n_points=64)
        tone = ToneSpec(frequency=25.0, amplitude=1.0, phase=0.0)
        x = synthesize_signal([tone], grid).real
        assert x.dtype == np.float64
        assert_allclose(x, np.cos(2 * np.pi * 25.0 * grid.times()), rtol=1e-12)

    def test_tones_superpose(self):
        grid = TimeGrid(t_atom=1e-3, n_points=128)
        t1, t2 = ToneSpec(10.0), ToneSpec(40.0, amplitude=0.5)
        x = synthesize_signal([t1, t2], grid)
        assert_allclose(
            x, synthesize_signal([t1], grid) + synthesize_signal([t2], grid)
        )

    def test_sample_tones_matches_grid_synthesis_bitwise(self):
        grid = TimeGrid(1e-10, 100_000)
        clock = ClockConfig(2e8, LinearChirp(1e7, 1e-5))
        schedule = compute_sample_schedule(clock, grid)
        tones = [ToneSpec(3.7e9, 0.8, 1.1), ToneSpec(1.25e8, 2.0, 5.9)]
        sampled = sample_tones(tones, schedule.indices * grid.t_atom)
        full = synthesize_signal(tones, grid)
        assert sampled.dtype == np.complex128
        assert np.array_equal(sampled, full[schedule.indices])

    @settings(max_examples=60, deadline=None)
    @given(
        n_points=st.integers(min_value=16, max_value=4096),
        t_atom=st.sampled_from([1e-10, 1e-11, 1.0 / 256, 0.37]),
        tones=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.4999),
                st.floats(min_value=0.0, max_value=10.0),
                st.floats(min_value=0.0, max_value=2 * math.pi),
            ),
            min_size=1,
            max_size=5,
        ),
        picks=st.sets(st.integers(min_value=0, max_value=4095), min_size=1, max_size=200),
    )
    def test_sample_tones_equals_synthesis_at_schedule(self, n_points, t_atom, tones, picks):
        """Sampling the tones at the schedule times is bitwise the grid signal
        there, and its real part is bitwise the real-mode signal and a sum of
        cosines."""
        grid = TimeGrid(t_atom, n_points)
        specs = [ToneSpec(f * grid.f_atomic, a, p) for f, a, p in tones]
        indices = np.array(sorted({i % n_points for i in picks}), dtype=np.int64)
        schedule = SampleSchedule(indices)
        sampled = sample_tones(specs, schedule.indices * grid.t_atom)
        assert np.array_equal(sampled, synthesize_signal(specs, grid)[schedule.indices])
        real = synthesize_signal(specs, grid).real[schedule.indices]
        assert np.array_equal(sampled.real, real)
        cosines = np.zeros(len(indices))
        for spec in specs:
            cosines += spec.amplitude * np.cos(
                2 * math.pi * spec.frequency * (indices * t_atom) + spec.phase
            )
        assert np.array_equal(sampled.real, cosines)

    def test_rejects_tone_beyond_atomic_nyquist(self):
        grid = TimeGrid(t_atom=1e-3, n_points=64)
        with pytest.raises(ValueError):
            synthesize_signal([ToneSpec(frequency=500.0)], grid)

    def test_phase_wraps(self):
        assert_allclose(ToneSpec(1.0, phase=2 * np.pi + 0.25).phase, 0.25)

    def test_noise_hits_requested_snr(self):
        rng_signal = np.exp(2j * np.pi * 0.01 * np.arange(200_000))
        noisy = add_noise(rng_signal, snr_db=10.0, seed=0)
        noise_power = np.mean(np.abs(noisy - rng_signal) ** 2)
        measured = 10 * np.log10(1.0 / noise_power)
        assert abs(measured - 10.0) < 0.1

    def test_noise_is_seeded(self):
        x = np.ones(100, dtype=complex)
        assert_allclose(add_noise(x, 5.0, seed=7), add_noise(x, 5.0, seed=7))
        assert not np.allclose(add_noise(x, 5.0, seed=7), add_noise(x, 5.0, seed=8))

    def test_real_signal_rejected(self):
        with pytest.raises(TypeError, match="complex"):
            add_noise(np.ones(4), 10.0, seed=0)
        with pytest.raises(TypeError, match="complex"):
            add_noise(np.cos(np.linspace(0, 20, 1000)), math.inf, seed=1)

    def test_infinite_snr_is_identity(self):
        x = np.ones(16, dtype=complex)
        assert_allclose(add_noise(x, math.inf, seed=0), x)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(8, dtype=complex), 10.0, seed=0)


class TestFolding:
    def test_fold_above_harmonic(self):
        clock = ClockConfig(f_s1=2e9, modulation=LinearChirp(1e8, 1e-5))
        fold = fold_tone(2.4e9, clock)
        assert fold.m_index == 1
        assert fold.nyquist_zone == 2
        assert_allclose(fold.f_if, 0.4e9)

    def test_fold_below_harmonic(self):
        clock = ClockConfig(f_s1=2e9, modulation=LinearChirp(1e8, 1e-5))
        fold = fold_tone(1.3e9, clock)
        assert fold.m_index == -1
        assert fold.nyquist_zone == 1
        assert_allclose(fold.f_if, 0.7e9)

    def test_baseband_tone_is_unmodulated(self):
        clock = ClockConfig(f_s1=2e9, modulation=None)
        fold = fold_tone(0.5e9, clock)
        assert fold.m_index == 0
        assert fold.nyquist_zone == 0
        assert_allclose(fold.f_if, 0.5e9)

    def test_exact_harmonic_takes_positive_sign(self):
        clock = ClockConfig(f_s1=2e9, modulation=None)
        fold = fold_tone(4e9, clock)
        assert fold.m_index == 2
        assert_allclose(fold.f_if, 0.0)

    def test_zone_index_roundtrip(self):
        """A tone at the centre of zone z folds back into zone z, scaled by m(z)."""
        assert [modulation_index_for_zone(z) for z in range(5)] == [0, -1, 1, -2, 2]
        clock = ClockConfig(f_s1=2e9, modulation=None)
        for zone in range(41):
            fold = fold_tone((zone + 0.5) * clock.f_s1 / 2, clock)
            assert fold.nyquist_zone == zone
            assert fold.m_index == modulation_index_for_zone(zone)

    def test_fold_matches_zone_mapping(self):
        clock = ClockConfig(f_s1=2e9, modulation=None)
        rng = np.random.default_rng(3)
        for f_c in rng.uniform(0.0, 40e9, size=200):
            fold = fold_tone(float(f_c), clock)
            assert fold.m_index == modulation_index_for_zone(fold.nyquist_zone)
            assert 0.0 <= fold.f_if <= clock.f_s1 / 2 + 1e-6


def spectrum_magnitudes(tone_hz, **sections):
    """Folded spectrum of one complex tone, as the spectrum runner reports it."""
    overrides = {
        "tones": {"frequencies_hz": repr(tone_hz), "amplitudes": "1", "phases_rad": "0"},
        "spectrum": {"signal_mode": "complex"},
        **sections,
    }
    manifest = RUNNERS["spectrum"](resolve_config("spectrum", "desk", overrides), 0, "desk")
    freqs = np.array([r["frequency_hz"] for r in manifest.records])
    return freqs, np.array([r["magnitude"] for r in manifest.records])


class TestFoldedSpectrum:
    def test_undersampled_tone_lands_at_intermediate_frequency(self):
        grid = TimeGrid(t_atom=1e-11, n_points=100_000)  # 1 us window
        f_s1 = 2e9
        freqs, mags = spectrum_magnitudes(
            2.5e9, grid={"n_points": str(grid.n_points)}, clock={"modulation": "none"}
        )
        assert freqs[0] == 0.0
        assert freqs[-1] <= f_s1 / 2 + grid.f_res
        peak = freqs[np.argmax(mags)]
        assert abs(peak - 0.5e9) <= 2 * grid.f_res

    def test_chirped_clock_spreads_high_zone_tone(self):
        """A zone-4 tone picks up 2x the clock deviation; baseband does not."""
        # the desk preset: N = 2^18 at 1e-11 s, a 1e8 Hz chirp over the window
        def peak_width(f_c):
            _, mags = spectrum_magnitudes(f_c)
            power = mags**2
            threshold = power.max() * 1e-2
            return int(np.count_nonzero(power > threshold))

        narrow = peak_width(0.4e9)  # zone 0, unspread
        wide = peak_width(4.5e9)  # m_index 2, spread over 2*f_dev
        assert wide > 10 * narrow

    @pytest.mark.parametrize("f_c", [0.5e9, 2.5e9, 4.5e9, 6.5e9, 8.5e9])
    def test_zone_signature_is_a_downchirp_of_width_m_f_dev(self, f_c):
        """``fold_tone``'s claim against the simulated spectrum: a tone from zone
        m folds to f_if as a chirp sweeping |m| f_dev down from it."""
        config = resolve_config("spectrum", "desk")
        grid, clock = _build_grid(config), _build_clock(config)
        fold = fold_tone(f_c, clock)
        width = abs(fold.m_index) * clock.f_dev
        freqs, mags = spectrum_magnitudes(f_c)
        energy = mags**2 / np.sum(mags**2)  # over the first zone, [0, f_s1 / 2]
        band = (freqs >= fold.f_if - width - 2 * grid.f_res) & (freqs <= fold.f_if + 2 * grid.f_res)
        # the narrowest bin set holding 90% of the energy
        narrowest = (np.searchsorted(np.cumsum(np.sort(energy)[::-1]), 0.9) + 1) * grid.f_res
        if fold.m_index == 0:  # 94.5% within 2 bins of f_if, 90% in 3 bins
            assert energy[band].sum() >= 0.9
            assert narrowest <= 4 * grid.f_res
        else:  # 99.0-99.2% in band, and 90% in 0.854-0.861 |m| f_dev, for m = 1..4
            assert energy[band].sum() >= 0.98
            assert 0.8 <= narrowest / width <= 0.9
