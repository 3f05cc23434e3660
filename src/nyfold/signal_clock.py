"""Wideband tones on an atomic time grid and the phase-modulated sample clock.

A slow phase modulation theta(t) rides on a sine-wave sample clock with mean
rate ``f_s1``. Samples are taken at the positive-slope zero crossings of the
clock, which lands them non-uniformly on a fine uniform "atomic" grid of step
``t_atom``. A tone above the clock's first Nyquist zone aliases ("folds") to
an intermediate frequency below ``f_s1 / 2`` and picks up the clock modulation
scaled by a small signed integer that identifies its original zone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

TWO_PI = 2.0 * math.pi


class ScheduleError(RuntimeError):
    """The atomic grid cannot resolve the clock's sample schedule.

    ``grid_field`` is the TimeGrid field (``"t_atom"`` or ``"n_points"``) whose
    value alone decides the failure for the given clock.
    """

    def __init__(self, message: str, grid_field: str) -> None:
        super().__init__(message)
        self.grid_field = grid_field


@dataclass(frozen=True)
class TimeGrid:
    """Uniform atomic time grid: ``n_points`` steps of ``t_atom`` seconds.

    The grid fixes the discrete bandwidth ``f_atomic = 1 / t_atom`` and the
    frequency resolution ``f_res = 1 / (n_points * t_atom)``.
    """

    t_atom: float
    n_points: int

    def __post_init__(self) -> None:
        if not (self.t_atom > 0.0 and math.isfinite(self.t_atom)):
            raise ValueError("t_atom must be positive and finite")
        if self.n_points < 2:
            raise ValueError("grid needs at least two points")

    @property
    def f_atomic(self) -> float:
        return 1.0 / self.t_atom

    @property
    def duration(self) -> float:
        return self.n_points * self.t_atom

    @property
    def f_res(self) -> float:
        return 1.0 / self.duration

    def times(self) -> np.ndarray:
        return np.arange(self.n_points) * self.t_atom


@dataclass(frozen=True)
class ToneSpec:
    """Single tone: frequency in Hz, non-negative amplitude, phase in [0, 2pi)."""

    frequency: float
    amplitude: float = 1.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.frequency < 0.0 or not math.isfinite(self.frequency):
            raise ValueError("frequency must be non-negative and finite")
        if self.amplitude < 0.0:
            raise ValueError("amplitude must be non-negative")
        object.__setattr__(self, "phase", self.phase % TWO_PI)


@dataclass(frozen=True)
class _PhaseLaw:
    """Periodic clock phase modulation with deviation span f_dev (Hz)."""

    f_dev: float
    period: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.f_dev < math.inf:
            raise ValueError("f_dev must be non-negative and finite")
        if not 0.0 < self.period < math.inf:
            raise ValueError("period must be positive and finite")


class LinearChirp(_PhaseLaw):
    """Sawtooth frequency sweep: the instantaneous clock rate climbs linearly
    from f_s1 to f_s1 + f_dev over each period, then snaps back.

    Phase law ``theta(t) = pi * (f_dev / period) * (t mod period)**2``. The
    phase is intentionally not made continuous across the resweep instant; an
    idealized resweep resets it.
    """

    def phase(self, t):
        tau = np.mod(t, self.period)
        return math.pi * (self.f_dev / self.period) * tau * tau

    def rate(self, t):
        tau = np.mod(t, self.period)
        return TWO_PI * (self.f_dev / self.period) * tau


class Sinusoid(_PhaseLaw):
    """Sinusoidal frequency modulation with total deviation span f_dev.

    Phase law ``theta(t) = (f_dev / (2 f_m)) * sin(2 pi f_m t)`` with
    ``f_m = 1 / period``, so the instantaneous rate swings f_s1 +/- f_dev / 2.
    """

    def phase(self, t):
        f_m = 1.0 / self.period
        return (self.f_dev / (2.0 * f_m)) * np.sin(TWO_PI * f_m * t)

    def rate(self, t):
        f_m = 1.0 / self.period
        return math.pi * self.f_dev * np.cos(TWO_PI * f_m * t)


Modulation = Union[None, LinearChirp, Sinusoid]


@dataclass(frozen=True)
class ClockConfig:
    """Sample clock: mean rate f_s1 plus an optional phase modulation law."""

    f_s1: float
    modulation: Modulation = None

    def __post_init__(self) -> None:
        if not (self.f_s1 > 0.0 and math.isfinite(self.f_s1)):
            raise ValueError("f_s1 must be positive and finite")
        if self.modulation is not None and self.modulation.f_dev >= self.f_s1:
            raise ValueError("modulation deviation must stay below f_s1")

    @property
    def f_dev(self) -> float:
        return 0.0 if self.modulation is None else self.modulation.f_dev


def theta_eval(modulation: Modulation, t):
    """Evaluate the clock phase modulation theta(t) in radians at a time or an array of times."""
    return np.zeros_like(t, dtype=float) if modulation is None else modulation.phase(t)


@dataclass(frozen=True)
class SampleSchedule:
    """Non-uniform sample instants: strictly increasing indices into the atomic
    grid, sample k taken at ``indices[k] * t_atom``."""

    indices: np.ndarray

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=np.int64)
        if indices.ndim != 1 or len(indices) == 0:
            raise ValueError("schedule must be a non-empty 1-d index array")
        if np.any(np.diff(indices) <= 0):
            raise ValueError("schedule must be strictly increasing")
        object.__setattr__(self, "indices", indices)

    @property
    def size(self) -> int:
        return len(self.indices)

    def truncated(self, k: int) -> "SampleSchedule":
        if not (1 <= k <= self.size):
            raise ValueError("truncation length out of range")
        return SampleSchedule(self.indices[:k])


def _robust_cycle_count(f_s1: float, duration: float) -> int:
    # floor with one-ulp forgiveness so exact-integer products do not drop a cycle
    x = f_s1 * duration
    return int(math.floor(x * (1.0 + 1e-12) + 1e-12))


def compute_sample_schedule(clock: ClockConfig, grid: TimeGrid) -> SampleSchedule:
    """The clock's positive-slope zero crossings, snapped to the atomic grid.

    Crossing k, for k = 0 .. floor(f_s1 * duration) - 1, is the first time the
    clock phase ``2 pi f_s1 t + theta(t)`` reaches ``2 pi k``; its sample index
    is the nearest grid index (ties to the earlier), kept while inside the
    window. Only the indices are solved for, never the crossing times.

    Raises
    ------
    ScheduleError
        If the grid is shorter than one clock cycle (``grid_field`` is
        ``"n_points"``) or two crossings quantize to the same grid index
        (``"t_atom"``).
    """
    f_s1 = clock.f_s1
    if grid.duration < 1.0 / f_s1:
        raise ScheduleError("grid shorter than one clock cycle", grid_field="n_points")
    omega, mod = TWO_PI * f_s1, clock.modulation
    # N grid points hold at most N crossings, so the first N + 1 show any collision
    levels = TWO_PI * np.arange(min(_robust_cycle_count(f_s1, grid.duration), grid.n_points + 1))
    # Crossing k snaps to index j when it lies in ((j - 1/2) t_atom, (j + 1/2) t_atom]:
    # j is the first atom midpoint where the phase's running maximum reaches 2 pi k,
    # which after a sawtooth resweep waits for the phase to pass its earlier peak.
    # Index < N keeps the crossings before the last midpoint, inside the window.
    mid = (np.arange(grid.n_points) + 0.5) * grid.t_atom
    peak = theta_eval(mod, mid)
    peak += omega * mid
    if isinstance(mod, LinearChirp) and mod.period <= mid[-1]:
        # before each resweep the phase climbs toward a peak it never attains:
        # fold the left limit of the last resweep before each midpoint, just below
        resweep = np.floor(mid / mod.period) * mod.period
        limit = np.nextafter(omega * resweep + math.pi * mod.f_dev * mod.period, 0.0)
        np.maximum(peak, limit, out=peak, where=resweep > 0.0)
    indices = np.searchsorted(np.maximum.accumulate(peak, out=peak), levels)
    indices = indices[indices < grid.n_points]
    same = np.flatnonzero(np.diff(indices) == 0)
    if same.size:
        c = int(same[0])
        raise ScheduleError(
            f"crossings {c} and {c + 1} both quantize to grid index {indices[c]}; "
            "atomic grid too coarse for this clock", grid_field="t_atom")
    return SampleSchedule(indices)


def sample_tones(tones: Sequence[ToneSpec], times: np.ndarray) -> np.ndarray:
    """Sum of complex tones ``A exp(j (2 pi f t + phase))`` at the given times.

    Every experiment calls it at the schedule's sample times only (``indices
    * t_atom``); the real part is the cosine signal. ``synthesize_signal``
    calls it on the whole grid, so the two agree bitwise at the schedule
    indices. No band check is made: a caller that needs tones below
    ``f_atomic / 2`` calls ``check_tone_band``.
    """
    out = np.zeros(len(times), dtype=complex)
    for tone in tones:
        out += tone.amplitude * np.exp(1j * (TWO_PI * tone.frequency * times + tone.phase))
    return out


def check_tone_band(tones: Sequence[ToneSpec], grid: TimeGrid) -> None:
    """Reject tones at or above ``f_atomic / 2`` as unrepresentable on the grid."""
    half = grid.f_atomic / 2.0
    for tone in tones:
        if tone.frequency >= half:
            raise ValueError(
                f"tone at {tone.frequency:g} Hz is at or above f_atomic/2 = {half:g} Hz"
            )


def synthesize_signal(tones: Sequence[ToneSpec], grid: TimeGrid) -> np.ndarray:
    """``sample_tones`` at every time of the atomic grid; its real part is the
    cosine signal. Tones at or above ``f_atomic / 2`` are rejected."""
    check_tone_band(tones, grid)
    return sample_tones(tones, grid.times())


def add_noise(signal: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Add circular complex white Gaussian noise at a target SNR relative to the
    signal's mean power, its variance split evenly between the quadratures.

    The signal must be complex, as ``sample_tones`` returns it; real input
    raises ``TypeError``. ``snr_db = inf`` returns a copy.
    """
    if not np.iscomplexobj(signal):
        raise TypeError("add_noise takes a complex signal")
    if math.isinf(snr_db) and snr_db > 0:
        return signal.copy()
    power = float(np.mean(np.abs(signal) ** 2))
    if power <= 0.0:
        raise ValueError("cannot set an SNR against an all-zero signal")
    scale = math.sqrt(power / (10.0 ** (snr_db / 10.0)) / 2.0)
    rng = np.random.default_rng(seed)
    n = len(signal)
    return signal + scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


@dataclass(frozen=True)
class FoldedTone:
    """Where a tone lands after folding through the sampling clock.

    f_if is the folded (intermediate) frequency in [0, f_s1/2]; m_index the
    signed modulation scaling (see ``fold_tone``); nyquist_zone the index of the
    f_s1/2-wide zone holding the original tone.
    """

    f_if: float
    m_index: int
    nyquist_zone: int


def fold_tone(f_c: float, clock: ClockConfig) -> FoldedTone:
    """Fold an RF tone at f_c through the clock: nearest-harmonic aliasing.

    ``k_h = round(f_c / f_s1)`` (half-way cases round up), ``beta`` is the sign
    of ``f_c - k_h f_s1`` with ``sign(0) := +1``, and the folded tone carries
    the clock modulation scaled by ``-m_index`` where ``m_index = beta * k_h``.
    """
    if f_c < 0.0 or not math.isfinite(f_c):
        raise ValueError("f_c must be non-negative and finite")
    f_s1 = clock.f_s1
    k_h = int(math.floor(f_c / f_s1 + 0.5))
    diff = f_c - k_h * f_s1
    beta = 1 if diff >= 0.0 else -1
    zone = int(math.floor(2.0 * f_c / f_s1))
    return FoldedTone(f_if=abs(diff), m_index=beta * k_h, nyquist_zone=zone)
