"""Isometry guarantees: statistical RIP bound, modulation constant, sparsity limits.

Two routes to a restricted-isometry statement are covered. The statistical
route bounds the probability that a random support of size s violates a target
deviation ``delta`` under uniform subsampling:

    p_fail = (2s/K + (2s + 7)/(N - 3)) / (delta - (s - 1)/(N - 1))**2

The deterministic route bounds the pairwise deviation of a modulated schedule
through the spectral concentration of ``exp(j k theta(t))``: with C the worst
peak-to-band-energy constant over harmonic scalings k,

    delta_2 <= C * sqrt(f_res / f_dev),    delta_s <= s * delta_2.

``kth_spectrum`` and ``estimate_modulation_constant`` take every harmonic
spectrum from one path: the unitary DFT of ``x * exp(j k theta)``, with theta
evaluated once per clock and grid and cached. It runs ``numpy.fft.fft`` in
place and scales by ``1/sqrt(N)`` rounded from long double, the factor
``scipy.fft``'s ``norm="ortho"`` applies, so the spectra are bitwise scipy's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .signal_clock import ClockConfig, Modulation, TimeGrid, theta_eval

SQRT2_MINUS_1 = math.sqrt(2.0) - 1.0


@dataclass(frozen=True)
class ModulationConstant:
    """Peak-to-band-energy constant of the modulation exponential.

    per_k[k - 1] holds, for harmonic scaling k = 1, 2, ...,

        C_k = sqrt( max_w |G_k(w)|^2 * k * f_dev / (f_res * sum_band |G_k|^2) )

    where G_k is the unitary DFT of exp(j k theta(t)) and the band is the
    contiguous bin interval swept by the instantaneous frequency k theta'/2pi,
    width k f_dev. c_value is the maximum over k.
    """

    per_k: np.ndarray

    def __post_init__(self) -> None:
        per_k = np.asarray(self.per_k, dtype=float)
        object.__setattr__(self, "per_k", per_k)
        if not math.isfinite(self.c_value) or self.c_value <= 0.0:
            raise ValueError("c_value must be positive and finite")

    @property
    def c_value(self) -> float:
        return float(self.per_k.max())


def strip_failure_probability(n: int, k: int, s: int, delta: float) -> float:
    """Probability bound that a random size-s support violates deviation delta."""
    if n <= 3:
        raise ValueError("need more than three bins")
    if k < 1:
        raise ValueError("need at least one measurement")
    if s < 1:
        raise ValueError("sparsity must be positive")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    slack = delta - (s - 1) / (n - 1)
    if slack <= 0.0:
        raise ValueError("bound undefined: (s - 1)/(n - 1) must stay below delta")
    return (2.0 * s / k + (2.0 * s + 7.0) / (n - 3.0)) / (slack * slack)


def max_recoverable_sparsity(n: int, k: int, delta_target: float, p_fail: float) -> int:
    """Largest s whose doubled support passes the failure bound at delta_target.

    Convex recovery of an s-sparse signal needs the isometry to hold at
    sparsity 2s, so the bound is evaluated there. Returns 0 if even s = 1 fails.
    The bound grows with s, so ``_largest_passing`` finds s exactly.
    """
    if not (0.0 < p_fail < 1.0):
        raise ValueError("p_fail must lie in (0, 1)")
    return _largest_passing(
        lambda s: (2 * s - 1) / (n - 1) < delta_target
        and strip_failure_probability(n, k, 2 * s, delta_target) <= p_fail)


def _largest_passing(passes: Callable[[int], bool]) -> int:
    """Largest s >= 1 with ``passes(s)``, or 0 if none, for a ``passes`` that
    holds up to some s and fails beyond it: doubling, then bisection."""
    lo, hi = 0, 1  # lo = 0 or passes(lo); doubling stops at the first hi that fails
    while passes(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return lo


@functools.lru_cache(maxsize=1)
def _grid_theta(modulation: Modulation, grid: TimeGrid) -> np.ndarray:
    # repeated harmonic spectra on one clock and grid reuse theta (read-only)
    theta = theta_eval(modulation, grid.times())
    theta.flags.writeable = False
    return theta


def _harmonic_spectrum(x, k: int, modulation: Modulation, grid: TimeGrid) -> np.ndarray:
    """Unitary DFT of ``x * exp(j k theta(t))`` over the grid."""
    phase = k * _grid_theta(modulation, grid)
    z = x * np.exp(1j * phase)
    np.fft.fft(z, out=z)
    parts = z.view(np.float64)  # scale re and im alone, as pocketfft does
    parts *= float(1 / np.sqrt(np.longdouble(grid.n_points)))
    return z


def kth_spectrum(
    x: np.ndarray, k: int, clock: ClockConfig, grid: TimeGrid
) -> np.ndarray:
    """Unitary DFT of ``x * exp(j k theta(t))`` re-centered by k clock harmonics.

    This is the spectrum a tone from harmonic band k presents after folding:
    the signal is mixed with the k-th power of the modulation exponential and
    shifted by ``k * f_s1``. Rejects scalings whose image leaves the grid band.
    """
    x = np.asarray(x)
    if x.shape != (grid.n_points,):
        raise ValueError("signal length does not match the grid")
    if abs(k) * clock.f_dev >= grid.f_atomic / 2.0:
        raise ValueError("modulation image would leave the representable band")
    spec = _harmonic_spectrum(x, k, clock.modulation, grid)
    shift = int(round(k * clock.f_s1 / grid.f_res))
    return np.roll(spec, shift)


def estimate_modulation_constant(
    clock: ClockConfig, grid: TimeGrid, k_max: int
) -> ModulationConstant:
    """Measure the modulation constant C over harmonic scalings 1 .. k_max.

    For each k the unitary spectrum of ``exp(j k theta)`` is formed; its global
    peak power is compared against the mean power over the band swept by the
    instantaneous frequency (width k * f_dev). C is the worst ratio's square
    root. Requires a modulated clock. Every k's band is checked against the
    grid before any spectrum is formed.
    """
    f_dev = clock.f_dev
    if f_dev <= 0.0:
        raise ValueError("modulation constant needs a modulated clock")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    rate = clock.modulation.rate(grid.times()) / (2.0 * math.pi)
    f_lo, f_hi = float(rate.min()), float(rate.max())
    f_res = grid.f_res
    n = grid.n_points
    bands = [(math.floor(k * f_lo / f_res), math.ceil(k * f_hi / f_res))
             for k in range(1, k_max + 1)]
    for k, (lo, hi) in enumerate(bands, start=1):
        if hi - lo + 1 >= n:
            raise ValueError(f"swept band at k={k} covers the whole grid")
    per_k = np.empty(k_max, dtype=float)
    for k, (lo, hi) in enumerate(bands, start=1):
        g2 = np.abs(_harmonic_spectrum(1.0, k, clock.modulation, grid)) ** 2
        band = np.arange(lo, hi + 1) % n
        band_energy = float(g2[band].sum())
        per_k[k - 1] = math.sqrt(float(g2.max()) * k * f_dev / (f_res * band_energy))
    return ModulationConstant(per_k)


def pairwise_deviation_bound(c_value: float, f_res: float, f_dev: float) -> float:
    """The delta_2 bound C sqrt(f_res / f_dev) from the modulation constant.

    delta_s <= s * delta_2 follows for any sparsity s. The bound is only
    meaningful while it stays below 1/2; larger values raise, since the
    underlying concentration hypothesis is violated.
    """
    if c_value <= 0.0 or f_res <= 0.0 or f_dev <= 0.0:
        raise ValueError("c_value, f_res and f_dev must be positive")
    delta2 = c_value * math.sqrt(f_res / f_dev)
    if delta2 >= 0.5:
        raise ValueError(
            f"pairwise bound {delta2:.3f} >= 0.5: concentration hypothesis violated"
        )
    return delta2


def guaranteed_sparsity_convex(delta2_bound: float) -> int:
    """Largest s with 2 s * delta2_bound < sqrt(2) - 1 (convex recovery regime).

    Uses delta_{2s} <= 2s * delta_2 and the sqrt(2) - 1 threshold on the
    doubled-support isometry constant. The float product grows with s, so
    ``_largest_passing`` finds s exactly; 0 if even s = 1 fails.
    """
    if delta2_bound <= 0.0:
        raise ValueError("delta2_bound must be positive")
    return _largest_passing(lambda s: 2.0 * s * delta2_bound < SQRT2_MINUS_1)


def omp_guarantee_threshold(s: int) -> float:
    """Isometry level at order s + 1 below which greedy recovery of s tones
    is guaranteed: 1 / (1 + sqrt(s))."""
    if s < 1:
        raise ValueError("sparsity must be positive")
    return 1.0 / (1.0 + math.sqrt(s))
