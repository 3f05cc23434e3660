"""Chirp-rate estimation limits and the zone-identification experiment.

A tone folded from zone n carries the clock modulation scaled by a signed
integer, so under a linear sweep its chirp rate is an integer multiple of the
sweep slope. Identifying the zone is therefore a chirp-rate classification
problem, and the Cramer-Rao variance bound on the rate estimate converts into
a ceiling on the zone-identification probability. The Monte Carlo trials
take their one OMP step through ``omp.pursue_trials``, which samples and
noises each tone at the K schedule times only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .omp import pursue_trials
from .sensing import SensingOperator
from .signal_clock import ClockConfig, SampleSchedule, TimeGrid, ToneSpec, fold_tone


@dataclass(frozen=True)
class ChirpModel:
    """Complex chirp observed at K uniform steps in white noise.

    Sample i (i = 1..count) is
    ``amplitude * exp(j (2 pi (alpha/2 (step i)^2 + f0 step i) + phi))``
    plus circular complex noise of variance noise_variance. The Fisher
    information on the rate alpha depends on neither alpha, the start
    frequency f0 nor the phase phi, so the model holds only A, Delta, K and
    sigma^2.

    Parameters
    ----------
    amplitude : float
        Tone amplitude A > 0.
    step : float
        Sample spacing Delta in seconds.
    count : int
        Number of samples K.
    noise_variance : float
        Per-sample complex noise variance sigma^2 > 0.
    """

    amplitude: float
    step: float
    count: int
    noise_variance: float

    def __post_init__(self) -> None:
        if self.amplitude <= 0.0:
            raise ValueError("amplitude must be positive")
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.noise_variance <= 0.0:
            raise ValueError("noise_variance must be positive")


def fisher_information(model: ChirpModel) -> float:
    """Fisher information for the chirp rate.

    I(alpha) = A^2 pi^2 Delta^4 K (K+1) (2K+1) (3K^2 + 3K - 1) / (15 sigma^2),
    the closed form of ``2 A^2 pi^2 Delta^4 sum_{i=1}^K i^4 / sigma^2``.
    """
    poly = 30 * quartic_power_sum(model.count)  # exact integer
    return (
        model.amplitude**2
        * math.pi**2
        * model.step**4
        * poly
        / (15.0 * model.noise_variance)
    )


def crb_variance(model: ChirpModel) -> float:
    """Cramer-Rao lower bound on the variance of an unbiased rate estimate."""
    return 1.0 / fisher_information(model)


def quartic_power_sum(k: int) -> int:
    """sum_{i=1}^{k} i^4 = k (k+1) (2k+1) (3k^2 + 3k - 1) / 30, exactly."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return k * (k + 1) * (2 * k + 1) * (3 * k * k + 3 * k - 1) // 30


def nz_probability_from_crb(model: ChirpModel, slope_spacing: float) -> float:
    """Zone-identification probability of a CRB-attaining rate estimator.

    The estimate is modeled Gaussian and unbiased with the CRB variance; the
    zone is read correctly when the estimate lands within half a slope spacing
    of the truth on either side: the central two-sided probability of an
    interior zone, which has competing zones above and below.
    """
    if slope_spacing <= 0.0:
        raise ValueError("slope_spacing must be positive")
    d = slope_spacing / (2.0 * math.sqrt(crb_variance(model)))
    return math.erf(d / math.sqrt(2.0))


def simulate_nz_trials(
    grid: TimeGrid,
    clock: ClockConfig,
    snr_db: float,
    n_zones: int,
    k_values: Sequence[int],
    trials: int,
    seed: int,
    schedule: SampleSchedule,
) -> np.ndarray:
    """Monte Carlo zone identification through one-step greedy detection.

    Per trial a single tone is drawn uniformly over the first ``n_zones``
    zones, evaluated at the first K sample times of ``schedule`` and noised
    there at ``snr_db`` per sample against the sampled tone's mean power. The
    trials of one K take one OMP step together, through ``pursue_trials``.
    The strongest dictionary bin's frequency and the tone's each fold to a
    zone (``fold_tone``); the trial is a hit when the two zones agree.

    Returns the int64 hit count, out of ``trials``, per entry of ``k_values``.
    """
    if n_zones < 1:
        raise ValueError("n_zones must be at least 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    if n_zones * clock.f_s1 / 2.0 > grid.f_atomic / 2.0:
        raise ValueError("zone span exceeds the representable band")
    for k in k_values:
        if not (1 <= k <= schedule.size):
            raise ValueError(f"K = {k} exceeds the {schedule.size} available samples")

    band = n_zones * clock.f_s1 / 2.0
    hits = np.empty(len(k_values), dtype=np.int64)
    for ki, k in enumerate(k_values):
        op = SensingOperator(grid, schedule.truncated(int(k)))
        draws = []
        for trial in range(trials):
            rng = np.random.default_rng([seed, ki, trial])
            freq = rng.uniform(0.0, band)
            draws.append(([ToneSpec(freq, 1.0, rng.uniform(0.0, 2.0 * math.pi))], rng))
        results = pursue_trials(op, draws, snr_db, max_iters=1)
        hits[ki] = sum(
            fold_tone(result.support[0] * grid.f_res, clock).nyquist_zone
            == fold_tone(tones[0].frequency, clock).nyquist_zone
            for result, (tones, _) in zip(results, draws)
        )
    return hits
