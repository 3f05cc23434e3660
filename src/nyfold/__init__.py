"""Modulated non-uniform sampling of sparse wideband spectra.

A sinusoidal sampling clock whose instantaneous frequency is slowly swept
takes samples at its positive-slope zero crossings. Undersampled tones fold
into the first Nyquist zone with a zone-dependent induced modulation, which
makes the folded spectrum identifiable: the sensing problem becomes sparse
recovery against a row-subsampled Fourier dictionary. This package bundles
the signal/clock model, the sensing operator with isometry diagnostics,
greedy recovery, estimation-theoretic limits for the induced chirp, and a
CLI for seeded batch experiments.
"""

__version__ = "0.1.0"

from .signal_clock import (
    ClockConfig,
    FoldedTone,
    LinearChirp,
    SampleSchedule,
    ScheduleError,
    Sinusoid,
    TimeGrid,
    ToneSpec,
    add_noise,
    compute_sample_schedule,
    fold_tone,
    sample_tones,
    synthesize_signal,
    theta_eval,
)
from .sensing import (
    SensingOperator,
    SparseSpectrum,
    empirical_rip,
)
from .rip import (
    ModulationConstant,
    estimate_modulation_constant,
    guaranteed_sparsity_convex,
    kth_spectrum,
    max_recoverable_sparsity,
    omp_guarantee_threshold,
    pairwise_deviation_bound,
    strip_failure_probability,
)
from .omp import (
    GramSingularError,
    RecoveryResult,
    detection_probability_bound,
    omp_recover,
    omp_recover_batch,
    score_recovery,
)
from .crb import (
    ChirpModel,
    crb_variance,
    fisher_information,
    nz_probability_from_crb,
    quartic_power_sum,
    simulate_nz_trials,
)

__all__ = [
    "__version__",
    "ClockConfig",
    "FoldedTone",
    "LinearChirp",
    "SampleSchedule",
    "ScheduleError",
    "Sinusoid",
    "TimeGrid",
    "ToneSpec",
    "add_noise",
    "compute_sample_schedule",
    "fold_tone",
    "sample_tones",
    "synthesize_signal",
    "theta_eval",
    "SensingOperator",
    "SparseSpectrum",
    "empirical_rip",
    "ModulationConstant",
    "estimate_modulation_constant",
    "guaranteed_sparsity_convex",
    "kth_spectrum",
    "max_recoverable_sparsity",
    "omp_guarantee_threshold",
    "pairwise_deviation_bound",
    "strip_failure_probability",
    "GramSingularError",
    "RecoveryResult",
    "detection_probability_bound",
    "omp_recover",
    "omp_recover_batch",
    "score_recovery",
    "ChirpModel",
    "crb_variance",
    "fisher_information",
    "nz_probability_from_crb",
    "quartic_power_sum",
    "simulate_nz_trials",
]
