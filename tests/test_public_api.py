"""Tests for the package's public name list."""

import inspect
from dataclasses import fields

import nyfold
from nyfold import experiments, omp, rip, sensing, signal_clock
from nyfold.experiments import ResultManifest
from nyfold.sensing import SensingOperator

REMOVED = {
    "folded_spectrum": signal_clock,
    "modulation_index_for_zone": signal_clock,
    "zone_for_modulation_index": signal_clock,
    "strip_result": rip,
    "StripResult": rip,
    "DeviationReport": sensing,
    "DetectionBound": omp,
    "atom": SensingOperator,
    "theta_rate": signal_clock,
    # RUNNERS is the one binding of the experiment runners
    "run_strip_table": experiments,
    "run_mod_constant": experiments,
    "run_spectrum": experiments,
    "run_recovery_sweep": experiments,
    "run_zone_id": experiments,
    "run_deviation_sweep": experiments,
}


def test_every_public_name_resolves_once():
    assert len(set(nyfold.__all__)) == len(nyfold.__all__) == 38
    for name in nyfold.__all__:
        assert getattr(nyfold, name) is not None


# parameters that changed no output, and result fields now derived or dropped
REMOVED_PARAMETERS = {
    nyfold.nz_probability_from_crb: {"n_zones", "zone"},
    nyfold.synthesize_signal: {"complex_mode"},
    nyfold.omp_recover: {"residual_tol"},
    nyfold.omp_recover_batch: {"residual_tol"},
    nyfold.pairwise_deviation_bound: {"s"},
}
REMOVED_FIELDS = {
    nyfold.ModulationConstant: {"c_value", "k_range", "band_definition"},
    nyfold.RecoveryResult: {"residual_norm", "iterations", "selection_log"},
    nyfold.FoldedTone: {"k_h", "beta"},
    ResultManifest: {"version", "fieldnames"},
    nyfold.ChirpModel: {"chirp_rate", "start_frequency", "phase"},
}


def test_removed_names_are_gone():
    for name, module in REMOVED.items():
        assert name not in nyfold.__all__
        assert not hasattr(nyfold, name)
        assert not hasattr(module, name)


def test_removed_parameters_and_fields_are_gone():
    for function, names in REMOVED_PARAMETERS.items():
        assert not names & set(inspect.signature(function).parameters)
    for cls, names in REMOVED_FIELDS.items():
        assert not names & {f.name for f in fields(cls)}


def test_zone_trials_take_their_schedule():
    schedule = inspect.signature(nyfold.simulate_nz_trials).parameters["schedule"]
    assert schedule.default is inspect.Parameter.empty
