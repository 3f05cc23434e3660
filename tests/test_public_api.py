"""Tests for the package's public name list."""

import nyfold
from nyfold import omp, rip, sensing, signal_clock
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
}


def test_every_public_name_resolves_once():
    assert len(set(nyfold.__all__)) == len(nyfold.__all__)
    for name in nyfold.__all__:
        assert getattr(nyfold, name) is not None


def test_removed_names_are_gone():
    for name, module in REMOVED.items():
        assert name not in nyfold.__all__
        assert not hasattr(nyfold, name)
        assert not hasattr(module, name)
