"""Tests for experiment presets, result serialization, runners, and the CLI."""

import contextlib
import functools
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import ShortTimeFFT
from scipy.signal.windows import hann

import nyfold
from nyfold import cli, crb, omp, signal_clock, svgplot
from nyfold.experiments import (
    EXPERIMENTS,
    KINDS,
    PRESETS,
    SCALES,
    ConfigError,
    RUNNERS,
    ResultManifest,
    _build_clock,
    _build_grid,
    _spectrogram_table,
    _value,
    default_config,
    fanout_seed,
    load_config_file,
    read_sections,
    resolve_config,
    write_sections,
)
from nyfold.rip import max_recoverable_sparsity, strip_failure_probability
from nyfold.sensing import SensingOperator


class TestConfig:
    def test_every_preset_resolves(self):
        for experiment in EXPERIMENTS:
            for scale in SCALES:
                config = resolve_config(experiment, scale)
                assert "run" not in config

    def test_every_preset_key_has_one_kind(self):
        preset_keys = {(section, key) for sections in PRESETS.values()
                       for section, keys in sections.items() for key in keys}
        assert preset_keys == {(section, key) for section in KINDS for key in KINDS[section]}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            default_config("fig8", "desk")
        with pytest.raises(ConfigError):
            default_config("strip-table", "huge")

    def test_overrides_applied(self):
        config = resolve_config("strip-table", "desk", {"strip": {"delta": "0.3"}})
        assert config["strip"]["delta"] == "0.3"
        # untouched keys keep preset values
        assert config["strip"]["n_bins"] == "1000000"

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="section"):
            resolve_config("strip-table", "desk", {"bogus": {"x": "1"}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            resolve_config("strip-table", "desk", {"strip": {"n_bin": "10"}})

    @staticmethod
    def sparsity(raw):
        return _value({"sweep": {"sparsity": raw}}, "sweep", "sparsity")

    def test_int_range_inclusive_stop(self):
        assert self.sparsity("3:60:3") == list(range(3, 61, 3))

    def test_int_range_plain_list(self):
        assert self.sparsity("100 250 400") == [100, 250, 400]

    def test_int_range_rejects_empty_or_malformed(self):
        with pytest.raises(ConfigError):
            self.sparsity("10:5:1")
        with pytest.raises(ConfigError):
            self.sparsity("1:10")
        with pytest.raises(ConfigError):
            self.sparsity("a b")
        with pytest.raises(ConfigError):
            self.sparsity("5:1:-1")


class TestFanoutSeed:
    def test_deterministic(self):
        assert fanout_seed(7, "zone-id", 3, 11) == fanout_seed(7, "zone-id", 3, 11)

    def test_distinct_streams(self):
        seeds = {
            fanout_seed(master, exp, sweep, trial)
            for master in (1, 2)
            for exp in ("a", "b")
            for sweep in (0, 1)
            for trial in (0, 1, 2)
        }
        assert len(seeds) == 24

    def test_fits_numpy_seed_range(self):
        for trial in range(50):
            s = fanout_seed(123, "recovery-sweep", 5, trial)
            assert 0 <= s < 2**63


def small_manifest():
    return ResultManifest(
        experiment="strip-table",
        scale="desk",
        seed=42,
        config={"strip": {"n_bins": "100"}},
        records=[
            {"tolerance": 0.1, "max_sparsity": 84, "passed": True},
            {"tolerance": 0.005, "max_sparsity": 4, "passed": False},
        ],
        notes={"delta": "0.41421356237309515"},
    )


class TestManifestIO:
    def test_csv_cell_formats(self, tmp_path):
        path = tmp_path / "results.csv"
        small_manifest().write_csv(path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "tolerance,max_sparsity,passed"
        assert lines[1] == "0.1,84,1"
        assert lines[2] == "0.005,4,0"
        assert lines[3] == ""

    def test_float_cells_round_trip(self, tmp_path):
        manifest = small_manifest()
        manifest.records[0]["tolerance"] = 1.0 / 3.0
        path = tmp_path / "results.csv"
        manifest.write_csv(path)
        token = path.read_text(encoding="utf-8").split("\n")[1].split(",")[0]
        assert float(token) == 1.0 / 3.0

    def test_manifest_sections_round_trip(self, tmp_path):
        manifest = small_manifest()
        path = tmp_path / "manifest.txt"
        manifest.write_manifest(path)
        sections = read_sections(path)
        assert sections == manifest.as_sections()
        assert sections["run"]["experiment"] == "strip-table"
        assert sections["config:strip"]["n_bins"] == "100"
        assert sections["notes"]["delta"] == "0.41421356237309515"

    def test_write_read_write_is_stable(self, tmp_path):
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_sections(first, small_manifest().as_sections())
        write_sections(second, read_sections(first))
        assert first.read_bytes() == second.read_bytes()

    def test_load_config_file_feeds_resolve(self, tmp_path):
        ini = tmp_path / "override.ini"
        ini.write_text("[strip]\ndelta = 0.25\n", encoding="utf-8")
        overrides = load_config_file(ini)
        config = resolve_config("strip-table", "desk", overrides)
        assert config["strip"]["delta"] == "0.25"


@pytest.fixture(scope="module")
def manifest():
    config = resolve_config("strip-table", "desk")
    return RUNNERS["strip-table"](config, seed=1, scale="desk")


class TestStripTableRunner:
    def test_matches_direct_calls(self, manifest):
        n, k = 1_000_000, 20_000
        delta = math.sqrt(2.0) - 1.0
        for record in manifest.records:
            s = max_recoverable_sparsity(n, k, delta, record["tolerance"])
            assert record["max_sparsity"] == s
            expected = strip_failure_probability(n, k, 2 * s, delta)
            assert record["bound_at_doubled_support"] == expected

    def test_headline_row(self, manifest):
        by_tol = {r["tolerance"]: r["max_sparsity"] for r in manifest.records}
        assert by_tol == {0.1: 84, 0.05: 42, 0.01: 8, 0.005: 4}

    def test_as_many_measurements_as_bins_runs(self):
        """K = N, the most rows an N-point grid admits, runs; a larger K exits 2."""
        config = resolve_config("strip-table", "desk", {"strip": {"k_measurements": "1000000"}})
        records = RUNNERS["strip-table"](config, seed=1, scale="desk").records
        assert [r["max_sparsity"] for r in records] == [
            max_recoverable_sparsity(10**6, 10**6, math.sqrt(2.0) - 1.0, r["tolerance"])
            for r in records
        ]

    def test_csv_bytes_deterministic(self, manifest, tmp_path):
        config = resolve_config("strip-table", "desk")
        again = RUNNERS["strip-table"](config, seed=1, scale="desk")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        manifest.write_csv(a)
        again.write_csv(b)
        assert a.read_bytes() == b.read_bytes()


GOLDEN = Path(__file__).parent / "golden"


class TestRecoverySweepRunner:
    # K = 327 samples on a 16384-point grid; -10 dB rows fail some or all trials
    OVERRIDES = {
        "grid": {"n_points": "16384"},
        "clock": {"period_s": "1.6384e-6"},
        "sweep": {"sparsity": "2:10:4", "snr_db": "10 0 -10", "trials": "6"},
    }

    @pytest.mark.parametrize("rows_per_block", [None, 2])
    def test_csv_matches_golden(self, tmp_path, monkeypatch, rows_per_block):
        """results.csv is pinned byte for byte, also with trials split across blocks."""
        if rows_per_block is not None:
            monkeypatch.setattr(omp, "_BATCH_POINTS", rows_per_block * 16384)
        config = resolve_config("recovery-sweep", "desk", self.OVERRIDES)
        manifest = RUNNERS["recovery-sweep"](config, seed=11, scale="desk")
        path = tmp_path / "results.csv"
        manifest.write_csv(path)
        assert path.read_bytes() == (GOLDEN / "recovery_sweep_small.csv").read_bytes()


class TestZoneIdRunner:
    OVERRIDES = {"zones": {"k_values": "100 400 1000", "trials": "6"}}

    def test_csv_matches_golden(self, tmp_path):
        """results.csv is pinned byte for byte on the sample-domain noise stream."""
        config = resolve_config("zone-id", "desk", self.OVERRIDES)
        manifest = RUNNERS["zone-id"](config, seed=11, scale="desk")
        path = tmp_path / "results.csv"
        manifest.write_csv(path)
        assert path.read_bytes() == (GOLDEN / "zone_id_small.csv").read_bytes()

    def test_trials_synthesize_and_noise_only_k_samples(self, monkeypatch):
        def no_grid_synthesis(*args, **kwargs):
            raise AssertionError("zone-id trials must not synthesize the full grid")

        noised = []

        def recording_add_noise(signal, snr_db, seed):
            noised.append(np.shape(signal))
            return signal_clock.add_noise(signal, snr_db, seed)

        monkeypatch.setattr(signal_clock, "synthesize_signal", no_grid_synthesis)
        monkeypatch.setattr(crb, "synthesize_signal", no_grid_synthesis, raising=False)
        monkeypatch.setattr(omp, "add_noise", recording_add_noise)  # pursue_trials noises
        grid = signal_clock.TimeGrid(1e-10, 100_000)
        clock = signal_clock.ClockConfig(2e8, signal_clock.LinearChirp(1e7, 1e-5))
        schedule = signal_clock.compute_sample_schedule(clock, grid)
        crb.simulate_nz_trials(grid, clock, -14.0, 20, [100, 400], 2, 3, schedule)
        assert noised == [(100,), (100,), (400,), (400,)]


# Small configs whose seed-11 results.csv is pinned in tests/golden/<name>_small.csv.
# strip-table and mod-constant run their desk presets as they are.
TINY_OVERRIDES = {
    "strip-table": {},
    "mod-constant": {},
    "spectrum": {
        "grid": {"n_points": "16384"},
        "clock": {"period_s": "1.6384e-7"},
        "spectrum": {"stft_window": "1024", "stft_hop": "1024"},
    },
    "recovery-sweep": TestRecoverySweepRunner.OVERRIDES,
    "zone-id": TestZoneIdRunner.OVERRIDES,
    "deviation-sweep": {
        "grid": {"n_points": "16384"},
        "sweep": {"sparsity": "200:600:200", "trials": "3"},
    },
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_cli_run_matches_golden_and_plots(experiment, tmp_path):
    """Every experiment runs from the CLI, writes its golden CSVs and one plot."""
    ini = tmp_path / "tiny.ini"
    write_sections(ini, TINY_OVERRIDES[experiment])
    out = tmp_path / "out"
    argv = [experiment, "--config", str(ini), "--seed", "11", "--out", str(out), "--plots"]
    assert cli.main(argv) == 0
    results = (out / "results.csv").read_bytes()
    stem = experiment.replace("-", "_")
    assert results == (GOLDEN / f"{stem}_small.csv").read_bytes()
    if experiment == "spectrum":
        golden = GOLDEN / "spectrum_small_spectrogram.csv"
        assert (out / "spectrogram.csv").read_bytes() == golden.read_bytes()
    svgs = sorted(out.glob("*.svg"))
    assert [svg.name for svg in svgs] == [f"plot_{stem}.svg"]
    assert ET.fromstring(svgs[0].read_text(encoding="utf-8")).tag.endswith("svg")


class TestSpectrumRunner:
    @staticmethod
    def config(mode):
        overrides = dict(TINY_OVERRIDES["spectrum"])
        overrides["spectrum"] = {**overrides["spectrum"], "signal_mode": mode}
        return resolve_config("spectrum", "desk", overrides)

    @pytest.mark.parametrize("mode", ["real", "complex"])
    def test_magnitudes_match_unitary_fft_of_sample_train(self, mode):
        """The adjoint route equals the unitary N-point DFT of the zero-filled
        grid signal, cut to the first Nyquist zone."""
        config = self.config(mode)
        records = RUNNERS["spectrum"](config, seed=11, scale="desk").records
        grid, clock = _build_grid(config), _build_clock(config)
        tones = [signal_clock.ToneSpec(f) for f in (5e8, 2.5e9, 4.5e9, 6.5e9)]  # the preset's
        indices = signal_clock.compute_sample_schedule(clock, grid).indices
        signal = signal_clock.synthesize_signal(tones, grid)
        if mode == "real":
            signal = signal.real
        z = np.zeros(grid.n_points, dtype=complex)
        z[indices] = signal[indices]
        n_keep = math.floor((clock.f_s1 / 2.0) / grid.f_res) + 1
        assert [r["frequency_hz"] for r in records] == list(np.arange(n_keep) * grid.f_res)
        np.testing.assert_allclose(
            [r["magnitude"] for r in records],
            np.abs(np.fft.fft(z, norm="ortho"))[:n_keep],
            rtol=1e-15,
            atol=0,
        )

    def test_samples_only_at_the_schedule(self, monkeypatch):
        def no_grid_synthesis(*args, **kwargs):
            raise AssertionError("spectrum must not synthesize the full grid")

        monkeypatch.setattr(signal_clock, "synthesize_signal", no_grid_synthesis)
        manifest = RUNNERS["spectrum"](self.config("real"), seed=11, scale="desk")
        assert len(manifest.records) == 164


# OMP screens its correlations and reads its Gram entries from p, built once for
# the sweep's one operator; zone-id's one-step pursuit screens nothing and builds none
POINT_SPREAD_BUILDS = {"recovery-sweep": 1, "zone-id": 0}


@pytest.mark.parametrize("experiment", ["recovery-sweep", "zone-id"])
def test_benchmarked_runs_compute_no_point_spread(experiment, tmp_path, monkeypatch):
    """Neither run gathers Gram entries, so p is built only where OMP reads it."""
    built = []
    compute = SensingOperator.point_spread.func

    def counted(self):
        built.append(self)
        return compute(self)

    point_spread = functools.cached_property(counted)
    point_spread.__set_name__(SensingOperator, "point_spread")
    monkeypatch.setattr(SensingOperator, "point_spread", point_spread)
    ini = tmp_path / "tiny.ini"
    write_sections(ini, TINY_OVERRIDES[experiment])
    argv = [experiment, "--config", str(ini), "--seed", "11", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 0
    assert len(built) == POINT_SPREAD_BUILDS[experiment]


@pytest.mark.parametrize("experiment", ["mod-constant", "deviation-sweep"])
def test_notes_report_coherence_and_its_offset(experiment):
    """mod-constant reports mu beside its bound C sqrt(f_res / f_dev), and the
    deviation sweep per modulation depth; results.csv carries neither."""
    config = resolve_config(experiment, "desk", TINY_OVERRIDES[experiment])
    manifest = RUNNERS[experiment](config, seed=11, scale="desk")
    grid = _build_grid(config)
    if experiment == "mod-constant":
        clocks = {"": _build_clock(config)}
    else:
        clocks = {f"f_dev_{f_dev:g}_": _build_clock(config, f_dev_override=f_dev)
                  for f_dev in _value(config, "sweep", "f_dev_hz")}
    for prefix, clock in clocks.items():
        op = SensingOperator(grid, signal_clock.compute_sample_schedule(clock, grid))
        mu, offset = op.coherence()
        assert manifest.notes[f"{prefix}coherence"] == repr(mu)
        assert manifest.notes[f"{prefix}coherence_offset_bins"] == str(offset)
        assert 0.0 < mu <= 1.0 and 1 <= offset <= grid.n_points // 2
    if experiment == "mod-constant":  # the desk grid's mu exceeds its bound
        assert mu > float(manifest.notes["delta2_bound"])
    assert not any("coherence" in column for column in manifest.records[0])


@pytest.mark.parametrize(
    "experiment,sections,flags",
    [
        ("strip-table", {"strip": {"tolerances": ""}}, ["--plots"]),
        ("zone-id", {"zones": {"k_values": ""}}, []),
        ("recovery-sweep", {"sweep": {"snr_db": ""}}, []),
        ("spectrum", {"tones": {"frequencies_hz": "", "amplitudes": "", "phases_rad": ""}}, []),
    ],
)
def test_empty_config_list_exits_2(experiment, sections, flags, tmp_path, capsys):
    ini = tmp_path / "empty.ini"
    write_sections(ini, sections)
    out = tmp_path / "o"
    assert cli.main([experiment, "--config", str(ini), "--out", str(out), *flags]) == 2
    assert "is an empty list" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment,section,key,value",
    [
        ("recovery-sweep", "sweep", "trials", "0"),
        ("recovery-sweep", "sweep", "sparsity", "0 3"),
        ("recovery-sweep", "sweep", "tol_bins", "-1"),
        ("recovery-sweep", "sweep", "min_separation_bins", "1e9"),
        ("recovery-sweep", "sweep", "sparsity", "400"),  # K = 327 on this grid
        ("recovery-sweep", "sweep", "snr_db", "nan"),
        ("recovery-sweep", "sweep", "snr_db", "10 -inf"),
        ("recovery-sweep", "sweep", "snr_db", "4000"),  # 10**400 overflows
        ("recovery-sweep", "sweep", "snr_db", "-4000"),  # 10**-400 underflows to 0
        ("recovery-sweep", "sweep", "snr_db", "-3080"),  # noise power overflows
        ("zone-id", "zones", "noise_sigma2", "1e-320"),  # snr_db = 3200
        ("zone-id", "zones", "noise_sigma2", "1e308"),  # snr_db = -3080
        ("zone-id", "zones", "trials", "0"),
        ("zone-id", "zones", "n_zones", "0"),
        ("zone-id", "zones", "k_max", "0"),
        ("zone-id", "zones", "k_values", "0 100"),
        ("zone-id", "zones", "k_values", "100 5000"),  # K = 2000
        ("zone-id", "zones", "n_zones", "2000"),  # spans 2e11 Hz, past f_atomic/2 = 5e9 Hz
        ("deviation-sweep", "sweep", "trials", "0"),
        ("deviation-sweep", "sweep", "sparsity", "0 200"),
        ("deviation-sweep", "sweep", "sparsity", "0:400:200"),
        ("deviation-sweep", "sweep", "sparsity", "200 20000"),  # N = 16384
        ("deviation-sweep", "sweep", "f_dev_hz", "0 nan"),
        ("deviation-sweep", "sweep", "f_dev_hz", "10000000 10000001"),  # one :g label
        ("deviation-sweep", "sweep", "f_dev_hz", "0 1e8 1e8"),
        ("mod-constant", "estimate", "k_max", "0"),
        ("mod-constant", "estimate", "sparsity_for_bound", "0"),
        ("mod-constant", "estimate", "sparsity_for_bound", "1"),  # delta_1 = 0
        ("mod-constant", "estimate", "sparsity_for_bound", "2"),  # the delta2_bound note
        ("mod-constant", "clock", "f_dev_hz", "nan"),
        ("mod-constant", "clock", "period_s", "nan"),
        ("mod-constant", "clock", "modulation", "none"),
        ("mod-constant", "clock", "f_dev_hz", "1e4"),  # delta_2 <= C sqrt(f_res / f_dev) = 4.0
        ("zone-id", "clock", "f_dev_hz", "1e4"),
        ("strip-table", "strip", "k_measurements", "0"),
        ("strip-table", "strip", "k_measurements", "2000000"),  # K rows of N = 10^6
        ("strip-table", "strip", "n_bins", "3"),
        ("strip-table", "strip", "tolerances", "0 0.1"),
        ("strip-table", "strip", "delta", "1"),
        ("spectrum", "spectrum", "stft_window", "40000"),
        ("spectrum", "tones", "amplitudes", "nan 1 1 1"),
        ("recovery-sweep", "grid", "t_atom_s", "1e-8"),  # two crossings per atom
        ("recovery-sweep", "grid", "t_atom_s", "1e-2"),  # 3.3e10 crossings on 16384 points
        ("spectrum", "grid", "n_points", "2"),  # shorter than one clock cycle
        ("mod-constant", "estimate", "k_max", "2000"),  # band at k = 1000 covers the grid
        ("zone-id", "zones", "k_max", "2000"),
        ("deviation-sweep", "sweep", "f_dev_hz", "0 3e9"),  # at or above f_s1 = 2e9
        ("deviation-sweep", "clock", "modulation", "none"),  # cannot sweep f_dev = 1e7
    ],
)
def test_out_of_range_config_value_exits_2(experiment, section, key, value, tmp_path, capsys):
    """A value outside its key's range is refused as [section] key, before any output."""
    sections = {name: dict(keys) for name, keys in TINY_OVERRIDES[experiment].items()}
    sections.setdefault(section, {})[key] = value
    ini = tmp_path / "range.ini"
    write_sections(ini, sections)
    out = tmp_path / "o"
    assert cli.main([experiment, "--config", str(ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"[{section}] {key}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment,section,key,value",
    [
        ("recovery-sweep", "sweep", "snr_db", "3000 -3000 inf"),
        ("zone-id", "zones", "noise_sigma2", "1e-300"),
        ("zone-id", "zones", "noise_sigma2", "1e300"),
    ],
)
def test_noise_domain_edges_run(experiment, section, key, value, tmp_path):
    """The noise settings at the ends of their domains give a finite noise power and run."""
    sections = {name: dict(keys) for name, keys in TINY_OVERRIDES[experiment].items()}
    sections.setdefault(section, {})[key] = value
    ini = tmp_path / "edge.ini"
    write_sections(ini, sections)
    assert cli.main([experiment, "--config", str(ini), "--out", str(tmp_path / "o")]) == 0


FUZZ_KEYS = [(experiment, section, key) for experiment in EXPERIMENTS
             for section, keys in PRESETS[experiment].items() for key in keys]


def out_of_domain(kind, preset):
    """Values of ``kind`` outside its domain: malformed text, nan, +-inf, numbers
    below or above the bounds, empty lists and bad ranges. ``preset`` is an
    in-domain value of the key, to put a bad entry among good ones."""
    bad = ["abc", "1x", "0x10", "1,2", "--1", "nan", "-inf"]
    bad += ["inf"] * (kind.high < math.inf and math.inf not in kind.choices)
    tokens = [st.sampled_from(bad)]
    if kind.convert is int:
        tokens.append(st.integers(max_value=kind.low - 1).map(str))
        tokens.append(st.floats(allow_nan=False).map(repr))
    elif kind.convert is float:
        below, above = math.nextafter(kind.low, -math.inf), math.nextafter(kind.high, math.inf)
        if below > -math.inf:
            tokens.append(st.floats(max_value=below, allow_nan=False).map(repr))
        if above < math.inf:
            tokens.append(st.floats(min_value=above, allow_nan=False).map(repr))
    token = st.one_of(tokens)
    if not kind.many:
        return st.one_of(token, st.just(f"{preset} {preset}"))
    values = [token, token.map(lambda t: f"{preset} {t}"), st.just("")]
    if kind.span:
        values.append(st.sampled_from(["1:5", "1:2:3:4", "a:b:c", "1.0:5:1", "5:1:1", "5:1:-1",
                                       "1:5:0", "0:4:2"]))
        values.append(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
                      .filter(lambda r: r[2] <= 0 or r[1] < r[0] or r[0] < kind.low)
                      .map(lambda r: ":".join(map(str, r))))
    return st.one_of(values)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_out_of_domain_value_exits_2_naming_the_key(data):
    """Any value outside its key's kind or domain exits 2 before a body runs."""
    experiment, section, key = data.draw(st.sampled_from(FUZZ_KEYS))
    preset = default_config(experiment, "desk")[section][key]
    value = data.draw(out_of_domain(KINDS[section][key], preset), label="value")
    sections = {name: dict(keys) for name, keys in TINY_OVERRIDES[experiment].items()}
    sections.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key} ")):
        resolve_config(experiment, "desk", sections)
    with tempfile.TemporaryDirectory() as tmp:
        ini, out = Path(tmp) / "fuzz.ini", Path(tmp) / "o"
        write_sections(ini, sections)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([experiment, "--config", str(ini), "--out", str(out)])
        assert code == 2, err.getvalue()
        assert f"[{section}] {key}" in err.getvalue()
        assert not out.exists()


@settings(max_examples=200, deadline=None)
@given(
    window=st.integers(min_value=8, max_value=300),
    hop_fraction=st.floats(min_value=0.0, max_value=2.0),
    extra=st.integers(min_value=0, max_value=1500),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    t_atom=st.sampled_from([1e-11, 1e-10, 1.0, 0.37]),
)
def test_spectrogram_matches_scipy_short_time_fft(window, hop_fraction, extra, seed, t_atom):
    """The numpy STFT gives the CSV that scipy.signal.ShortTimeFFT gives, bit for bit."""
    hop = max(1, round(hop_fraction * window))
    n = (window + 1) // 2 + extra  # ShortTimeFFT needs n >= ceil(window / 2)
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(n, size=max(1, n // 5), replace=False))
    samples = rng.standard_normal(len(indices))
    grid = signal_clock.TimeGrid(t_atom, n)
    clock = signal_clock.ClockConfig(grid.f_atomic * rng.uniform(0.1, 1.2))
    schedule = signal_clock.SampleSchedule(indices)
    config = {"spectrum": {"stft_window": str(window), "stft_hop": str(hop)}}
    got = _spectrogram_table(samples, schedule, grid, clock, config)

    z = np.zeros(n)
    z[indices] = samples
    stft = ShortTimeFFT(hann(window, sym=False), hop=hop, fs=grid.f_atomic)
    magnitude = np.abs(stft.stft(z))
    want = [["freq_hz"] + [repr(float(t)) for t in stft.t(n)]]
    for fi in np.nonzero(stft.f <= clock.f_s1 / 2.0)[0]:
        want.append([repr(float(stft.f[fi]))] + [repr(float(v)) for v in magnitude[fi]])
    assert got == want


class TestCli:
    def test_strip_table_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["strip-table", "--out", str(out), "--scale", "desk"])
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "manifest.txt").exists()
        stdout = capsys.readouterr().out
        assert "strip-table" in stdout
        assert "results.csv" in stdout

    def test_plots_flag_writes_valid_svg(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["strip-table", "--out", str(out), "--plots"])
        assert code == 0
        svgs = sorted(out.glob("*.svg"))
        assert svgs
        for svg in svgs:
            root = ET.fromstring(svg.read_text(encoding="utf-8"))
            assert root.tag.endswith("svg")

    def test_seed_comes_only_from_the_command_line(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nseed = 42\n", encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["strip-table", "--config", str(ini), "--out", str(out)]) == 2
        assert "unknown config section [run]" in capsys.readouterr().err
        assert not out.exists()

        assert cli.main(["strip-table", "--seed", "42", "--out", str(out)]) == 0
        sections = read_sections(out / "manifest.txt")
        assert sections["run"]["seed"] == "42"
        assert "config:run" not in sections

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[strip]\nn_bin = 10\n", encoding="utf-8")
        code = cli.main(
            ["strip-table", "--config", str(ini), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("ini_text", ["[DEFAULT]\ntrials = 5\n",
                                          "[DEFAULT]\nk_measurements = 5\n[strip]\ndelta = 0.25\n"])
    def test_default_section_exits_2(self, tmp_path, capsys, ini_text):
        """An INI [DEFAULT] is an unknown section, not defaults for the others."""
        ini = tmp_path / "default.ini"
        ini.write_text(ini_text, encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["strip-table", "--config", str(ini), "--out", str(out)]) == 2
        assert "unknown config section [DEFAULT]" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_ini_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "broken.ini"
        ini.write_text("delta = no section header\n", encoding="utf-8")
        code = cli.main(
            ["strip-table", "--config", str(ini), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_multi_line_value_reads_back_from_manifest(self, tmp_path):
        """configparser joins an indented continuation line into the value;
        the manifest echoes it so that it reads back as the same value."""
        ini = tmp_path / "lines.ini"
        ini.write_text("[zones]\ntrials = 2\nk_values = 100\n    200\n", encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["zone-id", "--config", str(ini), "--out", str(out)]) == 0
        sections = read_sections(out / "manifest.txt")
        assert sections["config:zones"]["k_values"] == "100\n200"
        rows = (out / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["100", "200"]  # k_samples

    def test_runner_config_error_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "sigma.ini"
        ini.write_text("[zones]\nnoise_sigma2 = 0\n", encoding="utf-8")
        code = cli.main(
            ["zone-id", "--config", str(ini), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "noise_sigma2" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma2", ["nan", "inf"])
    def test_non_finite_noise_sigma2_exits_2(self, tmp_path, capsys, sigma2):
        ini = tmp_path / "sigma.ini"
        ini.write_text(f"[zones]\nnoise_sigma2 = {sigma2}\n", encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["zone-id", "--config", str(ini), "--out", str(out)]) == 2
        assert "noise_sigma2 must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_tone_amplitude_exits_3(self, tmp_path, capsys):
        """Finite amplitudes whose samples overflow fail as numbers, not as config."""
        ini = tmp_path / "nan.ini"
        ini.write_text("[tones]\namplitudes = 1e308 1e308 1e308 1e308\n", encoding="utf-8")
        out = tmp_path / "o"
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert cli.main(["spectrum", "--config", str(ini), "--out", str(out)]) == 3
        assert "signal must be finite" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize(
        "experiment,ini_text,message",
        [
            ("spectrum", "[tones]\namplitudes = -1 1 1 1\n",
             "[tones] amplitudes must be non-negative"),
            ("spectrum", "[tones]\nfrequencies_hz = -5e8 2.5e9 4.5e9 6.5e9\n",
             "[tones] frequencies_hz must be non-negative"),
        ],
        ids=["spectrum-amplitude", "spectrum-frequency"],
    )
    def test_negative_tone_parameter_exits_2(self, tmp_path, capsys, experiment, ini_text,
                                             message):
        ini = tmp_path / "negative.ini"
        ini.write_text(ini_text, encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main([experiment, "--config", str(ini), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert not out.exists()

    def test_tone_at_atomic_nyquist_exits_2(self, tmp_path, capsys):
        """Sampling makes no band check, so the runner rejects such a tone itself."""
        ini = tmp_path / "band.ini"
        ini.write_text("[tones]\nfrequencies_hz = 5e8 2.5e9 4.5e9 5e10\n", encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main(["spectrum", "--config", str(ini), "--out", str(out)]) == 2
        assert ("[tones] frequencies_hz: tone at 5e+10 Hz is at or above f_atomic/2 = 5e+10 Hz"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment,ini_text,message",
        [
            ("spectrum", "[tones]\namplitudes = 1 1 1\n",
             "[tones] frequencies_hz, amplitudes and phases_rad must be equally long, "
             "got 4, 3 and 4 values"),
            ("zone-id", "[clock]\nmodulation = sine\n",
             "[clock] modulation = sine with f_dev_hz = 1e7: zone-id needs a chirp"),
            ("zone-id", "[clock]\nf_dev_hz = 0\n",
             "[clock] modulation = chirp with f_dev_hz = 0: zone-id needs a chirp"),
        ],
        ids=["tone-lists-unequal", "zone-id-sine", "zone-id-unmodulated"],
    )
    def test_tone_and_clock_refusals_name_their_key(self, tmp_path, capsys, experiment,
                                                    ini_text, message):
        ini = tmp_path / "refused.ini"
        ini.write_text(ini_text, encoding="utf-8")
        out = tmp_path / "o"
        assert cli.main([experiment, "--config", str(ini), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_deviation_sweep_rejects_clock_f_dev(self, tmp_path, capsys):
        """The sweep sets f_dev per schedule, so a [clock] f_dev_hz is an unknown key."""
        ini = tmp_path / "f_dev.ini"
        ini.write_text("[clock]\nf_dev_hz = 5e7\n", encoding="utf-8")
        code = cli.main(
            ["deviation-sweep", "--config", str(ini), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "unknown key 'f_dev_hz'" in capsys.readouterr().err

    def test_deviation_sweep_unmodulated_clock_sweeps_only_zero(self, tmp_path):
        """An unmodulated clock runs a sweep of f_dev = 0 alone; any other value
        exits 2 (test_out_of_range_config_value_exits_2)."""
        sections = {name: dict(keys) for name, keys in TINY_OVERRIDES["deviation-sweep"].items()}
        sections["clock"] = {"modulation": "none"}
        sections["sweep"]["f_dev_hz"] = "0"
        ini = tmp_path / "none.ini"
        write_sections(ini, sections)
        out = tmp_path / "o"
        assert cli.main(["deviation-sweep", "--config", str(ini), "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.0"] * 3  # f_dev_hz

    @pytest.mark.parametrize("f_dev, code", [("5e7", 2), ("0", 0)])
    def test_unmodulated_clock_refuses_an_ini_f_dev(self, tmp_path, capsys, f_dev, code):
        """With modulation = none, an INI-set nonzero [clock] f_dev_hz would be echoed
        in the manifest but never used, so it exits 2 naming the key; 0 still runs."""
        sections = {name: dict(keys) for name, keys in TINY_OVERRIDES["recovery-sweep"].items()}
        sections["clock"] = {**sections["clock"], "modulation": "none", "f_dev_hz": f_dev}
        ini = tmp_path / "none.ini"
        write_sections(ini, sections)
        out = tmp_path / "o"
        assert cli.main(["recovery-sweep", "--config", str(ini), "--out", str(out)]) == code
        if code == 2:
            assert "config error: [clock] f_dev_hz = 5e7" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("sparsity", ["200", "200 200"])
    def test_deviation_sweep_needs_two_sparsities(self, tmp_path, capsys, sparsity):
        ini = tmp_path / "one.ini"
        ini.write_text(
            f"[grid]\nn_points = 16384\n[sweep]\nsparsity = {sparsity}\ntrials = 3\n",
            encoding="utf-8",
        )
        out = tmp_path / "o"
        code = cli.main(["deviation-sweep", "--config", str(ini), "--out", str(out)])
        assert code == 2
        assert "two or more distinct values" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("not a directory\n", encoding="utf-8")
        code = cli.main(["strip-table", "--out", str(blocker / "sub")])
        assert code == 2
        assert "nyfold: cannot write outputs:" in capsys.readouterr().err

    def test_zone_id_subprocess_exit_codes(self, tmp_path):
        src = str(Path(nyfold.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def run(ini_text, name):
            ini = tmp_path / f"{name}.ini"
            ini.write_text(ini_text, encoding="utf-8")
            out = tmp_path / name
            command = [sys.executable, "-m", "nyfold.cli", "zone-id",
                       "--config", str(ini), "--out", str(out)]
            proc = subprocess.run(command, env=env, capture_output=True, text=True,
                                  timeout=120)
            return proc, out

        proc, out = run("[zones]\nk_values = 100 200\ntrials = 2\n", "ok")
        assert proc.returncode == 0, proc.stderr
        header = (out / "results.csv").read_text(encoding="utf-8").split("\n")[0]
        assert header == (
            "k_samples,theorem_lower_bound,crb_probability,empirical_probability,"
            "successes,trials,standard_error"
        )
        proc, _ = run("[clock]\nmodulation = sine\n[zones]\ntrials = 2\n", "sine")
        assert proc.returncode == 2
        assert "chirp-modulated clock" in proc.stderr

    def test_out_of_memory_exits_2(self, tmp_path):
        """A grid too large for memory is a config error, not a traceback. The
        address-space limit is set on the child process only."""
        resource = pytest.importorskip("resource")
        src = str(Path(nyfold.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        limit = 2 * 1024**3

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        ini = tmp_path / "big.ini"
        ini.write_text("[grid]\nn_points = 1000000000000\n", encoding="utf-8")
        out = tmp_path / "o"
        command = [sys.executable, "-m", "nyfold.cli", "zone-id",
                   "--config", str(ini), "--out", str(out)]
        proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120,
                              preexec_fn=cap_address_space)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("nyfold: config error: out of memory: Unable to allocate")
        assert proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_benchmarked_runs_import_no_scipy(self, tmp_path):
        """Every experiment runs on numpy alone: scipy stays unimported."""
        src = str(Path(nyfold.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argvs = []
        for experiment in EXPERIMENTS:
            ini = tmp_path / f"{experiment}.ini"
            write_sections(ini, TINY_OVERRIDES[experiment])
            argvs.append([experiment, "--config", str(ini), "--seed", "11",
                          "--out", str(tmp_path / experiment)])
        code = (
            "import sys\n"
            "import nyfold.cli\n"
            f"for argv in {argvs!r}:\n"
            "    assert nyfold.cli.main(argv) == 0, argv\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        for experiment in EXPERIMENTS:
            assert (tmp_path / experiment / "results.csv").is_file()

    def test_unknown_experiment_rejected_by_parser(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fig8"])
        assert excinfo.value.code == 2


class TestSvgPlot:
    def test_line_plot_is_valid_xml(self, tmp_path):
        path = tmp_path / "plot.svg"
        xs = [float(i) for i in range(50)]
        svgplot.line_plot(
            path,
            [("a", xs, [math.sin(x / 5.0) for x in xs]), ("b", xs, xs)],
            title="demo",
            xlabel="x",
            ylabel="y",
        )
        root = ET.fromstring(path.read_text(encoding="utf-8"))
        assert root.tag.endswith("svg")
        text = path.read_text(encoding="utf-8")
        assert "demo" in text

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            svgplot.line_plot(tmp_path / "x.svg", [("a", [], [])], "t", "x", "y")

    def test_escapes_markup_in_labels(self, tmp_path):
        path = tmp_path / "esc.svg"
        svgplot.line_plot(
            path, [("s<1>", [0.0, 1.0], [0.0, 1.0])], "a & b", "<x>", "y"
        )
        ET.fromstring(path.read_text(encoding="utf-8"))

    def test_long_series_drawn_whole(self, tmp_path):
        """Every finite point is drawn, at the length of the full-scale spectrum."""
        path = tmp_path / "big.svg"
        xs = [float(i) for i in range(10_001)]
        ys = [math.nan if i % 1000 == 7 else x for i, x in enumerate(xs)]
        svgplot.line_plot(path, [("a", xs, ys)], "t", "x", "y")
        assert len(polyline_points(path)) == 10_001 - 10

    def test_spectrum_plot_draws_every_record(self, tmp_path):
        """The desk spectrum plot has one point per results.csv row, and its topmost
        point reads back as the CSV's largest magnitude."""
        out = tmp_path / "out"
        assert cli.main(["spectrum", "--scale", "desk", "--out", str(out), "--plots"]) == 0
        rows = (out / "results.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "frequency_hz,magnitude"
        magnitudes = [float(row.split(",")[1]) for row in rows[1:]]
        assert len(magnitudes) > 1500
        ys = [y for _, y in polyline_points(out / "plot_spectrum.svg")]
        assert len(ys) == len(magnitudes)
        assert ys.index(min(ys)) == magnitudes.index(max(magnitudes))
        # invert line_plot's y mapping: the value span is padded by 4% on each side
        lo, hi = min(magnitudes), max(magnitudes)
        y_lo, y_hi = lo - 0.04 * (hi - lo), hi + 0.04 * (hi - lo)
        plot_h = svgplot._HEIGHT - svgplot._MARGIN_T - svgplot._MARGIN_B
        top = y_hi - (min(ys) - svgplot._MARGIN_T) / plot_h * (y_hi - y_lo)
        assert top == pytest.approx(hi, abs=0.005 * (y_hi - y_lo) / plot_h)


def polyline_points(path) -> list[tuple[float, float]]:
    """The (x, y) pixel pairs of a one-series SVG plot's polyline."""
    root = ET.fromstring(Path(path).read_text(encoding="utf-8"))
    (line,) = root.iter("{http://www.w3.org/2000/svg}polyline")
    return [tuple(map(float, point.split(","))) for point in line.get("points").split()]
