"""Seeded batch experiments with CSV/manifest outputs.

Every experiment resolves its configuration from built-in presets (a ``full``
scale matching the headline operating points and a reduced ``desk`` scale that
preserves the governing dimensionless ratios), overlays an optional INI file,
and produces a ResultManifest holding the result records, the resolved config
echo, and derived summary notes. Reruns with the same config and seed
reproduce the records byte-for-byte; trial seeds are derived from the master
seed, the experiment id, and the sweep/trial position, so execution order is
immaterial.

An experiment is data: one ``PRESETS`` entry, and one ``SPECS`` entry naming
its body function and plot. ``KINDS`` gives each preset key one kind and
domain, checked before any body runs. The body's record keys, in order, are
the CSV columns; ``_run`` times the body and builds the manifest alike for all.
"""

from __future__ import annotations

import configparser
import csv
import functools
import hashlib
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .crb import ChirpModel, nz_probability_from_crb, simulate_nz_trials
from .omp import detection_probability_bound, pursue_trials, score_recovery
from .rip import (
    SQRT2_MINUS_1,
    estimate_modulation_constant,
    guaranteed_sparsity_convex,
    max_recoverable_sparsity,
    pairwise_deviation_bound,
    strip_failure_probability,
)
from .sensing import SensingOperator, empirical_rip
from .signal_clock import (
    ClockConfig,
    LinearChirp,
    ScheduleError,
    Sinusoid,
    TimeGrid,
    ToneSpec,
    check_tone_band,
    compute_sample_schedule,
    fold_tone,
    sample_tones,
)
from .svgplot import line_plot

SCALES = ("full", "desk")


class ConfigError(Exception):
    """Invalid experiment configuration (unknown keys, malformed values)."""


@dataclass
class ResultManifest:
    """One experiment run: records for the CSV plus a provenance manifest."""

    experiment: str
    scale: str
    seed: int
    config: dict[str, dict[str, str]]
    records: list[dict]
    notes: dict[str, str] = field(default_factory=dict)
    wall_clock_s: float = 0.0
    extra_tables: dict[str, list[list[str]]] = field(default_factory=dict)

    def write_csv(self, path) -> None:
        fieldnames = list(self.records[0])  # the CSV columns, in the first record's order
        _write_rows(path, [fieldnames] + [
            [_cell(record[name]) for name in fieldnames] for record in self.records])

    def as_sections(self) -> dict[str, dict[str, str]]:
        sections = {
            "run": {
                "experiment": self.experiment,
                "scale": self.scale,
                "seed": str(self.seed),
                "version": __version__,
                "records": str(len(self.records)),
                "wall_clock_s": repr(self.wall_clock_s),
            }
        }
        for name, keys in self.config.items():
            sections[f"config:{name}"] = dict(keys)
        if self.notes:
            sections["notes"] = dict(self.notes)
        return sections

    def write_manifest(self, path) -> None:
        write_sections(path, self.as_sections())


def _cell(value) -> str:
    # every record value is an int or a float
    return str(int(value)) if isinstance(value, (int, np.integer)) else repr(float(value))


def _write_rows(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_sections(path, sections: dict[str, dict[str, str]]) -> None:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        for key, value in keys.items():
            # indented continuation lines read back as the same multi-line value
            lines.append(f"{key} = {value}".replace("\n", "\n    "))
        lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def read_sections(path) -> dict[str, dict[str, str]]:
    # no header names the default section "": resolve_config rejects a [DEFAULT] as unknown
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    return {name: dict(parser[name]) for name in parser.sections()}


def load_config_file(path) -> dict[str, dict[str, str]]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        return read_sections(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc


def fanout_seed(master: int, experiment: str, sweep_index: int, trial_index: int) -> int:
    """Stable per-trial seed: a truncated SHA-256 of the run coordinates."""
    message = f"{master}|{experiment}|{sweep_index}|{trial_index}".encode()
    return int.from_bytes(hashlib.sha256(message).digest()[:8], "big") >> 1


# ---------------------------------------------------------------------------
# presets: a value is one string for both scales, or a (full, desk) pair

_CHIRP_200MHZ = {"f_s1_hz": "2e8", "modulation": "chirp", "f_dev_hz": "1e7"}
_N_POINTS = ("1000000", "262144")  # 10^6 full, 2^18 desk

PRESETS: dict[str, dict[str, dict]] = {
    "strip-table": {
        "strip": {"n_bins": "1000000", "k_measurements": "20000", "delta": repr(SQRT2_MINUS_1),
                  "tolerances": "0.1 0.05 0.01 0.005"},
    },
    # desk scale keeps the same clock but a 10x shorter window
    "mod-constant": {
        "grid": {"t_atom_s": "1e-10", "n_points": ("1000000", "100000")},
        "clock": {**_CHIRP_200MHZ, "period_s": ("1e-4", "1e-5")},
        "estimate": {"k_max": "20", "sparsity_for_bound": "3"},
    },
    "spectrum": {
        "grid": {"t_atom_s": "1e-11", "n_points": _N_POINTS},
        "clock": {"f_s1_hz": "2e9", "modulation": "chirp", "f_dev_hz": "1e8",
                  "period_s": ("1e-5", "2.62144e-6")},
        "tones": {"frequencies_hz": "5e8 2.5e9 4.5e9 6.5e9", "amplitudes": "1 1 1 1",
                  "phases_rad": "0 0 0 0"},
        "spectrum": {"signal_mode": "real", "stft_window": "4096", "stft_hop": "2048"},
    },
    "recovery-sweep": {
        "grid": {"t_atom_s": "1e-10", "n_points": _N_POINTS},
        "clock": {**_CHIRP_200MHZ, "period_s": ("1e-4", "2.62144e-5")},
        "sweep": {"sparsity": "3:60:3", "snr_db": "20 10 0", "trials": "50", "tol_bins": "1",
                  "min_separation_bins": "2.5"},
    },
    "zone-id": {
        "grid": {"t_atom_s": "1e-10", "n_points": "100000"},
        "clock": {**_CHIRP_200MHZ, "period_s": "1e-5"},
        "zones": {"n_zones": "20", "trials": "50", "noise_sigma2": "25.0",
                  "k_values": "100 150 200 250 300 400 500 600 800 1000 1200 1400 1600 1800 2000",
                  "k_max": "20"},
    },
    # the clock's f_dev comes from [sweep] f_dev_hz, one schedule per value
    "deviation-sweep": {
        "grid": {"t_atom_s": "1e-11", "n_points": _N_POINTS},
        "clock": {"f_s1_hz": "2e9", "modulation": "sine", "period_s": ("5e-6", "1.31072e-6")},
        "sweep": {"f_dev_hz": "0 1e7 1e8", "sparsity": ("400:4000:400", "200:2000:200"),
                  "trials": "100"},
    },
}


def default_config(experiment: str, scale: str) -> dict[str, dict[str, str]]:
    if experiment not in PRESETS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    if scale not in SCALES:
        raise ConfigError(f"unknown scale {scale!r}")
    pick = SCALES.index(scale)
    config = {}
    for section, keys in PRESETS[experiment].items():
        config[section] = {
            key: value if isinstance(value, str) else value[pick]
            for key, value in keys.items()
        }
    return config


def resolve_config(
    experiment: str,
    scale: str,
    overrides: Optional[dict[str, dict[str, str]]] = None,
) -> dict[str, dict[str, str]]:
    """The preset under ``overrides``, as raw strings, each checked by its ``KINDS`` entry."""
    config = default_config(experiment, scale)
    for section, keys in (overrides or {}).items():
        if section not in config:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in keys.items():
            if key not in config[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            config[section][key] = value
    for section, keys in config.items():
        for key in keys:
            _value(config, section, key)
    # every preset clock carries an f_dev_hz, so only one the INI sets is refused
    if ("f_dev_hz" in (overrides or {}).get("clock", {})
            and _value(config, "clock", "modulation") == "none"
            and _value(config, "clock", "f_dev_hz") != 0.0):
        raise ConfigError(f"[clock] f_dev_hz = {config['clock']['f_dev_hz']} has no effect "
                          "with [clock] modulation = none")
    return config


# ---------------------------------------------------------------------------
# config schema: one kind and domain per [section] key, in every experiment

@dataclass(frozen=True)
class _Kind:
    """One INI key's kind and domain. ``convert`` parses a token; a value is one
    token or, with ``many``, a non-empty list, which ``span`` lets be written
    start:stop:step (stop inclusive). Numbers lie in [low, high] or in
    ``choices``, words in ``choices``; ``domain`` words this for error messages."""

    convert: Callable[[str], object]
    domain: str
    low: float = -math.inf
    high: float = math.inf
    many: bool = False
    span: bool = False
    choices: tuple = ()


def _integer(minimum: int, many: bool = False, span: bool = False) -> _Kind:
    form = ("start:stop:step or " if span else "") + ("integers" if many or span else "an integer")
    return _Kind(int, f"{form} of at least {minimum}", minimum, many=many or span, span=span)


_MAX, _TINY = math.nextafter(math.inf, 0.0), math.ulp(0.0)  # low=_TINY admits all v > 0
_COUNT = _integer(1)
_POSITIVE = _Kind(float, "positive and finite", _TINY, _MAX)
_NON_NEGATIVE = _Kind(float, "non-negative and finite", 0.0, _MAX)
_NON_NEGATIVES = replace(_NON_NEGATIVE, many=True)
_UNIT = _Kind(float, "in (0, 1)", _TINY, math.nextafter(1.0, 0.0))
_FINITES = _Kind(float, "finite", -_MAX, _MAX, many=True)

KINDS: dict[str, dict[str, _Kind]] = {
    "strip": {"n_bins": _integer(4), "k_measurements": _COUNT, "delta": _UNIT,
              "tolerances": replace(_UNIT, many=True)},
    "grid": {"t_atom_s": _POSITIVE, "n_points": _integer(2)},
    "clock": {"f_s1_hz": _POSITIVE, "f_dev_hz": _NON_NEGATIVE, "period_s": _POSITIVE,
              "modulation": _Kind(str.lower, "none, chirp or sine",
                                  choices=("none", "chirp", "sine"))},
    # delta_1 is 0 for unit-norm atoms, and s = 2 would name delta_s's note delta2_bound
    "estimate": {"k_max": _COUNT, "sparsity_for_bound": _integer(3)},
    "tones": {"frequencies_hz": _NON_NEGATIVES, "amplitudes": _NON_NEGATIVES,
              "phases_rad": _FINITES},
    "spectrum": {"stft_window": _integer(8), "stft_hop": _COUNT,
                 "signal_mode": _Kind(str.lower, "real or complex", choices=("real", "complex"))},
    "sweep": {"sparsity": _integer(1, span=True), "trials": _COUNT, "tol_bins": _integer(0),
              # |snr_db| <= 3000, like 1e-300 <= noise_sigma2 <= 1e300, keeps the noise
              # power, the signal's times 10**(-snr_db / 10), finite
              "snr_db": _Kind(float, "numbers in [-3000, 3000] or inf", -3000.0, 3000.0,
                              many=True, choices=(math.inf,)),
              "min_separation_bins": _NON_NEGATIVE, "f_dev_hz": _NON_NEGATIVES},
    "zones": {"n_zones": _COUNT, "trials": _COUNT,
              "noise_sigma2": _Kind(float, "positive and finite, in [1e-300, 1e300]",
                                    1e-300, 1e300),
              "k_values": _integer(1, many=True), "k_max": _COUNT},
}


def _value(config, section: str, key: str):
    """``config[section][key]`` typed by its ``KINDS`` entry, or a ConfigError naming both."""
    kind, raw = KINDS[section][key], config[section][key]
    try:
        if kind.span and ":" in raw:
            start, stop, step = map(int, raw.split(":"))
            values = list(range(start, stop + 1, step)) if step > 0 else []
        else:
            values = [kind.convert(tok) for tok in (raw.split() if kind.many else [raw])]
        admitted = values and all(
            v in kind.choices or not isinstance(v, str) and kind.low <= v <= kind.high
            for v in values)
    except ValueError:
        admitted = False
    if not admitted:
        empty = kind.many and not raw.split()
        problem = "is an empty list" if empty else f"must be {kind.domain}"
        raise ConfigError(f"[{section}] {key} {problem}, got {raw!r}")
    return values if kind.many else values[0]


# perfbench/setup_probe.py imports the reader under these two names
_floats = _ints = _value


def _build_grid(config) -> TimeGrid:
    return TimeGrid(t_atom=_value(config, "grid", "t_atom_s"),
                    n_points=_value(config, "grid", "n_points"))


def _build_clock(config, f_dev_override: Optional[float] = None) -> ClockConfig:
    kind = _value(config, "clock", "modulation")
    f_dev = f_dev_override
    if f_dev is None and kind != "none":
        f_dev = _value(config, "clock", "f_dev_hz")
    elif kind == "none" and f_dev:
        raise ConfigError(f"[clock] modulation = none cannot sweep [sweep] f_dev_hz = {f_dev:g}")
    modulation = None
    try:
        if kind != "none" and f_dev != 0.0:
            law = LinearChirp if kind == "chirp" else Sinusoid
            modulation = law(f_dev, _value(config, "clock", "period_s"))
        return ClockConfig(f_s1=_value(config, "clock", "f_s1_hz"), modulation=modulation)
    except ValueError as exc:  # f_dev at or above f_s1
        key = "[clock] f_dev_hz" if f_dev_override is None else "[sweep] f_dev_hz"
        raise ConfigError(f"{key} = {f_dev:g} gives an invalid clock: {exc}") from exc


def _modulation_constant(config, section: str, clock: ClockConfig, grid: TimeGrid):
    """The modulation constant C, then the delta_2 bound it gives."""
    k_max = _value(config, section, "k_max")
    try:
        constant = estimate_modulation_constant(clock, grid, k_max)
    except ValueError as exc:  # a swept band covers the grid; checked before any spectrum
        raise ConfigError(f"[{section}] k_max = {k_max}: {exc}") from exc
    try:
        delta2 = pairwise_deviation_bound(constant.c_value, grid.f_res, clock.f_dev)
    except ValueError as exc:  # delta_2 = C sqrt(f_res / f_dev) reaches 1/2
        raise ConfigError(f"[clock] f_dev_hz = {clock.f_dev:g} is too small for "
                          f"f_res = {grid.f_res:g} Hz: {exc}") from exc
    return constant, delta2


# ---------------------------------------------------------------------------
# experiment bodies: (config, seed) -> (records, notes[, extra tables])

def _strip_table(config, seed: int):
    n = _value(config, "strip", "n_bins")
    k = _value(config, "strip", "k_measurements")
    if k > n:  # K sample rows are drawn from the N grid rows
        raise ConfigError(f"[strip] k_measurements = {k} exceeds [strip] n_bins = {n}")
    delta = _value(config, "strip", "delta")
    tolerances = _value(config, "strip", "tolerances")
    records = []
    for tol in tolerances:
        s = max_recoverable_sparsity(n, k, delta, tol)
        bound = strip_failure_probability(n, k, 2 * s, delta) if s >= 1 else math.inf
        records.append(
            {
                "tolerance": tol,
                "max_sparsity": s,
                "bound_at_doubled_support": bound,
            }
        )
    return records, {"delta": repr(delta), "n_bins": str(n), "k_measurements": str(k)}


def _mod_constant(config, seed: int):
    grid = _build_grid(config)
    clock = _build_clock(config)
    if clock.modulation is None:
        raise ConfigError("[clock] modulation is none or f_dev_hz is 0: no modulation to measure")
    s_bound = _value(config, "estimate", "sparsity_for_bound")
    constant, delta2 = _modulation_constant(config, "estimate", clock, grid)
    records = [
        {"k": i + 1, "c_k": float(c)} for i, c in enumerate(constant.per_k)
    ]
    notes = {
        "c_value": repr(constant.c_value),
        "f_res_hz": repr(grid.f_res),
        "f_dev_hz": repr(clock.f_dev),
        "delta2_bound": repr(delta2),
        f"delta{s_bound}_bound": repr(s_bound * delta2),  # delta_s <= s delta_2
        "guaranteed_sparsity_convex": str(guaranteed_sparsity_convex(delta2)),
        "band_definition": "contiguous bins swept by the instantaneous frequency "
                           "k*theta'/(2*pi), width k*f_dev",
    }
    return records, notes


def _spectrum(config, seed: int):
    grid = _build_grid(config)
    clock = _build_clock(config)
    freqs = _value(config, "tones", "frequencies_hz")
    amps = _value(config, "tones", "amplitudes")
    phases = _value(config, "tones", "phases_rad")
    if not (len(freqs) == len(amps) == len(phases)):
        raise ConfigError("[tones] frequencies_hz, amplitudes and phases_rad must be equally "
                          f"long, got {len(freqs)}, {len(amps)} and {len(phases)} values")
    mode = _value(config, "spectrum", "signal_mode")
    tones = [ToneSpec(f, a, p) for f, a, p in zip(freqs, amps, phases)]  # KINDS admits them
    try:
        check_tone_band(tones, grid)
    except ValueError as exc:
        raise ConfigError(f"[tones] frequencies_hz: {exc}") from exc

    # the folded spectrum is the operator's adjoint of the K samples, rescaled
    # to the unitary N-point DFT of the zero-filled sample train
    schedule = compute_sample_schedule(clock, grid)
    samples = sample_tones(tones, schedule.indices * grid.t_atom)
    if mode == "real":
        samples = samples.real
    if not np.isfinite(samples).all():
        raise ValueError("signal must be finite")
    n_keep = min(int(math.floor((clock.f_s1 / 2.0) / grid.f_res)) + 1, grid.n_points)
    correlation = SensingOperator(grid, schedule).adjoint(samples)[:n_keep]
    magnitudes = np.abs(correlation) * math.sqrt(schedule.size / grid.n_points)
    records = [
        {"frequency_hz": float(f), "magnitude": float(m)}
        for f, m in zip(np.arange(n_keep) * grid.f_res, magnitudes)
    ]
    notes = {
        "k_samples": str(schedule.size),
        "signal_mode": mode,
    }
    for i, tone in enumerate(tones):
        fold = fold_tone(tone.frequency, clock)
        notes[f"tone{i}"] = (
            f"f_c={tone.frequency:g} f_if={fold.f_if:g} m={fold.m_index} "
            f"zone={fold.nyquist_zone} width={abs(fold.m_index) * clock.f_dev:g}"
        )
    spectrogram = _spectrogram_table(samples, schedule, grid, clock, config)
    return records, notes, {"spectrogram.csv": spectrogram}


def _spectrogram_table(samples, schedule, grid, clock, config) -> list[list[str]]:
    """Magnitude STFT of the zero-filled real sample train, one row per frequency
    up to ``f_s1 / 2`` and one column per frame time.

    Frames use a periodic Hann window centred on ``p * hop`` for every p whose
    window overlaps the grid, zero-padded past its ends; this is the framing,
    phase and scaling of ``scipy.signal.ShortTimeFFT`` with its defaults.
    """
    window = _value(config, "spectrum", "stft_window")
    hop = _value(config, "spectrum", "stft_hop")
    n, half = grid.n_points, window // 2
    if window > 2 * n:
        raise ConfigError(f"[spectrum] stft_window = {window} exceeds twice the {n} grid points")
    first = -((window - half - 1) // hop)  # frame p starts at p * hop - half
    count = (n - 2 + half) // hop + 1 - first
    lead = half - first * hop  # zeros before grid point 0
    padded = np.zeros(max(lead + n, (count - 1) * hop + window))
    padded[lead + schedule.indices] = np.real(samples)
    frames = padded[np.arange(count)[:, None] * hop + np.arange(window)]
    frames *= 0.5 + 0.5 * np.cos(np.linspace(-math.pi, math.pi, window + 1)[:-1])
    spectrogram = np.abs(np.fft.rfft(np.roll(frames, -half, axis=-1), axis=-1)).T
    freqs = np.fft.rfftfreq(window, 1.0 / grid.f_atomic)
    frame_times = np.arange(first, first + count) * (hop * (1.0 / grid.f_atomic))
    rows = [["freq_hz"] + [repr(float(t)) for t in frame_times]]
    for fi in np.nonzero(freqs <= clock.f_s1 / 2.0)[0]:
        rows.append([repr(float(freqs[fi]))] + [repr(float(v)) for v in spectrogram[fi]])
    return rows


def _draw_tones(rng, sparsity, f_res, band, min_sep_bins) -> list[ToneSpec]:
    lo, hi = band
    min_sep = min_sep_bins * f_res
    freqs: list[float] = []
    attempts = 0
    while len(freqs) < sparsity:
        f = rng.uniform(lo, hi)
        if all(abs(f - g) >= min_sep for g in freqs):
            freqs.append(f)
        attempts += 1
        if attempts > 1000 * sparsity:
            raise ConfigError(
                f"[sweep] min_separation_bins = {min_sep_bins!r} leaves no room "
                f"for {sparsity} tones in the band"
            )
    return [ToneSpec(f, 1.0, rng.uniform(0.0, 2.0 * math.pi)) for f in freqs]


def _recovery_sweep(config, seed: int):
    grid = _build_grid(config)
    clock = _build_clock(config)
    sparsities = _value(config, "sweep", "sparsity")
    snrs = _value(config, "sweep", "snr_db")
    trials = _value(config, "sweep", "trials")
    tol_bins = _value(config, "sweep", "tol_bins")
    min_sep = _value(config, "sweep", "min_separation_bins")

    schedule = compute_sample_schedule(clock, grid)
    if max(sparsities) > schedule.size:
        raise ConfigError(f"[sweep] sparsity = {max(sparsities)} exceeds the "
                          f"schedule's {schedule.size} samples")
    op = SensingOperator(grid, schedule)
    band = (2.0 * grid.f_res, grid.f_atomic / 2.0 - 2.0 * grid.f_res)

    records = []
    for si, s in enumerate(sparsities):
        for ni, snr_db in enumerate(snrs):
            point = si * len(snrs) + ni
            draws = []
            for trial in range(trials):
                rng = np.random.default_rng(fanout_seed(seed, "recovery-sweep", point, trial))
                draws.append((_draw_tones(rng, s, grid.f_res, band, min_sep), rng))
            results = pursue_trials(op, draws, snr_db, max_iters=s)
            failures = sum(
                not score_recovery(result, tones, grid, tol_bins=tol_bins)[0]
                for result, (tones, _) in zip(results, draws)
            )
            fraction = failures / trials
            records.append(
                {
                    "sparsity": s,
                    "snr_db": snr_db,
                    "trials": trials,
                    "failures": failures,
                    "failure_fraction": fraction,
                    "standard_error": math.sqrt(fraction * (1.0 - fraction) / trials),
                }
            )
    notes = {
        "k_samples": str(schedule.size),
        "snr_reference": "mean power of the sampled multitone signal",
    }
    return records, notes


def _zone_id(config, seed: int):
    grid = _build_grid(config)
    clock = _build_clock(config)
    if not isinstance(clock.modulation, LinearChirp):
        raise ConfigError(f"[clock] modulation = {config['clock']['modulation']} with f_dev_hz = "
                          f"{config['clock']['f_dev_hz']}: zone-id needs a chirp-modulated clock")
    n_zones = _value(config, "zones", "n_zones")
    trials = _value(config, "zones", "trials")
    sigma2 = _value(config, "zones", "noise_sigma2")
    k_values = _value(config, "zones", "k_values")
    if n_zones * clock.f_s1 / 2.0 > grid.f_atomic / 2.0:
        raise ConfigError(f"[zones] n_zones = {n_zones} spans {n_zones * clock.f_s1 / 2.0:g} Hz, "
                          f"past f_atomic/2 = {grid.f_atomic / 2.0:g} Hz")
    schedule = compute_sample_schedule(clock, grid)
    if max(k_values) > schedule.size:
        raise ConfigError(f"[zones] k_values = {max(k_values)} exceeds K = {schedule.size}")

    constant, delta2 = _modulation_constant(config, "zones", clock, grid)
    slope_spacing = clock.f_dev / clock.modulation.period
    step = 1.0 / clock.f_s1
    snr_db = -10.0 * math.log10(sigma2)

    hits = simulate_nz_trials(grid, clock, snr_db, n_zones, k_values, trials,
                              seed=fanout_seed(seed, "zone-id", 0, 0), schedule=schedule)
    records = []
    for k, successes in zip(k_values, hits.tolist()):
        model = ChirpModel(amplitude=1.0, step=step, count=int(k), noise_variance=sigma2)
        crb_p = nz_probability_from_crb(model, slope_spacing)
        bound = detection_probability_bound(int(k), grid.n_points, delta2, sigma2)
        fraction = successes / trials
        records.append(
            {
                "k_samples": int(k),
                "theorem_lower_bound": bound,
                "crb_probability": crb_p,
                "empirical_probability": fraction,
                "successes": successes,
                "trials": trials,
                "standard_error": math.sqrt(fraction * (1.0 - fraction) / trials),
            }
        )
    mid = min(records, key=lambda r: abs(r["crb_probability"] - 0.9))
    notes = {
        "c_value": repr(constant.c_value),
        "delta2_bound": repr(delta2),
        "noise_sigma2": repr(sigma2),
        "per_sample_snr_db": repr(snr_db),
        "slope_spacing_hz_per_s": repr(slope_spacing),
        "midpoint_k": str(mid["k_samples"]),
        "midpoint_gap_crb_minus_bound": repr(
            mid["crb_probability"] - mid["theorem_lower_bound"]
        ),
    }
    return records, notes


def _deviation_sweep(config, seed: int):
    grid = _build_grid(config)
    f_devs = _value(config, "sweep", "f_dev_hz")
    sparsities = _value(config, "sweep", "sparsity")
    trials = _value(config, "sweep", "trials")
    if len(set(sparsities)) < 2:
        raise ConfigError("[sweep] sparsity needs two or more distinct values "
                          "to fit the deviation slope")
    if max(sparsities) > grid.n_points:
        raise ConfigError(f"[sweep] sparsity = {max(sparsities)} exceeds the "
                          f"grid's {grid.n_points} points")

    labels = [f"f_dev_{f_dev:g}" for f_dev in f_devs]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"[sweep] f_dev_hz values share a note label: {', '.join(labels)}")
    clocks = [_build_clock(config, f_dev_override=f_dev) for f_dev in f_devs]
    records = []
    notes: dict[str, str] = {}
    for fi, (f_dev, label, clock) in enumerate(zip(f_devs, labels, clocks)):
        schedule = compute_sample_schedule(clock, grid)
        op = SensingOperator(grid, schedule)
        maxima = []
        for si, s in enumerate(sparsities):
            base = fanout_seed(seed, "deviation-sweep", fi * len(sparsities) + si, 0)
            deviations = empirical_rip(op, s, trials, seed=base)
            maxima.append(float(deviations.max()))
            records.append(
                {
                    "f_dev_hz": f_dev,
                    "sparsity": s,
                    "trials": trials,
                    "max_deviation": maxima[-1],
                    "p95_deviation": float(np.percentile(deviations, 95.0)),
                    "mean_deviation": float(np.mean(deviations)),
                }
            )
        slope, intercept, r2 = _linear_fit(np.asarray(sparsities, float), np.asarray(maxima))
        notes[f"{label}_slope_per_tone"] = repr(slope)
        notes[f"{label}_intercept"] = repr(intercept)
        notes[f"{label}_r_squared"] = repr(r2)
        notes[f"{label}_k_samples"] = str(schedule.size)
    return records, notes


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    predicted = slope * x + intercept
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


# ---------------------------------------------------------------------------
# experiment specs


@dataclass(frozen=True)
class Plot:
    """One SVG line plot of the result records against column ``x``.

    ``series`` holds ``(label, y column)`` pairs. With ``group`` set, the
    records split into one line per distinct value of that column, in order of
    first appearance (the sweep order) and labelled ``label.format(value)``.
    """

    title: str
    x: str
    xlabel: str
    ylabel: str
    series: tuple[tuple[str, str], ...]
    group: Optional[str] = None


@dataclass(frozen=True)
class Experiment:
    """One experiment: ``body(config, seed)`` returns ``(records, notes)`` or
    ``(records, notes, extra_tables)``, with at least one record; the first
    record's keys, in order, are the CSV columns."""

    body: Callable
    plot: Plot


SPECS: dict[str, Experiment] = {
    "strip-table": Experiment(
        _strip_table,
        Plot("Recoverable sparsity vs failure tolerance", "tolerance",
             "failure tolerance", "max sparsity", (("max sparsity", "max_sparsity"),)),
    ),
    "mod-constant": Experiment(
        _mod_constant,
        Plot("Modulation constant per harmonic scaling", "k", "k", "C_k",
             (("C_k", "c_k"),)),
    ),
    "spectrum": Experiment(
        _spectrum,
        Plot("Folded magnitude spectrum", "frequency_hz", "frequency (Hz)", "magnitude",
             (("magnitude", "magnitude"),)),
    ),
    "recovery-sweep": Experiment(
        _recovery_sweep,
        Plot("Recovery failure vs sparsity", "sparsity", "tones", "failure fraction",
             (("{:g} dB", "failure_fraction"),), group="snr_db"),
    ),
    "zone-id": Experiment(
        _zone_id,
        Plot("Zone identification probability vs sample count", "k_samples", "samples",
             "probability",
             (("CRB ceiling", "crb_probability"),
              ("empirical", "empirical_probability"),
              ("detection bound", "theorem_lower_bound"))),
    ),
    "deviation-sweep": Experiment(
        _deviation_sweep,
        Plot("Max isometry deviation vs sparsity", "sparsity", "tones", "max deviation",
             (("f_dev {:g}", "max_deviation"),), group="f_dev_hz"),
    ),
}
EXPERIMENTS = tuple(SPECS)


def _run(experiment: str, config, seed: int, scale: str) -> ResultManifest:
    """Run one experiment's body on the wall clock and wrap it in a manifest."""
    spec = SPECS[experiment]
    t0 = time.perf_counter()
    try:
        records, notes, *extra = spec.body(config, seed)
    except ScheduleError as exc:
        key = "t_atom_s" if exc.grid_field == "t_atom" else "n_points"
        raise ConfigError(f"[grid] {key} = {config['grid'][key]}: {exc}") from exc
    return ResultManifest(
        experiment=experiment,
        scale=scale,
        seed=seed,
        config=config,
        records=records,
        notes=notes,
        extra_tables=extra[0] if extra else {},
        wall_clock_s=time.perf_counter() - t0,
    )


RUNNERS: dict[str, Callable] = {name: functools.partial(_run, name) for name in SPECS}


def write_plots(manifest: ResultManifest, out_dir: Path) -> list[Path]:
    """Render the experiment's SVG line plot from the result records."""
    plot = SPECS[manifest.experiment].plot
    records = manifest.records
    if plot.group is None:
        groups = [(None, records)]
    else:
        values = dict.fromkeys(r[plot.group] for r in records)
        groups = [(v, [r for r in records if r[plot.group] == v]) for v in values]
    series = [
        (label.format(value), [float(r[plot.x]) for r in rows], [float(r[y]) for r in rows])
        for value, rows in groups
        for label, y in plot.series
    ]
    path = out_dir / f"plot_{manifest.experiment.replace('-', '_')}.svg"
    line_plot(path, series, plot.title, plot.xlabel, plot.ylabel)
    return [path]


def write_outputs(manifest: ResultManifest, out_dir, plots: bool = False) -> list[Path]:
    """Write results.csv, manifest.txt, any extra tables, and optional plots."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest.write_csv(out_dir / "results.csv")
    manifest.write_manifest(out_dir / "manifest.txt")
    for name, rows in manifest.extra_tables.items():
        _write_rows(out_dir / name, rows)
    written = [out_dir / name for name in ("results.csv", "manifest.txt", *manifest.extra_tables)]
    if plots:
        written.extend(write_plots(manifest, out_dir))
    return written
