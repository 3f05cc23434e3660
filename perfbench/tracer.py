"""In-memory spans around nyfold's public functions, and the layer metrics they give.

A ``Tracer`` wraps each target at every place the package looks it up: the
defining module, every ``nyfold`` module that bound it with ``from ... import``,
dict values such as ``experiments.RUNNERS``, and the class attribute for
methods. Each call records one span ``[name, parent, start, end, attrs]``;
``attrs`` holds exact counts taken from the call's arguments and result.
``numpy.fft.fft`` / ``ifft`` get counter-only wrappers that charge points,
computed flops and computed bytes to the innermost open span. ``restore()``
puts every original back.

This module imports nothing from nyfold at import time, so the aggregation
functions also run in a process that never loads the package.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

BYTES_PER_POINT = 2 * 16  # one complex128 read and one written per FFT point


def _fft_flop(n: int) -> int:
    return int(round(5 * n * math.log2(n))) if n > 1 else 0


# ---------------------------------------------------------------------------
# count hooks: (args, kwargs, result) -> exact counts for the span


def _schedule_counts(args, kwargs, result):
    return {"crossings": result.size}


def _synth_counts(args, kwargs, result):
    return {"synth_points": int(result.size)}


def _noise_counts(args, kwargs, result):
    return {"noise_draws": int(result.size) * (2 if result.dtype.kind == "c" else 1)}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _omp_counts(args, kwargs, result):
    return {"iterations": result.iterations, "samples_in": len(_arg(args, kwargs, 1, "y"))}


def _nz_counts(args, kwargs, result):
    return {"nz_trials": len(result) * int(_arg(args, kwargs, 5, "trials"))}


def _modconst_counts(args, kwargs, result):
    return {"harmonics": len(result.per_k)}


# span name -> (module, attribute path, count hook)
TARGETS = {
    "cli.main": ("nyfold.cli", "main", None),
    "experiments.run": ("nyfold.experiments", "RUNNERS", None),
    "experiments.write_outputs": ("nyfold.experiments", "write_outputs", None),
    "signal_clock.compute_sample_schedule": (
        "nyfold.signal_clock", "compute_sample_schedule", _schedule_counts),
    "signal_clock.synthesize_signal": ("nyfold.signal_clock", "synthesize_signal", _synth_counts),
    "signal_clock.add_noise": ("nyfold.signal_clock", "add_noise", _noise_counts),
    "sensing.operator_init": ("nyfold.sensing", "SensingOperator.__init__", None),
    "sensing.forward": ("nyfold.sensing", "SensingOperator.forward", None),
    "sensing.adjoint": ("nyfold.sensing", "SensingOperator.adjoint", None),
    "sensing.spectral_norm_deviation": (
        "nyfold.sensing", "SensingOperator.spectral_norm_deviation", None),
    "sensing.empirical_rip": ("nyfold.sensing", "empirical_rip", None),
    "omp.omp_recover": ("nyfold.omp", "omp_recover", _omp_counts),
    "crb.simulate_nz_trials": ("nyfold.crb", "simulate_nz_trials", _nz_counts),
    "rip.estimate_modulation_constant": (
        "nyfold.rip", "estimate_modulation_constant", _modconst_counts),
}

FFT_FUNCTIONS = ("fft", "ifft")


class Tracer:
    """Records spans from wrapped callables; ``install``/``restore`` patch nyfold."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (container, key, original)

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, count_hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else None, clock(), None, {}]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4]["error"] = type(exc).__name__
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if count_hook is not None:
                span[4].update(count_hook(args, kwargs, result))
            return result

        return traced

    def count_fft(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if stack:
                attrs = spans[stack[-1]][4]
                n = result.shape[-1]
                points = result.size
                attrs["fft_points"] = attrs.get("fft_points", 0) + points
                attrs["fft_flop"] = attrs.get("fft_flop", 0) + points // n * _fft_flop(n)
                attrs["fft_bytes"] = attrs.get("fft_bytes", 0) + points * BYTES_PER_POINT
            return result

        return counted

    # -- patching ----------------------------------------------------------

    def _patch(self, container, key, original, replacement) -> None:
        if isinstance(container, dict):
            container[key] = replacement
        else:
            setattr(container, key, replacement)
        self._patches.append((container, key, original))

    def install(self) -> None:
        """Wrap every target wherever a loaded nyfold module refers to it."""
        import numpy.fft

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nyfold" or n.startswith("nyfold."))]
        for name, (module_name, path, hook) in TARGETS.items():
            owner = sys.modules[module_name]
            if "." in path:  # a method: the class attribute is the one lookup
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self.wrap(name, original, hook))
                continue
            target = getattr(owner, path)
            if isinstance(target, dict):  # a dispatch table: wrap each entry
                for key, original in list(target.items()):
                    self._patch(target, key, original, self.wrap(name, original, hook))
                continue
            wrapper = self.wrap(name, target, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is target:
                        self._patch(module, attr, target, wrapper)
        for attr in FFT_FUNCTIONS:
            original = getattr(numpy.fft, attr)
            self._patch(numpy.fft, attr, original, self.count_fft(original))

    def restore(self) -> None:
        """Put back every original, last patch first."""
        while self._patches:
            container, key, original = self._patches.pop()
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)


# ---------------------------------------------------------------------------
# aggregation


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for name, parent, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [end - start - _covered(children[i], start, end)
            for i, (_, _, start, end, _) in enumerate(spans)]


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# self-time metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "sensing.adjoint_s": ("sensing.adjoint",),
    "sensing.forward_s": ("sensing.forward",),
    "sensing.deviation_self_s": ("sensing.spectral_norm_deviation",),
    "sensing.empirical_rip_s": ("sensing.empirical_rip",),
    "sensing.operator_build_s": ("sensing.operator_init",),
    "omp.self_s": ("omp.omp_recover",),
    "signal_clock.synthesize_s": ("signal_clock.synthesize_signal",),
    "signal_clock.noise_s": ("signal_clock.add_noise",),
    "signal_clock.schedule_s": ("signal_clock.compute_sample_schedule",),
    "crb.nz_self_s": ("crb.simulate_nz_trials",),
    "rip.modconst_s": ("rip.estimate_modulation_constant",),
    "experiments.write_s": ("experiments.write_outputs",),
    "experiments.self_s": ("cli.main", "experiments.run"),
}

# exact-count metric -> (span name prefix, attribute or None for the span count, unit)
COUNT_METRICS = {
    "sensing.adjoint_calls": ("sensing.adjoint", None, "count"),
    "sensing.forward_calls": ("sensing.forward", None, "count"),
    "sensing.operators_built": ("sensing.operator_init", None, "count"),
    "sensing.fft_points": ("sensing.", "fft_points", "points"),
    "sensing.fft_flop_computed": ("sensing.", "fft_flop", "flop"),
    "sensing.fft_bytes_computed": ("sensing.", "fft_bytes", "bytes"),
    "omp.calls": ("omp.omp_recover", None, "count"),
    "omp.iterations": ("omp.omp_recover", "iterations", "count"),
    "signal_clock.crossings": ("signal_clock.compute_sample_schedule", "crossings", "count"),
    "signal_clock.synth_points": ("signal_clock.synthesize_signal", "synth_points", "points"),
    "signal_clock.noise_draws": ("signal_clock.add_noise", "noise_draws", "count"),
    "crb.nz_trial_count": ("crb.simulate_nz_trials", "nz_trials", "count"),
    "rip.modconst_harmonics": ("rip.estimate_modulation_constant", "harmonics", "count"),
}


def layer_metrics(spans) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from one traced run, plus any span-tree inconsistency found.

    Every span name belongs to one self-time metric, with ``experiments.self_s``
    taking the CLI and runner code, so the self-time metrics must sum to the
    root spans' time (the traced runner time); a mismatch means the span tree
    is malformed.
    """
    problems = []
    selfs = self_times(spans)
    runner_s = sum(end - start for _, parent, start, end, _ in spans if parent is None)

    metrics: dict[str, tuple[float, str]] = {}
    by_name = defaultdict(float)
    for span, own in zip(spans, selfs):
        by_name[span[0]] += own
    named = 0.0
    for metric, names in SELF_TIME_METRICS.items():
        value = sum(by_name[n] for n in names)
        metrics[metric] = (value, "s")
        named += value
    unclaimed = set(by_name) - {n for names in SELF_TIME_METRICS.values() for n in names}
    if unclaimed:
        problems.append(f"spans with no self-time metric: {sorted(unclaimed)}")
    if abs(named - runner_s) > 1e-9 * max(runner_s, 1.0):
        problems.append(f"layer self times sum to {named!r}, runner time {runner_s!r}")
    metrics["trace.runner_s"] = (runner_s, "s")

    for metric, (prefix, attr, unit) in COUNT_METRICS.items():
        matching = [s for s in spans if s[0].startswith(prefix)]
        value = len(matching) if attr is None else sum(s[4].get(attr, 0) for s in matching)
        metrics[metric] = (value, unit)

    omp_spans = [s for s in spans if s[0] == "omp.omp_recover"]
    omp_ms = [(end - start) * 1e3 for _, _, start, end, _ in omp_spans]
    metrics["omp.recover_ms_p50"] = (percentile(omp_ms, 50.0), "ms")
    metrics["omp.recover_ms_p90"] = (percentile(omp_ms, 90.0), "ms")
    # GramSingularError ends the CLI with exit code 3, so this is 0 on every run
    # that passes its check; a non-zero value comes with a failed run
    metrics["omp.gram_singular"] = (
        sum(1 for s in omp_spans if s[4].get("error") == "GramSingularError"), "count")

    # samples that zone-id's recovery reads per grid point it synthesized
    nz_spans = {i for i, s in enumerate(spans) if s[0] == "crb.simulate_nz_trials"}
    samples_read = sum(s[4].get("samples_in", 0) for s in omp_spans if s[1] in nz_spans)
    synthesized = metrics["signal_clock.synth_points"][0]
    metrics["signal_clock.sample_use_ratio"] = (
        samples_read / synthesized if synthesized else 0.0, "ratio")
    return metrics, problems
