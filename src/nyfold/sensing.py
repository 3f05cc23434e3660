"""Row-subsampled Fourier sensing operator and isometry diagnostics.

The measurement model is ``y = Phi x_hat`` where ``x_hat`` is the length-N
unitary-DFT spectrum of the signal and ``Phi`` keeps the K inverse-transform
rows indexed by the sample schedule. Column j of ``Phi`` is the unit-norm atom
``a_j[m] = exp(2 pi i k_m j / N) / sqrt(K)`` with ``k_m`` the m-th schedule
index. ``Phi* Phi`` is circulant: Gram entry ``<a_i, a_j>`` is ``p[(j - i) mod N]``,
read from the schedule's point-spread function ``p``, one FFT of the sample mask.

The adjoint takes one ``(K,)`` measurement row and gives its ``(N,)``
correlation, one ``numpy.fft.fft`` call. It has no batch path: numpy's FFT of
two or more rows holds more scratch memory than one row (8.2 MB against 3.6 MB
for ten rows at N = 10^5, 20 MB against 8 MB for two or three at N = 2^18), so
a caller with many rows, as OMP is, transforms them one at a time.

``adjoint(y, out=...)`` follows the numpy ``out`` convention: ``out`` is a
C-contiguous complex128 array of shape ``(N,)``. The call zeroes it, scatters
``y`` into it, transforms it there (``numpy.fft``'s own ``out=``), scales it in
place and returns it; the values are bitwise those of the allocating call. A
caller that runs many adjoints, as OMP does, reuses one buffer instead of
allocating and zero-filling a fresh row each time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .signal_clock import SampleSchedule, TimeGrid

# bins per chunk of a scan over the point-spread function or a correlation, so
# that its magnitudes stay in cache; 8192 and 16384 ran alike on the recovery
# benchmark
_PSF_CHUNK = 8192
# bins per chunk of the point-spread envelope, whose per-chunk maxima of |p|
# bound OMP's correlation updates chunk by chunk (see omp.py). 32, 64 and 128
# ran alike: OMP CPU within 10% and the same 36 adjoints on the recovery
# benchmark's inputs, and 26-32 adjoints for 8 rows at s = 60, 0 dB, on the
# desk grid (in-process; 2-core VM, one BLAS thread)
_ENVELOPE_BINS = 64


def _chunk_magnitudes(correlation: np.ndarray, support: Sequence[int]):
    """Yield ``(lo, |correlation[lo : lo + _PSF_CHUNK]|)`` chunk by chunk, with
    the support's bins at -1.0, all in one reused chunk-sized buffer."""
    n = len(correlation)
    magnitude = np.empty(min(_PSF_CHUNK, n))
    for lo in range(0, n, _PSF_CHUNK):
        mag = np.abs(correlation[lo : lo + _PSF_CHUNK], out=magnitude[: min(_PSF_CHUNK, n - lo)])
        for b in support:
            if lo <= b < lo + len(mag):
                mag[b - lo] = -1.0
        yield lo, mag


def _chunk_maxima(values: np.ndarray, skip: Sequence[int], out: np.ndarray) -> np.ndarray:
    """Write into ``out[c]`` the largest ``|values[n]|`` over chunk c, the
    ``_ENVELOPE_BINS`` bins from ``c * _ENVELOPE_BINS``, with the bins in
    ``skip`` left out (-1.0 for a chunk of skipped bins only), and return ``out``.

    The magnitudes come from ``_chunk_magnitudes``, so there is no length-N
    temporary; a chunk that two of its scan chunks share takes the larger part.
    """
    width = _ENVELOPE_BINS
    out.fill(-1.0)
    for lo, mag in _chunk_magnitudes(values, skip):
        starts = np.arange(-(lo % width), len(mag), width)  # chunk heads, relative to lo
        starts[0] = 0
        part = out[lo // width : lo // width + len(starts)]
        np.maximum(part, np.maximum.reduceat(mag, starts), out=part)
    return out


@dataclass(frozen=True)
class SparseSpectrum:
    """Sparse frequency-domain vector: ``len(bins)`` strictly increasing bins, complex weights."""

    bins: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        bins = np.asarray(self.bins, dtype=np.int64)
        coefficients = np.asarray(self.coefficients, dtype=complex)
        if bins.ndim != 1 or coefficients.ndim != 1 or len(bins) != len(coefficients):
            raise ValueError("bins and coefficients must be 1-d and equal length")
        if len(bins) == 0:
            raise ValueError("spectrum has no entries")
        if np.any(bins < 0):
            raise ValueError("bins must be non-negative")
        if np.any(np.diff(bins) <= 0):
            raise ValueError("bins must be strictly increasing")
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "coefficients", coefficients)

    def to_dense(self, n: int) -> np.ndarray:
        if self.bins[-1] >= n:
            raise ValueError("spectrum bins exceed the requested length")
        dense = np.zeros(n, dtype=complex)
        dense[self.bins] = self.coefficients
        return dense


class SensingOperator:
    """K x N partial inverse-DFT operator defined by a sample schedule."""

    def __init__(self, grid: TimeGrid, schedule: SampleSchedule) -> None:
        if schedule.indices.max() >= grid.n_points:
            raise ValueError("schedule indices fall outside the grid")
        if schedule.indices.min() < 0:
            raise ValueError("schedule indices must be non-negative")
        self.grid = grid
        self.schedule = schedule

    @property
    def n_bins(self) -> int:
        return self.grid.n_points

    @property
    def k_measurements(self) -> int:
        return self.schedule.size

    @functools.cached_property
    def point_spread(self) -> np.ndarray:
        """``p[d] = (1/K) sum_m exp(2 pi i k_m d / N)``, taken on first use.

        The half ``d <= N/2`` is the conjugated real FFT of the sample mask;
        the rest is its mirror, so ``p[N - d] == conj(p[d])`` holds bitwise.
        Both are written into ``p`` and scaled there, with no concatenated or
        divided copy.
        """
        n = self.n_bins
        mask = np.zeros(n)
        mask[self.schedule.indices] = 1.0
        half = np.fft.rfft(mask)
        p = np.empty(n, dtype=complex)
        np.conjugate(half, out=p[: len(half)])  # d = 0 .. N // 2
        p[len(half) :] = half[1 : (n + 1) // 2][::-1]  # d = N // 2 + 1 .. N - 1
        p /= self.k_measurements
        return p

    @functools.cached_property
    def _psf_envelope(self) -> np.ndarray:
        """``Q[c]``: the largest ``|p[d]|`` over the offsets ``d != 0`` of chunk c,
        the ``_ENVELOPE_BINS`` from ``c * _ENVELOPE_BINS``, at most 1.0, as
        ``|p[d]| <= 1`` exactly; taken on first use and kept. OMP bounds its
        correlation updates with it."""
        q = np.empty(-(-self.n_bins // _ENVELOPE_BINS))
        _chunk_maxima(self.point_spread, [0], q)
        return np.minimum(q, 1.0, out=q)

    def coherence(self) -> tuple[float, int]:
        """``(mu, d)``: the coherence ``mu = max over d != 0 of |p[d]|`` and its
        lowest offset, taken on first use.

        ``mu`` is the largest inner product of two distinct atoms, at most 1.0:
        ``|p[d]| <= 1`` exactly, and a comb's aliasing peaks that round above
        1.0 read 1.0. The lowest chunk of ``_psf_envelope`` that reaches ``mu``
        holds the lowest such offset, so no length-N temporary is taken.
        """
        return self._coherence

    @functools.cached_property
    def _coherence(self) -> tuple[float, int]:
        q = self._psf_envelope
        top = int(np.argmax(q))
        lo = top * _ENVELOPE_BINS
        mag = np.minimum(np.abs(self.point_spread[lo : lo + _ENVELOPE_BINS]), 1.0)
        if lo == 0:
            mag[0] = -1.0  # N >= 2, so chunk 0 holds an offset d != 0
        return float(q[top]), lo + int(np.argmax(mag))

    def atoms(self, bins: Sequence[int]) -> np.ndarray:
        """Materialize unit-norm columns for the given bins (K x len(bins))."""
        bins = np.asarray(bins, dtype=np.int64)
        if len(bins) and (bins.min() < 0 or bins.max() >= self.n_bins):
            raise ValueError("bin out of range")
        phase = np.outer(self.schedule.indices, bins) % self.n_bins
        return np.exp((2j * math.pi / self.n_bins) * phase) / math.sqrt(self.k_measurements)

    def forward(self, x: SparseSpectrum) -> np.ndarray:
        """Apply Phi to a SparseSpectrum; any other input raises TypeError."""
        if not isinstance(x, SparseSpectrum):
            raise TypeError("forward takes a SparseSpectrum")
        if not np.isfinite(x.coefficients).all():
            raise ValueError("spectrum coefficients must be finite")
        full = np.fft.ifft(x.to_dense(self.n_bins))  # to_dense refuses bins beyond N
        return full[self.schedule.indices] * (self.n_bins / math.sqrt(self.k_measurements))

    def adjoint(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply Phi*: correlate one (K,) measurement row against every atom, giving (N,).

        ``out``, if given, receives the result and is returned (see the module
        docstring); one that overlaps ``y`` raises ``ValueError``, since zeroing
        it would wipe ``y``.
        """
        y = np.asarray(y)
        if y.shape != (self.k_measurements,):
            raise ValueError("measurements must have shape (K,)")
        if not np.isfinite(y).all():
            raise ValueError("measurements must be finite")
        if out is None:
            out = np.zeros(self.n_bins, dtype=complex)
        elif not (
            isinstance(out, np.ndarray)
            and out.shape == (self.n_bins,)
            and out.dtype == np.complex128
            and out.flags.c_contiguous
        ):
            raise ValueError(f"out must be a C-contiguous complex128 array of shape ({self.n_bins},)")
        elif np.may_share_memory(out, y):
            raise ValueError("out must not overlap the measurements")
        else:
            out.fill(0.0)
        out[self.schedule.indices] = y  # schedule indices are strictly increasing
        np.fft.fft(out, out=out)
        # numpy divides complex by a real as a product with the reciprocal, so
        # this equals dividing by sqrt(K) up to the sign of zeros, ~6x faster
        out *= 1.0 / math.sqrt(self.k_measurements)
        return out

    def gram_matrix(self, support: Sequence[int]) -> np.ndarray:
        """Restricted Gram ``G[i, j] = p[(b_j - b_i) mod N]``; ``p[-d] == conj(p[d])`` bitwise."""
        support = np.asarray(support, dtype=np.int64)
        if len(support) == 0:
            raise ValueError("support is empty")
        if len(np.unique(support)) != len(support):
            raise ValueError("support bins must be distinct")
        if support.min() < 0 or support.max() >= self.n_bins:
            raise ValueError("bin out of range")
        return self.point_spread[(support[None, :] - support[:, None]) % self.n_bins]

    def gram_eigen_bounds(self, support: Sequence[int]) -> tuple[float, float, float]:
        """(lambda_min, lambda_max, deviation) of the restricted Gram.

        The deviation ``max(1 - lambda_min, lambda_max - 1)`` is the tightest
        symmetric isometry constant for this support, of any size: the eigenvalues
        cost O(s^3), about 0.3 s for s = 1000 at N = 2^18 on a 2-core machine.
        """
        w = np.linalg.eigvalsh(self.gram_matrix(support))
        lo, hi = float(w[0]), float(w[-1])
        return lo, hi, max(1.0 - lo, hi - 1.0)

    def spectral_norm_deviation(self, spectrum: SparseSpectrum) -> float:
        """Signal-specific isometry deviation | ||Phi*_S Phi x|| / ||x|| - 1 |.

        Phi*_S is the adjoint restricted to the support S of ``spectrum``. While
        S^2 <= N, gathering the S^2 Gram entries beats two length-N FFTs.
        """
        x_norm = float(np.linalg.norm(spectrum.coefficients))
        if not 0.0 < x_norm < math.inf:
            raise ValueError("spectrum norm must be finite and nonzero")
        if len(spectrum.bins) ** 2 <= self.n_bins:
            c = self.gram_matrix(spectrum.bins) @ spectrum.coefficients
        else:
            c = self.adjoint(self.forward(spectrum))[spectrum.bins]
        return abs(float(np.linalg.norm(c)) / x_norm - 1.0)


def empirical_rip(op: SensingOperator, sparsity: int, trials: int, seed: int) -> np.ndarray:
    """Sample spectral_norm_deviation over random supports and Gaussian weights.

    Returns the ``trials`` deviations in trial order. Trial t draws its own
    generator seeded ``seed + t``, so any subset of trials can be reproduced
    independently of execution order. Supports are uniform without
    replacement; weights are standard circular complex Gaussian.
    """
    if not (1 <= sparsity <= op.n_bins):
        raise ValueError("sparsity out of range")
    if trials < 1:
        raise ValueError("need at least one trial")
    deviations = np.empty(trials, dtype=float)
    for t in range(trials):
        rng = np.random.default_rng(seed + t)
        bins = rng.choice(op.n_bins, size=sparsity, replace=False)
        bins.sort()
        coeff = (
            rng.standard_normal(sparsity) + 1j * rng.standard_normal(sparsity)
        ) / math.sqrt(2.0)
        deviations[t] = op.spectral_norm_deviation(SparseSpectrum(bins, coeff))
    return deviations
