"""Row-subsampled Fourier sensing operator and isometry diagnostics.

The measurement model is ``y = Phi x_hat`` where ``x_hat`` is the length-N
unitary-DFT spectrum of the signal and ``Phi`` keeps the K inverse-transform
rows indexed by the sample schedule. Column j of ``Phi`` is the unit-norm atom
``a_j[m] = exp(2 pi i k_m j / N) / sqrt(K)`` with ``k_m`` the m-th schedule
index. ``Phi* Phi`` is circulant: Gram entry ``<a_i, a_j>`` is ``p[(j - i) mod N]``,
read from the schedule's point-spread function ``p``, one FFT of the sample mask.

The adjoint batches along the last axis, as ``numpy.fft`` does: a ``(K,)``
measurement vector gives an ``(N,)`` correlation, and a ``(B, K)`` stack of B
measurement rows gives ``(B, N)``. Every row is transformed alone, one
``numpy.fft.fft`` call per row, because numpy's FFT of two or more rows holds
more scratch memory than one row (8.2 MB against 3.6 MB for ten rows at
N = 10^5, 20 MB against 8 MB for two or three at N = 2^18).

``adjoint(y, out=...)`` follows the numpy ``out`` convention: ``out`` is a
C-contiguous complex128 array of the result's shape. The call zeroes it,
scatters ``y`` into it, transforms it there (``numpy.fft``'s own ``out=``),
scales it in place and returns it; the values are bitwise those of the
allocating call. A caller that runs many adjoints of the same width, as OMP
does, reuses one buffer instead of allocating and zero-filling a fresh
``(B, N)`` array each time.
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

    def coherence(self) -> tuple[float, int]:
        """``(mu, d)``: the coherence ``mu = max over d != 0 of |p[d]|`` and its
        lowest offset, taken on first use.

        ``mu`` is the largest inner product of two distinct atoms. As
        ``|p[N - d]| == |p[d]|`` bitwise, only ``d = 1 .. N // 2`` is scanned,
        ``_PSF_CHUNK`` offsets at a time with no length-N temporary; a later
        chunk wins only with a strictly larger magnitude, so ties go to the
        lowest offset.
        """
        return self._coherence

    @functools.cached_property
    def _coherence(self) -> tuple[float, int]:
        half = self.point_spread[1 : self.n_bins // 2 + 1]  # d = 1 .. N // 2; N >= 2
        mu, offset = -1.0, 0
        for lo in range(0, len(half), _PSF_CHUNK):
            magnitude = np.abs(half[lo : lo + _PSF_CHUNK])
            top = int(np.argmax(magnitude))
            if magnitude[top] > mu:
                mu, offset = float(magnitude[top]), lo + top + 1
        return mu, offset

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
        """Apply Phi*: correlate measurements against every atom.

        ``y`` of shape (K,) gives (N,); (B, K) gives (B, N), one row per
        measurement row, by one FFT call per row. ``out``, if given, receives
        the result and is returned (see the module docstring); one that
        overlaps ``y`` raises ``ValueError``, since zeroing it would wipe ``y``.
        """
        y = np.asarray(y)
        if y.ndim not in (1, 2) or y.shape[-1] != self.k_measurements:
            raise ValueError("measurements must have shape (K,) or (B, K)")
        if not np.isfinite(y).all():
            raise ValueError("measurements must be finite")
        shape = y.shape[:-1] + (self.n_bins,)
        if out is None:
            out = np.zeros(shape, dtype=complex)
        elif not (
            isinstance(out, np.ndarray)
            and out.shape == shape
            and out.dtype == np.complex128
            and out.flags.c_contiguous
        ):
            raise ValueError(f"out must be a C-contiguous complex128 array of shape {shape}")
        elif np.may_share_memory(out, y):
            raise ValueError("out must not overlap the measurements")
        else:
            out.fill(0.0)
        out[..., self.schedule.indices] = y  # schedule indices are strictly increasing
        for row in out.reshape(-1, self.n_bins):  # a view: out is C-contiguous
            np.fft.fft(row, out=row)
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
