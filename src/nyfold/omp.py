"""Greedy sparse recovery from schedule measurements, plus a detection bound.

Orthogonal matching pursuit against the full Fourier dictionary: at every
iteration the residual is correlated with all N atoms, the strongest bin
joins the support, and the coefficients are re-fit by least squares on the
support's Hermitian Gram system: ``numpy.linalg.cholesky`` factors it as
``L L^H`` and two ``numpy.linalg.solve`` calls on ``L`` and ``L^H`` give the
coefficients. There is no regularization; a singular Gram raises rather than
being silently regularized.

``Phi* Phi`` is circulant, so the Gram system and the early correlations
both read the operator's point-spread function ``p`` (Batch-OMP's ``alpha =
alpha0 - G_I gamma_I``; Rubinstein, Zibulevsky and Elad, Technion
CS-2008-08). Gram entry ``(i, j)`` is ``p[(b_j - b_i) mod N]``, as in
``SensingOperator.gram_matrix``, on a diagonal of 1.0. With ``g = Phi* y``,
the residual's correlation is ``g[n] - sum_j c_j p[(b_j - n) mod N]`` while
the support holds fewer than ``_PSF_ATOMS`` atoms, and one adjoint FFT of the
explicit residual from then on; the two differ in their last bits, and on
every row tested they picked the same bins. One helper, ``_strongest_bin``,
picks every bin. A one-step pursuit (``max_iters = 1``) builds no ``p``.

Pursuit runs in lockstep over a batch of measurement rows: the first
iteration, and every iteration from ``_PSF_ATOMS`` atoms on, hands the
``(B, K)`` residuals of all still-active rows to one adjoint call, which
transforms them one row at a time. Every row keeps its own support, Gram,
Cholesky factor and residual log, and its selected atoms as contiguous
length-K rows. A row leaves the active set once its residual norm drops to
``_RESIDUAL_TOL`` times its measurement norm (all-zero rows never enter it).
Rows are processed in blocks of ``min(3, _BATCH_POINTS // N)`` rows, at
least one. Each ``omp_recover_batch`` call allocates one ``(rows per block,
N)`` complex workspace; every adjoint writes into its leading rows through
``adjoint(out=...)``, and a row keeps g there while it reads ``p``. Each
result is bitwise equal to pursuing its row alone; ``omp_recover`` is the
batch-of-1 case. ``pursue_trials`` builds a Monte Carlo batch in the sample
domain and pursues it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .sensing import SensingOperator
from .signal_clock import TimeGrid, ToneSpec, add_noise, sample_tones

# cap on N * rows per lockstep block, which also holds at most three rows: 3 at
# N = 10^5, 2 at 2^18, 1 at 10^6. Freeing a call's workspace raises glibc's
# mmap threshold to its size; while that exceeds one row's FFT scratch, later
# FFTs reuse heap pages instead of faulting in fresh ones. On zone-id
# (N = 10^5), 3-row blocks peaked at 48 MB with 33k minor faults, against
# 64 MB for 10 rows in one FFT call, 54 MB and 140k faults for 4, and 97k
# faults and 50% more time for 2. At 2^18 the third row's 4.2 MB pays for the
# point-spread function: the recovery benchmark (2-core VM, one BLAS thread)
# peaked at 61.6 MB in 2-row blocks with p, 67.1 MB in 3-row blocks with p and
# 63.3 MB in 3-row blocks without p. 3-row blocks with p ran 2.12-2.24 s, 2-row
# ones 2.31-2.33 s.
_BATCH_POINTS = 2**19
# a row reads its correlation from the point-spread function while its support
# holds fewer atoms than this, and from one adjoint FFT from then on. At
# N = 2^18 one FFT correlation took 8-9.5 ms and a point-spread one 1.3-1.6 ms
# at 1 atom, 5-7.5 ms at 12 and 7.6-11 ms at 16; on the recovery benchmark 12
# and 16 ran alike.
_PSF_ATOMS = 12
# bins per chunk of a correlation's sum, magnitude and argmax, so that they
# stay in cache; 8192 and 16384 ran alike on the recovery benchmark
_PSF_CHUNK = 8192
# a row stops once its residual norm drops to this fraction of its measurement norm
_RESIDUAL_TOL = 1e-12


class GramSingularError(RuntimeError):
    """Least-squares step hit a singular restricted Gram (colliding atoms)."""

    def __init__(self, support: Sequence[int]):
        super().__init__(
            f"restricted Gram is singular on support {list(support)}; "
            "atoms are linearly dependent under this schedule"
        )
        self.support = list(support)


@dataclass(frozen=True)
class RecoveryResult:
    """OMP output: support bins in selection order, LS coefficients, and the
    residual norm after each iteration.

    Each iteration adds one support bin and one residual norm, so the final
    residual norm is ``residual_norms[-1]``. An all-zero row, the only row that
    takes no iteration, has empty ``support`` and ``residual_norms``.
    """

    support: list[int]
    coefficients: np.ndarray
    residual_norms: list[float]

    @property
    def iterations(self) -> int:
        return len(self.support)


def omp_recover(op: SensingOperator, y: np.ndarray, max_iters: int) -> RecoveryResult:
    """Recover a sparse spectrum from one measurement vector y (length K).

    The batch-of-1 case of omp_recover_batch; see there for the stopping
    rule, tie-breaking and errors.
    """
    return omp_recover_batch(op, np.asarray(y)[np.newaxis], max_iters)[0]


def omp_recover_batch(op: SensingOperator, Y: np.ndarray, max_iters: int) -> list[RecoveryResult]:
    """Recover one sparse spectrum per row of Y (shape B x K), in lockstep.

    Each row stops after ``max_iters`` selections or once its residual norm
    drops to ``_RESIDUAL_TOL * ||y||``; an all-zero row returns an empty result.
    Ties in the correlation magnitude resolve to the lowest bin, which makes
    the selection order deterministic. Rows run in blocks of at most three
    (see ``_BATCH_POINTS``), and every result is bitwise equal to running its
    row alone. A block takes one adjoint at its first iteration and one per
    iteration from ``_PSF_ATOMS`` atoms on; in between, correlations are read
    from ``op.point_spread``, which is built before the first block when
    ``max_iters > 1`` and also gives every Gram entry.

    Raises
    ------
    ValueError
        If Y is not B x K, holds a non-finite value, or the budget is invalid.
    GramSingularError
        If the selected atoms of any row become linearly dependent.
    """
    Y = np.ascontiguousarray(Y, dtype=complex)
    if Y.ndim != 2 or Y.shape[1] != op.k_measurements:
        raise ValueError("measurements must have shape (B, K)")
    if not (1 <= max_iters <= op.k_measurements):
        raise ValueError("max_iters must lie in [1, K]")
    finite = np.isfinite(Y).all(axis=1)
    if not finite.all():
        raise ValueError(f"measurement row {int(np.argmin(finite))} is not finite")

    # a one-step pursuit reads no point-spread function, so it builds none;
    # otherwise p is built here, before the workspace is allocated
    p = op.point_spread if max_iters > 1 else None
    block = min(3, max(1, _BATCH_POINTS // op.n_bins))
    # one adjoint workspace for every block; each writes into its leading rows
    work = np.empty((min(block, len(Y)), op.n_bins), dtype=complex)
    results: list[RecoveryResult] = []
    for start in range(0, len(Y), block):
        results.extend(_omp_block(op, Y[start : start + block], max_iters, p, work))
    return results


def pursue_trials(
    op: SensingOperator,
    draws: Sequence[tuple[Sequence[ToneSpec], np.random.Generator]],
    snr_db: float,
    max_iters: int,
) -> list[RecoveryResult]:
    """Sample, noise and pursue one Monte Carlo trial per ``(tones, rng)`` draw.

    A trial's tones are evaluated only at the K schedule times ``indices *
    t_atom``, never on the N-point grid, and noised there at ``snr_db`` with
    the draw's next ``rng.integers(2**63)`` as seed. All trials then take one
    lockstep ``omp_recover_batch`` call.
    """
    times = op.schedule.indices * op.grid.t_atom
    measurements = np.empty((len(draws), op.k_measurements), dtype=complex)
    for row, (tones, rng) in zip(measurements, draws):
        row[:] = add_noise(sample_tones(tones, times), snr_db, seed=int(rng.integers(2**63)))
    return omp_recover_batch(op, measurements, max_iters)


def _omp_block(
    op: SensingOperator, Y: np.ndarray, max_iters: int, p: Optional[np.ndarray], work: np.ndarray
) -> list[RecoveryResult]:
    """The OMP iteration for one block of rows, its adjoints written into ``work``."""
    b, k = Y.shape
    y_norms = [float(np.linalg.norm(y)) for y in Y]
    selected = np.empty((b, max_iters, k), dtype=complex)  # one contiguous atom per row
    gram = np.empty((b, max_iters, max_iters), dtype=complex)  # cholesky reads only its lower half
    rhs = np.empty((b, max_iters), dtype=complex)
    supports: list[list[int]] = [[] for _ in range(b)]
    residual_norms: list[list[float]] = [[] for _ in range(b)]
    coefficients = [np.zeros(0, dtype=complex) for _ in range(b)]
    residuals = Y.copy()
    active = [r for r in range(b) if y_norms[r] != 0.0]

    for i in range(max_iters):  # every active row holds i atoms
        if not active:
            break
        if i == 0 or i >= _PSF_ATOMS:
            adjoints = op.adjoint(residuals[active], out=work[: len(active)])
            correlations = dict(zip(active, adjoints))
        still_active = []
        for r in active:
            support = supports[r]
            # before _PSF_ATOMS atoms correlations[r] is g, and the coefficients
            # turn it into the residual's correlation; an adjoint's is read as is
            terms = coefficients[r] if i < _PSF_ATOMS else ()
            bin_j = _strongest_bin(correlations[r], p, support, terms)

            if i:  # <a_i, a_j> = p[(b_j - b_i) mod N]; a one-step pursuit has no p
                gram[r, i, :i] = p[(np.asarray(support) - bin_j) % op.n_bins]
            gram[r, i, i] = 1.0  # unit-norm atoms: p[0] = K / K
            selected[r, i] = op.atoms([bin_j])[:, 0]
            rhs[r, i] = np.vdot(selected[r, i], Y[r])
            support.append(bin_j)

            try:
                factor = np.linalg.cholesky(gram[r, : i + 1, : i + 1])
            except np.linalg.LinAlgError as exc:
                raise GramSingularError(support) from exc
            half_solved = np.linalg.solve(factor, rhs[r, : i + 1])
            coefficients[r] = np.linalg.solve(factor.conj().T, half_solved)

            residuals[r] = Y[r] - coefficients[r] @ selected[r, : i + 1]
            residual_norm = float(np.linalg.norm(residuals[r]))
            residual_norms[r].append(residual_norm)
            if residual_norm > _RESIDUAL_TOL * y_norms[r]:
                still_active.append(r)
        active = still_active

    return [RecoveryResult(supports[r], coefficients[r], residual_norms[r]) for r in range(b)]


def _strongest_bin(
    correlation: np.ndarray,
    p: Optional[np.ndarray],
    support: Sequence[int],
    terms: Sequence[complex],
) -> int:
    """Strongest bin outside ``support`` of ``correlation[n] - sum_j c_j p[(b_j - n) mod N]``.

    ``c_j = terms[j]`` for the first ``len(terms)`` support bins; with no
    terms, ``correlation`` is read as is and ``p`` not at all. With
    ``correlation = Phi* y``, the sum is the correlation of the residual ``y -
    sum_j c_j a_{b_j}``, since ``(Phi* a_b)[n] = p[(b - n) mod N]``. As
    ``p[N - d] == conj(p[d])`` bitwise, the sum is formed conjugated, each term
    a forward run of ``p`` scaled by ``conj(c_j)`` (two slices where it wraps),
    so its magnitudes are bitwise those of the sum itself. Sum, magnitude,
    exclusion and argmax go one ``_PSF_CHUNK``-bin chunk at a time; a later
    chunk wins only with a strictly larger magnitude, so ties resolve to the
    lowest bin, as in ``numpy.argmax``.
    """
    n = len(correlation)
    total, term = np.empty((2, min(_PSF_CHUNK, n)), dtype=complex)
    magnitude = np.empty(len(total))
    best, best_bin = -math.inf, 0
    for lo in range(0, n, _PSF_CHUNK):
        values = correlation[lo : lo + _PSF_CHUNK]
        width = len(values)
        if len(terms):
            values = np.conjugate(values, out=total[:width])
            for b, c in zip(support, terms):
                start = (lo - b) % n  # p's index at bin lo, one higher at each next bin
                head = min(n - start, width)
                runs = [(values[:head], p[start : start + head])]
                if head < width:  # the run wraps from p[N - 1] to p[0]
                    runs.append((values[head:], p[: width - head]))
                for target, run in runs:
                    target -= np.multiply(run, c.conjugate(), out=term[: len(run)])
        mag = np.abs(values, out=magnitude[:width])
        for b in support:
            if lo <= b < lo + width:
                mag[b - lo] = -1.0
        top = int(np.argmax(mag))
        if mag[top] > best:
            best, best_bin = mag[top], lo + top
    return best_bin


def score_recovery(
    result: RecoveryResult,
    truth: Sequence[ToneSpec],
    grid: TimeGrid,
    tol_bins: int = 1,
) -> tuple[bool, list[Optional[int]]]:
    """Match recovered bins against true tones within a bin tolerance.

    Each tone's target is its nearest grid bin; matching is greedy by distance
    and injective (a recovered bin serves at most one tone). Returns a success
    flag (every tone matched) and the matched bin per tone, None where unmatched.
    """
    if tol_bins < 0:
        raise ValueError("tol_bins must be non-negative")
    targets = [int(round(t.frequency / grid.f_res)) for t in truth]
    pairs = sorted(
        (abs(b - target), ti, b)
        for ti, target in enumerate(targets)
        for b in result.support
        if abs(b - target) <= tol_bins
    )
    matched: list[Optional[int]] = [None] * len(targets)
    used_bins: set[int] = set()
    for _, ti, b in pairs:
        if matched[ti] is None and b not in used_bins:
            matched[ti] = b
            used_bins.add(b)
    return all(m is not None for m in matched), matched


def detection_probability_bound(k: int, n: int, delta2: float, sigma2: float) -> float:
    """Lower-bound the probability that a single tone's bin wins the correlation.

    p >= [1 - exp(-K (1 - delta_2)^2 / (4 sigma^2))]^N, evaluated in the log
    domain so that N in the millions cannot underflow the bracket.
    """
    if k < 1 or n < 1:
        raise ValueError("k and n must be positive")
    if not (0.0 <= delta2 < 1.0):
        raise ValueError("delta2 must lie in [0, 1)")
    if sigma2 <= 0.0:
        raise ValueError("sigma2 must be positive")
    exponent = k * (1.0 - delta2) ** 2 / (4.0 * sigma2)
    inner = -math.exp(-exponent)
    return 0.0 if inner <= -1.0 else math.exp(n * math.log1p(inner))
