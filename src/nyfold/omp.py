"""Greedy sparse recovery from schedule measurements, plus a detection bound.

Orthogonal matching pursuit against the full Fourier dictionary: at every
iteration the residual is correlated with all N atoms through one FFT, the
strongest bin joins the support, and the coefficients are re-fit by least
squares on the support's Hermitian Gram system: ``numpy.linalg.cholesky``
factors it as ``L L^H`` and two ``numpy.linalg.solve`` calls on ``L`` and
``L^H`` give the coefficients. There is no regularization; a singular Gram
raises rather than being silently regularized.

Pursuit runs in lockstep over a batch of measurement rows: each iteration
hands the ``(B, K)`` residuals of all still-active rows to one adjoint call,
which transforms them in one row-wise FFT, or row by row when two or three
rows remain. Every row keeps its own support, Gram, Cholesky factor and
residual log, and its selected atoms as contiguous length-K rows, so the Gram
column and the residual are products with those rows and no conjugated copy.
A row leaves the active set once its residual norm drops to ``_RESIDUAL_TOL``
times its measurement norm (all-zero rows never enter it). Rows are processed
in blocks of at most ``_BATCH_POINTS / N`` rows to bound the FFT buffer.
Each block allocates its workspace once: a ``(rows entering, N)`` complex
array that every iteration's adjoint writes into through ``adjoint(out=...)``,
its leading rows once some have left, and one length-N magnitude buffer. Each
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

# cap on N * rows per lockstep block: 4 rows at N = 2^18, 1 at N = 10^6. At
# N = 2^18, numpy's FFT runs faster per row only from four rows on (below
# that the adjoint transforms row by row), and 2-4 rows at N = 10^6 ran
# slower per row than one, so larger blocks would mostly add memory.
_BATCH_POINTS = 2**20
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
    the selection order deterministic. Rows run in blocks of at most
    ``_BATCH_POINTS / N`` rows, and every result is bitwise equal to running
    its row alone.

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

    block = max(1, _BATCH_POINTS // op.n_bins)
    results: list[RecoveryResult] = []
    for start in range(0, len(Y), block):
        results.extend(_omp_block(op, Y[start : start + block], max_iters))
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


def _omp_block(op: SensingOperator, Y: np.ndarray, max_iters: int) -> list[RecoveryResult]:
    """The OMP iteration for one block of rows; one adjoint per iteration."""
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
    # one adjoint workspace for the block; rows that leave shrink the slice
    work = np.empty((len(active), op.n_bins), dtype=complex)
    magnitude = np.empty(op.n_bins)

    for _ in range(max_iters):
        if not active:
            break
        correlations = op.adjoint(residuals[active], out=work[: len(active)])
        still_active = []
        for r, correlation in zip(active, correlations):
            support = supports[r]
            np.abs(correlation, out=magnitude)
            magnitude[support] = -1.0
            bin_j = int(np.argmax(magnitude))  # argmax takes the lowest bin on ties

            atom = op.atoms([bin_j])[:, 0]
            i = len(support)
            cross = selected[r, :i] @ atom.conj()  # <atom, a_j> for each selected a_j
            gram[r, i, :i] = cross
            gram[r, i, i] = np.vdot(atom, atom).real
            selected[r, i] = atom
            rhs[r, i] = np.vdot(atom, Y[r])
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
