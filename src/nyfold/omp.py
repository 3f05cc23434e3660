"""Greedy sparse recovery from schedule measurements, plus a detection bound.

Orthogonal matching pursuit against the full Fourier dictionary: at every
iteration the residual is correlated with all N atoms, the strongest bin
joins the support, and the coefficients are re-fit by least squares on the
support's Hermitian Gram system: ``numpy.linalg.cholesky`` factors it as
``L L^H`` and two ``numpy.linalg.solve`` calls on ``L`` and ``L^H`` give the
coefficients. There is no regularization; a singular Gram raises rather than
being silently regularized.

``Phi* Phi`` is circulant, so the Gram system reads the operator's
point-spread function ``p``: entry ``(i, j)`` is ``p[(b_j - b_i) mod N]``, as
in ``SensingOperator.gram_matrix``, on a diagonal of 1.0. So do the
correlations (Batch-OMP's ``alpha = alpha0 - G_I gamma_I``; Rubinstein,
Zibulevsky and Elad, Technion CS-2008-08): a correlation ``alpha'`` taken at
coefficients ``c'`` becomes ``alpha[n] = alpha'[n] - sum_j (c_j - c'_j)
p[(b_j - n) mod N]`` at coefficients ``c``.

Each row keeps a reference correlation ``alpha'`` in its workspace row (first
``g = Phi* y``, later one adjoint of its explicit residual), the coefficients
it was taken at, and the short list of bins where ``|alpha'|`` reaches
``tau``, ``_LIST_FRACTION`` of its largest magnitude. An iteration evaluates
``alpha`` on the listed bins only. With the coherence ``mu = max over d != 0
of |p[d]|``, any other bin outside the support has ``|alpha| < tau + mu
sum_j |c_j - c'_j|`` (Tropp, "Greed is good", IEEE Trans. Inf. Theory 50(10),
2004, bounds one correlation's move the same way). So when the best listed
magnitude clears that bound by more than a rounding margin, it is the argmax
over all N bins. Otherwise the screen fails and the row refreshes: one
adjoint of its explicit residual into its own workspace row, whose argmax is
taken and whose list is rebuilt when next needed. Screened and refreshed
correlations differ in their last bits, and on every row tested they picked
the bins that a full adjoint per iteration picks. A one-step pursuit
(``max_iters = 1``) screens nothing, and builds no ``p`` and no ``mu``.

Pursuit runs in lockstep over a batch of measurement rows. The first
iteration hands the ``(B, K)`` measurements of all active rows to one adjoint
call, which transforms them one row at a time. Every row keeps its own
support, Gram, Cholesky factor and residual log, and its selected atoms as
contiguous length-K rows. A row leaves the active set once its residual norm
drops to ``_RESIDUAL_TOL`` times its measurement norm (all-zero rows never
enter it). Rows are processed in blocks of ``min(3, _BATCH_POINTS // N)``
rows, at least one. Each ``omp_recover_batch`` call allocates one ``(rows per
block, N)`` complex workspace, and every adjoint writes into it through
``adjoint(out=...)``. Each result is bitwise equal to pursuing its row alone;
``omp_recover`` is the batch-of-1 case. ``pursue_trials`` builds a Monte Carlo
batch in the sample domain and pursues it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .sensing import _PSF_CHUNK, SensingOperator
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
# a row lists the bins where its reference correlation reaches this fraction
# of its largest magnitude; later iterations evaluate only those. A higher
# fraction fails the screen sooner, a lower one lists more bins. In-process OMP
# on the recovery benchmark's inputs (2-core VM, one BLAS thread) took
# 0.62-0.69 s with 62 adjoint rows at 1/4, against 0.84-0.99 s (89 rows) at
# 1/2, 1.04-1.16 s (95) at 1/10 and 2.7-3.0 s (367) at 1/20, where most lists
# outgrow one chunk; the parent's PSF-sum-then-FFT pursuit took 1.9-2.0 s.
_LIST_FRACTION = 0.25
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
    row alone. A block takes one adjoint at its first iteration; later, a row
    takes one only when the coherence screen cannot show that a listed bin is
    the strongest (see the module docstring). ``op.point_spread``, which also
    gives every Gram entry, and ``op.coherence()`` are built before the first
    block when ``max_iters > 1``.

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

    # a one-step pursuit screens nothing, so it builds no point-spread function
    # and no coherence; otherwise both are built here, before the workspace
    psf = (op.point_spread, op.coherence()[0]) if max_iters > 1 else None
    block = min(3, max(1, _BATCH_POINTS // op.n_bins))
    # one adjoint workspace for every block; each writes into its leading rows
    work = np.empty((min(block, len(Y)), op.n_bins), dtype=complex)
    results: list[RecoveryResult] = []
    for start in range(0, len(Y), block):
        results.extend(_omp_block(op, Y[start : start + block], max_iters, psf, work))
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
    op: SensingOperator,
    Y: np.ndarray,
    max_iters: int,
    psf: Optional[tuple[np.ndarray, float]],
    work: np.ndarray,
) -> list[RecoveryResult]:
    """The OMP iteration for one block of rows, its adjoints written into ``work``.

    ``psf`` is ``(p, mu)``, the point-spread function and the coherence, or
    None for a one-step pursuit. At the first iteration the active rows take
    one adjoint call, row j of it in ``work[j]``; later, row r refreshes its
    reference correlation in that same workspace row whenever its screen fails.
    """
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
    # per row: its workspace row, the coefficients its reference correlation
    # was taken at, that correlation's largest magnitude outside the support,
    # and its listed bins with their reference values (None until listed)
    slot = {r: j for j, r in enumerate(active)}
    reference: dict[int, np.ndarray] = {}
    peak: dict[int, float] = {}
    listing: dict[int, Optional[tuple[np.ndarray, np.ndarray]]] = {}
    if active:
        op.adjoint(residuals[active], out=work[: len(active)])

    for i in range(max_iters):  # every active row holds i atoms
        if not active:
            break
        still_active = []
        for r in active:
            support = supports[r]
            bin_j = None
            if i:  # screen the listed bins; psf is set, as max_iters > 1
                if listing[r] is None:
                    listing[r] = _listed(work[slot[r]], support, _LIST_FRACTION * peak[r])
                bins, values = listing[r]
                top = _screen(psf, support, coefficients[r], reference[r],
                              _LIST_FRACTION * peak[r], bins, values)
                if top is None:  # refresh: one adjoint of the explicit residual
                    op.adjoint(residuals[r], out=work[slot[r]])
                else:  # the picked bin joins the support and leaves the list
                    bin_j = int(bins[top])
                    listing[r] = np.delete(bins, top), np.delete(values, top)
            if bin_j is None:
                bin_j, peak[r] = _strongest_bin(work[slot[r]], support)
                reference[r], listing[r] = coefficients[r], None

            if i:  # <a_i, a_j> = p[(b_j - b_i) mod N]; a one-step pursuit has no p
                gram[r, i, :i] = psf[0][(np.asarray(support) - bin_j) % op.n_bins]
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


def _strongest_bin(correlation: np.ndarray, support: Sequence[int]) -> tuple[int, float]:
    """The bin outside ``support`` of largest ``|correlation|``, and that magnitude.

    A later chunk wins only with a strictly larger magnitude, so ties resolve
    to the lowest bin, as in ``numpy.argmax``.
    """
    best, best_bin = -math.inf, 0
    for lo, mag in _chunk_magnitudes(correlation, support):
        top = int(np.argmax(mag))
        if mag[top] > best:
            best, best_bin = float(mag[top]), lo + top
    return best_bin, best


def _listed(
    correlation: np.ndarray, support: Sequence[int], tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """The ascending bins outside ``support`` where ``|correlation| >= tau``, and their values.

    Lists nothing when ``tau`` is not positive or more than ``_PSF_CHUNK`` bins
    qualify, as on a noise-only row, whose magnitudes are flat: a row with no
    list refreshes at its next screen. The scan stops once the list outgrows
    one chunk, so no temporary holds more than a chunk.
    """
    found, count = [], 0
    if tau > 0.0:
        for lo, mag in _chunk_magnitudes(correlation, support):
            hits = np.flatnonzero(mag >= tau)
            count += len(hits)
            if count > _PSF_CHUNK:
                found = []
                break
            found.append(hits + lo)
    bins = np.concatenate(found) if found else np.zeros(0, dtype=np.int64)
    return bins, correlation[bins]


def _screen(
    psf: tuple[np.ndarray, float],
    support: Sequence[int],
    coefficients: np.ndarray,
    reference: np.ndarray,
    tau: float,
    bins: np.ndarray,
    values: np.ndarray,
) -> Optional[int]:
    """The list position of the strongest bin outside ``support``, if a listed
    bin provably holds it, else None.

    ``bins`` are the ascending bins where the reference correlation ``alpha'``,
    taken at ``reference`` (the first ``len(reference)`` coefficients; 0 for
    the rest), reached ``tau``, and ``values`` is ``alpha'`` there. With ``dc =
    coefficients - reference``, the current correlation is ``alpha[n] =
    alpha'[n] - sum_j dc_j p[(b_j - n) mod N]``, since ``(Phi* a_b)[n] = p[(b - n) mod N]``. It
    is evaluated on the listed bins only, in groups of atoms whose gathers of
    p hold at most one chunk. Any other bin outside the support has ``|alpha|
    < tau + mu sum_j |dc_j|``, as ``|p[d]| <= mu`` for ``d != 0``. So the
    listed maximum is the maximum over all N bins when it exceeds that bound
    by more than the rounding of the i + 1 terms behind each listed value,
    ``4 (i + 2) eps`` of their magnitudes; ties resolve to the lowest bin.
    """
    p, mu = psf
    if not len(bins):
        return None
    delta = coefficients.copy()
    delta[: len(reference)] -= reference
    atoms = np.asarray(support)
    current = values.copy()
    group = max(1, _PSF_CHUNK // len(bins))
    for lo in range(0, len(atoms), group):
        # b_j - n lies in (-N, N), and p[d - N] == p[d]
        current -= delta[lo : lo + group] @ p[atoms[lo : lo + group, np.newaxis] - bins]
    magnitude = np.abs(current)
    top = int(np.argmax(magnitude))
    shift = float(np.abs(delta).sum())
    # tau / _LIST_FRACTION, the reference's peak, bounds every listed |alpha'|
    rounding = 4 * (len(atoms) + 2) * np.finfo(float).eps * (tau / _LIST_FRACTION + shift)
    return None if magnitude[top] <= tau + mu * shift + rounding else top


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
