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

Each row keeps a reference correlation ``alpha'`` in the workspace (first
``g = Phi* y``, later one adjoint of its explicit residual), the coefficients
it was taken at, and the short list of bins where ``|alpha'|`` reaches
``tau``, ``_LIST_FRACTION`` of its largest magnitude. An iteration evaluates
``alpha`` on the listed bins only. With the coherence ``mu = max over d != 0
of |p[d]|``, any other bin outside the support has ``|alpha| < tau + mu
sum_j |c_j - c'_j|`` (Tropp, "Greed is good", IEEE Trans. Inf. Theory 50(10),
2004, bounds one correlation's move the same way). So when the best listed
magnitude clears that bound by more than a rounding margin, it is the argmax
over all N bins. Otherwise the screen fails and the row refreshes: one
adjoint of its explicit residual into the workspace, whose argmax is taken
and whose list is rebuilt when next needed. Screened and refreshed
correlations differ in their last bits, and on every row tested they picked
the bins that a full adjoint per iteration picks. A one-step pursuit
(``max_iters = 1``) screens nothing, and builds no ``p`` and no ``mu``.

``omp_recover_batch`` pursues its rows one at a time, each from its own
measurement row alone, so every result is the one ``omp_recover`` gives for
that row. A row keeps its support, Gram, Cholesky factor, residual log and
reference correlation in locals, and its selected atoms as contiguous
length-K rows. It stops once its residual norm drops to ``_RESIDUAL_TOL``
times its measurement norm; an all-zero row takes no iteration. Each call
allocates one complex workspace, and every adjoint of every row writes into
the workspace's first length-N row through ``adjoint(out=...)``; its size is
set for glibc's allocator (see ``_BATCH_POINTS``). ``pursue_trials`` builds
a Monte Carlo batch in the sample domain and pursues it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import sensing
from .sensing import SensingOperator, _chunk_magnitudes, _strongest_bin
from .signal_clock import TimeGrid, ToneSpec, add_noise, sample_tones

# sizes each call's workspace at min(3, 2^19 // N) rows of N points, at least
# one and at most one per measurement row. Only its first row is ever written,
# so the rest are never resident; but freeing a workspace raises glibc's mmap
# threshold to its whole size, and while that exceeds one FFT's scratch, later
# FFTs reuse heap pages instead of faulting in fresh ones. Per CLI process of
# the recovery benchmark (N = 2^18, two rows; 2-core VM, one BLAS thread), a
# one-row workspace took 136k minor faults against 42-46k, and 0.18 s longer;
# on zone-id (N = 10^5, three rows) 199k against 31k, and 0.36 s longer.
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
    """Recover one sparse spectrum per row of Y (shape B x K), one row at a time.

    Each row stops after ``max_iters`` selections or once its residual norm
    drops to ``_RESIDUAL_TOL * ||y||``; an all-zero row returns an empty result.
    Ties in the correlation magnitude resolve to the lowest bin, which makes
    the selection order deterministic. A row takes one adjoint before its
    first pick; later, it takes one only when the coherence screen cannot show
    that a listed bin is the strongest (see the module docstring).
    ``op.point_spread``, which also gives every Gram entry, and
    ``op.coherence()`` are built before the first row when ``max_iters > 1``.

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
    rows = min(3, max(1, _BATCH_POINTS // op.n_bins), len(Y))
    work = np.empty((rows, op.n_bins), dtype=complex)
    return [_pursue(op, y, max_iters, psf, work[0]) for y in Y]


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
    ``omp_recover_batch`` call.
    """
    times = op.schedule.indices * op.grid.t_atom
    measurements = np.empty((len(draws), op.k_measurements), dtype=complex)
    for row, (tones, rng) in zip(measurements, draws):
        row[:] = add_noise(sample_tones(tones, times), snr_db, seed=int(rng.integers(2**63)))
    return omp_recover_batch(op, measurements, max_iters)


def _pursue(
    op: SensingOperator,
    y: np.ndarray,
    max_iters: int,
    psf: Optional[tuple[np.ndarray, float]],
    work: np.ndarray,
) -> RecoveryResult:
    """The OMP iteration for one measurement row, its adjoints written into ``work``.

    ``psf`` is ``(p, mu)``, the point-spread function and the coherence, or
    None for a one-step pursuit. ``work`` holds the reference correlation,
    taken at the coefficients ``reference``, whose largest magnitude outside
    the support is ``peak``; ``listing`` holds its listed bins and their
    reference values, or None until they are listed.
    """
    y_norm = float(np.linalg.norm(y))
    support: list[int] = []
    residual_norms: list[float] = []
    coefficients = np.zeros(0, dtype=complex)
    if y_norm == 0.0:
        return RecoveryResult(support, coefficients, residual_norms)
    selected = np.empty((max_iters, len(y)), dtype=complex)  # one contiguous atom per row
    gram = np.empty((max_iters, max_iters), dtype=complex)  # cholesky reads only its lower half
    rhs = np.empty(max_iters, dtype=complex)
    op.adjoint(y, out=work)
    for i in range(max_iters):  # the support holds i atoms
        bin_j = None
        if i:  # screen the listed bins; psf is set, as max_iters > 1
            if listing is None:
                listing = _listed(work, support, _LIST_FRACTION * peak)
            bins, values = listing
            top = _screen(psf, support, coefficients, reference, peak, bins, values)
            if top is None:  # refresh: one adjoint of the explicit residual
                op.adjoint(residual, out=work)
            else:  # the picked bin joins the support and leaves the list
                bin_j = int(bins[top])
                listing = np.delete(bins, top), np.delete(values, top)
        if bin_j is None:
            bin_j, peak = _strongest_bin(work, support)
            reference, listing = coefficients, None

        if i:  # <a_i, a_j> = p[(b_j - b_i) mod N]; a one-step pursuit has no p
            gram[i, :i] = psf[0][(np.asarray(support) - bin_j) % op.n_bins]
        gram[i, i] = 1.0  # unit-norm atoms: p[0] = K / K
        selected[i] = op.atoms([bin_j])[:, 0]
        rhs[i] = np.vdot(selected[i], y)
        support.append(bin_j)

        try:
            factor = np.linalg.cholesky(gram[: i + 1, : i + 1])
        except np.linalg.LinAlgError as exc:
            raise GramSingularError(support) from exc
        half_solved = np.linalg.solve(factor, rhs[: i + 1])
        coefficients = np.linalg.solve(factor.conj().T, half_solved)

        residual = y - coefficients @ selected[: i + 1]
        residual_norms.append(float(np.linalg.norm(residual)))
        if residual_norms[-1] <= _RESIDUAL_TOL * y_norm:
            break
    return RecoveryResult(support, coefficients, residual_norms)


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
            if count > sensing._PSF_CHUNK:
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
    peak: float,
    bins: np.ndarray,
    values: np.ndarray,
) -> Optional[int]:
    """The list position of the strongest bin outside ``support``, if a listed
    bin provably holds it, else None.

    ``bins`` are the ascending bins where the reference correlation ``alpha'``,
    taken at ``reference`` (the first ``len(reference)`` coefficients; 0 for
    the rest), reached ``tau = _LIST_FRACTION * peak``, and ``values`` is
    ``alpha'`` there; ``peak`` is the largest ``|alpha'|`` outside the support
    and bounds every listed one. With ``dc =
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
    tau = _LIST_FRACTION * peak
    delta = coefficients.copy()
    delta[: len(reference)] -= reference
    atoms = np.asarray(support)
    current = values.copy()
    group = max(1, sensing._PSF_CHUNK // len(bins))
    for lo in range(0, len(atoms), group):
        # b_j - n lies in (-N, N), and p[d - N] == p[d]
        current -= delta[lo : lo + group] @ p[atoms[lo : lo + group, np.newaxis] - bins]
    magnitude = np.abs(current)
    top = int(np.argmax(magnitude))
    shift = float(np.abs(delta).sum())
    rounding = 4 * (len(atoms) + 2) * np.finfo(float).eps * (peak + shift)
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
