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
``g = Phi* y``, later one adjoint of its explicit residual) and the
coefficients it was taken at. A later pick is certified chunk by chunk, over
chunks of W = ``sensing._ENVELOPE_BINS`` bins. ``R[c]``, the largest
``|alpha'|`` in chunk c outside the support, is kept exact: a bin that joins
the support rescans its chunk. ``E_j[c]`` bounds ``|p|`` on the W offsets
``(b_j - n) mod N`` of chunk c, read from the operator's cached per-chunk
maxima of ``|p|`` over ``d != 0``. So every bin n of chunk c outside the
support has ``|alpha[n]| <= R[c] + sum_j |c_j - c'_j| E_j[c]`` (Tropp, "Greed
is good", IEEE Trans. Inf. Theory 50(10), 2004, bounds one correlation's move
the same way, with the coherence in place of ``E_j``). An iteration evaluates
``alpha`` exactly on the chunk of largest bound, then on every chunk whose
bound reaches that chunk's best magnitude less a rounding margin; the best of
those, lowest bin on ties, beats every other chunk's bound, so it is the
argmax over all N bins. When those chunks hold more than
``sensing._PSF_CHUNK`` bins, the ``_PSF_CHUNK / W`` of largest bound are
evaluated, and unless their best rules out every other chunk the row
refreshes: one adjoint of its explicit residual into the workspace, whose
argmax is taken. Certified and refreshed correlations differ in their last
bits, and on every row tested they picked the bins that a full adjoint per
iteration picks. On the recovery benchmark no row refreshes. Every argmax
over a fresh reference correlation, a one-step pursuit's (``max_iters = 1``)
too, is one scan that fills the per-chunk maxima and takes the lowest bin of
the first chunk of largest maximum. A one-step pursuit certifies nothing, and
builds no ``p`` and no envelope.

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
from .sensing import SensingOperator, _chunk_maxima
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
    first pick; later, it takes one only when certifying the pick would need
    more than ``sensing._PSF_CHUNK`` bins (see the module docstring).
    ``op.point_spread``, which also gives every Gram entry, and its chunk
    envelope are built before the first row when ``max_iters > 1``.

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

    # a one-step pursuit certifies nothing, so it builds no point-spread function
    # and no envelope, only its scan's per-chunk maxima; otherwise the certificate
    # builds both here, before the workspace
    certificate = _Certificate(op) if max_iters > 1 else None
    maxima = certificate.R if certificate else np.empty(-(-op.n_bins // sensing._ENVELOPE_BINS))
    rows = min(3, max(1, _BATCH_POINTS // op.n_bins), len(Y))
    work = np.empty((rows, op.n_bins), dtype=complex)
    return [_pursue(op, y, max_iters, certificate, work[0], maxima) for y in Y]


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
    certificate: Optional[_Certificate],
    work: np.ndarray,
    maxima: np.ndarray,
) -> RecoveryResult:
    """The OMP iteration for one measurement row, its adjoints written into ``work``.

    ``certificate`` is None for a one-step pursuit. ``work`` holds the
    reference correlation, taken at the coefficients ``reference``, whose
    largest magnitude outside the support is ``peak``, and ``maxima`` its
    per-chunk maxima outside the support (the certificate's ``R``).
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
        if i:  # certify a pick; the certificate is set, as max_iters > 1
            bin_j = certificate.pick(work, support, coefficients, reference, peak)
            if bin_j is None:  # refresh: one adjoint of the explicit residual
                op.adjoint(residual, out=work)
        if bin_j is None:
            bin_j, peak = _strongest_bin(work, support, maxima)
            reference = coefficients

        if i:  # <a_i, a_j> = p[(b_j - b_i) mod N]; a one-step pursuit has no p
            gram[i, :i] = certificate.p[(np.asarray(support) - bin_j) % op.n_bins]
        gram[i, i] = 1.0  # unit-norm atoms: p[0] = K / K
        selected[i] = op.atoms([bin_j])[:, 0]
        rhs[i] = np.vdot(selected[i], y)
        support.append(bin_j)
        if certificate is not None:
            certificate.drop(work, support, bin_j)

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


def _strongest_bin(work: np.ndarray, support: Sequence[int], maxima: np.ndarray) -> tuple[int, float]:
    """The bin outside ``support`` of largest ``|work|``, and that magnitude.

    ``maxima`` is left holding ``_chunk_maxima`` of ``work``, and the lowest
    chunk of the largest maximum holds that bin, so ties resolve to the lowest
    bin, as in ``numpy.argmax``.
    """
    _chunk_maxima(work, support, maxima)
    top = int(np.argmax(maxima))
    mag = _chunk_magnitude(work, support, top)
    return top * sensing._ENVELOPE_BINS + int(np.argmax(mag)), float(maxima[top])


def _chunk_magnitude(work: np.ndarray, support: Sequence[int], c: int) -> np.ndarray:
    """``|work|`` over the W-bin chunk c, with the support's bins at -1.0."""
    lo = c * sensing._ENVELOPE_BINS
    mag = np.abs(work[lo : lo + sensing._ENVELOPE_BINS])
    for b in support:
        if lo <= b < lo + len(mag):
            mag[b - lo] = -1.0
    return mag


class _Certificate:
    """One ``omp_recover_batch`` call's chunk certificate: the envelope it reads
    and the buffers it reuses, none of them as long as N.

    ``R`` holds the current row's per-chunk maxima of ``|alpha'|`` outside the
    support, ``ceiling`` each iteration's chunk bounds, and ``envelope`` the
    pair table that ``_bound`` reads, reversed. ``gathered`` and ``offsets``
    hold ``_PSF_CHUNK`` entries each (``gathered`` at least half a float per
    chunk), for the evaluation's values, gathers of p, products and
    magnitudes, and its bins and offsets.
    """

    def __init__(self, op: SensingOperator) -> None:
        self.p = op.point_spread
        q = op._psf_envelope
        # a window of at most W offsets ending in chunk k > 0 lies in chunks k - 1
        # and k; one ending in chunk 0 wraps to offsets N - d with 0 < d < W, and
        # |p[N - d]| == |p[d]|, so chunk 0 bounds it alone
        pair = q.copy()
        np.maximum(q[1:], q[:-1], out=pair[1:])
        self.envelope = pair[::-1].copy()
        self.R = np.empty(len(q))
        self.ceiling = np.empty(len(q))
        # as floats, gathered also serves as _bound's scratch, before any evaluation
        self.gathered = np.empty(max(sensing._PSF_CHUNK, -(-len(q) // 2)), dtype=complex)
        self.offsets = np.empty(sensing._PSF_CHUNK, dtype=np.int64)

    def drop(self, work: np.ndarray, support: Sequence[int], bin_j: int) -> None:
        """Keep ``R`` exact once ``bin_j`` has joined ``support``: rescan its chunk."""
        c = bin_j // sensing._ENVELOPE_BINS
        self.R[c] = _chunk_magnitude(work, support, c).max()

    def _bound(self, support: Sequence[int], weights: np.ndarray, n: int) -> np.ndarray:
        """``R[c] + sum_j weights_j E_j[c]``, with ``E_j[c]`` the pair table at
        the chunk of ``(b_j - c W) mod N``, the largest offset of chunk c.

        That chunk is ``b_j // W - c`` while ``c W <= b_j`` and ``(b_j + N) // W
        - c`` after, so ``E_j`` is two slices of the reversed table.
        """
        width, envelope = sensing._ENVELOPE_BINS, self.envelope
        count = len(envelope)
        scratch = self.gathered.view(float)[:count]
        ceiling = self.ceiling
        ceiling[:] = self.R
        for b, weight in zip(support, weights):
            head, wrapped = b // width + 1, (b + n) // width
            np.multiply(envelope[count - head :], weight, out=scratch[:head])
            np.multiply(envelope[count - wrapped + head - 1 : 2 * count - 1 - wrapped], weight,
                        out=scratch[head:])
            ceiling += scratch
        return ceiling

    def pick(
        self,
        work: np.ndarray,
        support: Sequence[int],
        coefficients: np.ndarray,
        reference: np.ndarray,
        peak: float,
    ) -> Optional[int]:
        """The strongest bin outside ``support`` at ``coefficients``, if certifying
        it takes at most ``_PSF_CHUNK`` bins, else None.

        ``work`` holds ``alpha'``, taken at ``reference`` (the first
        ``len(reference)`` coefficients; 0 for the rest), and ``peak`` is its
        largest magnitude outside the support when it was taken. A chunk need
        not be evaluated once its bound lies below ``best - margin``, with the
        margin ``4 (i + 2) eps (peak + sum_j |dc_j|)`` covering the rounding of
        the i + 1 terms behind each value and bound. The chunk of largest bound
        is evaluated first. Unless its best rules out every other chunk, the
        chunks of largest bound are evaluated in bin order: all those it leaves
        open, or past ``_PSF_CHUNK`` bins the ``_PSF_CHUNK / W`` of largest bound
        (with any that tie the last), whose best must then rule out every other
        chunk. So ties resolve to the lowest bin. ``numpy.partition`` finds the
        last bound taken; ``argpartition`` and a sort of its indices took the
        same chunks, but faulted in about 250 KB more of numpy's code on the
        recovery benchmark. With ``_PSF_CHUNK < 3 W`` an evaluated chunk's rows
        would not fit the buffers, and every pick refreshes.
        """
        budget = sensing._PSF_CHUNK // sensing._ENVELOPE_BINS  # chunks evaluated at most
        if budget < 3:
            return None
        delta = coefficients.copy()
        delta[: len(reference)] -= reference
        weights = np.abs(delta)
        ceiling = self._bound(support, weights, len(work))
        margin = 4 * (len(support) + 2) * np.finfo(float).eps * (peak + float(weights.sum()))
        best = self._evaluate(work, support, delta, np.array([int(np.argmax(ceiling))]))
        open_chunks = np.count_nonzero(ceiling >= best[0] - margin)
        if open_chunks > 1:  # the open chunks are those of largest bound, in bin order
            top = min(open_chunks, budget)
            kth = np.partition(ceiling, -top)[-top]
            best = self._evaluate(work, support, delta, np.flatnonzero(ceiling >= kth))
            if np.count_nonzero(ceiling >= best[0] - margin) > budget:
                return None
        return best[1]

    def _evaluate(
        self, work: np.ndarray, support: Sequence[int], delta: np.ndarray, chunks: np.ndarray
    ) -> tuple[float, int]:
        """The largest ``|alpha|`` over the bins of ``chunks`` (ascending) outside
        ``support``, and its lowest bin.

        ``alpha = alpha' - sum_j dc_j p[(b_j - n) mod N]`` is formed block by
        block: a block of S bins takes ``group + 2`` rows of S entries in
        ``gathered`` (its values, the gathers of p for ``group`` atoms, and
        their product) and ``group + 1`` in ``offsets`` (the gathers' offsets
        and its bins). A block holds as many chunks as fit with every atom in
        one group, or one chunk and the atoms in groups.
        """
        width, n, size = sensing._ENVELOPE_BINS, len(work), sensing._PSF_CHUNK
        atoms = np.asarray(support)
        past = len(self.R) * width - n  # bins of the last chunk past N - 1
        per = max(1, size // ((len(atoms) + 2) * width))  # chunks per block
        best = (-math.inf, 0)
        for first in range(0, len(chunks), per):
            block = chunks[first : first + per]
            span = len(block) * width
            group = min(len(atoms), size // span - 2)
            rows = self.gathered[: (group + 2) * span].reshape(group + 2, span)
            values, product = rows[0], rows[-1]
            bins = self.offsets[group * span : (group + 1) * span]
            np.add.outer(block * width, np.arange(width), out=bins.reshape(len(block), width))
            # bins past N - 1 wrap; their magnitudes are set to -1.0 below
            np.take(work, bins, out=values, mode="wrap")
            for lo in range(0, len(atoms), group):
                part = atoms[lo : lo + group]
                offsets = self.offsets[: len(part) * span].reshape(len(part), span)
                np.subtract.outer(part, bins, out=offsets)
                gathered = np.take(self.p, offsets, out=rows[1 : 1 + len(part)], mode="wrap")
                values -= np.matmul(delta[lo : lo + group], gathered, out=product)
            mag = np.abs(values, out=product.view(float)[:span])
            if past and block[-1] == len(self.R) - 1:
                mag[span - past :] = -1.0
            at = np.searchsorted(bins, atoms)  # bins ascend
            mag[at[np.take(bins, at, mode="clip") == atoms]] = -1.0
            top = int(np.argmax(mag))
            if mag[top] > best[0]:  # a later block holds only higher bins
                best = (float(mag[top]), int(bins[top]))
        return best


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
