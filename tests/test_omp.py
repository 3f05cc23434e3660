"""Tests for greedy recovery and the noisy detection bound."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nyfold import omp, sensing
from nyfold.experiments import RUNNERS, resolve_config
from nyfold.omp import (
    GramSingularError,
    RecoveryResult,
    detection_probability_bound,
    omp_recover,
    omp_recover_batch,
    score_recovery,
)
from nyfold.sensing import SensingOperator, SparseSpectrum
from nyfold.signal_clock import (
    ClockConfig,
    LinearChirp,
    SampleSchedule,
    TimeGrid,
    ToneSpec,
    add_noise,
    compute_sample_schedule,
)


@pytest.fixture(scope="module")
def op():
    grid = TimeGrid(t_atom=1.0 / 512, n_points=512)
    clock = ClockConfig(f_s1=64.0, modulation=LinearChirp(16.0, 1.0))
    return SensingOperator(grid, compute_sample_schedule(clock, grid))


@pytest.fixture(scope="module")
def uniform_op():
    grid = TimeGrid(t_atom=1.0 / 512, n_points=512)
    clock = ClockConfig(f_s1=64.0, modulation=None)
    return SensingOperator(grid, compute_sample_schedule(clock, grid))


class TestOmpRecover:
    def test_exact_recovery_noiseless(self, op):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = int(rng.integers(1, 6))
            bins = np.sort(rng.choice(op.n_bins, size=s, replace=False))
            coeff = rng.standard_normal(s) + 1j * rng.standard_normal(s)
            y = op.forward(SparseSpectrum(bins, coeff))
            result = omp_recover(op, y, max_iters=s)
            assert sorted(result.support) == bins.tolist()
            order = np.argsort(result.support)
            assert_allclose(
                np.asarray(result.coefficients)[order], coeff, atol=1e-8
            )
            assert result.residual_norms[-1] < 1e-8 * np.linalg.norm(y)

    def test_coefficients_solve_least_squares(self, op):
        rng = np.random.default_rng(1)
        bins = np.array([10, 90, 300])
        y = op.forward(SparseSpectrum(bins, np.array([1.0, -2.0, 0.5 + 1j])))
        y = y + 0.01 * (
            rng.standard_normal(len(y)) + 1j * rng.standard_normal(len(y))
        )
        result = omp_recover(op, y, max_iters=3)
        atoms = op.atoms(np.array(result.support))
        oracle, *_ = np.linalg.lstsq(atoms, y, rcond=None)
        assert_allclose(result.coefficients, oracle, atol=1e-9)
        assert_allclose(
            result.residual_norms[-1],
            np.linalg.norm(y - atoms @ oracle),
            rtol=1e-9,
        )

    @pytest.mark.parametrize("max_iters", [1, 2, 5, 12])
    def test_cholesky_step_matches_lstsq_to_1e_12(self, op, max_iters):
        """The Cholesky factor and its two solves give the least-squares fit
        on the selected atoms, on noise as well as on tones."""
        rng = np.random.default_rng(max_iters)
        k = op.k_measurements
        tones = op.forward(SparseSpectrum(np.array([7, 250]), np.array([1.0, 0.3j])))
        for y in (tones, np.zeros(k)):
            y = y + rng.standard_normal(k) + 1j * rng.standard_normal(k)
            result = omp_recover(op, y, max_iters)
            atoms = op.atoms(result.support)
            oracle, *_ = np.linalg.lstsq(atoms, y, rcond=None)
            assert_allclose(result.coefficients, oracle, rtol=0, atol=1e-12)
            assert_allclose(result.residual_norms[-1], np.linalg.norm(y - atoms @ oracle),
                            rtol=1e-12)

    def test_residual_log_tracks_progress(self, op):
        bins = np.array([5, 200, 400])
        y = op.forward(SparseSpectrum(bins, np.array([3.0, 2.0, 1.0 + 0j])))
        result = omp_recover(op, y, max_iters=3)
        assert len(result.residual_norms) == result.iterations == 3
        assert sorted(result.support) == bins.tolist()
        residuals = result.residual_norms
        assert all(a >= b for a, b in zip(residuals, residuals[1:]))

    def test_strongest_tone_found_first(self, op):
        y = op.forward(
            SparseSpectrum(np.array([50, 260]), np.array([0.2, 5.0 + 0j]))
        )
        result = omp_recover(op, y, max_iters=2)
        assert result.support[0] == 260

    def test_residual_tolerance_stops_early(self, op):
        y = op.forward(SparseSpectrum(np.array([123]), np.array([2.0 + 0j])))
        result = omp_recover(op, y, max_iters=10)
        assert result.iterations == 1
        assert result.support == [123]

    def test_no_bin_selected_twice(self, op):
        rng = np.random.default_rng(2)
        y = rng.standard_normal(op.k_measurements) * 1j
        y += rng.standard_normal(op.k_measurements)
        result = omp_recover(op, y, max_iters=30)
        assert len(set(result.support)) == len(result.support) == 30

    def test_zero_input_returns_empty(self, op):
        result = omp_recover(op, np.zeros(op.k_measurements, complex), max_iters=5)
        assert result.support == []
        assert result.iterations == 0
        assert result.residual_norms == []

    def test_iteration_budget_validated(self, op):
        y = np.ones(op.k_measurements, dtype=complex)
        with pytest.raises(ValueError):
            omp_recover(op, y, max_iters=0)
        with pytest.raises(ValueError):
            omp_recover(op, y, max_iters=op.k_measurements + 1)

    def test_wrong_length_input_rejected(self, op):
        """omp_recover leaves its shape check to omp_recover_batch."""
        k = op.k_measurements
        with pytest.raises(ValueError):
            omp_recover(op, np.ones(k + 1, complex), max_iters=1)
        with pytest.raises(ValueError):
            omp_recover(op, np.ones((1, k), complex), max_iters=1)

    def test_collision_defeats_recovery(self, uniform_op):
        """Identical atoms under a uniform clock: the second tone is lost."""
        k = uniform_op.k_measurements
        bins = np.array([7, 7 + k])
        y = uniform_op.forward(SparseSpectrum(bins, np.array([1.0, 1.0 + 0j])))
        result = omp_recover(uniform_op, y, max_iters=2)
        assert sorted(result.support) != bins.tolist()

    def test_singular_gram_raises(self):
        """Duplicate dictionary columns surface as GramSingularError."""

        class RiggedOp:
            # two identical atoms; adjoint is the honest A^H y, and the
            # all-ones Gram is the circulant of point spread p = [1, 1]
            n_bins = 2
            k_measurements = 4
            _column = np.ones(4, dtype=complex) / 2.0
            point_spread = np.ones(2, dtype=complex)
            _psf_envelope = np.ones(1)  # |p[1]| = 1 in the one chunk

            def atoms(self, bins):
                return np.stack([self._column] * len(np.atleast_1d(bins)), axis=1)

            def adjoint(self, y, out=None):
                return np.matmul(y, self.atoms(np.arange(2)).conj(), out=out)

        rigged = RiggedOp()
        # residual after the first pick is a small off-dictionary component,
        # so the loop continues and must select the duplicate column
        y = rigged._column + 0.1 * np.array([1.0, -1.0, 0.0, 0.0]) / math.sqrt(2)
        with pytest.raises(GramSingularError) as excinfo:
            omp_recover(rigged, y.astype(complex), max_iters=2)
        assert 0 in excinfo.value.support

    def test_result_is_frozen_record(self, op):
        y = op.forward(SparseSpectrum(np.array([11]), np.array([1.0 + 0j])))
        result = omp_recover(op, y, max_iters=1)
        assert isinstance(result, RecoveryResult)
        with pytest.raises(AttributeError):
            result.support = (1,)


def assert_same_result(got, want):
    assert got.support == want.support
    assert got.coefficients.dtype == want.coefficients.dtype
    assert got.coefficients.tobytes() == want.coefficients.tobytes()
    assert got.iterations == want.iterations
    assert got.residual_norms == want.residual_norms


def reference_omp(op, y, max_iters):
    """OMP that takes a full adjoint of the explicit residual at every iteration
    and picks ``np.argmax`` of ``np.abs`` outside the support. Its least squares
    repeat nyfold.omp's arithmetic (Gram rows from p, Cholesky, two solves), so
    its coefficients and residual norms compare bitwise."""
    y = np.asarray(y, dtype=complex)
    y_norm = float(np.linalg.norm(y))
    selected = np.empty((max_iters, len(y)), dtype=complex)
    gram = np.empty((max_iters, max_iters), dtype=complex)
    rhs = np.empty(max_iters, dtype=complex)
    support, norms, coefficients, residual = [], [], np.zeros(0, dtype=complex), y
    for i in range(max_iters if y_norm else 0):
        magnitude = np.abs(op.adjoint(residual))
        magnitude[support] = -1.0
        bin_j = int(np.argmax(magnitude))
        if i:
            gram[i, :i] = op.point_spread[(np.asarray(support) - bin_j) % op.n_bins]
        gram[i, i] = 1.0
        selected[i] = op.atoms([bin_j])[:, 0]
        rhs[i] = np.vdot(selected[i], y)
        support.append(bin_j)
        factor = np.linalg.cholesky(gram[: i + 1, : i + 1])
        coefficients = np.linalg.solve(factor.conj().T, np.linalg.solve(factor, rhs[: i + 1]))
        residual = y - coefficients @ selected[: i + 1]
        norms.append(float(np.linalg.norm(residual)))
        if norms[-1] <= omp._RESIDUAL_TOL * y_norm:
            break
    return RecoveryResult(support, coefficients, norms)


class CountingOp(SensingOperator):
    """SensingOperator that records the shape of every adjoint input and its ``out``."""

    def __init__(self, op):
        super().__init__(op.grid, op.schedule)
        self.adjoint_shapes = []
        self.outs = []

    def adjoint(self, y, out=None):
        self.adjoint_shapes.append(np.shape(y))
        self.outs.append(out)
        return super().adjoint(y, out=out)

    def assert_one_workspace_row(self):
        """Every call took one (K,) row and wrote into the first row of one workspace."""
        assert all(shape == (self.k_measurements,) for shape in self.adjoint_shapes)
        workspace = self.outs[0].base
        for out in self.outs:
            assert out.shape == (self.n_bins,) and out.base is workspace
            assert out.__array_interface__["data"] == workspace.__array_interface__["data"]


class TestOmpRecoverBatch:
    MAX_ITERS = 6

    @pytest.fixture(scope="class")
    def batch(self, op):
        """Rows: noisy 3-tone, zero, noiseless 1-tone (stops early), pure noise."""
        rng = np.random.default_rng(12)
        k = op.k_measurements
        three = op.forward(
            SparseSpectrum(np.array([40, 170, 401]), np.array([1.0, 0.7j, -0.5]))
        )
        one = op.forward(SparseSpectrum(np.array([222]), np.array([1.5 + 0j])))
        noise = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return np.stack([add_noise(three, 10.0, seed=5), np.zeros(k), one, noise])

    @pytest.mark.parametrize("rows_per_block", [None, 1, 3])
    def test_rows_equal_single_row_bitwise(self, op, batch, monkeypatch, rows_per_block):
        """Whatever rows the workspace is allocated with, each result is the
        one its row gives alone."""
        if rows_per_block is not None:
            monkeypatch.setattr(omp, "_BATCH_POINTS", rows_per_block * op.n_bins)
        results = omp_recover_batch(op, batch, self.MAX_ITERS)
        monkeypatch.undo()
        assert len(results) == len(batch)
        for row, got in zip(batch, results):
            assert_same_result(got, omp_recover(op, row, self.MAX_ITERS))
        assert [r.iterations for r in results] == [self.MAX_ITERS, 0, 1, self.MAX_ITERS]

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["zero", "noiseless", "noisy", "noise"]),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
            min_size=1,
            max_size=6,
        ),
        max_iters=st.integers(min_value=1, max_value=8),
        rows_per_block=st.integers(min_value=1, max_value=3),
    )
    def test_rows_equal_single_row_bitwise_property(self, op, rows, max_iters, rows_per_block):
        """Random rows, budgets and workspace sizes: rows stop early or take no iteration."""
        k = op.k_measurements
        batch = []
        for kind, seed in rows:
            rng = np.random.default_rng(seed)
            if kind == "zero":
                batch.append(np.zeros(k, dtype=complex))
            elif kind == "noise":
                batch.append(rng.standard_normal(k) + 1j * rng.standard_normal(k))
            else:
                s = int(rng.integers(1, 4))
                bins = np.sort(rng.choice(op.n_bins, size=s, replace=False))
                coeff = rng.standard_normal(s) + 1j * rng.standard_normal(s)
                clean = op.forward(SparseSpectrum(bins, coeff))
                noisy = add_noise(clean, float(rng.uniform(-5.0, 30.0)), seed=seed)
                batch.append(clean if kind == "noiseless" else noisy)
        batch = np.stack(batch)
        try:
            want = [omp_recover(op, row, max_iters) for row in batch]
        except GramSingularError:
            with pytest.raises(GramSingularError):
                omp_recover_batch(op, batch, max_iters)
            return
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(omp, "_BATCH_POINTS", rows_per_block * op.n_bins)
            results = omp_recover_batch(op, batch, max_iters)
        assert len(results) == len(batch)
        for got, expected in zip(results, want):
            assert_same_result(got, expected)

    def test_one_adjoint_per_iteration_over_active_rows(self, op, batch):
        """Each row is pursued alone: a non-zero row takes one (K,) adjoint before
        its first pick and at most one per later iteration, a zero row none, and
        every adjoint writes into the first row of one workspace."""
        per_row = []
        for row in batch:
            alone = CountingOp(op)
            (result,) = omp_recover_batch(alone, row[np.newaxis], self.MAX_ITERS)
            assert (len(alone.adjoint_shapes) == 0) == (result.iterations == 0)
            assert len(alone.adjoint_shapes) <= result.iterations
            per_row.append(len(alone.adjoint_shapes))
        assert per_row[1:3] == [0, 1]  # the zero row, and the one-tone row that stops at once
        counting = CountingOp(op)
        omp_recover_batch(counting, batch, self.MAX_ITERS)
        assert len(counting.adjoint_shapes) == sum(per_row)
        counting.assert_one_workspace_row()

    @pytest.mark.parametrize("max_iters", [1, 2, 4, 12])
    def test_adjoint_at_first_iteration_and_on_failed_screens(
        self, op, batch, monkeypatch, max_iters
    ):
        """Past its first pick every row-iteration certifies a pick, and a row
        takes one adjoint before its first pick plus one right after each failed
        certificate, never otherwise; a one-step pursuit certifies nothing."""
        events = []
        pick = omp._Certificate.pick

        def recording(*args):
            events.append(pick(*args))
            return events[-1]

        class EventOp(CountingOp):
            def adjoint(self, y, out=None):
                events.append("adjoint")
                return super().adjoint(y, out=out)

        monkeypatch.setattr(omp._Certificate, "pick", recording)
        counting = EventOp(op)
        results = omp_recover_batch(counting, batch, max_iters)
        verdicts = [event for event in events if event != "adjoint"]
        nonzero_rows = 3
        assert len(counting.adjoint_shapes) == nonzero_rows + verdicts.count(None)
        assert len(verdicts) == sum(max(0, r.iterations - 1) for r in results)
        assert all(events[i + 1] == "adjoint" for i, e in enumerate(events) if e is None)
        if max_iters >= 4:  # the noisy three-tone row certifies its later tones
            assert any(verdict is not None for verdict in verdicts)
        counting.assert_one_workspace_row()

    @pytest.mark.parametrize("n,batch_rows,rows", [
        (512, 1, 1), (512, 2, 2), (512, 4, 3), (2**18, 4, 2), (10**6, 2, 1)])
    def test_workspace_keeps_the_allocation_rule(self, n, batch_rows, rows):
        """The workspace is allocated at ``min(3, max(1, 2^19 // N), B)`` rows of
        N points, though only its first row is written. The unwritten rows are
        never resident, but freeing them raises glibc's mmap threshold above one
        FFT's scratch, so later FFTs reuse heap pages. With bitwise equal
        results, a one-row allocation took 136k minor faults per CLI process of
        the recovery benchmark (N = 2^18, two rows; 2-core VM, one BLAS thread)
        against 42k-46k, and 199k against 31k on zone-id (N = 10^5, three rows),
        whose median run took 1.24 s against 0.88 s."""
        rng = np.random.default_rng(n)
        indices = np.sort(rng.choice(n, size=64, replace=False))
        counting = CountingOp(SensingOperator(TimeGrid(t_atom=1e-9, n_points=n),
                                              SampleSchedule(indices)))
        y = counting.forward(SparseSpectrum(np.array([n // 3]), np.array([1.0 + 0j])))
        omp_recover_batch(counting, np.stack([y] * batch_rows), 1)
        assert len(counting.outs) == batch_rows
        assert counting.outs[0].base.shape == (rows, n)
        counting.assert_one_workspace_row()

    def test_non_finite_row_named(self, op, batch):
        bad = batch.copy()
        bad[2, 7] = np.nan
        with pytest.raises(ValueError, match="row 2"):
            omp_recover_batch(op, bad, max_iters=2)
        with pytest.raises(ValueError, match="row 0"):
            omp_recover(op, bad[2], max_iters=2)

    def test_shape_validated(self, op):
        k = op.k_measurements
        with pytest.raises(ValueError):
            omp_recover_batch(op, np.ones(k, dtype=complex), max_iters=1)
        with pytest.raises(ValueError):
            omp_recover_batch(op, np.ones((2, k + 1), dtype=complex), max_iters=1)
        assert omp_recover_batch(op, np.ones((0, k), dtype=complex), max_iters=1) == []


class TestPointSpreadCorrelations:
    """Correlations certified through p select the bins a full adjoint selects."""

    MAX_ITERS = 16  # rows certify, refresh, and run out of tones

    @staticmethod
    def operator(n):
        rng = np.random.default_rng(n)
        indices = np.sort(rng.choice(n, size=n // 8, replace=False))
        return SensingOperator(TimeGrid(t_atom=1e-9, n_points=n), SampleSchedule(indices))

    @staticmethod
    def batch(op):
        """Rows: tones at bins 0 and N - 1, noisy and noiseless (stops early),
        zero, noise, and a noiseless pair that stops after two iterations."""
        n, k = op.n_bins, op.k_measurements
        rng = np.random.default_rng(n)
        edges = op.forward(SparseSpectrum(np.array([0, 5, n - 1]), np.array([2.0, 0.5j, -1.5])))
        pair = op.forward(SparseSpectrum(np.array([1, n // 2]), np.array([1.0, 1.0j])))
        noise = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return np.stack([add_noise(edges, 20.0, seed=n), edges, np.zeros(k), noise, pair])

    @pytest.mark.parametrize("n", [512, 1001, 2**14 + 3])
    @pytest.mark.parametrize("chunk", [64, 100, sensing._PSF_CHUNK])
    def test_equal_to_fft_path_bitwise(self, n, chunk, monkeypatch):
        """The screened pursuit equals reference_omp, which takes a full adjoint
        FFT at every iteration: supports, coefficient bytes and residual logs."""
        op = self.operator(n)
        batch = self.batch(op)
        monkeypatch.setattr(sensing, "_PSF_CHUNK", chunk)
        got = omp_recover_batch(op, batch, self.MAX_ITERS)
        for g, y in zip(got, batch):
            assert_same_result(g, reference_omp(op, y, self.MAX_ITERS))
        assert {0, n - 1} <= set(got[0].support)
        assert [r.iterations for r in got] == [self.MAX_ITERS, 3, 0, self.MAX_ITERS, 2]

    def test_equal_to_fft_path_at_0_db_up_to_40_tones(self):
        """A seeded 0 dB batch of 1 to 40 tones, pursued for 40 iterations, equals
        reference_omp bitwise, with fewer adjoint rows than row-iterations."""
        op = self.operator(2**14 + 3)
        rng = np.random.default_rng(40)
        rows = []
        for s in (1, 5, 10, 20, 30, 40):
            bins = np.sort(rng.choice(op.n_bins, size=s, replace=False))
            coeff = rng.standard_normal(s) + 1j * rng.standard_normal(s)
            rows.append(add_noise(op.forward(SparseSpectrum(bins, coeff)), 0.0,
                                  seed=int(rng.integers(2**63))))
        counting = CountingOp(op)
        got = omp_recover_batch(counting, np.stack(rows), 40)
        for g, y in zip(got, rows):
            assert_same_result(g, reference_omp(op, y, 40))
        assert len(counting.adjoint_shapes) < sum(r.iterations for r in got) == 6 * 40

    @pytest.mark.parametrize("n", [512, 1001, 2**14 + 3])
    @pytest.mark.parametrize("chunk", [64, 100, sensing._PSF_CHUNK])
    def test_strongest_bin_equals_brute_force(self, n, chunk, monkeypatch):
        """The chunked scan picks ``np.argmax`` of |alpha| outside the support, and
        the per-chunk maxima of the certificate equal a brute-force max over each
        W-bin chunk, -1.0 where the support holds every bin, whichever scan
        chunks they are read in."""
        monkeypatch.setattr(sensing, "_PSF_CHUNK", chunk)
        op = self.operator(n)
        width = sensing._ENVELOPE_BINS
        rng = np.random.default_rng(n + chunk)
        g = op.adjoint(rng.standard_normal(op.k_measurements) + 0.5j)
        unread = g.copy()
        # supports at a chunk's first and last bins, at both ends of g, and over a
        # whole W-bin chunk
        supports = [[], [0], [n - 1, 0, 1], [n // 2, chunk % n, (chunk - 1) % n, n - 2],
                    rng.choice(n, size=11, replace=False).tolist(), list(range(width, 2 * width))]
        for support in supports:
            magnitude = np.abs(g)
            magnitude[support] = -1.0
            padded = np.full(-(-n // width) * width, -1.0)
            padded[:n] = magnitude
            maxima = np.empty(len(padded) // width)
            assert omp._strongest_bin(g, support, maxima) == (int(np.argmax(magnitude)),
                                                              magnitude.max())
            assert maxima.tobytes() == padded.reshape(-1, width).max(axis=1).tobytes()
        assert np.array_equal(g, unread)

    def test_ties_across_chunks_go_to_the_lowest_bin(self, monkeypatch):
        """The scan and the certified pick resolve ties to the lowest bin, across
        scan chunks, across W-bin chunks and across the chunks evaluated."""
        monkeypatch.setattr(sensing, "_ENVELOPE_BINS", 4)
        p = np.zeros(12, dtype=complex)
        p[0], p[2], p[10] = 1.0, -0.25, -0.25  # Hermitian, as every operator's p is
        g = np.zeros(12, dtype=complex)
        g[[3, 4, 5, 7, 9]] = [1.75, 2.0, 8.0, 1.75, 2j]
        maxima = np.empty(3)
        # scan chunks of 4 bins hold one W-bin chunk each; of 6, chunk 1 is split
        for scan in (4, 6):
            monkeypatch.setattr(sensing, "_PSF_CHUNK", scan)
            assert omp._strongest_bin(g, [], maxima) == (5, 8.0)
            # without bin 5, |g| = 2 ties at bins 4 and 9, in W-bin chunks 1 and 2
            # and in different scan chunks
            assert omp._strongest_bin(g, [5], maxima) == (4, 2.0)
            assert maxima.tolist() == [1.75, 2.0, 2.0]

        monkeypatch.setattr(sensing, "_PSF_CHUNK", 12)  # a pick evaluates up to 3 chunks

        class Stub:  # the certificate reads p and its per-chunk maxima
            point_spread = p
            _psf_envelope = sensing._chunk_maxima(p, [0], np.empty(3))

        certificate = omp._Certificate(Stub())
        omp._strongest_bin(g, [], certificate.R)
        certificate.drop(g, [5], 5)
        assert certificate.R.tolist() == [1.75, 2.0, 2.0]
        # bin 5 joins with c = 1: alpha = g - p[(5 - n) mod 12] is 2 at bins 3, 4,
        # 7 and 9, in chunks 0, 1, 1 and 2, and every chunk must be evaluated
        pick = certificate.pick(g, [5], np.array([1.0 + 0j]), np.zeros(0, dtype=complex), 8.0)
        assert pick == 3

    @pytest.mark.parametrize("n", [512, 2**14 + 3])
    def test_gram_rows_equal_atom_products(self, n, monkeypatch):
        """The Gram rows OMP reads from p equal ``selected @ atom.conj()``,
        <a_i, a_j> from materialized atoms, within 1e-15."""
        op = self.operator(n)
        factored = []
        cholesky = np.linalg.cholesky

        def recording(gram):
            factored.append(np.tril(gram))  # the upper half is never written
            return cholesky(gram)

        monkeypatch.setattr(np.linalg, "cholesky", recording)
        (result,) = omp_recover_batch(op, self.batch(op)[3:4], self.MAX_ITERS)
        monkeypatch.undo()
        assert len(factored) == result.iterations == self.MAX_ITERS
        selected = op.atoms(result.support).T
        for i, atom in enumerate(selected):
            assert_allclose(factored[-1][i, : i + 1], selected[: i + 1] @ atom.conj(),
                            rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [7, 1001, 10**5, 2**18, 10**6])
    def test_point_spread_origin_is_exactly_one(self, n):
        """OMP's Gram diagonal is 1.0, which p[0] = K / K equals exactly."""
        rng = np.random.default_rng(n)
        for k in sorted({1, 3, max(1, n // 8), n}):
            indices = np.sort(rng.choice(n, size=k, replace=False))
            op = SensingOperator(TimeGrid(t_atom=1e-9, n_points=n), SampleSchedule(indices))
            assert op.point_spread[0] == 1.0

    def test_one_step_pursuit_builds_no_point_spread(self, op):
        class NoPointSpread(SensingOperator):
            @property
            def point_spread(self):
                raise AssertionError("point_spread computed")

            @property
            def _psf_envelope(self):
                raise AssertionError("envelope computed")

        rows = np.ones((2, op.k_measurements), dtype=complex)
        assert len(omp_recover_batch(NoPointSpread(op.grid, op.schedule), rows, 1)) == 2


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([7, 512, 1001, 2**14 + 3, 2**18]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    atoms=st.integers(min_value=1, max_value=8),
    kept=st.integers(min_value=0, max_value=8),
    scale=st.floats(min_value=1e-3, max_value=1e3),
    chunk=st.sampled_from([16, 256, sensing._PSF_CHUNK]),
)
# one sampled index: |p| = 1 at every offset, and |alpha| ties at all six other bins
@example(n=7, seed=42149, atoms=1, kept=1, scale=1.0, chunk=sensing._PSF_CHUNK)
def test_chunk_bound_holds_at_every_bin_outside_the_support(n, seed, atoms, kept, scale, chunk):
    """Every bin n of chunk c outside the support has |alpha[n]| <= R[c] + sum_j
    |dc_j| E_j[c], alpha and alpha' taken by full adjoints of explicit residuals,
    and each E_j[c] is at least a brute-force max of |p[(b_j - n) mod N]| over the
    chunk's bins n != b_j. W divides N = 512 and 2^18 but not 1001 or 2^14 + 3,
    and N = 7 is one partial chunk. A
    certified pick is the full argmax up to rounding; with ``_PSF_CHUNK`` below
    W, every pick refreshes."""
    width = sensing._ENVELOPE_BINS
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sensing, "_PSF_CHUNK", chunk)
        rng = np.random.default_rng(seed)
        indices = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        op = SensingOperator(TimeGrid(t_atom=1e-9, n_points=n), SampleSchedule(indices))
        support = rng.choice(n, size=min(atoms, n - 1), replace=False).tolist()
        atoms = len(support)
        chosen = op.atoms(support)

        def gaussian(size):
            return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))

        y = chosen @ gaussian(atoms) + 0.1 * gaussian(op.k_measurements)
        coefficients = gaussian(atoms)
        kept = min(kept, atoms)
        reference = coefficients[:kept] + 0.3 * gaussian(kept)
        earlier = op.adjoint(y - chosen[:, :kept] @ reference)
        current = op.adjoint(y - chosen @ coefficients)
        delta = coefficients.copy()
        delta[:kept] -= reference

        certificate = omp._Certificate(op)
        padded = -(-n // width) * width
        bins = np.arange(padded)
        certificate.R[:] = 0.0
        for j, b in enumerate(support):  # each E_j alone, against brute force
            envelope = certificate._bound(support, np.eye(atoms)[j], n)
            brute = np.zeros(padded)
            brute[:n] = np.abs(op.point_spread[(b - bins[:n]) % n])
            brute[b] = 0.0
            assert np.all(envelope >= brute.reshape(-1, width).max(axis=1))

        _, peak = omp._strongest_bin(earlier, support, certificate.R)
        bound = certificate._bound(support, np.abs(delta), n)
        slack = 1e-12 * (np.abs(earlier).max() + np.abs(delta).sum())  # two FFTs' rounding
        outside = np.ones(n, dtype=bool)
        outside[support] = False
        assert np.all(np.abs(current[outside]) <= bound[bins[:n][outside] // width] + slack)

        pick = certificate.pick(earlier, support, coefficients, reference, peak)
    if chunk < 3 * width:
        assert pick is None
    if pick is not None:  # exact ties may round either way
        magnitude = np.abs(current)
        magnitude[support] = -1.0
        assert magnitude[pick] >= magnitude.max() - slack


def test_evaluation_never_picks_a_bin_past_the_grid():
    """W does not divide N = 1001, so the last chunk's 23 bins past N - 1 wrap
    onto bins 0 to 22 when evaluated; they are left out, though bin 3 is the
    strongest."""
    op = TestPointSpreadCorrelations.operator(1001)
    certificate = omp._Certificate(op)
    work = np.zeros(op.n_bins, dtype=complex)
    work[3] = 10.0
    last = len(certificate.R) - 1
    best = certificate._evaluate(work, [500], np.zeros(1, dtype=complex), np.array([last]))
    assert best == (0.0, last * sensing._ENVELOPE_BINS)


class TestCertificateRefreshes:
    @staticmethod
    def noise_row():
        """A noise-only row on a random schedule of 4096 of N = 2^18 indices."""
        n = 2**18
        rng = np.random.default_rng(n)
        op = SensingOperator(TimeGrid(t_atom=1e-9, n_points=n),
                             SampleSchedule(np.sort(rng.choice(n, size=4096, replace=False))))
        k = op.k_measurements
        return op, rng.standard_normal(k) + 1j * rng.standard_normal(k)

    def test_noise_only_row_certifies_its_picks(self):
        """On a random schedule |p| is about 1/sqrt(K) off the origin, so a small
        coefficient change moves a flat |alpha'| by little: a noise-only row
        certifies every later pick and takes one adjoint, and its picks are
        those of a full adjoint per iteration."""
        op, y = self.noise_row()
        counting = CountingOp(op)
        (result,) = omp_recover_batch(counting, y[np.newaxis], 4)
        assert counting.adjoint_shapes == [(op.k_measurements,)]
        assert_same_result(result, reference_omp(op, y, 4))

    def test_failed_pick_holds_no_length_n_temporary(self):
        """Twenty atoms whose coefficient changes, of random phase, lie far above
        the flat |alpha'| of a noise-only row: the bound adds their magnitudes
        while alpha mixes them, so too many chunks stay open and the pick
        refreshes. No temporary of the certificate holds more than a chunk:
        building it, a scan and the failed pick trace a peak under 8 chunks of
        complex values, a quarter of one length-N complex row."""
        op, y = self.noise_row()
        g = op.adjoint(y)
        rng = np.random.default_rng(20)
        support = rng.choice(op.n_bins, size=20, replace=False).tolist()
        op._psf_envelope  # taken on first use and kept, like p
        tracemalloc.start()
        try:
            certificate = omp._Certificate(op)
            _, peak = omp._strongest_bin(g, support, certificate.R)
            change = 100 * peak * np.exp(2j * np.pi * rng.random(20))
            pick = certificate.pick(g, support, change, np.zeros(0, dtype=complex), peak)
            _, traced = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pick is None
        assert traced < 8 * sensing._PSF_CHUNK * 16 <= op.n_bins * 16 // 4


def test_recovery_benchmark_inputs_take_one_adjoint_per_row(monkeypatch):
    """The recovery benchmark's sweep (desk grid, N = 2^18 and K = 5242; s = 3 to
    18 at 20 and 10 dB, 3 trials each, seed 1) pursues 36 rows. Every pick past
    a row's first is certified, so each row takes its one first adjoint and no
    refresh. A bound by the coherence alone took 62 adjoints here."""
    calls = []
    adjoint = SensingOperator.adjoint

    def counting(self, y, out=None):
        calls.append(np.shape(y))
        return adjoint(self, y, out=out)

    monkeypatch.setattr(SensingOperator, "adjoint", counting)
    config = resolve_config("recovery-sweep", "desk", {
        "sweep": {"sparsity": "3 6 9 12 15 18", "snr_db": "20.0 10.0", "trials": "3"}})
    manifest = RUNNERS["recovery-sweep"](config, seed=1, scale="desk")
    assert sum(record["trials"] for record in manifest.records) == 36
    assert len(calls) == 36


def dense_reference_omp(dictionary, y, max_iters):
    """OMP by dense algebra: correlate with every column, take the strongest
    unchosen bin, refit by lstsq. Shares no code with nyfold.omp."""
    support, residual = [], y
    for _ in range(max_iters):
        magnitude = np.abs(dictionary.conj().T @ residual)
        magnitude[support] = -1.0
        support.append(int(np.argmax(magnitude)))
        chosen = dictionary[:, support]
        coefficients, *_ = np.linalg.lstsq(chosen, y, rcond=None)
        residual = y - chosen @ coefficients
    return support, coefficients


def test_batch_matches_dense_reference_omp():
    """20 noisy rows with s <= 6 on an N = 4096 chirp grid, pursued in blocks."""
    grid = TimeGrid(t_atom=1.0 / 4096, n_points=4096)
    clock = ClockConfig(f_s1=256.0, modulation=LinearChirp(64.0, 1.0))
    op = SensingOperator(grid, compute_sample_schedule(clock, grid))
    dictionary = op.atoms(range(op.n_bins))
    rng = np.random.default_rng(4096)
    rows = []
    for _ in range(20):
        s = int(rng.integers(1, 7))
        bins = np.sort(rng.choice(op.n_bins, size=s, replace=False))
        coeff = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        rows.append(add_noise(op.forward(SparseSpectrum(bins, coeff)), 15.0,
                              seed=int(rng.integers(2**63))))
    max_iters = 6
    results = omp_recover_batch(op, np.stack(rows), max_iters)
    for y, got in zip(rows, results):
        support, coefficients = dense_reference_omp(dictionary, y, max_iters)
        assert got.support == support
        assert_allclose(got.coefficients, coefficients, rtol=0, atol=1e-12)


class TestScoreRecovery:
    def _result(self, support):
        return RecoveryResult(
            support=list(support),
            coefficients=np.ones(len(support), dtype=complex),
            residual_norms=[],
        )

    def test_matches_within_bin_tolerance(self):
        grid = TimeGrid(t_atom=1e-3, n_points=1000)  # f_res = 1 Hz
        tones = [ToneSpec(100.0), ToneSpec(250.4)]
        result = self._result([100, 250])
        ok, matches = score_recovery(result, tones, grid, tol_bins=1)
        assert ok
        assert matches == [100, 250]

    def test_one_bin_cannot_serve_two_tones(self):
        grid = TimeGrid(t_atom=1e-3, n_points=1000)
        tones = [ToneSpec(100.0), ToneSpec(100.6)]
        result = self._result([100])
        ok, matches = score_recovery(result, tones, grid, tol_bins=1)
        assert not ok

    def test_miss_beyond_tolerance(self):
        grid = TimeGrid(t_atom=1e-3, n_points=1000)
        tones = [ToneSpec(100.0)]
        ok, matches = score_recovery(self._result([104]), tones, grid, tol_bins=1)
        assert not ok
        assert matches == [None]

    def test_nearest_assignment_wins(self):
        grid = TimeGrid(t_atom=1e-3, n_points=1000)
        tones = [ToneSpec(100.0), ToneSpec(102.0)]
        ok, matches = score_recovery(
            self._result([101, 102, 500]), tones, grid, tol_bins=1
        )
        assert ok
        assert matches == [101, 102]


class TestDetectionBound:
    def test_formula_oracle(self):
        k, n, delta2, sigma2 = 1500, 100_000, 0.12, 25.0
        bound = detection_probability_bound(k, n, delta2, sigma2)
        x = k * (1.0 - delta2) ** 2 / (4.0 * sigma2)
        expected = (1.0 - math.exp(-x)) ** n
        assert_allclose(bound, expected, rtol=1e-9)

    def test_limits(self):
        tiny = detection_probability_bound(1, 10**6, 0.9, 100.0)
        assert tiny == 0.0 or tiny < 1e-200
        huge = detection_probability_bound(10**6, 100, 0.1, 1.0)
        assert huge > 1.0 - 1e-12
        assert huge <= 1.0

    def test_monotone_in_measurements(self):
        values = [
            detection_probability_bound(k, 10**5, 0.12, 25.0)
            for k in (800, 1200, 1600, 2000)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_log_domain_avoids_underflow_to_garbage(self):
        # n*log1p(-exp(-x)) with moderate x and huge n must stay in [0, 1]
        bound = detection_probability_bound(1000, 10**6, 0.12, 25.0)
        assert 0.0 <= bound <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            detection_probability_bound(0, 10, 0.1, 1.0)
        with pytest.raises(ValueError):
            detection_probability_bound(10, 10, 1.2, 1.0)
        with pytest.raises(ValueError):
            detection_probability_bound(10, 10, 0.1, -1.0)


class TestEndToEndNoisy:
    def test_two_tones_survive_20db(self, op):
        rng = np.random.default_rng(9)
        bins = np.array([30, 333])
        clean = op.forward(SparseSpectrum(bins, np.array([1.0, 1.0 + 0j])))
        y = add_noise(clean, snr_db=20.0, seed=123)
        result = omp_recover(op, y, max_iters=2)
        assert sorted(result.support) == bins.tolist()


def test_score_recovery_refuses_negative_tolerance():
    result = RecoveryResult([3], np.ones(1, dtype=complex), [0.0])
    with pytest.raises(ValueError, match="tol_bins"):
        score_recovery(result, [ToneSpec(3e6)], TimeGrid(t_atom=1e-9, n_points=16), tol_bins=-1)
