"""Tests for greedy recovery and the noisy detection bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nyfold import omp
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

    def assert_one_buffer_per_block(self, calls_per_block):
        """Every call of a block wrote into a view of that block's one workspace."""
        assert all(out is not None for out in self.outs)
        for i in range(0, len(self.outs), calls_per_block):
            block = self.outs[i : i + calls_per_block]
            assert all(np.shares_memory(out, block[0]) for out in block)


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
        """Random rows, budgets and block sizes: rows leave early and blocks shrink."""
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

    def test_one_adjoint_per_iteration_over_active_rows(self, op, batch, monkeypatch):
        """With no point-spread updates, every iteration takes one adjoint."""
        monkeypatch.setattr(omp, "_PSF_ATOMS", 0)
        counting = CountingOp(op)
        omp_recover_batch(counting, batch, self.MAX_ITERS)
        k = op.k_measurements
        # blocks of three rows: in the first, the zero row never enters and the
        # one-tone row leaves after iteration 1; the noise row is the second
        first = [(2, k)] + [(1, k)] * (self.MAX_ITERS - 1)
        assert counting.adjoint_shapes == first + [(1, k)] * self.MAX_ITERS
        counting.assert_one_buffer_per_block(self.MAX_ITERS)

    @pytest.mark.parametrize("psf_atoms", [1, 2, 4, omp._PSF_ATOMS])
    def test_adjoint_at_first_iteration_and_from_psf_atoms_on(
        self, op, batch, monkeypatch, psf_atoms
    ):
        """Iterations 2 .. _PSF_ATOMS read p; the first and later ones take an adjoint."""
        monkeypatch.setattr(omp, "_PSF_ATOMS", psf_atoms)
        counting = CountingOp(op)
        omp_recover_batch(counting, batch, self.MAX_ITERS)
        k = op.k_measurements
        later = max(0, self.MAX_ITERS - psf_atoms)  # adjoints after the first, per block
        # the one-tone row leaves the first block after iteration 1, so its
        # later adjoints hold one row, as do all of the second block's
        first = [(2, k)] + [(1, k)] * later
        assert counting.adjoint_shapes == first + [(1, k)] * (1 + later)
        counting.assert_one_buffer_per_block(1 + later)

    def test_blocks_bound_rows_per_adjoint(self, op, batch, monkeypatch):
        monkeypatch.setattr(omp, "_BATCH_POINTS", 2 * op.n_bins)
        counting = CountingOp(op)
        omp_recover_batch(counting, batch, 2)
        assert max(shape[0] for shape in counting.adjoint_shapes) == 2
        # two blocks, one adjoint each: the second iteration reads p
        assert len(counting.adjoint_shapes) == 2
        counting.assert_one_buffer_per_block(1)

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
    """Correlations read from p select the bins the adjoint FFT selects."""

    MAX_ITERS = 16  # past _PSF_ATOMS, so rows also switch to the FFT

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
    @pytest.mark.parametrize("chunk", [64, 100, omp._PSF_CHUNK])
    def test_equal_to_fft_path_bitwise(self, n, chunk, monkeypatch):
        op = self.operator(n)
        batch = self.batch(op)
        monkeypatch.setattr(omp, "_PSF_CHUNK", chunk)
        got = omp_recover_batch(op, batch, self.MAX_ITERS)
        monkeypatch.setattr(omp, "_PSF_ATOMS", 0)  # every iteration takes the adjoint
        want = omp_recover_batch(op, batch, self.MAX_ITERS)
        for g, w in zip(got, want):
            assert_same_result(g, w)
        assert {0, n - 1} <= set(got[0].support)
        assert [r.iterations for r in got] == [self.MAX_ITERS, 3, 0, self.MAX_ITERS, 2]

    def test_ties_across_chunks_go_to_the_lowest_bin(self, monkeypatch):
        monkeypatch.setattr(omp, "_PSF_CHUNK", 4)
        p = np.zeros(10, dtype=complex)
        p[0], p[2] = 1.0, -2.0
        g = np.zeros(10, dtype=complex)
        g[[4, 5, 9]] = [2.0, 5.0, 2j]
        # the selected bin 5 adds 2 at bin 3, the last of chunk 0: |corr| = 2
        # at bins 3, 4 and 9, in chunks 0, 1 and 2, and 4 at bin 5, excluded
        assert omp._psf_argmax(g, p, [5], np.array([1.0 + 0j])) == 3
        assert omp._psf_argmax(g, p, [], np.zeros(0, dtype=complex)) == 5
        g[5] = 0.0
        assert omp._psf_argmax(g, p, [], np.zeros(0, dtype=complex)) == 4

    def test_one_step_pursuit_builds_no_point_spread(self, op):
        class NoPointSpread(SensingOperator):
            @property
            def point_spread(self):
                raise AssertionError("point_spread computed")

        rows = np.ones((2, op.k_measurements), dtype=complex)
        assert len(omp_recover_batch(NoPointSpread(op.grid, op.schedule), rows, 1)) == 2


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
