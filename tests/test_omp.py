"""Tests for greedy recovery and the noisy detection bound."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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

            def coherence(self):
                return 1.0, 1

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

    def assert_one_workspace(self):
        """Every call, in every block, wrote into a view of one workspace."""
        assert all(out is not None for out in self.outs)
        assert all(np.shares_memory(out, self.outs[0]) for out in self.outs)


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

    def test_one_adjoint_per_iteration_over_active_rows(self, op, batch):
        """The first iteration takes one adjoint over a block's active rows; after
        it, a row takes at most one adjoint per iteration, of its own residual
        alone, into its own row of the one workspace."""
        counting = CountingOp(op)
        results = omp_recover_batch(counting, batch, self.MAX_ITERS)
        k = op.k_measurements
        # blocks of three rows: in the first, the zero row never enters and the
        # one-tone row leaves after iteration 1; the noise row is the second
        firsts = [i for i, shape in enumerate(counting.adjoint_shapes) if len(shape) == 2]
        assert [counting.adjoint_shapes[i] for i in firsts] == [(2, k), (1, k)]
        refreshes = [i for i in range(len(counting.adjoint_shapes)) if i not in firsts]
        assert all(counting.adjoint_shapes[i] == (k,) for i in refreshes)
        assert all(counting.outs[i].shape == (op.n_bins,) for i in refreshes)
        assert len(refreshes) <= sum(r.iterations - 1 for r in results if r.iterations)
        counting.assert_one_workspace()

    @pytest.mark.parametrize("max_iters", [1, 2, 4, 12])
    def test_adjoint_at_first_iteration_and_on_failed_screens(
        self, op, batch, monkeypatch, max_iters
    ):
        """Past the first iteration every row-iteration screens its listed bins and
        takes an adjoint exactly when the screen fails; a one-step pursuit
        screens nothing."""
        verdicts = []
        screen = omp._screen

        def recording(*args):
            verdicts.append(screen(*args))
            return verdicts[-1]

        monkeypatch.setattr(omp, "_screen", recording)
        counting = CountingOp(op)
        results = omp_recover_batch(counting, batch, max_iters)
        k = op.k_measurements
        assert counting.adjoint_shapes[0] == (2, k)
        assert len(counting.adjoint_shapes) == 2 + verdicts.count(None)
        assert len(verdicts) == sum(max(0, r.iterations - 1) for r in results)
        if max_iters >= 4:  # the noisy three-tone row finds its later tones screened
            assert any(verdict is not None for verdict in verdicts)
        counting.assert_one_workspace()

    def test_blocks_bound_rows_per_adjoint(self, op, batch, monkeypatch):
        monkeypatch.setattr(omp, "_BATCH_POINTS", 2 * op.n_bins)
        counting = CountingOp(op)
        omp_recover_batch(counting, batch, 2)
        # two blocks of two rows, one first-iteration adjoint each (the zero row
        # never enters the first); a refresh holds one row
        assert [shape[0] for shape in counting.adjoint_shapes if len(shape) == 2] == [1, 2]
        counting.assert_one_workspace()

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
    """Correlations screened through p select the bins a full adjoint selects."""

    MAX_ITERS = 16  # rows screen, refresh, and run out of tones

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
        """The screened pursuit equals reference_omp, which takes a full adjoint
        FFT at every iteration: supports, coefficient bytes and residual logs."""
        op = self.operator(n)
        batch = self.batch(op)
        monkeypatch.setattr(omp, "_PSF_CHUNK", chunk)
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
        adjoint_rows = sum(shape[0] if len(shape) == 2 else 1 for shape in counting.adjoint_shapes)
        assert adjoint_rows < sum(r.iterations for r in got) == 6 * 40

    @pytest.mark.parametrize("n", [512, 1001, 2**14 + 3])
    @pytest.mark.parametrize("chunk", [64, 100, omp._PSF_CHUNK])
    def test_strongest_bin_equals_brute_force(self, n, chunk, monkeypatch):
        """The chunked scan picks ``np.argmax`` of |alpha| outside the support, and
        the chunked listing keeps exactly the bins where |alpha| >= tau there, or
        none once more than one chunk of bins qualifies."""
        monkeypatch.setattr(omp, "_PSF_CHUNK", chunk)
        op = self.operator(n)
        rng = np.random.default_rng(n + chunk)
        g = op.adjoint(rng.standard_normal(op.k_measurements) + 0.5j)
        unread = g.copy()
        # supports at a chunk's first and last bins and at both ends of g
        supports = [[], [0], [n - 1, 0, 1], [n // 2, chunk % n, (chunk - 1) % n, n - 2],
                    rng.choice(n, size=11, replace=False).tolist()]
        for support in supports:
            magnitude = np.abs(g)
            magnitude[support] = -1.0
            assert omp._strongest_bin(g, support) == (int(np.argmax(magnitude)), magnitude.max())
            for fraction in (0.9, 0.5, omp._LIST_FRACTION, 0.05):
                want = np.flatnonzero(magnitude >= fraction * magnitude.max())
                bins, values = omp._listed(g, support, fraction * magnitude.max())
                if len(want) > chunk:
                    assert len(bins) == len(values) == 0
                else:
                    assert bins.tolist() == want.tolist()
                    assert values.tobytes() == g[want].tobytes()
        assert np.array_equal(g, unread)

    def test_ties_across_chunks_go_to_the_lowest_bin(self, monkeypatch):
        """The scan and the screen both resolve ties to the lowest bin."""
        monkeypatch.setattr(omp, "_PSF_CHUNK", 4)
        p = np.zeros(12, dtype=complex)
        p[0], p[2], p[10] = 1.0, -0.25, -0.25  # Hermitian, as every operator's p is
        g = np.zeros(12, dtype=complex)
        g[[3, 4, 5, 7, 9]] = [1.75, 2.0, 8.0, 1.75, 2j]
        assert omp._strongest_bin(g, []) == (5, 8.0)
        # without bin 5, |g| = 2 ties at bins 4 and 9, in chunks 1 and 2
        assert omp._strongest_bin(g, [5]) == (4, 2.0)
        # bin 5 joins with c = 1: alpha = g - p[(5 - n) mod 12] is 2 at bins 3, 4,
        # 7 and 9, in chunks 0, 1, 1 and 2, above tau + mu |dc| = 1 + 0.25
        bins, values = omp._listed(g, [5], 1.0)
        assert bins.tolist() == [3, 4, 7, 9]
        top = omp._screen((p, 0.25), [5], np.array([1.0 + 0j]), np.zeros(0, dtype=complex),
                          1.0, bins, values)
        assert bins[top] == 3

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

            def coherence(self):
                raise AssertionError("coherence computed")

        rows = np.ones((2, op.k_measurements), dtype=complex)
        assert len(omp_recover_batch(NoPointSpread(op.grid, op.schedule), rows, 1)) == 2


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([7, 1001, 2**14 + 3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    atoms=st.integers(min_value=1, max_value=8),
    kept=st.integers(min_value=0, max_value=8),
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
@example(n=7, seed=42149, atoms=1, kept=1, scale=1.0)  # every index sampled: six exact ties
def test_screen_bound_holds_at_every_unlisted_bin(n, seed, atoms, kept, scale):
    """Outside the support, |alpha_i| <= |alpha'| + mu sum_j |dc_j|, both taken by
    full adjoints of explicit residuals. So an unlisted bin stays below the
    screen's bound tau + mu sum_j |dc_j|, and a screen that passes picks the full
    argmax, up to rounding."""
    rng = np.random.default_rng(seed)
    indices = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    op = SensingOperator(TimeGrid(t_atom=1e-9, n_points=n), SampleSchedule(indices))
    support = rng.choice(n, size=min(atoms, n - 1), replace=False).tolist()
    chosen = op.atoms(support)

    def gaussian(size):
        return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))

    y = chosen @ gaussian(len(support)) + 0.1 * gaussian(op.k_measurements)
    coefficients = gaussian(len(support))
    reference = coefficients[: min(kept, len(support))] + 0.3 * gaussian(min(kept, len(support)))
    earlier = op.adjoint(y - chosen[:, : len(reference)] @ reference)
    current = op.adjoint(y - chosen @ coefficients)
    delta = coefficients.copy()
    delta[: len(reference)] -= reference
    mu = op.coherence()[0]
    shift = mu * float(np.abs(delta).sum())
    slack = 1e-12 * (np.abs(earlier).max() + np.abs(delta).sum())  # two FFTs' rounding
    outside = np.ones(n, dtype=bool)
    outside[support] = False
    assert np.all(np.abs(current[outside]) <= np.abs(earlier[outside]) + shift + slack)

    tau = omp._LIST_FRACTION * np.abs(earlier[outside]).max()
    bins, values = omp._listed(earlier, support, tau)
    if len(bins):  # else the screen refreshes
        unlisted = outside.copy()
        unlisted[bins] = False
        assert np.all(np.abs(current[unlisted]) < tau + shift + slack)
    top = omp._screen((op.point_spread, mu), support, coefficients, reference, tau, bins, values)
    if top is not None:  # exact ties, as with every index sampled, may round either way
        magnitude = np.abs(current)
        magnitude[support] = -1.0
        assert magnitude[bins[top]] >= magnitude.max() - slack


class TestScreenRefreshes:
    def test_noise_only_row_lists_nothing_and_refreshes(self):
        """A noise-only row's |alpha'| is flat: far more than one chunk of bins
        reach tau, so it lists none and takes an adjoint at every iteration. No
        temporary of the scan, the listing or the screen holds more than a chunk:
        their traced peak stays under 8 chunks of complex values, a quarter of one
        length-N complex row."""
        n = 2**18
        rng = np.random.default_rng(n)
        op = SensingOperator(TimeGrid(t_atom=1e-9, n_points=n),
                             SampleSchedule(np.sort(rng.choice(n, size=4096, replace=False))))
        k = op.k_measurements
        y = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        counting = CountingOp(op)
        (result,) = omp_recover_batch(counting, y[np.newaxis], 4)
        assert counting.adjoint_shapes == [(1, k)] + [(k,)] * 3
        g = op.adjoint(y)
        tau = omp._LIST_FRACTION * np.abs(g).max()
        assert np.count_nonzero(np.abs(g) >= tau) > n // 8 > omp._PSF_CHUNK

        p, mu = op.point_spread, op.coherence()[0]
        support = result.support
        listed = np.arange(0, n, n // omp._PSF_CHUNK)  # one full chunk of bins
        tracemalloc.start()
        try:
            omp._strongest_bin(g, support)
            bins, values = omp._listed(g, support, tau)
            omp._screen((p, mu), support, result.coefficients, np.zeros(0, dtype=complex),
                        tau, listed, g[listed])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(bins) == len(values) == 0
        assert peak < 8 * omp._PSF_CHUNK * 16 <= n * 16 // 4

    def test_zero_peak_lists_nothing_and_refreshes(self):
        """A reference correlation whose best magnitude is 0 gives tau = 0: it
        lists no bin, rather than all N, and its screen refreshes."""
        op = TestPointSpreadCorrelations.operator(1001)
        zero = np.zeros(op.n_bins, dtype=complex)
        assert omp._strongest_bin(zero, [3]) == (0, 0.0)
        bins, values = omp._listed(zero, [3], omp._LIST_FRACTION * 0.0)
        assert len(bins) == len(values) == 0
        psf = (op.point_spread, op.coherence()[0])
        assert omp._screen(psf, [3], np.ones(1, dtype=complex), np.zeros(0, dtype=complex),
                           0.0, bins, values) is None


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
