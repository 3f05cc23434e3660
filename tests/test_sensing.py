"""Tests for the row-subsampled Fourier sensing operator.

The oracle throughout is the explicit dense K x N matrix: every fast path
(FFT synthesis and correlation, the point-spread Gram gather) must agree with
plain matrix arithmetic on grids small enough to build it.
"""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from nyfold import sensing
from nyfold.rip import estimate_modulation_constant
from nyfold.sensing import SensingOperator, SparseSpectrum, empirical_rip
from nyfold.signal_clock import (
    ClockConfig,
    LinearChirp,
    SampleSchedule,
    TimeGrid,
    ToneSpec,
    compute_sample_schedule,
    synthesize_signal,
)


def make_operator(n_points=256, f_s1=16.0, modulation=None, t_atom=1.0 / 256):
    grid = TimeGrid(t_atom=t_atom, n_points=n_points)
    clock = ClockConfig(f_s1=f_s1, modulation=modulation)
    schedule = compute_sample_schedule(clock, grid)
    return SensingOperator(grid, schedule)


@pytest.fixture(scope="module")
def op():
    # 16 uniform rows out of 256 bins
    return make_operator()


@pytest.fixture(scope="module")
def chirped_op():
    return make_operator(f_s1=16.0, modulation=LinearChirp(4.0, 1.0))


@pytest.fixture(scope="module")
def dense(op):
    return op.atoms(np.arange(op.n_bins))


def random_spectrum(rng, n, s):
    bins = np.sort(rng.choice(n, size=s, replace=False))
    coeff = rng.standard_normal(s) + 1j * rng.standard_normal(s)
    return SparseSpectrum(bins, coeff)


class TestSparseSpectrum:
    def test_to_dense_roundtrip(self):
        spec = SparseSpectrum(np.array([1, 5]), np.array([1.0, 2j]))
        dense = spec.to_dense(8)
        assert dense.shape == (8,)
        assert dense[1] == 1.0 and dense[5] == 2j
        assert len(spec.bins) == 2

    @pytest.mark.parametrize(
        "bins,coeff",
        [
            ([3, 1], [1.0, 1.0]),       # unsorted
            ([2, 2], [1.0, 1.0]),       # duplicate
            ([-1, 2], [1.0, 1.0]),      # negative
            ([1, 2, 3], [1.0, 1.0]),    # length mismatch
        ],
    )
    def test_validation(self, bins, coeff):
        with pytest.raises(ValueError):
            SparseSpectrum(np.array(bins), np.array(coeff, dtype=complex))


class TestOperatorAlgebra:
    def test_atoms_are_unit_norm(self, op):
        atoms = op.atoms(np.arange(op.n_bins))
        assert_allclose(np.linalg.norm(atoms, axis=0), 1.0, rtol=1e-12)

    def test_atom_values_match_definition(self, op):
        j = 37
        column = op.atoms([j])[:, 0]
        expected = np.exp(
            2j * np.pi * op.schedule.indices * j / op.n_bins
        ) / math.sqrt(op.k_measurements)
        assert_allclose(column, expected, rtol=1e-12)

    def test_forward_matches_dense(self, op, dense):
        rng = np.random.default_rng(0)
        for s in (1, 4, 12):
            spec = random_spectrum(rng, op.n_bins, s)
            assert_allclose(
                op.forward(spec), dense @ spec.to_dense(op.n_bins), atol=1e-10
            )

    def test_direct_and_fft_paths_agree(self, op):
        rng = np.random.default_rng(2)
        spec = random_spectrum(rng, op.n_bins, 6)
        y_direct = op.atoms(spec.bins) @ spec.coefficients
        assert_allclose(op.forward(spec), y_direct, atol=1e-11)

    def test_adjoint_matches_dense(self, op, dense):
        rng = np.random.default_rng(3)
        y = rng.standard_normal(op.k_measurements) + 1j * rng.standard_normal(
            op.k_measurements
        )
        assert_allclose(op.adjoint(y), dense.conj().T @ y, atol=1e-10)

    def test_batched_adjoint_equals_per_row_bitwise(self, chirped_op):
        """Whichever FFT path a batch of 1-6 rows takes, each row holds its own
        scaled transform, allocated, in a fresh out and in a stale NaN-filled one."""
        rng = np.random.default_rng(31)
        k, n = chirped_op.k_measurements, chirped_op.n_bins
        for rows in range(1, 7):
            y = rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))
            want = np.zeros((rows, n), dtype=complex)
            want[:, chirped_op.schedule.indices] = y
            want = np.array([np.fft.fft(row) * (1.0 / math.sqrt(k)) for row in want])
            fresh, stale = np.zeros((rows, n), dtype=complex), np.full((rows, n), np.nan + 0j)
            for out in (None, fresh, stale):
                assert chirped_op.adjoint(y, out=out).tobytes() == want.tobytes()
            assert np.array_equal(want[-1], chirped_op.adjoint(y[-1]))

    def test_adjoint_transforms_every_row_alone(self, chirped_op, monkeypatch):
        """numpy's FFT of two or more rows holds more scratch memory than one
        row, so every batch is transformed one (N,) row at a time."""
        shapes = []
        fft = np.fft.fft

        def recorder(a, *args, **kwargs):
            shapes.append(a.shape)
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", recorder)
        k, n = chirped_op.k_measurements, chirped_op.n_bins
        chirped_op.adjoint(np.ones(k))
        for rows in range(1, 7):
            chirped_op.adjoint(np.ones((rows, k)))
        assert shapes == [(n,)] * (1 + sum(range(1, 7)))

    def test_adjoint_rejects_bad_shapes(self, op):
        k = op.k_measurements
        for shape in [(k + 1,), (2, k - 1), (k, 2), (1, 2, k), ()]:
            with pytest.raises(ValueError):
                op.adjoint(np.ones(shape, dtype=complex))

    def test_adjoint_rejects_non_finite(self, op):
        y = np.ones((3, op.k_measurements), dtype=complex)
        y[1, 4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            op.adjoint(y)
        with pytest.raises(ValueError, match="finite"):
            op.adjoint(np.full(op.k_measurements, np.inf, dtype=complex))

    def test_adjoint_out_equals_allocating_call_bitwise(self, chirped_op):
        """out= returns the allocating call's bits in the caller's memory, stale or fresh."""
        rng = np.random.default_rng(32)
        k, n = chirped_op.k_measurements, chirped_op.n_bins
        y = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
        for measurements, shape in ((y, (3, n)), (y[0], (n,))):
            want = chirped_op.adjoint(measurements)
            fresh = np.zeros(shape, dtype=complex)
            stale = np.full(shape, complex(np.nan, 7.0))
            for out in (fresh, stale):
                got = chirped_op.adjoint(measurements, out=out)
                assert np.shares_memory(got, out)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_adjoint_out_rejects_bad_buffers(self, op):
        k, n = op.k_measurements, op.n_bins
        bad = [
            (np.ones((2, k)), np.empty((2, n - 1), dtype=complex)),  # shape
            (np.ones((2, k)), np.empty((1, n), dtype=complex)),  # shape
            (np.ones(k), np.empty((1, n), dtype=complex)),  # shape
            (np.ones((2, k)), np.empty((2, n), dtype=np.complex64)),  # dtype
            (np.ones(k), np.empty(n)),  # dtype
            (np.ones((2, k)), np.empty((n, 2), dtype=complex).T),  # not C-contiguous
            (np.ones(k), np.empty(2 * n, dtype=complex)[::2]),  # strided
            (np.ones(k), [0j] * n),  # not an array
        ]
        for y, out in bad:
            with pytest.raises(ValueError, match="out must be"):
                op.adjoint(y, out=out)

    def test_forward_takes_only_a_sparse_spectrum(self, op):
        for x in (np.ones(op.n_bins, dtype=complex), [1.0] * op.n_bins):
            with pytest.raises(TypeError, match="SparseSpectrum"):
                op.forward(x)

    def test_forward_rejects_non_finite_sparse(self, op):
        # a 2-bin and a 200-bin spectrum: the guard does not depend on sparsity
        for bins in ([3, 90], np.arange(200)):
            coefficients = np.ones(len(bins), dtype=complex)
            coefficients[1] = np.inf
            with pytest.raises(ValueError, match="finite"):
                op.forward(SparseSpectrum(bins, coefficients))

    def test_inner_product_identity(self, op):
        """<Phi x, y> == <x, Phi* y> pins forward/adjoint consistency."""
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(op.n_bins) + 1j * rng.standard_normal(op.n_bins)
            y = rng.standard_normal(op.k_measurements) + 1j * rng.standard_normal(
                op.k_measurements
            )
            lhs = np.vdot(y, op.forward(SparseSpectrum(np.arange(op.n_bins), x)))
            rhs = np.vdot(op.adjoint(y), x)
            assert_allclose(lhs, rhs, rtol=1e-10)

    # zero or |v| in [1e-3, 1e3]: products of subnormals lose relative precision
    _VALUES = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))

    @settings(max_examples=80, deadline=None)
    @given(
        picks=st.sets(st.integers(min_value=0, max_value=255), min_size=1, max_size=64),
        x=hnp.arrays(np.float64, (2, 256), elements=_VALUES),
        y=hnp.arrays(np.float64, (2, 64), elements=_VALUES),
    )
    def test_adjoint_consistency_property(self, picks, x, y):
        """<Phi x, y> == <x, Phi* y> for random schedules and dense x, y."""
        grid = TimeGrid(t_atom=1.0 / 256, n_points=256)
        indices = np.array(sorted(picks), dtype=np.int64)
        op = SensingOperator(grid, SampleSchedule(indices))
        x = x[0] + 1j * x[1]
        y = (y[0] + 1j * y[1])[: op.k_measurements]
        phi_x = op.forward(SparseSpectrum(np.arange(op.n_bins), x))
        phi_star_y = op.adjoint(y)
        lhs = np.vdot(y, phi_x)
        rhs = np.vdot(phi_star_y, x)
        # relative to the Cauchy-Schwarz scale of either side
        scale = max(
            np.linalg.norm(y) * np.linalg.norm(phi_x),
            np.linalg.norm(phi_star_y) * np.linalg.norm(x),
        )
        assert abs(lhs - rhs) <= 1e-12 * scale

    def test_synthesized_tone_equals_scaled_atom(self, chirped_op):
        """A bin-centered tone sampled on the schedule is sqrt(K) times an atom."""
        grid = chirped_op.grid
        j = 40
        tone = ToneSpec(frequency=j * grid.f_res)
        x = synthesize_signal([tone], grid)
        sampled = x[chirped_op.schedule.indices]
        assert_allclose(
            sampled,
            math.sqrt(chirped_op.k_measurements) * chirped_op.atoms([j])[:, 0],
            rtol=1e-9,
        )


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# power of two, the benchmark grids, an odd radix-3/5 size and a prime that
# pocketfft transforms by Bluestein's algorithm
ORACLE_SIZES = [2**18, 10**5, 10**6, 3**9 * 5, 100_003]


class TestScipyOracle:
    """numpy.fft paths give scipy.fft's bits, sign bits of zeros included."""

    @staticmethod
    def random_operator(n):
        rng = np.random.default_rng(n)
        indices = np.sort(rng.choice(n, size=n // 40, replace=False))
        grid = TimeGrid(t_atom=1e-10, n_points=n)
        return SensingOperator(grid, SampleSchedule(indices)), rng

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_adjoint_and_forward(self, n):
        op, rng = self.random_operator(n)
        k, indices = op.k_measurements, op.schedule.indices
        y = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
        rows = np.zeros((3, n), dtype=complex)
        rows[:, indices] = y
        want = scipy.fft.fft(rows, axis=-1) * (1.0 / math.sqrt(k))
        assert_same_bits(op.adjoint(y), want)
        assert_same_bits(op.adjoint(y[1]), want[1])
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert_same_bits(op.forward(SparseSpectrum(np.arange(n), x)),
                         scipy.fft.ifft(x)[indices] * (n / math.sqrt(k)))

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_point_spread(self, n):
        op, _ = self.random_operator(n)
        mask = np.zeros(n)
        mask[op.schedule.indices] = 1.0
        p = op.point_spread
        assert_same_bits(p, scipy.fft.ifft(mask, norm="forward") / op.k_measurements)
        # p[N - d] == conj(p[d]) exactly; at d = N/2 only the zero's sign differs
        assert np.array_equal(p[:0:-1], p[1:].conj())

    @pytest.mark.parametrize("n", [2**18, 10**5, 1001, 3**9 * 5])
    def test_point_spread_is_the_concatenated_halves(self, n):
        """Built in place, p keeps the bits of conj(rfft) joined to its mirror."""
        op, _ = self.random_operator(n)
        mask = np.zeros(n)
        mask[op.schedule.indices] = 1.0
        half = np.fft.rfft(mask).conj()
        mirror = half[1 : (n + 1) // 2][::-1].conj()
        assert_same_bits(op.point_spread, np.concatenate([half, mirror]) / op.k_measurements)


class TestGramAndDeviation:
    def test_gram_matches_dense(self, op, dense):
        bins = np.array([0, 3, 50, 128])
        gram = op.gram_matrix(bins)
        assert_allclose(gram, dense[:, bins].conj().T @ dense[:, bins], atol=1e-11)
        assert_allclose(gram, gram.conj().T, atol=1e-12)
        assert_allclose(np.diag(gram).real, 1.0, rtol=1e-12)

    def test_eigen_bounds_match_numpy(self, op):
        rng = np.random.default_rng(6)
        bins = np.sort(rng.choice(op.n_bins, size=8, replace=False))
        lo, hi, dev = op.gram_eigen_bounds(bins)
        eigs = np.linalg.eigvalsh(op.gram_matrix(bins))
        assert_allclose(lo, eigs[0], atol=1e-10)
        assert_allclose(hi, eigs[-1], atol=1e-10)
        assert_allclose(dev, max(1 - eigs[0], eigs[-1] - 1), atol=1e-10)

    def test_deviation_matches_gram_oracle(self, op, dense):
        rng = np.random.default_rng(7)
        for s in (2, 5, 9):
            spec = random_spectrum(rng, op.n_bins, s)
            gram = dense[:, spec.bins].conj().T @ dense[:, spec.bins]
            expected = abs(
                np.linalg.norm(gram @ spec.coefficients)
                / np.linalg.norm(spec.coefficients)
                - 1.0
            )
            assert_allclose(op.spectral_norm_deviation(spec), expected, atol=1e-10)

    def test_uniform_congruent_bins_collide(self, op):
        # 16 uniform rows: bins 16 apart share every sample phase
        k = op.k_measurements
        spec = SparseSpectrum(np.array([5, 5 + k]), np.array([1.0, 1.0 + 0j]))
        assert_allclose(op.spectral_norm_deviation(spec), 1.0, atol=1e-9)
        _, _, dev = op.gram_eigen_bounds(np.array([5, 5 + k]))
        assert_allclose(dev, 1.0, atol=1e-9)

    def test_uniform_noncongruent_bins_orthogonal(self, op):
        spec = SparseSpectrum(np.array([5, 22]), np.array([1.0, 1.0 + 0j]))
        assert op.spectral_norm_deviation(spec) < 1e-9

    def test_collision_deviation_closed_form(self, op):
        """Unequal amplitudes on colliding bins: delta = sqrt(2+4ab/(a^2+b^2))-1."""
        k = op.k_measurements
        for a, b in [(1.0, 1.0), (2.0, 1.0), (10.0, 1.0)]:
            spec = SparseSpectrum(np.array([3, 3 + k]), np.array([a, b], dtype=complex))
            expected = math.sqrt(2.0 + 4.0 * a * b / (a * a + b * b)) - 1.0
            assert_allclose(op.spectral_norm_deviation(spec), expected, atol=1e-9)

    def test_modulation_suppresses_collision(self, op, chirped_op):
        k = op.k_measurements
        spec = SparseSpectrum(np.array([5, 5 + k]), np.array([1.0, 1.0 + 0j]))
        assert op.spectral_norm_deviation(spec) > 0.99
        assert chirped_op.spectral_norm_deviation(spec) < 0.5

    def test_pairwise_bound_holds_one_harmonic_apart_not_everywhere(self):
        """On criterion 05's grid and clock, C sqrt(f_res / f_dev) bounds the two-tone
        deviation at the one offset the criterion samples, one clock harmonic (K bins),
        but 4 offsets d <= N/2, 241-244 bins past it, exceed the bound."""
        grid = TimeGrid(1e-10, 2**18)
        cycles = round(2e8 * grid.duration)
        clock = ClockConfig(cycles / grid.duration, LinearChirp(1e7, grid.duration))
        op = SensingOperator(grid, compute_sample_schedule(clock, grid))
        c_value = estimate_modulation_constant(clock, grid, 20).c_value
        bound = c_value * math.sqrt(grid.f_res / clock.f_dev)
        stride = round(clock.f_s1 / grid.f_res)
        assert stride == op.k_measurements == 5243
        assert_allclose([c_value, bound], [1.18645, 0.073279], rtol=0, atol=5e-6)
        assert op.gram_eigen_bounds([0, stride])[2] == pytest.approx(0.02972, abs=5e-6)
        assert op.gram_eigen_bounds([0, 5485])[2] == pytest.approx(0.075227, abs=5e-7)
        # a two-bin support's deviation is |p[d]|, its Gram's off-diagonal entry
        deviation = np.abs(op.point_spread[1 : grid.n_points // 2 + 1])
        assert (np.flatnonzero(deviation > bound) + 1).tolist() == [5484, 5485, 5486, 5487]

    @pytest.mark.parametrize("size", [65, 200])
    def test_eigen_bounds_take_any_support(self, size):
        """Supports past the old 64-bin cap give the dense Gram's eigenvalues."""
        op = make_operator(n_points=4096, f_s1=512.0, modulation=LinearChirp(32.0, 1.0),
                           t_atom=1.0 / 4096)
        support = np.sort(np.random.default_rng(size).choice(op.n_bins, size, replace=False))
        atoms = op.atoms(support)
        w = np.linalg.eigvalsh(atoms.conj().T @ atoms)
        lo, hi, deviation = op.gram_eigen_bounds(support)
        assert_allclose([lo, hi, deviation], [w[0], w[-1], max(1 - w[0], w[-1] - 1)],
                        rtol=0, atol=1e-12)

    def test_point_spread_is_the_mask_fft(self):
        """p = conj(FFT(mask)) / K, taken on first use and then kept."""
        op = make_operator(modulation=LinearChirp(4.0, 1.0))
        assert "point_spread" not in vars(op)
        mask = np.zeros(op.n_bins)
        mask[op.schedule.indices] = 1.0
        expected = np.conj(np.fft.fft(mask)) / op.k_measurements
        assert_allclose(op.point_spread, expected, rtol=0, atol=1e-15)
        assert op.point_spread[0] == 1.0
        assert op.point_spread is op.point_spread

    def test_gram_rejects_out_of_range_bins(self, op):
        for bins in ([3, op.n_bins], [-1, 4]):
            with pytest.raises(ValueError, match="out of range"):
                op.gram_matrix(bins)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=2, max_value=512), data=st.data())
    def test_gram_gather_equals_atom_gram_property(self, n, data):
        """p[(b_j - b_i) mod N] == <a_i, a_j>, and the gather is exactly Hermitian."""
        bins = st.integers(min_value=0, max_value=n - 1)
        picks = data.draw(st.sets(bins, min_size=1, max_size=64))
        support = data.draw(st.lists(bins, min_size=1, max_size=32, unique=True))
        grid = TimeGrid(t_atom=1.0 / n, n_points=n)
        indices = np.array(sorted(picks), dtype=np.int64)
        op = SensingOperator(grid, SampleSchedule(indices))
        atoms = op.atoms(support)
        gram = op.gram_matrix(support)
        assert_allclose(gram, atoms.conj().T @ atoms, rtol=0, atol=1e-12)
        assert np.array_equal(gram, gram.conj().T)

    @pytest.mark.parametrize("n_points", [256, 255])
    def test_deviation_matches_atom_oracle_at_the_path_rule(self, n_points, monkeypatch):
        """16 bins: S^2 = N gathers the Gram, S^2 = N + 1 takes the two FFTs."""
        rng = np.random.default_rng(n_points)
        grid = TimeGrid(t_atom=1.0 / n_points, n_points=n_points)
        indices = np.sort(rng.choice(n_points, size=40, replace=False))
        op = SensingOperator(grid, SampleSchedule(indices))
        spec = random_spectrum(rng, n_points, 16)
        atoms = op.atoms(spec.bins)
        x_norm = np.linalg.norm(spec.coefficients)
        expected = abs(np.linalg.norm(atoms.conj().T @ atoms @ spec.coefficients) / x_norm - 1)
        unused = "adjoint" if n_points == 16 * 16 else "gram_matrix"
        monkeypatch.setattr(op, unused, lambda *args: pytest.fail(f"{unused} called"))
        assert_allclose(op.spectral_norm_deviation(spec), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_bins", [2, 200])
    def test_deviation_rejects_non_finite_and_zero_weights(self, op, n_bins):
        for bad in (np.inf, np.nan, 0.0):
            coefficients = np.full(n_bins, bad, dtype=complex)
            with pytest.raises(ValueError, match="finite and nonzero"):
                op.spectral_norm_deviation(SparseSpectrum(np.arange(n_bins), coefficients))


class TestCoherence:
    @pytest.mark.parametrize("n", [2, 7, 1001, 2**14 + 3])
    @pytest.mark.parametrize("chunk", [3, 64, sensing._PSF_CHUNK])
    def test_equals_brute_force_max(self, n, chunk, monkeypatch):
        """mu and its lowest offset equal a brute-force max of |p[d]| over every d != 0,
        whichever chunks the half-spectrum scan takes."""
        monkeypatch.setattr(sensing, "_PSF_CHUNK", chunk)
        rng = np.random.default_rng(n)
        for k in sorted({1, max(1, n // 8), n - 1, n}):
            indices = np.sort(rng.choice(n, size=k, replace=False))
            op = SensingOperator(TimeGrid(t_atom=1e-9, n_points=n), SampleSchedule(indices))
            magnitude = np.abs(op.point_spread)
            magnitude[0] = -1.0
            mu, offset = op.coherence()
            assert (mu, offset) == (magnitude.max(), int(np.argmax(magnitude)))
            assert type(mu) is float and type(offset) is int
            assert op.coherence() is op.coherence()  # taken once, then kept

    @pytest.mark.parametrize("n,s", [(6, 3), (1001, 7), (1024, 8), (10**5, 50), (2**18, 64)])
    def test_every_s_th_index_gives_exactly_one_at_n_over_s(self, n, s):
        """A comb of every s-th index aliases bins N/s apart: p[N/s] = 1. At these
        sizes the FFT of the comb is exact; at others its peaks can round by an
        ulp (N = 10^6 with s = 500 gives 1.0000000000000002 at 21 N/s)."""
        op = SensingOperator(TimeGrid(t_atom=1e-9, n_points=n), SampleSchedule(np.arange(0, n, s)))
        assert op.coherence() == (1.0, n // s)

    def test_criterion_05_grid_peaks_past_its_pairwise_bound(self):
        """On criterion 05's grid and clock, mu is the worst two-bin deviation,
        0.0752 at d = 5485, above the bound 0.0733 (see the pairwise test above)."""
        grid = TimeGrid(1e-10, 2**18)
        cycles = round(2e8 * grid.duration)
        clock = ClockConfig(cycles / grid.duration, LinearChirp(1e7, grid.duration))
        op = SensingOperator(grid, compute_sample_schedule(clock, grid))
        mu, offset = op.coherence()
        assert offset == 5485
        assert mu == pytest.approx(0.075227, abs=5e-7)
        assert op.gram_eigen_bounds([0, offset])[2] == pytest.approx(mu, rel=1e-13)


class TestEmpiricalRip:
    def test_report_shape_and_reproducibility(self, op):
        r1 = empirical_rip(op, sparsity=4, trials=16, seed=11)
        r2 = empirical_rip(op, sparsity=4, trials=16, seed=11)
        assert r1.shape == (16,)
        assert_allclose(r1, r2)

    def test_different_seeds_differ(self, op):
        r1 = empirical_rip(op, sparsity=4, trials=16, seed=11)
        r2 = empirical_rip(op, sparsity=4, trials=16, seed=12)
        assert not np.allclose(r1, r2)

    def test_deviations_grow_with_sparsity(self, op):
        small = empirical_rip(op, sparsity=2, trials=32, seed=0)
        large = empirical_rip(op, sparsity=12, trials=32, seed=0)
        assert large.max() > small.max()

    def test_sparsity_bounds_validated(self, op):
        with pytest.raises(ValueError):
            empirical_rip(op, sparsity=0, trials=4, seed=0)
        with pytest.raises(ValueError):
            empirical_rip(op, sparsity=op.n_bins + 1, trials=4, seed=0)


def _tiny_operator(indices=(0, 3, 7)):
    return SensingOperator(TimeGrid(t_atom=1e-9, n_points=16), SampleSchedule(np.array(indices)))


def _adjoint_into_its_own_input():
    out = np.ones((1, 16), dtype=complex)
    return _tiny_operator().adjoint(out[:, 13:], out=out)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: _tiny_operator((0, 3, 16)), "outside the grid"),
        (lambda: _tiny_operator((-1, 3, 7)), "non-negative"),
        (lambda: _tiny_operator().gram_matrix([]), "empty"),
        (lambda: _tiny_operator().gram_matrix([2, 5, 2]), "distinct"),
        (lambda: SparseSpectrum(np.array([], dtype=int), np.array([])), "no entries"),
        (lambda: SparseSpectrum(np.array([2, 9]), np.ones(2)).to_dense(9), "exceed"),
        (lambda: empirical_rip(_tiny_operator(), 2, trials=0, seed=0), "trial"),
        (_adjoint_into_its_own_input, "overlap"),
    ],
    ids=["index-past-grid", "index-negative", "gram-empty", "gram-repeated", "spectrum-empty",
         "dense-too-short", "rip-no-trials", "adjoint-out-overlaps-y"],
)
def test_refuses_invalid_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
