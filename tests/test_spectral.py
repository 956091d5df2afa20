import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actfactors.errors import DataError, DimensionError, ZeroVarianceSeries
from actfactors.spectral import (
    DataMatrix,
    Spectrum,
    eigenvalues_desc,
    kaiser_population_count,
    naive_kaiser_estimate,
    sample_covariance,
    spectra,
    to_correlation,
)

panel_shapes = st.tuples(st.integers(3, 40), st.integers(2, 60))


class TestSampleCovariance:
    def test_two_point_n_divisor(self):
        cov = sample_covariance(np.array([[0.0, 0.0], [2.0, 2.0]]))
        np.testing.assert_allclose(cov, [[1.0, 1.0], [1.0, 1.0]], atol=1e-14)

    def test_constant_columns(self):
        cov = sample_covariance(np.array([[1.0, 5.0]] * 3))
        np.testing.assert_allclose(cov, np.zeros((2, 2)), atol=1e-14)

    def test_hand_evaluation(self):
        # mean (1, 2); deviations (-1,-2), (0,-1), (1,3); divide by n=3
        cov = sample_covariance(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 5.0]]))
        expected = [[2.0 / 3.0, 5.0 / 3.0], [5.0 / 3.0, 14.0 / 3.0]]
        np.testing.assert_allclose(cov, expected, rtol=1e-14)

    def test_single_row_rejected(self):
        with pytest.raises(DimensionError):
            sample_covariance(np.array([[1.0, 2.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            sample_covariance(np.array([[0.0, np.nan], [1.0, 2.0]]))


class TestToCorrelation:
    def test_symmetric_scaling(self):
        corr = to_correlation(np.array([[4.0, 2.0], [2.0, 4.0]]))
        np.testing.assert_allclose(corr, [[1.0, 0.5], [0.5, 1.0]], rtol=1e-14)

    def test_identity(self):
        corr = to_correlation(np.eye(4))
        np.testing.assert_allclose(corr, np.eye(4))

    def test_zero_variance_series(self):
        with pytest.raises(ZeroVarianceSeries) as exc:
            to_correlation(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert exc.value.column == 2

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 8))
        a = rng.standard_normal((p + 3, p))
        m = a.T @ a / (p + 3)
        d = rng.uniform(0.1, 10.0, p)
        scaled = m * np.outer(d, d)
        left = to_correlation((scaled + scaled.T) / 2)
        right = to_correlation((m + m.T) / 2)
        np.testing.assert_allclose(left, right, atol=1e-10)


class TestEigenvaluesDesc:
    def test_2x2_closed_form(self):
        spec = eigenvalues_desc(np.array([[1.0, 0.5], [0.5, 1.0]]))
        np.testing.assert_allclose(spec.eigenvalues, [1.5, 0.5], rtol=1e-12)

    def test_identity(self):
        spec = eigenvalues_desc(np.eye(6))
        np.testing.assert_allclose(spec.eigenvalues, np.ones(6))

    def test_another_2x2(self):
        spec = eigenvalues_desc(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(spec.eigenvalues, [3.0, 1.0], rtol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(DataError):
            eigenvalues_desc(np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_rank_deficient_zero_count(self):
        # n-1 < p: at least p - n + 1 exact zeros after snapping
        rng = np.random.default_rng(3)
        n, p = 5, 9
        spec = eigenvalues_desc(sample_covariance(rng.standard_normal((n, p))), n)
        assert np.all(spec.eigenvalues >= 0.0)
        assert np.count_nonzero(spec.eigenvalues == 0.0) >= p - n + 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_psd_and_trace(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        p = int(rng.integers(2, 12))
        X = rng.standard_normal((n, p)) * rng.uniform(0.5, 5.0, p)
        corr_spec = eigenvalues_desc(to_correlation(sample_covariance(X)), n)
        assert np.all(corr_spec.eigenvalues >= 0.0)
        assert abs(corr_spec.eigenvalues.sum() - p) <= 1e-8 * p


class TestSpectra:
    @staticmethod
    def panel(shape, seed):
        n, p = shape
        rng = np.random.default_rng(seed)
        return DataMatrix(rng.standard_normal((n, p)) * rng.uniform(0.5, 5.0, p) + rng.uniform(-3.0, 3.0, p))

    @settings(max_examples=60, deadline=None)
    @given(shape=panel_shapes, seed=st.integers(0, 10_000))
    def test_bit_identical_to_public_composition(self, shape, seed):
        X = self.panel(shape, seed)
        cov_spec, corr_spec = spectra(X)
        cov = sample_covariance(X)
        assert cov_spec.n == corr_spec.n == X.n
        np.testing.assert_array_equal(cov_spec.eigenvalues, eigenvalues_desc(cov, X.n).eigenvalues)
        np.testing.assert_array_equal(corr_spec.eigenvalues, eigenvalues_desc(to_correlation(cov), X.n).eigenvalues)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 30), extra=st.integers(0, 30), seed=st.integers(0, 10_000))
    def test_exact_zeros_when_p_at_least_n(self, n, extra, seed):
        # centered data has rank at most n - 1, so p - n + 1 eigenvalues vanish
        p = n + extra
        _, corr_spec = spectra(self.panel((n, p), seed))
        assert np.count_nonzero(corr_spec.eigenvalues == 0.0) >= p - n + 1

    @settings(max_examples=60, deadline=None)
    @given(shape=panel_shapes, seed=st.integers(0, 10_000))
    def test_column_permutation_invariance(self, shape, seed):
        X = self.panel(shape, seed)
        perm = np.random.default_rng(seed + 1).permutation(X.p)
        for a, b in zip(spectra(X), spectra(DataMatrix(X.values[:, perm]))):
            np.testing.assert_allclose(a.eigenvalues, b.eigenvalues, rtol=1e-10, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(shape=panel_shapes, seed=st.integers(0, 10_000), level=st.floats(-1e3, 1e3))
    def test_constant_column_names_its_column(self, shape, seed, level):
        values = self.panel(shape, seed).values
        col = seed % values.shape[1]
        values[:, col] = level
        with pytest.raises(ZeroVarianceSeries) as exc:
            spectra(DataMatrix(values))
        assert exc.value.column == col + 1


class TestSpectrumInvariants:
    def test_rejects_increasing(self):
        with pytest.raises(DataError):
            Spectrum(np.array([1.0, 2.0]), p=2)

    def test_rejects_wrong_length(self):
        with pytest.raises(DataError):
            Spectrum(np.array([1.0, 0.5]), p=3)

    def test_rejects_deep_negative(self):
        with pytest.raises(DataError):
            Spectrum(np.array([1.0, -0.5]), p=2)


class TestDataMatrix:
    def test_minimum_shape(self):
        with pytest.raises(DimensionError):
            DataMatrix(np.zeros((2, 4)))
        with pytest.raises(DimensionError):
            DataMatrix(np.zeros((5, 1)))


class TestKaiserCounts:
    def test_identity_zero(self):
        assert kaiser_population_count(np.eye(8)) == 0

    def test_naive_direct(self):
        spec = Spectrum(np.array([2.5, 1.2, 0.8, 0.5]), p=4, n=100)
        assert naive_kaiser_estimate(spec) == 2

    def test_naive_all_below(self):
        spec = Spectrum(np.array([1.0, 0.9, 0.6]), p=3, n=50)
        assert naive_kaiser_estimate(spec) == 0

    def test_naive_overcounts_on_square_noise(self):
        # p = n pure noise: the sample correlation bulk reaches ~4, so the
        # above-one count is far from 0 even though the population count is 0
        p = n = 150
        counts = []
        for rep in range(50):
            rng = np.random.default_rng(900 + rep)
            X = rng.standard_normal((n, p))
            spec = eigenvalues_desc(to_correlation(sample_covariance(X)), n)
            counts.append(naive_kaiser_estimate(spec))
        assert np.median(counts) > p / 10
