import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from actfactors.act import default_r_max
from actfactors.errors import ActFactorsError, DataError, DimensionError, ZeroVarianceSeries
from actfactors.harness import METHODS
from actfactors.spectral import (
    DataMatrix,
    Spectrum,
    eigenvalues_desc,
    kaiser_population_count,
    naive_kaiser_estimate,
    sample_covariance,
    spectra,
    square_spectra,
    to_correlation,
    _spectrum,
)

panel_shapes = st.tuples(st.integers(3, 40), st.integers(2, 60))
# (n, p) on each side of the route spectra() chooses from the shape
small_p_shapes = st.integers(3, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n)))
large_p_shapes = st.integers(3, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(n + 1, n + 60)))


class TestSampleCovariance:
    def test_two_point_n_divisor(self):
        # mean 4/3; squared deviations 16/9 + 4/9 + 4/9 = 24/9; divide by n=3 (n-1 would give 4/3)
        cov = sample_covariance(DataMatrix(np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 2.0]])))
        np.testing.assert_allclose(cov, np.full((2, 2), 8.0 / 9.0), atol=1e-14)

    def test_constant_columns(self):
        cov = sample_covariance(DataMatrix(np.array([[1.0, 5.0]] * 3)))
        np.testing.assert_allclose(cov, np.zeros((2, 2)), atol=1e-14)

    def test_hand_evaluation(self):
        # mean (1, 2); deviations (-1,-2), (0,-1), (1,3); divide by n=3
        cov = sample_covariance(DataMatrix(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 5.0]])))
        expected = [[2.0 / 3.0, 5.0 / 3.0], [5.0 / 3.0, 14.0 / 3.0]]
        np.testing.assert_allclose(cov, expected, rtol=1e-14)

    def test_single_row_rejected(self):
        with pytest.raises(DimensionError):
            sample_covariance(DataMatrix(np.array([[1.0, 2.0]])))

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            sample_covariance(DataMatrix(np.array([[0.0, np.nan], [1.0, 2.0], [3.0, 4.0]])))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 40), p=st.integers(2, 120), seed=st.integers(0, 10_000))
    def test_exactly_symmetric_and_equal_to_symmetrised_expression(self, n, p, seed):
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal((n, p)) * rng.uniform(0.1, 1e3, p) + rng.uniform(-5.0, 5.0, p)
        cov = sample_covariance(DataMatrix(arr))
        np.testing.assert_array_equal(cov, cov.T)
        # oracle: the earlier expression, with its symmetrising pass
        centered = arr - arr.mean(axis=0)
        old = centered.T @ centered / n
        assert cov.tobytes() == ((old + old.T) / 2.0).tobytes()


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

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(DimensionError, match="covariance matrix must be square"):
            to_correlation(np.ones(shape))

    def test_asymmetric_rejected_not_averaged(self):
        with pytest.raises(DataError, match="asymmetric beyond 1e-08"):
            to_correlation(np.array([[1.0, 5.0], [0.0, 1.0]]))

    def test_infinite_variance_is_not_zero_variance(self):
        # the non-finite test runs first: an inf diagonal also makes the
        # zero-variance tolerance inf, which every column would fall under
        with pytest.raises(DataError, match="non-finite") as exc:
            to_correlation(np.array([[0.0, 0.0], [0.0, np.inf]]))
        assert not isinstance(exc.value, ZeroVarianceSeries)

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

    @pytest.mark.parametrize(
        "matrix", [[[np.nan, 0.0], [0.0, 1.0]], [[2.0, np.inf], [np.inf, 1.0]]], ids=["nan", "inf"]
    )
    def test_nonfinite_rejected(self, matrix):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="non-finite"):
                eigenvalues_desc(np.array(matrix))

    def test_rank_deficient_zero_count(self):
        # n-1 < p: at least p - n + 1 exact zeros after snapping
        rng = np.random.default_rng(3)
        n, p = 5, 9
        spec = eigenvalues_desc(sample_covariance(DataMatrix(rng.standard_normal((n, p)))), n)
        assert np.all(spec.eigenvalues >= 0.0)
        assert np.count_nonzero(spec.eigenvalues == 0.0) >= p - n + 1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_psd_and_trace(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 30))
        p = int(rng.integers(2, 12))
        X = DataMatrix(rng.standard_normal((n, p)) * rng.uniform(0.5, 5.0, p))
        corr_spec = eigenvalues_desc(to_correlation(sample_covariance(X)), n)
        assert np.all(corr_spec.eigenvalues >= 0.0)
        assert abs(corr_spec.eigenvalues.sum() - p) <= 1e-8 * p


def assert_matches_to_round_off(got, want):
    """Same (n, p), same zero pattern, and |delta lambda| <= 1e-12 lambda_1."""
    assert (got.n, got.p) == (want.n, want.p)
    np.testing.assert_array_equal(got.eigenvalues == 0.0, want.eigenvalues == 0.0)
    assert np.abs(got.eigenvalues - want.eigenvalues).max() <= 1e-12 * want.eigenvalues[0]


def method_outcomes(cov_spec, corr_spec):
    """Each METHODS entry's count on the two spectra, or its failure type."""
    n, p = cov_spec.n, cov_spec.p
    out = {}
    for name, (basis, estimate) in METHODS.items():
        try:
            out[name] = estimate(cov_spec if basis == "cov" else corr_spec, n, default_r_max(p, n), 0.5, 0)
        except ActFactorsError as exc:
            out[name] = type(exc).__name__
    return out


class TestSpectra:
    @staticmethod
    def panel(shape, seed):
        n, p = shape
        rng = np.random.default_rng(seed)
        return DataMatrix(rng.standard_normal((n, p)) * rng.uniform(0.5, 5.0, p) + rng.uniform(-3.0, 3.0, p))

    @staticmethod
    def composition(X):
        cov = sample_covariance(X)
        return eigenvalues_desc(cov, X.n), eigenvalues_desc(to_correlation(cov), X.n)

    @settings(max_examples=60, deadline=None)
    @given(shape=small_p_shapes, seed=st.integers(0, 10_000))
    def test_bit_identical_to_public_composition(self, shape, seed):
        X = self.panel(shape, seed)
        cov_spec, corr_spec = spectra(X)
        assert cov_spec.n == corr_spec.n == X.n
        for a, b in zip((cov_spec, corr_spec), self.composition(X)):
            np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)

    @settings(max_examples=100, deadline=None)
    @given(shape=large_p_shapes, seed=st.integers(0, 10_000))
    def test_gram_route_matches_composition(self, shape, seed):
        X = self.panel(shape, seed)
        square = self.composition(X)
        gram = spectra(X)
        for a, b in zip(gram, square):
            assert_matches_to_round_off(a, b)
        assert method_outcomes(*gram) == method_outcomes(*square)

    @settings(max_examples=60, deadline=None)
    @given(shape=large_p_shapes, seed=st.integers(0, 10_000))
    def test_gram_route_matches_symmetrised_oracle(self, shape, seed):
        # oracle: the Gram route on copies, with a (G + G.T) / 2 pass
        X = self.panel(shape, seed)
        n, p = shape
        Z = X.values - X.values.mean(axis=0)
        Zs = Z * (1.0 / np.sqrt(np.einsum("ij,ij->j", Z, Z) / n))
        for spec, M in zip(spectra(X), (Z, Zs)):
            G = M @ M.T / n
            assert spec.eigenvalues.tobytes() == _spectrum((G + G.T) / 2.0, n, p).eigenvalues.tobytes()
        # the route consumed the panel: it standardised it in place
        assert X.values.tobytes() == Zs.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(shape=small_p_shapes, seed=st.integers(0, 10_000))
    def test_square_route_leaves_panel(self, shape, seed):
        X = self.panel(shape, seed)
        original = X.values.tobytes()
        spectra(X)
        assert X.values.tobytes() == original

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 60),
        p=st.integers(1, 400),
        layout=st.sampled_from(["C", "F", "rows"]),
        seed=st.integers(0, 10_000),
    )
    def test_gram_is_exactly_symmetric(self, n, p, layout, seed):
        # spectra's Gram route relies on this instead of a symmetrising pass
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((2 * n, p)) * rng.uniform(0.1, 1e3, p)
        Z = Z[::2] if layout == "rows" else np.asarray(Z[:n], order=layout)
        Z -= Z.mean(axis=0)
        G = Z @ Z.T
        np.testing.assert_array_equal(G, G.T)

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
        permuted = DataMatrix(X.values[:, np.random.default_rng(seed + 1).permutation(X.p)])
        for a, b in zip(spectra(X), spectra(permuted)):
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

    @pytest.mark.parametrize("shape", [(40, 6), (4, 6)], ids=["square-route", "gram-route"])
    def test_overflowing_variance_is_a_data_error(self, shape):
        # column 1 is constant, column 2 finite but its squared deviations
        # overflow: the non-finite variance is reported, without a numpy warning
        values = self.panel(shape, 7).values
        values[:, 0] = 1.0
        values[:, 1] *= 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="non-finite") as exc:
                spectra(DataMatrix(values))
        assert not isinstance(exc.value, ZeroVarianceSeries)


def _outcome(call):
    """What call returns, or the type and message of the ActFactorsError it raises."""
    try:
        return call()
    except ActFactorsError as exc:
        return type(exc), str(exc)


class TestSquareSpectra:
    panel = staticmethod(TestSpectra.panel)
    composition = staticmethod(TestSpectra.composition)

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(st.integers(3, 40), st.integers(2, 120)), seed=st.integers(0, 10_000))
    @example(shape=(3, 3), seed=0)
    @example(shape=(40, 40), seed=1)
    @example(shape=(40, 2), seed=2)
    @example(shape=(3, 120), seed=3)
    def test_bit_identical_to_public_composition(self, shape, seed):
        # the correlation at every shape, the covariance at p <= n
        X = self.panel(shape, seed)
        original = X.values.tobytes()
        got = square_spectra(X)
        assert X.values.tobytes() == original
        first = 1 if X.p > X.n else 0  # the Gram covariance: see the next test
        for a, b in list(zip(got, self.composition(X)))[first:]:
            assert (a.n, a.p) == (b.n, b.p) == shape
            assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(shape=large_p_shapes, seed=st.integers(0, 10_000))
    @example(shape=(3, 120), seed=3)
    @example(shape=(40, 41), seed=4)
    def test_gram_covariance_matches_composition(self, shape, seed):
        # p > n: the covariance comes from the n x n Gram, as in spectra
        X = self.panel(shape, seed)
        got = square_spectra(X)
        want = self.composition(X)
        assert_matches_to_round_off(got[0], want[0])
        assert method_outcomes(*got) == method_outcomes(*want)
        assert got[0].eigenvalues.tobytes() == spectra(X)[0].eigenvalues.tobytes()

    @pytest.mark.parametrize("shape", [(40, 6), (6, 6), (4, 6)], ids=["p<n", "p=n", "p>n"])
    @pytest.mark.parametrize("column", ["constant", "overflowing"])
    def test_same_errors_as_composition(self, shape, column):
        values = self.panel(shape, 11).values
        if column == "constant":
            values[:, 2] = 0.1
        else:
            values[:, 2] *= 1e200
        X = DataMatrix(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(lambda: square_spectra(X))
            want = _outcome(lambda: self.composition(X))
        assert isinstance(got, tuple) and isinstance(got[0], type)
        assert got == want
        assert got[0] is (ZeroVarianceSeries if column == "constant" else DataError)

    @pytest.mark.parametrize("route", [spectra, square_spectra])
    def test_one_series_is_a_dimension_error(self, route):
        # the two-series minimum lives here, not in DataMatrix; spectra meets
        # it only at p <= n, where it calls square_spectra
        with pytest.raises(DimensionError, match="spectra need at least 2 series, got 1"):
            route(self.panel((5, 1), 0))

    def test_overflowing_rescale_is_a_data_error(self):
        # variances near 1e-320 pass the zero-variance rule, but the outer
        # product of 1/sd overflows in the rescale. The non-finite correlation
        # is refused, without a numpy warning, before np.clip could turn its
        # infinite entries into +-1 (which the 10 x 50 panel used to reach)
        for shape in ((30, 50), (10, 50)):
            X = self.panel(shape, 3)
            X = DataMatrix((X.values - X.values.mean(axis=0)) * 1e-160)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _outcome(lambda: square_spectra(X))
                want = _outcome(lambda: self.composition(X))  # fails in to_correlation
            assert got == want == (DataError, "matrix contains non-finite entries"), shape


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
        # at least 3 rows and 1 column; the two-series minimum is the spectra's
        assert DataMatrix(np.zeros((5, 1))).p == 1
        with pytest.raises(DimensionError, match="at least 3 rows"):
            DataMatrix(np.zeros((2, 4)))
        with pytest.raises(DimensionError, match="at least 1 column"):
            DataMatrix(np.zeros((3, 0)))


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
            X = DataMatrix(rng.standard_normal((n, p)))
            spec = eigenvalues_desc(to_correlation(sample_covariance(X)), n)
            counts.append(naive_kaiser_estimate(spec))
        assert np.median(counts) > p / 10
