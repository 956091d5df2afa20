import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actfactors import spectral as spectral_module
from actfactors.analysis import ols_r2, projection_distance, variance_explained
from actfactors.errors import ConfigError, DataError, DimensionError, ZeroVarianceSeries
from actfactors.models import SeededRng, build_case, sample_data
from actfactors.spectral import (
    DataMatrix,
    eigenvalues_desc,
    pc_scores,
    sample_covariance,
    spectra,
    square_spectra,
    to_correlation,
)

from helpers import refusal, spectrum


class TestVarianceExplained:
    def test_endpoints(self):
        spec = spectrum([3.0, 2.0, 1.0])
        assert variance_explained(spec, 3) == 1.0
        assert variance_explained(spec, 0) == 0.0

    def test_correlation_trace_identity(self):
        spec = spectrum([2.5, 1.0, 0.3, 0.2])  # sums to p = 4
        assert variance_explained(spec, 2) == pytest.approx((2.5 + 1.0) / 4.0)

    def test_monotone_in_k(self):
        spec = spectrum([5.0, 2.0, 1.0, 0.5, 0.0])
        shares = [variance_explained(spec, k) for k in range(6)]
        assert shares == sorted(shares)

    def test_numpy_integer_k(self):
        spec = spectrum([3.0, 2.0, 1.0])
        assert variance_explained(spec, np.int64(2)) == variance_explained(spec, 2)

    def test_zero_total_rejected(self):
        with pytest.raises(DataError):
            variance_explained(spectrum([0.0, 0.0]), 1)


class TestPcScores:
    def test_rank_one_direction(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(20)
        v = rng.standard_normal(6)
        X = DataMatrix(np.outer(u, v))
        scores = pc_scores(X)[1][:, :1]
        uc = u - u.mean()
        corr = np.corrcoef(scores[:, 0], uc)[0, 1]
        assert abs(corr) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality(self):
        rng = np.random.default_rng(2)
        X = DataMatrix(rng.standard_normal((60, 8)))
        scores = pc_scores(X)[1]
        gram = scores.T @ scores
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-8 * np.abs(gram).max()

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 5))
        np.testing.assert_allclose(np.abs(pc_scores(DataMatrix(X))[1]), np.abs(pc_scores(DataMatrix(-X))[1]), atol=1e-10)

    def test_constant_column_is_zero_variance_on_both_paths(self):
        # 0.1 does not centre to exact zeros; round-off must not be scaled up
        X = np.random.default_rng(5).standard_normal((300, 6))
        X[:, 2] = 0.1
        X = DataMatrix(X)
        with pytest.raises(ZeroVarianceSeries) as direct:
            to_correlation(sample_covariance(X))
        with pytest.raises(ZeroVarianceSeries) as scores:
            pc_scores(X)
        assert direct.value.column == scores.value.column == 3

    def test_overflow_is_a_data_error_without_warning(self):
        X = DataMatrix(np.random.default_rng(6).standard_normal((20, 5)) * 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^covariance matrix contains non-finite entries$"):
                pc_scores(X)

    @staticmethod
    def _panel(seed, p):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((30, p)) * rng.uniform(0.5, 5.0, p) + rng.uniform(-3.0, 3.0, p)

    @staticmethod
    def _top_eigenvectors(m, k):
        w, v = np.linalg.eigh(m)
        vk = v[:, np.argsort(w)[::-1][:k]]
        return vk * np.where(vk[np.argmax(np.abs(vk), axis=0), range(k)] < 0.0, -1.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_correlation_factorises_the_reported_matrix(self, seed):
        # oracle: the centred data over sqrt(diag(cov)), times the top
        # min(n-1, p) eigenvectors of to_correlation(sample_covariance(X));
        # the spectrum is the eigenvalues of that matrix, as square_spectra
        # reports them. Bit for bit at p <= n, where pc_scores factorises that
        # matrix; at p > n it takes the n x n Gram, and the scores agree to
        # round-off of the largest score (so every column has the oracle's
        # sign) and the spectrum is spectra's bit for bit
        for p in (8, 90, 300):
            X = self._panel(seed, p)
            k = min(29, p)
            cov = sample_covariance(DataMatrix(X))
            zs = (X - X.mean(axis=0)) / np.sqrt(np.diag(cov))
            oracle = zs @ self._top_eigenvectors(to_correlation(cov), k)
            composed = eigenvalues_desc(to_correlation(cov)).eigenvalues
            spec, scores = pc_scores(DataMatrix(X))
            if p <= 30:
                assert scores.tobytes() == oracle.tobytes(), p
                assert spec.eigenvalues.tobytes() == composed.tobytes(), p
                assert spec.eigenvalues.tobytes() == square_spectra(DataMatrix(X))[1].eigenvalues.tobytes(), p
            else:
                np.testing.assert_allclose(scores, oracle, rtol=0.0, atol=1e-12 * np.abs(oracle).max())
                np.testing.assert_allclose(spec.eigenvalues, composed, rtol=0.0, atol=1e-12 * composed[0])
            assert spec.eigenvalues.tobytes() == spectra(DataMatrix(X.copy()))[1].eigenvalues.tobytes(), p
            assert spec.n == 30
            # the earlier body standardised by sum(z**2)/n and took eigh of the
            # symmetrised Gram; it differs only at round-off
            z = X - X.mean(axis=0)
            z /= np.sqrt(np.sum(z**2, axis=0) / 30)
            m = z.T @ z / 30
            old = z @ self._top_eigenvectors((m + m.T) / 2.0, k)
            np.testing.assert_allclose(scores, old, rtol=0.0, atol=1e-12 * np.abs(old).max())

    def test_full_size_spectrum_is_spectras_bit_for_bit(self):
        # the test above stops at n = 30; at 300 x 1000 the Gram and its
        # eigensolve take BLAS's and LAPACK's blocked paths, and the two
        # routes must still agree in every bit
        g = SeededRng(1007).generator()
        X = sample_data(build_case(1, 1000, 5, g), 300, g)
        spec = pc_scores(X)[0]
        assert spec.eigenvalues.tobytes() == spectra(DataMatrix(X.values.copy()))[1].eigenvalues.tobytes()

    def test_non_finite_array_is_a_data_error(self):
        X = np.random.default_rng(7).standard_normal((20, 5))
        X[3, 1] = np.nan
        with pytest.raises(DataError, match="^data matrix contains non-finite entries$"):
            pc_scores(DataMatrix(X))

    def test_tiny_units_are_a_data_error(self):
        # variances near 1e-320 pass the zero-variance rule but fall below the
        # variance floor; estimate and analyze refuse it alike
        values = np.random.default_rng(3).standard_normal((30, 50))
        with pytest.raises(DataError, match=r"^series in column 1 has variance below 2\.23e-308; rescale the panel$"):
            pc_scores(DataMatrix((values - values.mean(axis=0)) * 1e-160))

    def test_k_bound(self):
        # one score column per admissible k: min(n-1, p), analyze's bound on --k
        for n, p in ((5, 10), (10, 10), (10, 4)):
            spec, scores = pc_scores(DataMatrix(np.random.default_rng(4).standard_normal((n, p))))
            assert scores.shape == (n, min(n - 1, p))
            assert spec.p == p and spec.n == n

    def test_rank_deficient_panel_scores_zero_past_its_rank(self):
        # 15 distinct rows, each twice: the centred panel has rank 14, so the
        # Gram route's components 15..29 have zero variance. The scores take
        # the snapped spectrum, whose zeros give exact zero columns, with no
        # square root of a round-off negative
        values = np.tile(np.random.default_rng(9).standard_normal((15, 60)), (2, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = pc_scores(DataMatrix(values))[1]
        assert scores.shape == (30, 29)
        assert np.abs(scores[:, 14:]).max() <= 1e-12 * np.abs(scores).max()
        assert np.abs(scores[:, :14]).max(axis=0).min() > 1e-3 * np.abs(scores).max()

    def test_p_above_n_builds_one_n_by_n_gram(self, monkeypatch):
        # one Gram, of the n x p standardised panel, serves the spectrum and
        # the scores; every eigensolve is n x n
        n, p = 20, 200
        grams, solves = [], []
        gram, eigh, eigvalsh = spectral_module._gram, np.linalg.eigh, np.linalg.eigvalsh
        monkeypatch.setattr(spectral_module, "_gram", lambda A, n: grams.append(A.shape) or gram(A, n))
        monkeypatch.setattr(np.linalg, "eigh", lambda M: solves.append(M.shape) or eigh(M))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: solves.append(M.shape) or eigvalsh(M))
        spec, scores = pc_scores(DataMatrix(np.random.default_rng(10).standard_normal((n, p))))
        assert grams == [(n, p)]
        assert solves == [(n, n), (n, n)]
        assert (spec.p, spec.n, scores.shape) == (p, n, (n, n - 1))

    def test_fewer_than_three_series_is_refused_as_square_spectra_does(self):
        X = DataMatrix(np.random.default_rng(8).standard_normal((20, 2)))
        assert refusal(lambda: pc_scores(X)) == refusal(lambda: square_spectra(X)) == (
            DimensionError, "spectra need at least 3 series, got 2"
        )


class TestOlsR2:
    def test_exact_fit(self):
        rng = np.random.default_rng(5)
        F = rng.standard_normal((30, 3))
        y = F @ np.array([1.0, -2.0, 0.5]) + 4.0
        assert ols_r2(y, F) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_regressors(self):
        y = np.tile([1.0, 1.0, -1.0, -1.0], 12)
        F = np.column_stack([np.tile([1.0, -1.0, 1.0, -1.0], 12)])
        assert float(y @ F[:, 0]) == 0.0  # orthogonal by construction
        assert ols_r2(y, F) == pytest.approx(0.0, abs=1e-12)

    def test_recombination_invariance(self):
        rng = np.random.default_rng(6)
        F = rng.standard_normal((40, 3))
        y = rng.standard_normal(40)
        A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        assert ols_r2(y, F) == pytest.approx(ols_r2(y, F @ A), abs=1e-10)

    def test_rank_deficiency(self):
        F = np.ones((20, 2))
        with pytest.raises(DataError):
            ols_r2(np.random.default_rng(7).standard_normal(20), F)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_range(self, seed):
        rng = np.random.default_rng(seed)
        F = rng.standard_normal((25, 2))
        y = rng.standard_normal(25)
        assert 0.0 <= ols_r2(y, F) <= 1.0


class TestProjectionDistance:
    def test_same_span_zero(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((30, 4))
        op, frob = projection_distance(A, A @ (rng.standard_normal((4, 4)) + 4 * np.eye(4)))
        assert op == pytest.approx(0.0, abs=1e-10)
        assert frob == pytest.approx(0.0, abs=1e-10)

    def test_orthogonal_lines(self):
        A = np.array([[1.0], [0.0]])
        B = np.array([[0.0], [1.0]])
        op, frob = projection_distance(A, B)
        assert op == pytest.approx(1.0, abs=1e-12)
        assert frob == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((25, 3))
        B = rng.standard_normal((25, 2))
        assert projection_distance(A, B) == pytest.approx(projection_distance(B, A))

    def test_matches_dense_projectors(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((18, 3))
        B = rng.standard_normal((18, 4))
        pa = A @ np.linalg.solve(A.T @ A, A.T)
        pb = B @ np.linalg.solve(B.T @ B, B.T)
        diff = pa - pb
        op_ref = np.linalg.norm(diff, 2)
        frob_ref = np.linalg.norm(diff, "fro")
        op, frob = projection_distance(A, B)
        assert op == pytest.approx(op_ref, abs=1e-10)
        assert frob == pytest.approx(frob_ref, abs=1e-10)

    def test_rank_deficient_rejected(self):
        A = np.ones((10, 2))
        with pytest.raises(DataError):
            projection_distance(A, np.random.default_rng(11).standard_normal((10, 2)))


class TestRefusals:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: ols_r2(np.zeros(4), np.zeros(4)), DataError, "factor matrix must be 2-dimensional"),
            (lambda: ols_r2(np.zeros(3), np.zeros((4, 1))), DataError, "series has 3 rows, factors have 4"),
            (
                lambda: ols_r2(np.arange(3.0), np.ones((3, 3))), ConfigError,
                "need fewer regressors than observations, got k=3, n=3",
            ),
            (
                lambda: projection_distance(np.eye(3)[:, :1], np.eye(4)[:, :1]), DataError,
                "matrices must have the same number of rows",
            ),
            (
                lambda: projection_distance(np.zeros((3, 0)), np.eye(3)[:, :1]), DataError,
                "first matrix must be a non-empty 2-d matrix",
            ),
            (lambda: variance_explained(spectrum([3.0, 2.0, 1.0]), 4), ConfigError, "k must satisfy 0 <= k <= p=3, got 4"),
            (lambda: variance_explained(spectrum([3.0, 2.0, 1.0]), 2.5), ConfigError, "k must be an integer, got 2.5"),
        ],
        ids=[
            "ols-1-d-factors", "ols-rows", "ols-too-many-regressors", "projection-rows", "projection-empty",
            "variance-k-range", "variance-k-non-integer",
        ],
    )
    def test_public_refusals(self, call, error, message):
        assert refusal(call) == (error, message)
