import numpy as np
import pytest

from actfactors.errors import ConfigError, DataError
from actfactors.models import (
    FactorModelSpec,
    SeededRng,
    build_case,
    intro_counterexample_spec,
    noise_to_signal_norm,
    population_correlation,
    sample_data,
    table1_scenario,
)
from actfactors.spectral import eigenvalues_desc, kaiser_population_count


class TestBuildCase:
    def test_case1_top_block_value(self):
        spec = build_case(1, 100, 5, SeededRng(0))
        assert spec.loadings[0, 0] == pytest.approx(np.sqrt(3.0 / 10.0), abs=1e-15)
        assert np.all(spec.noise_variances == 0.55**2)

    def test_case1_tail_magnitudes_and_signs(self):
        p, K = 40, 5
        spec = build_case(1, p, K, SeededRng(0))
        b = spec.loadings
        for j in range(1, K + 1):
            tail = b[K:, j - 1]
            np.testing.assert_allclose(np.abs(tail), np.sqrt(3.0 / (p - j)), rtol=1e-14)
            rows = np.arange(K + 1, p + 1)
            np.testing.assert_array_equal(tail < 0, rows % K == j % K)

    def test_case1_deterministic(self):
        a = build_case(1, 60, 5, SeededRng(1)).loadings
        b = build_case(1, 60, 5, SeededRng(999)).loadings
        np.testing.assert_array_equal(a, b)

    def test_case3_noise_level(self):
        spec = build_case(3, 30, 5, SeededRng(2))
        assert np.all(spec.noise_variances == 36.0 * 5)

    def test_case4_unit_diagonal(self):
        spec = build_case(4, 10, 4, SeededRng(3))
        np.testing.assert_array_equal(np.diag(spec.loadings[:4, :]), np.ones(4))
        assert np.all(spec.noise_variances < 5.5)

    def test_case2_noise_range(self):
        spec = build_case(2, 50, 5, SeededRng(4))
        assert np.all((spec.noise_variances > 0) & (spec.noise_variances < 180.0))

    def test_invalid_case(self):
        with pytest.raises(ConfigError):
            build_case(5, 10, 2, SeededRng(0))


class TestSampleData:
    def test_determinism(self):
        spec = build_case(2, 20, 3, SeededRng(7, 0))
        a = sample_data(spec, 50, SeededRng(11, 4)).values
        b = sample_data(spec, 50, SeededRng(11, 4)).values
        np.testing.assert_array_equal(a, b)
        c = sample_data(spec, 50, SeededRng(11, 5)).values
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("family", ["gaussian", "uniform"])
    def test_column_mean_bands(self, family):
        # column means converge to alpha + B E[f] + E[eps]
        rng = SeededRng(21)
        p, K, n = 6, 2, 4000
        g = rng.generator()
        b = g.uniform(-1.0, 1.0, (p, K))
        nu2 = g.uniform(0.5, 2.0, p)
        alpha = g.uniform(-3.0, 3.0, p)
        spec = FactorModelSpec(b, nu2, alpha, family=family)
        X = sample_data(spec, n, SeededRng(22)).values
        if family == "gaussian":
            expected = alpha
        else:
            expected = alpha + np.sqrt(3.0) * b.sum(axis=1) + np.sqrt(3.0 * nu2)
        sd = np.sqrt(np.sum(b**2, axis=1) + nu2)
        band = 5.0 * sd / np.sqrt(n)
        assert np.all(np.abs(X.mean(axis=0) - expected) < band)

    def test_uniform_factor_variance_is_one(self):
        spec = FactorModelSpec(
            np.array([[1.0], [0.0], [0.0]]), np.full(3, 1e-6), np.zeros(3), family="uniform"
        )
        X = sample_data(spec, 20000, SeededRng(5)).values
        # column 1 is the factor plus negligible noise; Var(U(0, 2*sqrt(3))) = 1
        assert X[:, 0].var() == pytest.approx(1.0, rel=0.05)


class TestPopulationCorrelation:
    def test_pure_noise_is_identity(self):
        spec = FactorModelSpec(
            np.zeros((5, 1)), np.full(5, 2.0), np.zeros(5), family="gaussian"
        )
        np.testing.assert_allclose(population_correlation(spec), np.eye(5), atol=1e-14)

    def test_two_series_half_correlation(self):
        spec = FactorModelSpec(
            np.array([[1.0], [1.0], [0.0]]),
            np.array([1.0, 1.0, 1.0]),
            np.zeros(3),
        )
        R = population_correlation(spec)
        assert R[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_overflowing_covariance_rejected(self):
        # finite loadings whose squares overflow
        spec = FactorModelSpec(np.full((4, 1), 1e200), np.ones(4), np.zeros(4))
        with pytest.raises(DataError, match="covariance matrix contains non-finite entries"):
            population_correlation(spec)

    def test_trace_is_p(self):
        spec = build_case(4, 17, 5, SeededRng(10))
        w = eigenvalues_desc(population_correlation(spec)).eigenvalues
        assert w.sum() == pytest.approx(17.0, abs=1e-10)

    def test_noise_to_signal_norm_cases(self):
        for case in (1, 2, 3, 4):
            spec = build_case(case, 40, 5, SeededRng(30 + case))
            assert noise_to_signal_norm(spec) <= 1.0


class TestTable1Scenario:
    def test_scenario2_rank_deficiency(self):
        spec = table1_scenario(2, 5, 30, 1.0, SeededRng(12))
        assert np.linalg.matrix_rank(spec.loadings) == 4
        assert np.all(spec.loadings[:, 4] == 0.0)

    def test_scenario1_full_rank(self):
        spec = table1_scenario(1, 5, 30, 2.0, SeededRng(13))
        assert np.linalg.matrix_rank(spec.loadings) == 5

    def test_population_counts(self):
        # scenario 1 counts K; scenario 2 counts K-1
        s1 = table1_scenario(1, 10, 100, 3.0, SeededRng(14))
        assert kaiser_population_count(population_correlation(s1)) == 10
        s2 = table1_scenario(2, 10, 100, 3.0, SeededRng(15))
        assert kaiser_population_count(population_correlation(s2)) == 9

    def test_requires_two_factors(self):
        with pytest.raises(ConfigError):
            table1_scenario(1, 1, 30, 1.0, SeededRng(16))


class TestCounterexample:
    def test_rank_and_noise_layout(self):
        spec = intro_counterexample_spec(50, 5, 25.0, SeededRng(17))
        assert np.linalg.matrix_rank(spec.loadings) == 5
        assert np.all(spec.loadings[5, :] == 0.0)
        assert spec.noise_variances[5] == 25.0
        assert np.all(np.delete(spec.noise_variances, 5) == 1.0)

    def test_covariance_eigenvalue_is_nu2_extra(self):
        # brute-force eigensolve: the scaled-noise coordinate decouples and
        # lands exactly at position K+1, below the K factor spikes
        spec = intro_counterexample_spec(200, 5, 25.0, SeededRng(18))
        sigma = spec.loadings @ spec.loadings.T + np.diag(spec.noise_variances)
        w = np.sort(np.linalg.eigvalsh(sigma))[::-1]
        assert w[5] == pytest.approx(25.0, rel=1e-12)
        assert w[4] > 25.0

    def test_precondition(self):
        with pytest.raises(ConfigError):
            intro_counterexample_spec(6, 5, 25.0, SeededRng(19))
