import time

import numpy as np
import pytest

from actfactors.errors import ConfigError, DataError
from actfactors.models import (
    FactorModelSpec,
    SeededRng,
    build_case,
    intro_counterexample_spec,
    population_correlation,
    sample_data,
    table1_scenario,
)
from actfactors.spectral import eigenvalues_desc, kaiser_population_count
from helpers import refusal


class TestBuildCase:
    def test_case1_top_block_value(self):
        spec = build_case(1, 100, 5, SeededRng(0).generator())
        assert spec.loadings[0, 0] == pytest.approx(np.sqrt(3.0 / 10.0), abs=1e-15)
        assert np.all(spec.noise_variances == 0.55**2)

    def test_case1_tail_magnitudes_and_signs(self):
        # oracle: each tail column built on its own, sqrt(3/(p-j)) with its
        # sign flipped where l = j (mod K); bit for bit, at two p
        K = 5
        for p in (40, 137):
            b = build_case(1, p, K, SeededRng(0).generator()).loadings
            rows = np.arange(K + 1, p + 1)
            for j in range(1, K + 1):
                col = np.full(p - K, np.sqrt(3.0 / (p - j)))
                col[rows % K == j % K] *= -1.0
                assert b[K:, j - 1].tobytes() == col.tobytes(), (p, j)

    def test_case1_deterministic(self):
        a = build_case(1, 60, 5, SeededRng(1).generator()).loadings
        b = build_case(1, 60, 5, SeededRng(999).generator()).loadings
        np.testing.assert_array_equal(a, b)

    def test_case3_noise_level(self):
        spec = build_case(3, 30, 5, SeededRng(2).generator())
        assert np.all(spec.noise_variances == 36.0 * 5)

    def test_case4_unit_diagonal(self):
        spec = build_case(4, 10, 4, SeededRng(3).generator())
        np.testing.assert_array_equal(np.diag(spec.loadings[:4, :]), np.ones(4))
        assert np.all(spec.noise_variances < 5.5)

    def test_case2_noise_range(self):
        spec = build_case(2, 50, 5, SeededRng(4).generator())
        assert np.all((spec.noise_variances > 0) & (spec.noise_variances < 180.0))

    def test_invalid_case(self):
        with pytest.raises(ConfigError):
            build_case(5, 10, 2, SeededRng(0).generator())


class TestSampleData:
    def test_determinism(self):
        spec = build_case(2, 20, 3, SeededRng(7, 0).generator())
        a = sample_data(spec, 50, SeededRng(11, 4).generator()).values
        b = sample_data(spec, 50, SeededRng(11, 4).generator()).values
        np.testing.assert_array_equal(a, b)
        c = sample_data(spec, 50, SeededRng(11, 5).generator()).values
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("family", ["gaussian", "uniform"])
    def test_column_mean_bands(self, family):
        # column means converge to B E[f] + E[eps]
        rng = SeededRng(21)
        p, K, n = 6, 2, 4000
        g = rng.generator()
        b = g.uniform(-1.0, 1.0, (p, K))
        nu2 = g.uniform(0.5, 2.0, p)
        spec = FactorModelSpec(b, nu2, family=family)
        X = sample_data(spec, n, SeededRng(22).generator()).values
        if family == "gaussian":
            expected = np.zeros(p)
        else:
            expected = np.sqrt(3.0) * b.sum(axis=1) + np.sqrt(3.0 * nu2)
        sd = np.sqrt(np.sum(b**2, axis=1) + nu2)
        band = 5.0 * sd / np.sqrt(n)
        assert np.all(np.abs(X.mean(axis=0) - expected) < band)

    @pytest.mark.parametrize("family", ["gaussian", "uniform"])
    def test_in_place_draw_matches_expression(self, family):
        # oracle: the sized draws summed as B f + eps in one expression
        g = SeededRng(31).generator()
        n, p, k = 40, 25, 3
        spec = FactorModelSpec(g.standard_normal((p, k)), g.uniform(0.1, 9.0, p), family=family)
        o = SeededRng(32).generator()
        if family == "gaussian":
            f = o.standard_normal((n, k))
            eps = o.standard_normal((n, p)) * np.sqrt(spec.noise_variances)
        else:
            f = o.uniform(0.0, 2.0 * np.sqrt(3.0), (n, k))
            eps = o.uniform(0.0, 1.0, (n, p)) * (2.0 * np.sqrt(3.0 * spec.noise_variances))
        expected = (f @ spec.loadings.T + eps).tobytes()
        assert sample_data(spec, n, SeededRng(32).generator()).values.tobytes() == expected
        out = np.full((n, p), np.nan)
        X = sample_data(spec, n, SeededRng(32).generator(), out=out)
        assert X.values is out
        assert out.tobytes() == expected

    @pytest.mark.parametrize(
        "out",
        [
            np.empty((10, 4)),
            np.empty((10, 5), dtype=np.float32),
            np.empty((10, 5), order="F"),
            np.empty((10, 10))[:, ::2],
            np.empty((10, 5)).tolist(),
            np.broadcast_to(0.0, (10, 5)),
        ],
        ids=["shape", "float32", "fortran", "strided", "list", "read-only"],
    )
    def test_bad_out_is_config_error(self, out):
        spec = build_case(2, 5, 2, SeededRng(0).generator())
        with pytest.raises(ConfigError, match="out must be"):
            sample_data(spec, 10, SeededRng(1).generator(), out=out)

    def test_uniform_factor_variance_is_one(self):
        spec = FactorModelSpec(
            np.array([[1.0], [0.0], [0.0]]), np.full(3, 1e-6), family="uniform"
        )
        X = sample_data(spec, 20000, SeededRng(5).generator()).values
        # column 1 is the factor plus negligible noise; Var(U(0, 2*sqrt(3))) = 1
        assert X[:, 0].var() == pytest.approx(1.0, rel=0.05)


class TestPopulationCorrelation:
    def test_pure_noise_is_identity(self):
        spec = FactorModelSpec(np.zeros((5, 1)), np.full(5, 2.0), family="gaussian")
        np.testing.assert_allclose(population_correlation(spec), np.eye(5), atol=1e-14)

    def test_two_series_half_correlation(self):
        spec = FactorModelSpec(
            np.array([[1.0], [1.0], [0.0]]),
            np.array([1.0, 1.0, 1.0]),
        )
        R = population_correlation(spec)
        assert R[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_overflowing_covariance_rejected(self):
        # finite loadings whose squares overflow
        spec = FactorModelSpec(np.full((4, 1), 1e200), np.ones(4))
        with pytest.raises(DataError, match="covariance matrix contains non-finite entries"):
            population_correlation(spec)

    def test_trace_is_p(self):
        spec = build_case(4, 17, 5, SeededRng(10).generator())
        w = eigenvalues_desc(population_correlation(spec)).eigenvalues
        assert w.sum() == pytest.approx(17.0, abs=1e-10)


class TestTable1Scenario:
    def test_scenario2_rank_deficiency(self):
        spec = table1_scenario(2, 5, 30, 1.0, SeededRng(12).generator())
        assert np.linalg.matrix_rank(spec.loadings) == 4
        assert np.all(spec.loadings[:, 4] == 0.0)

    def test_scenario1_full_rank(self):
        spec = table1_scenario(1, 5, 30, 2.0, SeededRng(13).generator())
        assert np.linalg.matrix_rank(spec.loadings) == 5

    def test_population_counts(self):
        # scenario 1 counts K; scenario 2 counts K-1
        s1 = table1_scenario(1, 10, 100, 3.0, SeededRng(14).generator())
        assert kaiser_population_count(population_correlation(s1)) == 10
        s2 = table1_scenario(2, 10, 100, 3.0, SeededRng(15).generator())
        assert kaiser_population_count(population_correlation(s2)) == 9

    def test_requires_two_factors(self):
        with pytest.raises(ConfigError):
            table1_scenario(1, 1, 30, 1.0, SeededRng(16).generator())

    @pytest.mark.parametrize("p, sigma2", [(5, 1.0), (-1, 1.0), (30, 0.0), (30, -1.0)])
    def test_model_spec_rules_apply(self, p, sigma2):
        # p > K is checked before the loading draw, sigma2 > 0 by FactorModelSpec
        with pytest.raises(ConfigError):
            table1_scenario(1, 5, p, sigma2, SeededRng(16).generator())


class TestCounterexample:
    def test_rank_and_noise_layout(self):
        spec = intro_counterexample_spec(50, 5, 25.0, SeededRng(17).generator())
        assert np.linalg.matrix_rank(spec.loadings) == 5
        assert np.all(spec.loadings[5, :] == 0.0)
        assert spec.noise_variances[5] == 25.0
        assert np.all(np.delete(spec.noise_variances, 5) == 1.0)

    def test_covariance_eigenvalue_is_nu2_extra(self):
        # brute-force eigensolve: the scaled-noise coordinate decouples, so
        # nu2_extra is an exact eigenvalue; it sits at position K+1, below the
        # K factor spikes, exactly when it is below the K-th eigenvalue of
        # B B^T + I (at p = 50 it is the top one)
        for p, seed, position in [(200, 18, 6), (50, 17, 1), (100, 1, 5)]:
            spec = intro_counterexample_spec(p, 5, 25.0, SeededRng(seed).generator())
            b = spec.loadings
            w = np.sort(np.linalg.eigvalsh(b @ b.T + np.diag(spec.noise_variances)))[::-1]
            spikes = np.sort(np.linalg.eigvalsh(b @ b.T + np.eye(p)))[::-1]
            assert w[position - 1] == pytest.approx(25.0, rel=1e-12), p
            assert (position == 6) == (spikes[4] > 25.0), p

    @pytest.mark.parametrize("p, K", [(200, 5), (50, 5), (202, 200)])
    def test_loadings_are_one_uniform_draw(self, p, K):
        g, oracle = SeededRng(20).generator(), SeededRng(20).generator()
        spec = intro_counterexample_spec(p, K, 25.0, g)
        expected = oracle.uniform(-1.0, 1.0, (p, K))
        expected[K, :] = 0.0
        assert spec.loadings.tobytes() == expected.tobytes()
        assert g.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("p, K", [(202, 200), (122, 120)])
    def test_near_square_shapes_return_at_once(self, p, K):
        start = time.perf_counter()
        spec = intro_counterexample_spec(p, K, 25.0, SeededRng(3).generator())
        assert time.perf_counter() - start < 1.0
        assert np.linalg.matrix_rank(spec.loadings) == K

    def test_precondition(self):
        with pytest.raises(ConfigError):
            intro_counterexample_spec(6, 5, 25.0, SeededRng(19).generator())


class TestRefusals:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: FactorModelSpec(np.ones(3), np.ones(3)), ConfigError, "loadings must be a p x K matrix"),
            (lambda: FactorModelSpec(np.ones((2, 2)), np.ones(2)), ConfigError, "need p > K, got p=2, K=2"),
            (lambda: FactorModelSpec(np.ones((3, 0)), np.ones(3)), ConfigError, "need at least one factor column"),
            (
                lambda: FactorModelSpec(np.ones((3, 1)), np.array([1.0, 0.0, 1.0])), ConfigError,
                "noise variances must be length p and strictly positive",
            ),
            (
                lambda: FactorModelSpec(np.ones((3, 1)), np.ones(2)), ConfigError,
                "noise variances must be length p and strictly positive",
            ),
            (
                lambda: FactorModelSpec(np.full((3, 1), np.nan), np.ones(3)), DataError,
                "model spec contains non-finite values",
            ),
            (
                lambda: FactorModelSpec(np.ones((3, 1)), np.ones(3), "t"), ConfigError,
                "family must be 'gaussian' or 'uniform', got 't'",
            ),
            (
                lambda: sample_data(build_case(1, 10, 2, SeededRng(0).generator()), 2, SeededRng(1).generator()),
                ConfigError, "need n >= 3 observations, got 2",
            ),
            (
                lambda: table1_scenario(3, 5, 10, 1.0, SeededRng(2).generator()), ConfigError,
                "scenario must be 1 or 2, got 3",
            ),
            (
                lambda: table1_scenario(1, 1, 10, 1.0, SeededRng(2).generator()), ConfigError,
                "need p > K >= 2, got p=10, K=1",
            ),
            (
                lambda: intro_counterexample_spec(10, 3, 1.0, SeededRng(3).generator()), ConfigError,
                "nu2_extra must exceed the unit noise variance",
            ),
            (
                lambda: intro_counterexample_spec(4, 3, 5.0, SeededRng(3).generator()), ConfigError,
                "need p > K+1, got p=4, K=3",
            ),
            # an integer setting is refused, not handed to numpy
            (lambda: SeededRng(1.5), ConfigError, "seed must be an integer, got 1.5"),
            (lambda: SeededRng(1, 1.5), ConfigError, "stream must be an integer, got 1.5"),
            (lambda: build_case(2, 20.5, 2, SeededRng(0).generator()), ConfigError, "p must be an integer, got 20.5"),
            (
                lambda: sample_data(build_case(1, 10, 2, SeededRng(0).generator()), 30.5, SeededRng(1).generator()),
                ConfigError, "n must be an integer, got 30.5",
            ),
        ],
        ids=[
            "spec-1-d-loadings", "spec-p-not-above-k", "spec-no-factor", "spec-zero-noise", "spec-noise-length",
            "spec-nan", "spec-family", "sample-n", "table1-scenario", "table1-k", "counterexample-nu2",
            "counterexample-p", "seed-non-integer", "stream-non-integer", "case-p-non-integer", "sample-n-non-integer",
        ],
    )
    def test_public_refusals(self, call, error, message):
        assert refusal(call) == (error, message)
