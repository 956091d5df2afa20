import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actfactors.act import (
    AdjustedSpectrum,
    SpectralLaw,
    act_estimate,
    act_select,
    act_threshold,
    adjust_eigenvalues,
    companion_stieltjes,
    default_r_max,
    law_from_spectrum_tail,
    partial_stieltjes,
    predicted_spike,
    psi,
)
from actfactors.errors import (
    ConfigError,
    DegenerateGap,
    PoleAtZ,
    SeparationError,
    SupportViolation,
)
from actfactors.spectral import Spectrum


def spectrum(values, n=0):
    values = np.asarray(values, dtype=float)
    return Spectrum(values, p=values.size, n=n)


class TestPartialStieltjes:
    def test_four_point_example(self):
        # independent oracle: four summands over p - j = 3
        spec = spectrum([4.0, 1.0, 0.5, 0.5])
        oracle = (
            1.0 / (1.0 - 4.0)
            + 1.0 / (0.5 - 4.0)
            + 1.0 / (0.5 - 4.0)
            + 1.0 / ((3.0 * 4.0 + 1.0) / 4.0 - 4.0)
        ) / 3.0
        got = partial_stieltjes(1, spec, 4.0)
        assert abs(got - oracle) <= 1e-9
        assert got == pytest.approx(-0.746032, abs=1e-6)

    def test_two_point_example(self):
        spec = spectrum([2.0, 0.0])
        got = partial_stieltjes(1, spec, 2.0)
        oracle = (1.0 / (0.0 - 2.0) + 1.0 / (6.0 / 4.0 - 2.0)) / 1.0
        assert abs(got - oracle) <= 1e-9
        assert got == pytest.approx(-2.5, abs=1e-12)

    def test_tie_guard(self):
        # the synthetic node hits the pole at z when the pair at j is tied
        with pytest.raises(DegenerateGap):
            partial_stieltjes(1, spectrum([4.0, 4.0, 1.0, 0.5]), 4.0)
        with pytest.raises(DegenerateGap):
            partial_stieltjes(2, spectrum([4.0, 1.0, 1.0, 0.5]), 1.0)

    def test_pole_guard(self):
        spec = spectrum([4.0, 1.0, 0.5, 0.2])
        with pytest.raises(PoleAtZ):
            partial_stieltjes(1, spec, 0.5)

    def test_index_bounds(self):
        spec = spectrum([4.0, 1.0, 0.5])
        with pytest.raises(ConfigError):
            partial_stieltjes(3, spec, 4.0)


class TestCompanionStieltjes:
    def test_chained_example(self):
        spec = spectrum([4.0, 1.0, 0.5, 0.5])
        m = partial_stieltjes(1, spec, 4.0)
        oracle = -(1.0 - 0.75) / 4.0 + 0.75 * m
        got = companion_stieltjes(1, spec, 5, 4.0)
        assert abs(got - oracle) <= 1e-9
        assert got == pytest.approx(-0.622024, abs=1e-6)

    def test_two_point_chain(self):
        spec = spectrum([2.0, 0.0])
        got = companion_stieltjes(1, spec, 3, 2.0)
        assert abs(got - (-(1.0 - 0.5) / 2.0 + 0.5 * (-2.5))) <= 1e-12
        assert got == pytest.approx(-1.5, abs=1e-12)

    def test_classical_limit(self):
        # rho -> 0: the companion transform approaches -1/z
        spec = spectrum([4.0, 1.0, 0.5, 0.4])
        got = companion_stieltjes(1, spec, 10**9, 4.0)
        assert abs(got - (-1.0 / 4.0)) <= 1e-6


class TestAdjustEigenvalues:
    def test_single_adjustment(self):
        spec = spectrum([4.0, 1.0, 0.5, 0.5])
        adj = adjust_eigenvalues(spec, n=5, r_max=1)
        oracle = -1.0 / companion_stieltjes(1, spec, 5, 4.0)
        assert abs(adj.adjusted[0] - oracle) <= 1e-9
        assert adj.adjusted[0] == pytest.approx(1.607655, abs=1e-6)
        assert adj.threshold == act_threshold(4, 5)

    def test_r_max_bound(self):
        spec = spectrum([2.0, 0.0])
        with pytest.raises(ConfigError):
            adjust_eigenvalues(spec, n=3, r_max=1)  # r_max must be <= p-2 = 0

    def test_tie_jitter_flag(self):
        spec = spectrum([3.0, 1.0, 1.0, 0.6, 0.4])
        adj = adjust_eigenvalues(spec, n=10, r_max=2)
        assert adj.jittered
        assert np.all(adj.adjusted > 0.0)
        assert np.all(adj.adjusted <= spec.eigenvalues[:2] + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_shrinkage_property(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(4, 40))
        n = int(rng.integers(5, 200))
        lam = np.sort(rng.uniform(0.0, 10.0, p))[::-1]
        spec = spectrum(lam, n=n)
        r_max = min(default_r_max(p, n), p - 2)
        if r_max < 1:
            return
        adj = adjust_eigenvalues(spec, n=n, r_max=r_max)
        assert np.all(adj.adjusted > 0.0)
        assert np.all(adj.adjusted <= lam[:r_max] * (1.0 + 1e-12))


class TestThresholdAndSelect:
    def test_threshold_values(self):
        assert act_threshold(100, 401) == pytest.approx(1.5, abs=1e-15)
        assert act_threshold(300, 301) == pytest.approx(2.0, abs=1e-15)
        p = 123
        assert act_threshold(p, p + 1) == pytest.approx(2.0, abs=1e-12)

    def test_direct_thresholding(self):
        adj = AdjustedSpectrum(
            np.array([5.0, 2.0, 1.4]), threshold=1.5, p=100, n=401, r_max=3
        )
        assert act_select(adj) == 2

    def test_empty_set_is_zero(self):
        adj = AdjustedSpectrum(
            np.array([1.2, 1.1, 0.9]), threshold=1.5, p=100, n=401, r_max=3
        )
        assert act_select(adj) == 0

    def test_max_not_first(self):
        # non-monotone adjusted values: the count is the largest index above
        adj = AdjustedSpectrum(
            np.array([5.0, 1.2, 1.8]), threshold=1.5, p=100, n=401, r_max=3
        )
        assert act_select(adj) == 3

    def test_monotone_in_threshold(self):
        values = np.array([5.0, 2.0, 1.4, 1.1])
        counts = [
            act_select(AdjustedSpectrum(values, threshold=s, p=50, n=200, r_max=4))
            for s in (1.0, 1.5, 1.9, 2.5, 6.0)
        ]
        assert counts == sorted(counts, reverse=True)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 50_000))
    def test_rescaling_invariance(self, seed):
        # per-column rescaling of the panel leaves the count unchanged
        from actfactors.spectral import eigenvalues_desc, sample_covariance, to_correlation

        rng = np.random.default_rng(seed)
        n, p, k = 40, 12, 2
        X = rng.standard_normal((n, k)) @ rng.standard_normal((k, p)) + rng.standard_normal((n, p))
        d = rng.uniform(1e-3, 1e3, p)
        spec_plain = eigenvalues_desc(to_correlation(sample_covariance(X)), n)
        spec_scaled = eigenvalues_desc(to_correlation(sample_covariance(X * d)), n)
        assert act_estimate(spec_plain, n) == act_estimate(spec_scaled, n)


class TestOracleAgreement:
    def test_isolated_spike_recovered(self):
        # a single well-separated population spike: the corrected top sample
        # eigenvalue tracks the population value to a few percent at p=500
        from actfactors.models import FactorModelSpec, SeededRng, population_correlation, sample_data
        from actfactors.spectral import eigenvalues_desc, sample_covariance, to_correlation

        p, n = 500, 300
        b = np.full((p, 1), 0.12)
        spec = FactorModelSpec(b, np.ones(p), np.zeros(p))
        pop = eigenvalues_desc(population_correlation(spec)).eigenvalues
        errs = []
        for rep in range(30):
            X = sample_data(spec, n, SeededRng(77, rep))
            sample_spec = eigenvalues_desc(to_correlation(sample_covariance(X)), n)
            adj = adjust_eigenvalues(sample_spec, n, r_max=1)
            errs.append((adj.adjusted[0] - pop[0]) / pop[0])
        # the correction removes the upward bias: the raw top eigenvalue sits
        # ~35% above the population value here, the corrected one is centered
        assert abs(float(np.median(errs))) <= 0.08


class TestSpectralLaw:
    def test_psi_point_mass(self):
        law = SpectralLaw(np.array([1.0]), np.array([1.0]), rho=0.5)
        assert psi(3.0, law) == pytest.approx(1.25, abs=1e-15)

    def test_psi_limit_at_infinity(self):
        law = SpectralLaw(np.array([1.0, 0.5]), np.array([0.5, 0.5]), rho=2.0)
        assert psi(1e12, law) == pytest.approx(1.0, abs=1e-9)

    def test_psi_two_atoms(self):
        law = SpectralLaw(np.array([1.0, 0.5]), np.array([0.5, 0.5]), rho=1.0)
        oracle = 1.0 + (0.5 * 1.0 / 1.0 + 0.5 * 0.5 / 1.5)
        assert psi(2.0, law) == pytest.approx(oracle, abs=1e-12)
        assert psi(2.0, law) == pytest.approx(1.6667, abs=1e-4)

    def test_psi_inside_support(self):
        law = SpectralLaw(np.array([1.0]), np.array([1.0]), rho=1.0)
        with pytest.raises(SupportViolation):
            psi(0.9, law)

    def test_spike_at_bulk_edge(self):
        # point mass at 1, rho = 1: the edge spike 1 + sqrt(rho) maps to
        # (1 + sqrt(rho))^2
        law = SpectralLaw(np.array([1.0]), np.array([1.0]), rho=1.0)
        assert predicted_spike(2.0, law) == pytest.approx(4.0, abs=1e-12)

    def test_spike_classical_regime(self):
        law = SpectralLaw(np.array([1.0]), np.array([1.0]), rho=1e-14)
        assert predicted_spike(7.0, law) == pytest.approx(7.0, abs=1e-9)

    def test_spike_quarter_rho(self):
        law = SpectralLaw(np.array([1.0]), np.array([1.0]), rho=0.25)
        assert predicted_spike(3.0, law) == pytest.approx(3.375, abs=1e-12)

    def test_separation_guard(self):
        law = SpectralLaw(np.array([1.0]), np.array([1.0]), rho=1.0)
        with pytest.raises(SeparationError):
            predicted_spike(1.9, law)

    def test_law_from_tail(self):
        spec = spectrum([3.0, 0.9, 0.6, 0.5])
        law = law_from_spectrum_tail(spec, 1, rho=0.5)
        np.testing.assert_allclose(law.atoms, [0.9, 0.6, 0.5])
        np.testing.assert_allclose(law.weights, [1 / 3] * 3)
