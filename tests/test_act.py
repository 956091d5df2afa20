import functools
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from actfactors.act import (
    TIE_JITTER,
    AdjustedSpectrum,
    act_estimate,
    act_select,
    act_threshold,
    adjust_eigenvalues,
    companion_stieltjes,
    default_r_max,
    partial_stieltjes,
)
from actfactors.errors import ConfigError, DataError, DegenerateGap, PoleAtZ

from helpers import refusal, spectrum, spike_map


def _oracle_adjust(lam, n, r_max):
    """adjusted_j = -1/mu_j(lambda_j) as a plain loop over j and l, after the
    tie jitter; the first failing j raises the program's error and message."""
    lam = [float(x) for x in lam]
    p = len(lam)
    jittered = False
    i = 0
    while i < p - 1 and (i < r_max or lam[i + 1] > lam[i]):
        if lam[i + 1] >= lam[i]:
            if lam[i] <= 0.0:
                raise DegenerateGap(f"cannot jitter a tie at eigenvalue {lam[i]:g}")
            lam[i + 1] = min(lam[i + 1], lam[i]) - 1e-9 * lam[i]
            jittered = True
        i += 1
    adjusted = []
    for j in range(1, r_max + 1):
        z = lam[j - 1]
        if z == 0.0:
            raise PoleAtZ(f"eigenvalue {j} is zero; the spectrum is too degenerate to adjust")
        if lam[j - 1] <= lam[j]:
            raise DegenerateGap(
                f"eigenvalues {j} and {j + 1} are tied ({z:g}); the correction needs a strict gap"
            )
        node = (3.0 * lam[j - 1] + lam[j]) / 4.0
        if node == z or z in lam[j:]:
            raise PoleAtZ(f"z={z:g} coincides with a pole of the transform")
        total = 1.0 / (node - z)
        for l in range(j + 1, p + 1):
            total += 1.0 / (lam[l - 1] - z)
        rho = (p - j) / (n - 1)
        adjusted.append(-1.0 / (-(1.0 - rho) / z + rho * total / (p - j)))
    return np.array(adjusted), jittered


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
        spec = spectrum([4.0, 1.0, 0.5, 0.5], n=5)
        m = partial_stieltjes(1, spec, 4.0)
        oracle = -(1.0 - 0.75) / 4.0 + 0.75 * m
        got = companion_stieltjes(1, spec, 4.0)
        assert abs(got - oracle) <= 1e-9
        assert got == pytest.approx(-0.622024, abs=1e-6)

    def test_two_point_chain(self):
        spec = spectrum([2.0, 0.0], n=3)
        got = companion_stieltjes(1, spec, 2.0)
        assert abs(got - (-(1.0 - 0.5) / 2.0 + 0.5 * (-2.5))) <= 1e-12
        assert got == pytest.approx(-1.5, abs=1e-12)

    def test_classical_limit(self):
        # rho -> 0: the companion transform approaches -1/z
        spec = spectrum([4.0, 1.0, 0.5, 0.4], n=10**9)
        got = companion_stieltjes(1, spec, 4.0)
        assert abs(got - (-1.0 / 4.0)) <= 1e-6


class TestAdjustEigenvalues:
    def test_single_adjustment(self):
        spec = spectrum([4.0, 1.0, 0.5, 0.5], n=5)
        adj = adjust_eigenvalues(spec, n=5, r_max=1)
        oracle = -1.0 / companion_stieltjes(1, spec, 4.0)
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

    def test_tie_run_past_r_max(self):
        # the run 2, 2, 2 crosses index r_max + 1 = 4: jitter continues down
        # the run instead of leaving lambda_4 below lambda_5
        spec = spectrum([5.0, 3.0, 2.0, 2.0, 2.0, 1.0, 0.5, 0.2], n=20)
        adj = adjust_eigenvalues(spec, 20, r_max=3)
        assert adj.jittered
        expected, jittered = _oracle_adjust(spec.eigenvalues, 20, 3)
        assert jittered
        np.testing.assert_allclose(adj.adjusted, expected, rtol=1e-12)

    def test_tie_collapse_is_the_near_tie_limit(self):
        # the jitter leaves lambda_3 - lambda_4 = 2e-9, so the terms at that gap
        # (the synthetic node and lambda_4) dominate mu_3 and adjusted_3 is
        # about 6.9e-9: the same value as a spectrum lowered by hand, and the
        # limit of the near-tie sweep lambda_4 = 2 - eps, lambda_5 = 2 - 2 eps
        def adjusted(lam4, lam5):
            return adjust_eigenvalues(spectrum([5.0, 3.0, 2.0, lam4, lam5, 1.0, 0.5, 0.2], n=20), 20, r_max=3)

        tied = adjusted(2.0, 2.0)
        lam4 = 2.0 - TIE_JITTER * 2.0
        by_hand = adjusted(lam4, lam4 - TIE_JITTER * lam4)
        assert tied.jittered and not by_hand.jittered
        assert tied.adjusted.tobytes() == by_hand.adjusted.tobytes()
        assert tied.adjusted[2] == pytest.approx(6.909e-9, rel=1e-4)
        sweep = [adjusted(2.0 - eps, 2.0 - 2.0 * eps).adjusted[2] for eps in 10.0 ** -np.arange(1, 9)]
        assert sweep[0] == pytest.approx(0.296, rel=1e-3)
        assert np.all(np.diff(sweep + [tied.adjusted[2]]) < 0.0)

    @pytest.mark.parametrize(
        "values, n, r_max, error, message",
        [
            pytest.param(
                [5.0, 3.0, 0.0, -1e-9, -2e-9], 10, 3, PoleAtZ,
                "eigenvalue 3 is zero; the spectrum is too degenerate to adjust",
                id="zero-within-r_max",
            ),
            pytest.param(
                [4.0, 2.0, 0.0, 0.0, 0.0], 3, 3, DegenerateGap,
                "cannot jitter a tie at eigenvalue 0",
                id="tie-at-zero",
            ),
            pytest.param(
                [10.0, np.nextafter(10.0, 0.0), 1.0, 0.5], 10, 1, PoleAtZ,
                "z=10 coincides with a pole of the transform",
                id="one-ulp-gap-puts-node-on-z",
            ),
            pytest.param(
                [10.0, np.nextafter(10.0, 0.0), 0.0, -1e-9, -2e-9], 10, 3, PoleAtZ,
                "z=10 coincides with a pole of the transform",
                id="node-pole-at-j1-before-zero-at-j3",
            ),
        ],
    )
    def test_error_messages(self, values, n, r_max, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            adjust_eigenvalues(spectrum(values, n=n), n, r_max=r_max)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_formula_loop(self, data):
        # spectra with exact ties (drawn from a few values) inside and across
        # r_max + 1; when p >= n the spectrum ends in p - n + 1 exact zeros
        n = data.draw(st.integers(3, 60), label="n")
        p = data.draw(st.integers(4, 80), label="p")
        rank = min(p, n - 1)
        top = data.draw(
            st.lists(
                st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]) | st.floats(0.1, 10.0),
                min_size=rank,
                max_size=rank,
            ),
            label="values",
        )
        lam = np.concatenate([np.sort(top)[::-1], np.zeros(p - rank)])
        r_max = data.draw(st.integers(1, p - 2), label="r_max")
        spec = spectrum(lam, n=n)
        try:
            expected, jittered = _oracle_adjust(lam, n, r_max)
        except (DegenerateGap, PoleAtZ) as err:
            with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
                adjust_eigenvalues(spec, n, r_max)
            return
        adj = adjust_eigenvalues(spec, n, r_max)
        np.testing.assert_allclose(adj.adjusted, expected, rtol=1e-12, atol=0.0)
        assert adj.jittered == jittered

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(3, 40), ratio=st.integers(10, 20), seed=st.integers(0, 10_000), data=st.data())
    def test_zero_block_in_closed_form(self, n, ratio, seed, data):
        # p >= 10 n with rank n - 1, as a correlation spectrum at p > n has:
        # each of the p - n + 1 exact zeros past j adds -1/z to the sum.
        # With rho_j = (p-j)/(n-1) the zero block and -(1 - rho_j)/z cancel
        # to -j/((n-1) z), so the adjusted values do not depend on p
        p = ratio * n
        top = np.sort(np.random.default_rng(seed).uniform(0.1, 50.0, n - 1))[::-1]
        lam = np.concatenate([top, np.zeros(p - n + 1)])
        r_max = data.draw(st.integers(1, n - 1), label="r_max")
        closed, free_of_p = [], []
        for j in range(1, r_max + 1):
            z, rest = top[j - 1], top[j:]
            node = (3.0 * z + (rest[0] if rest.size else 0.0)) / 4.0
            total = np.sum(1.0 / (rest - z)) - (p - n + 1) / z + 1.0 / (node - z)
            rho = (p - j) / (n - 1)
            closed.append(-1.0 / (-(1.0 - rho) / z + rho * total / (p - j)))
            free_of_p.append((n - 1) / (j / z + np.sum(1.0 / (z - rest)) + 1.0 / (z - node)))
        adj = adjust_eigenvalues(spectrum(lam, n=n), n, r_max)
        assert not adj.jittered
        np.testing.assert_allclose(adj.adjusted, closed, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(adj.adjusted, free_of_p, rtol=1e-12, atol=0.0)

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
        adj = AdjustedSpectrum(np.array([5.0, 2.0, 1.4]), threshold=1.5)
        assert act_select(adj) == 2

    def test_empty_set_is_zero(self):
        adj = AdjustedSpectrum(np.array([1.2, 1.1, 0.9]), threshold=1.5)
        assert act_select(adj) == 0

    def test_max_not_first(self):
        # non-monotone adjusted values: the count is the largest index above
        adj = AdjustedSpectrum(np.array([5.0, 1.2, 1.8]), threshold=1.5)
        assert act_select(adj) == 3

    @pytest.mark.parametrize("values", [[1.0, -1.0], [np.inf], np.ones((2, 2))], ids=["negative", "inf", "2-d"])
    def test_bad_adjusted_values_are_a_data_error(self, values):
        with pytest.raises(DataError):
            AdjustedSpectrum(np.array(values), threshold=1.5)

    def test_monotone_in_threshold(self):
        values = np.array([5.0, 2.0, 1.4, 1.1])
        counts = [
            act_select(AdjustedSpectrum(values, threshold=s))
            for s in (1.0, 1.5, 1.9, 2.5, 6.0)
        ]
        assert counts == sorted(counts, reverse=True)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 50_000))
    def test_rescaling_invariance(self, seed):
        # per-column rescaling of the panel leaves the count unchanged
        from actfactors.spectral import DataMatrix, eigenvalues_desc, sample_covariance, to_correlation

        rng = np.random.default_rng(seed)
        n, p, k = 40, 12, 2
        X = rng.standard_normal((n, k)) @ rng.standard_normal((k, p)) + rng.standard_normal((n, p))
        d = rng.uniform(1e-3, 1e3, p)
        spec_plain = eigenvalues_desc(to_correlation(sample_covariance(DataMatrix(X))), n)
        spec_scaled = eigenvalues_desc(to_correlation(sample_covariance(DataMatrix(X * d))), n)
        assert act_estimate(spec_plain) == act_estimate(spec_scaled)

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.integers(1, 4),
        p=st.sampled_from([60, 150, 300]),
        n=st.sampled_from([100, 200]),
        seed=st.integers(0, 3),
        data=st.data(),
    )
    def test_interior_near_tie_keeps_the_count(self, case, p, n, seed, data):
        # lambda_j := lambda_{j+1} (1 + delta) for j below the count: ACT takes
        # the last crossing, so a collapse of adjusted_j must not move it
        lam = _simulated_correlation_spectrum(case, p, n, seed)
        count = act_estimate(spectrum(lam, n=n))
        assume(count >= 2)
        j = data.draw(st.integers(1, count - 1), label="j")
        delta = data.draw(st.just(0.0) | st.floats(1e-12, 1e-3), label="delta")
        tied = lam.copy()
        tied[j - 1] = lam[j] * (1.0 + delta)
        assume(j == 1 or tied[j - 1] <= lam[j - 2])
        assert act_estimate(spectrum(tied, n=n)) == count


@functools.lru_cache(maxsize=None)
def _simulated_correlation_spectrum(case, p, n, seed):
    from actfactors.models import SeededRng, build_case, sample_data
    from actfactors.spectral import square_spectra

    g = SeededRng(seed).generator()
    spec = square_spectra(sample_data(build_case(case, p, 5, g), n, g))[1].eigenvalues
    spec.flags.writeable = False
    return spec


class TestOracleAgreement:
    def test_isolated_spike_recovered(self):
        # a single well-separated population spike: the corrected top sample
        # eigenvalue tracks the population value to a few percent at p=500
        from actfactors.models import FactorModelSpec, SeededRng, population_correlation, sample_data
        from actfactors.spectral import eigenvalues_desc, sample_covariance, to_correlation

        p, n = 500, 300
        b = np.full((p, 1), 0.12)
        spec = FactorModelSpec(b, np.ones(p))
        pop = eigenvalues_desc(population_correlation(spec)).eigenvalues
        errs = []
        for rep in range(30):
            X = sample_data(spec, n, SeededRng(77, rep).generator())
            sample_spec = eigenvalues_desc(to_correlation(sample_covariance(X)), n)
            adj = adjust_eigenvalues(sample_spec, n, r_max=1)
            errs.append((adj.adjusted[0] - pop[0]) / pop[0])
        # the correction removes the upward bias: the raw top eigenvalue sits
        # ~35% above the population value here, the corrected one is centered
        assert abs(float(np.median(errs))) <= 0.08


class TestSpectralLaw:
    """Closed forms of the reference spike map lam * psi(lam) over a bulk
    law, which criterion 7b holds the raw sample eigenvalues to."""

    def test_psi_point_mass(self):
        assert spike_map(3.0, [1.0], 0.5) == pytest.approx(3.0 * 1.25, abs=1e-15)

    def test_psi_limit_at_infinity(self):
        assert spike_map(1e12, [1.0, 0.5], 2.0) / 1e12 == pytest.approx(1.0, abs=1e-9)

    def test_psi_two_atoms(self):
        oracle = 1.0 + (0.5 * 1.0 / 1.0 + 0.5 * 0.5 / 1.5)
        assert spike_map(2.0, [1.0, 0.5], 1.0) == pytest.approx(2.0 * oracle, abs=1e-12)

    def test_spike_at_bulk_edge(self):
        # point mass at 1, rho = 1: the edge spike 1 + sqrt(rho) maps to
        # (1 + sqrt(rho))^2
        assert spike_map(2.0, [1.0], 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_spike_classical_regime(self):
        assert spike_map(7.0, [1.0], 1e-14) == pytest.approx(7.0, abs=1e-9)

    def test_spike_quarter_rho(self):
        assert spike_map(3.0, [1.0], 0.25) == pytest.approx(3.375, abs=1e-12)

    def test_separation_guard(self):
        with pytest.raises(AssertionError, match="below the separation bound"):
            spike_map(1.9, [1.0], 1.0)


class TestRefusals:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: act_threshold(10, 1), ConfigError, "threshold needs n >= 2, got 1"),
            (
                lambda: companion_stieltjes(1, spectrum([4.0, 2.0, 1.0], n=1), 3.0), ConfigError,
                "companion transform needs n >= 2, got 1",
            ),
            (
                lambda: companion_stieltjes(1, spectrum([4.0, 2.0, 1.0], n=10), 0.0), PoleAtZ,
                "z=0 is a pole of the companion transform",
            ),
            (
                lambda: act_estimate(spectrum(np.linspace(3.0, 1.0, 20), n=60), r_max=2.5), ConfigError,
                "r_max must be an integer, got 2.5",
            ),
        ],
        ids=["threshold-n", "companion-n", "companion-z-zero", "act-r-max-non-integer"],
    )
    def test_public_refusals(self, call, error, message):
        assert refusal(call) == (error, message)
