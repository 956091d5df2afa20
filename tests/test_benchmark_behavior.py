"""Behavioral expectations on the benchmark cases: the documented failure
and success regimes of each estimator family, at reduced replication counts
(the acceptance suite runs the tighter, larger versions).
"""

import pytest

from actfactors import spectral
from actfactors.act import act_estimate, default_r_max
from actfactors.baselines import ed_estimate, er_estimate, gr_estimate, on_estimate
from actfactors.cli import estimate_report
from actfactors.models import SeededRng, build_case, intro_counterexample_spec, sample_data
from actfactors.panel import PanelDataset
from actfactors.spectral import DataMatrix, eigenvalues_desc, sample_covariance, to_correlation


def spectra(case, p, n, K, seed, rep):
    g = SeededRng(seed, rep).generator()
    spec = build_case(case, p, K, g)
    X = sample_data(spec, n, g)
    cov = sample_covariance(X)
    return eigenvalues_desc(cov, n), eigenvalues_desc(to_correlation(cov), n)


def test_ratio_method_fails_on_weak_factors():
    # heavy-noise case at p=100: the factor spikes sit inside the noise bulk
    # of the covariance spectrum, so the adjacent-ratio count rarely lands
    p, n, K, R = 100, 300, 5, 100
    hits = 0
    for rep in range(R):
        cov_spec, _ = spectra(3, p, n, K, 501, rep)
        if er_estimate(cov_spec, default_r_max(p, n)) == K:
            hits += 1
    assert hits / R <= 0.25


def test_growth_ratio_recovers_at_large_p():
    # the same heteroskedastic-noise model becomes easy once p grows
    p, n, K, R = 1000, 300, 5, 20
    hits = 0
    for rep in range(R):
        cov_spec, _ = spectra(2, p, n, K, 502, rep)
        if gr_estimate(cov_spec, default_r_max(p, n)) == K:
            hits += 1
    assert hits / R >= 0.9


def test_counterexample_breaks_every_covariance_method():
    # one factor-free series with variance 25 plants a spurious covariance
    # spike right below the K real ones: gap, ratio and growth counts all
    # read K+1, the correlation-based count stays at K
    p, n, K, R = 200, 300, 5, 60
    over = {"er": 0, "gr": 0, "on": 0, "ed": 0}
    act_true = 0
    for rep in range(R):
        g = SeededRng(503, rep).generator()
        spec = intro_counterexample_spec(p, K, 25.0, g)
        X = sample_data(spec, n, g)
        cov = sample_covariance(X)
        cov_spec = eigenvalues_desc(cov, n)
        r_max = default_r_max(p, n)
        over["er"] += er_estimate(cov_spec, r_max) >= K + 1
        over["gr"] += gr_estimate(cov_spec, r_max) >= K + 1
        over["on"] += on_estimate(cov_spec, 0, r_max) >= K + 1
        over["ed"] += ed_estimate(cov_spec, 1.0, r_max) >= K + 1
        act_true += act_estimate(eigenvalues_desc(to_correlation(cov), n), r_max=r_max) == K
    for name, count in over.items():
        assert count / R >= 0.9, (name, count)
    assert act_true / R >= 0.9


def test_estimate_report_returns_zero_on_pure_noise():
    n, p = 300, 100
    names = tuple(f"s{i}" for i in range(p))
    zero = 0
    seeds = 40
    for s in range(seeds):
        X = SeededRng(504, s).generator().standard_normal((n, p))
        report = estimate_report(PanelDataset(names, DataMatrix(X)), methods=("ACT",))
        zero += report["methods"]["ACT"]["k"] == 0
    assert zero / seeds >= 0.95


@pytest.mark.parametrize("p, seed", [(100, 505), (600, 506)])
def test_null_size_below_and_past_n(p, seed):
    # factor-free Gaussian panels: how often ACT counts a factor that is not
    # there, on both of spectra()'s routes (p < n, and the Gram route p > n);
    # the bound was fixed before the first run
    n, R = 300, 300
    hits = 0
    for rep in range(R):
        X = DataMatrix(SeededRng(seed, rep).generator().standard_normal((n, p)))
        hits += act_estimate(spectral.spectra(X)[1]) >= 1
    print(f"null size at n={n}, p={p}: P(k >= 1) = {hits / R:.3f} over {R} panels")
    assert hits / R <= 0.15
