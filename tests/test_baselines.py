import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from actfactors import baselines
from actfactors.baselines import (
    BaiNgVariant,
    bai_ng_estimate,
    check_gap_threshold,
    ed_estimate,
    er_estimate,
    gr_estimate,
    on_estimate,
)
from actfactors.errors import ConfigError, NumericalDomain
from actfactors.spectral import Spectrum

from helpers import refusal, spectrum


class TestEigenvalueRatio:
    def test_direct_argmax(self):
        assert er_estimate(spectrum([8, 4, 1, 0.5, 0.4]), r_max=4) == 2

    def test_tie_takes_smallest(self):
        assert er_estimate(spectrum([10, 1, 1, 1]), r_max=2) == 1

    def test_zero_denominator_is_infinite(self):
        assert er_estimate(spectrum([4, 2, 0, 0]), r_max=3) == 2

    def test_r_max_bound(self):
        with pytest.raises(ConfigError):
            er_estimate(spectrum([2, 1]), r_max=2)


@pytest.mark.parametrize(
    "estimate, values",
    [
        (lambda s: gr_estimate(s, r_max=3), [1e300, 1e300, 1e-300, 1e-300, 1e-300, 1e-300]),
        (lambda s: er_estimate(s, r_max=3), [1e300, 1e300, 1e-300, 1e-300, 1e-300, 1e-300]),
        (lambda s: on_estimate(s, r_min=0, r_max=3), [1e300, 1e299, 1e-300, 0.0, 0.0, 0.0]),
    ],
    ids=["GR", "ER", "ON"],
)
def test_ratio_past_the_float_range_is_infinite(estimate, values):
    # lambda_2 / lambda_3 (or V_1 / V_2) overflows: it counts as +inf, like a
    # zero denominator, without numpy's overflow warning (an error under the test warning filter)
    assert estimate(spectrum(values)) == 2


class TestGrowthRatio:
    def test_hand_evaluation(self):
        # V = (13.9, 5.9, 1.9, 0.9, 0.4); criterion ~ (0.756, 1.517, 0.921)
        spec = spectrum([8, 4, 1, 0.5, 0.4])
        got = gr_estimate(spec, r_max=3)
        assert got == 2
        v = [13.9, 5.9, 1.9, 0.9, 0.4]
        crit = [
            math.log(v[i] / v[i + 1]) / math.log(v[i + 1] / v[i + 2]) for i in range(3)
        ]
        assert crit[1] == max(crit)
        assert crit == pytest.approx([0.7562, 1.5164, 0.9214], abs=2e-4)

    def test_dominant_spike(self):
        assert gr_estimate(spectrum([100.0, 1e-3, 1e-3 - 1e-9, 1e-3 - 2e-9, 1e-3 - 3e-9]), r_max=2) == 1

    def test_zero_tail_rejected(self):
        with pytest.raises(NumericalDomain):
            gr_estimate(spectrum([4, 2, 1, 0, 0]), r_max=3)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(1e-6, 1.0)), min_size=4, max_size=30),
        negative_tail=st.booleans(),
        exponent=st.integers(-300, 300),
        r_max=st.integers(1, 28),
    )
    def test_positive_tail_sum_is_the_only_domain_check(self, values, negative_tail, exponent, r_max):
        # ties, zero tails, a round-off negative and extreme scales: once
        # V_{r_max+1} > 0, every ratio of tail sums exceeds 1 and every log is positive
        lam = sorted(values, reverse=True) + ([-1e-12 * max(values)] if negative_tail else [])
        lam = np.array(lam) * 10.0**exponent
        r_max = min(r_max, lam.size - 2)
        assume(math.fsum(lam[r_max + 1 :]) > 0.0)
        assert 1 <= gr_estimate(spectrum(lam), r_max) <= r_max


class TestEigenvalueDifference:
    def test_direct_scan(self):
        assert ed_estimate(spectrum([8, 4, 1, 0.5, 0.4]), threshold=1.0, r_max=4) == 2

    def test_no_gap_above(self):
        assert ed_estimate(spectrum([1.2, 1.1, 1.05, 1.0]), threshold=1.0, r_max=3) == 0

    def test_threshold_is_required(self):
        with pytest.raises(ConfigError, match="explicit gap threshold"):
            ed_estimate(spectrum([8, 4, 1, 0.5, 0.4]), threshold=None, r_max=4)

    def test_takes_max_not_first(self):
        # gaps (2, 0.1, 1.5, 0.1)
        spec = spectrum([5.0, 3.0, 2.9, 1.4, 1.3])
        assert ed_estimate(spec, threshold=1.0, r_max=4) == 3

    def test_scaling_identity(self):
        spec = spectrum([8, 4, 1, 0.5, 0.4])
        for c in (0.25, 3.0, 117.0):
            scaled = spectrum(np.array([8, 4, 1, 0.5, 0.4]) * c)
            assert ed_estimate(scaled, threshold=c * 1.0, r_max=4) == ed_estimate(
                spec, threshold=1.0, r_max=4
            )


class TestGapRatioArgmax:
    def test_gap_ratio_arithmetic(self):
        # ratios: 4/3, 6, 5 -> argmax at 2
        assert on_estimate(spectrum([8, 4, 1, 0.5, 0.4]), r_min=0, r_max=3) == 2

    def test_equal_gaps_first_wins(self):
        spec = spectrum([5.0, 4.0, 3.0, 2.0, 1.0])
        assert on_estimate(spec, r_min=0, r_max=3) == 1
        assert on_estimate(spec, r_min=1, r_max=3) == 2

    def test_zero_denominator_wins(self):
        spec = spectrum([8, 4, 2, 2, 1])
        assert on_estimate(spec, r_min=0, r_max=2) == 2

    def test_bounds(self):
        with pytest.raises(ConfigError):
            on_estimate(spectrum([3, 2, 1]), r_min=1, r_max=1)


class TestBaiNg:
    def test_ic3_hand_example(self):
        mu = np.array([10.0, 5.0] + [1.0] * 48)
        spec = Spectrum(mu, n=100)
        g3 = math.log(50) / 50
        assert g3 == pytest.approx(0.07824, abs=1e-5)
        v = [
            (mu[k:].sum()) / 50.0 for k in range(4)
        ]  # min(n, p) = 50 = p, so the tail sum runs to p
        crit = [math.log(v[k]) + k * g3 for k in range(4)]
        assert crit == pytest.approx([0.2311, 0.1365, 0.1157, 0.1728], abs=2e-4)
        got = bai_ng_estimate(spec, n=100, p=50, variant=BaiNgVariant("IC", "g3"), r_max=3)
        assert got == 2
        # independent full-precision oracle
        assert crit[2] == min(crit)

    def test_zero_penalty_picks_r_max(self, monkeypatch):
        mu = np.sort(np.random.default_rng(0).uniform(0.5, 5.0, 30))[::-1]
        spec = Spectrum(mu, n=60)
        monkeypatch.setattr(baselines, "_penalty", lambda penalty, n, p: 0.0)
        assert bai_ng_estimate(spec, 60, 30, BaiNgVariant("PC", "g1"), 10) == 10

    def test_huge_penalty_picks_zero(self, monkeypatch):
        mu = np.sort(np.random.default_rng(1).uniform(0.5, 5.0, 30))[::-1]
        spec = Spectrum(mu, n=60)
        monkeypatch.setattr(baselines, "_penalty", lambda penalty, n, p: 1e12)
        assert bai_ng_estimate(spec, 60, 30, BaiNgVariant("PC", "g1"), 10) == 0
        assert bai_ng_estimate(spec, 60, 30, BaiNgVariant("IC", "g1"), 10) == 0

    def test_ic_zero_variance_rejected(self):
        mu = np.array([4.0, 2.0, 0.0, 0.0, 0.0])
        spec = Spectrum(mu, n=10)
        with pytest.raises(NumericalDomain):
            bai_ng_estimate(spec, n=10, p=5, variant=BaiNgVariant("IC", "g1"), r_max=3)

    def test_variant_parse(self):
        assert BaiNgVariant.parse("pc2") == BaiNgVariant("PC", "g2")
        with pytest.raises(ConfigError):
            BaiNgVariant.parse("XY1")

    def test_r_max_bound(self):
        spec = spectrum([3, 2, 1, 0.5])
        with pytest.raises(ConfigError):
            bai_ng_estimate(spec, n=3, p=4, variant=BaiNgVariant("PC", "g1"), r_max=3)


class TestScaleInvariance:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        scale=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
    )
    def test_ratio_methods(self, seed, scale):
        rng = np.random.default_rng(seed)
        lam = np.sort(rng.uniform(0.01, 20.0, 12))[::-1]
        spec, scaled = spectrum(lam), spectrum(lam * scale)
        r_max = 8
        assert er_estimate(spec, r_max) == er_estimate(scaled, r_max)
        assert gr_estimate(spec, r_max) == gr_estimate(scaled, r_max)
        assert on_estimate(spec, 0, r_max) == on_estimate(scaled, 0, r_max)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_outputs_in_range(self, seed):
        rng = np.random.default_rng(seed)
        lam = np.sort(rng.uniform(0.01, 20.0, 15))[::-1]
        spec = spectrum(lam)
        r_max = 9
        for value in (
            er_estimate(spec, r_max),
            gr_estimate(spec, r_max),
            ed_estimate(spec, 1.0, r_max),
            on_estimate(spec, 0, r_max),
            bai_ng_estimate(spec, 40, 15, BaiNgVariant("IC", "g2"), r_max),
        ):
            assert 0 <= value <= r_max


class TestRefusals:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: BaiNgVariant("XX", "g1"), ConfigError, "family must be 'PC' or 'IC', got 'XX'"),
            (lambda: BaiNgVariant("PC", "g4"), ConfigError, "penalty must be 'g1', 'g2' or 'g3', got 'g4'"),
            (
                lambda: bai_ng_estimate(spectrum([4.0, 2.0, 1.0, 0.5], n=10), 10, 5, BaiNgVariant("PC", "g1"), 2),
                ConfigError, "spectrum has p=4, expected 5",
            ),
            (lambda: er_estimate(spectrum([4.0, 2.0, 1.0, 0.5], n=10), 2.5), ConfigError, "r_max must be an integer, got 2.5"),
            (lambda: on_estimate(spectrum([4.0, 2.0, 1.0, 0.5], n=10), 0.5, 2), ConfigError, "r_min must be an integer, got 0.5"),
            # text is not read as a number: the message shows the string
            (lambda: check_gap_threshold("0.5"), ConfigError, "gap threshold must be finite and positive, got '0.5'"),
        ],
        ids=[
            "bai-ng-family", "bai-ng-penalty", "bai-ng-p", "er-r-max-non-integer", "on-r-min-non-integer",
            "gap-threshold-string",
        ],
    )
    def test_public_refusals(self, call, error, message):
        assert refusal(call) == (error, message)
