"""Reference factor-count estimators: eigenvalue ratio (ER), growth ratio (GR),
eigenvalue difference (ED), gap-ratio test statistic (ON), and the PC/IC
information criteria.

All argmax/argmin ties break toward the smallest index so reports are
deterministic. In table reproduction these run on the covariance spectrum;
the adjusted-threshold and above-one counts run on the correlation spectrum.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalDomain, check_range
from .spectral import Spectrum

__all__ = [
    "BaiNgVariant",
    "check_gap_threshold",
    "er_estimate",
    "gr_estimate",
    "ed_estimate",
    "on_estimate",
    "bai_ng_estimate",
]


@dataclass(frozen=True)
class BaiNgVariant:
    """One of the six information criteria: family PC or IC, penalty g1/g2/g3."""

    family: str
    penalty: str

    def __post_init__(self):
        if self.family not in ("PC", "IC"):
            raise ConfigError(f"family must be 'PC' or 'IC', got {self.family!r}")
        if self.penalty not in ("g1", "g2", "g3"):
            raise ConfigError(f"penalty must be 'g1', 'g2' or 'g3', got {self.penalty!r}")

    @classmethod
    def parse(cls, name: str) -> "BaiNgVariant":
        name = name.strip().upper()
        if len(name) == 3 and name[:2] in ("PC", "IC") and name[2] in "123":
            return cls(name[:2], "g" + name[2])
        raise ConfigError(f"unknown criterion {name!r}; expected PC1-PC3 or IC1-IC3")


def check_gap_threshold(threshold: float | None) -> float | None:
    """The gap threshold's rule: None (no threshold given), or finite and positive, returned as a float."""
    real = isinstance(threshold, numbers.Real)
    if threshold is not None and not (real and math.isfinite(threshold) and threshold > 0.0):
        raise ConfigError(f"gap threshold must be finite and positive, got {threshold if real else repr(threshold)}")
    return None if threshold is None else float(threshold)


def _tail_sums(lam: np.ndarray) -> np.ndarray:
    """tail[k] = sum(lam[k:]) for k = 0..len(lam)-1, from one reversed cumsum."""
    return np.cumsum(lam[::-1])[::-1]


def _ratios(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den where den > 0, +inf where it is not or where the quotient overflows."""
    with np.errstate(over="ignore"):
        return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.inf)


def er_estimate(spec: Spectrum, r_max: int) -> int:
    """argmax_{1<=i<=r_max} lambda_i / lambda_{i+1}; zero denominators count
    as +inf, so the first of them wins."""
    check_range("r_max", r_max, 1, spec.p - 1, "p-1")
    lam = spec.eigenvalues
    num = lam[:r_max]
    den = lam[1 : r_max + 1]
    return int(np.argmax(_ratios(num, den))) + 1


def gr_estimate(spec: Spectrum, r_max: int) -> int:
    """argmax_{1<=i<=r_max} log(V_{i-1}/V_i) / log(V_i/V_{i+1}) with
    V_i = sum_{j>i} lambda_j."""
    check_range("r_max", r_max, 1, spec.p - 2, "p-2")
    # V[i] = sum of eigenvalues past index i, i = 0..r_max+1
    v = _tail_sums(spec.eigenvalues)[: r_max + 2]
    if v[r_max + 1] <= 0.0:
        raise NumericalDomain(f"tail sum V_{r_max + 1} must be positive")
    # a non-increasing spectrum with V_{r_max+1} > 0 is positive up to that index, so each
    # log V_{i-1} - log V_i is positive; not log(V_{i-1}/V_i), whose ratio can overflow
    logs = np.log(v[:-1]) - np.log(v[1:])
    crit = logs[:-1] / logs[1:]
    return int(np.argmax(crit)) + 1


def ed_estimate(spec: Spectrum, threshold: float, r_max: int) -> int:
    """max{i <= r_max : lambda_i - lambda_{i+1} >= threshold}, empty set -> 0.
    There is no default threshold: None is a ConfigError."""
    if threshold is None:
        raise ConfigError("ED needs an explicit gap threshold (ed_threshold, --ed-threshold)")
    check_gap_threshold(threshold)
    check_range("r_max", r_max, 1, spec.p - 1, "p-1")
    lam = spec.eigenvalues
    gaps = lam[:r_max] - lam[1 : r_max + 1]
    hits = np.flatnonzero(gaps >= threshold)
    return int(hits[-1] + 1) if hits.size else 0


def on_estimate(spec: Spectrum, r_min: int, r_max: int) -> int:
    """argmax_{r_min < i <= r_max} (lambda_i - lambda_{i+1}) /
    (lambda_{i+1} - lambda_{i+2}); zero denominators count as +inf."""
    check_range("r_max", r_max, 1, spec.p - 2, "p-2")
    check_range("r_min", r_min, 0, r_max - 1, "r_max-1")
    lam = spec.eigenvalues
    i = np.arange(r_min + 1, r_max + 1)
    num = lam[i - 1] - lam[i]
    den = lam[i] - lam[i + 1]
    return int(i[np.argmax(_ratios(num, den))])


def _penalty(penalty: str, n: int, p: int) -> float:
    c2 = min(n, p)
    if penalty == "g1":
        return (n + p) / (n * p) * math.log(n * p / (n + p))
    if penalty == "g2":
        return (n + p) / (n * p) * math.log(c2)
    return math.log(c2) / c2


def bai_ng_estimate(
    cov_spec: Spectrum, n: int, p: int, variant: BaiNgVariant, r_max: int
) -> int:
    """argmin_{0<=k<=r_max} of PC(k) = V(k) + k*sigma2*g or IC(k) = ln V(k) + k*g,
    where V(k) = p^{-1} sum_{j=k+1}^{min(n,p)} mu_j on the covariance spectrum,
    sigma2 = V(r_max), and g is the g1/g2/g3 penalty."""
    if cov_spec.p != p:
        raise ConfigError(f"spectrum has p={cov_spec.p}, expected {p}")
    check_range("r_max", r_max, 1, min(n, p) - 1, "min(n, p)-1")
    v = _tail_sums(cov_spec.eigenvalues[: min(n, p)])[: r_max + 1] / p
    k = np.arange(r_max + 1)
    g = _penalty(variant.penalty, n, p)
    if variant.family == "PC":
        crit = v + k * v[r_max] * g
    elif np.any(v <= 0.0):
        raise NumericalDomain("V(k) hit zero; IC criterion undefined")
    else:
        crit = np.log(v) + k * g
    return int(np.argmin(crit))
