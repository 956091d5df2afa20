"""Synthetic factor models: construction of loading matrices and noise
profiles for the benchmark cases, and sampling of panels from them.

Observations follow y = alpha + B f + eps with independent factors
(unit variance) and independent noise with per-series variances nu2.
Gaussian family: f ~ N(0,1), eps_j ~ N(0, nu2_j). Uniform family:
f ~ U(0, 2*sqrt(3)), eps_j ~ U(0, 2*sqrt(3*nu2_j)) — same variances,
nonzero means, which centering removes downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .spectral import DataMatrix, to_correlation

__all__ = [
    "SeededRng",
    "FactorModelSpec",
    "build_case",
    "sample_data",
    "population_correlation",
    "table1_scenario",
    "intro_counterexample_spec",
    "noise_to_signal_norm",
]


@dataclass(frozen=True)
class SeededRng:
    """Reproducible RNG handle: (seed, stream) fully determines the draws.

    Streams with the same seed are statistically independent, so one seed
    can drive many replications without coordination.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise ConfigError("seed and stream must be non-negative integers")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.stream]))


def _as_generator(rng: SeededRng | np.random.Generator) -> np.random.Generator:
    if isinstance(rng, SeededRng):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise ConfigError(f"rng must be a SeededRng or numpy Generator, got {type(rng).__name__}")


@dataclass(frozen=True)
class FactorModelSpec:
    """Loading matrix B (p x K), noise variances nu2 (> 0), intercept alpha,
    and the population family. Rank deficiency of B is allowed (some
    scenarios are deliberately degenerate)."""

    loadings: np.ndarray
    noise_variances: np.ndarray
    intercept: np.ndarray
    family: str = "gaussian"
    label: str = ""

    def __post_init__(self):
        b = np.asarray(self.loadings, dtype=float)
        nu2 = np.asarray(self.noise_variances, dtype=float)
        alpha = np.asarray(self.intercept, dtype=float)
        if b.ndim != 2:
            raise ConfigError("loadings must be a p x K matrix")
        p, k = b.shape
        if not p > k:
            raise ConfigError(f"need p > K, got p={p}, K={k}")
        if k < 1:
            raise ConfigError("need at least one factor column")
        if nu2.shape != (p,) or np.any(nu2 <= 0.0):
            raise ConfigError("noise variances must be length p and strictly positive")
        if alpha.shape != (p,):
            raise ConfigError("intercept must be length p")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(nu2)) and np.all(np.isfinite(alpha))):
            raise DataError("model spec contains non-finite values")
        if self.family not in ("gaussian", "uniform"):
            raise ConfigError(f"family must be 'gaussian' or 'uniform', got {self.family!r}")
        object.__setattr__(self, "loadings", b)
        object.__setattr__(self, "noise_variances", nu2)
        object.__setattr__(self, "intercept", alpha)

    @property
    def p(self) -> int:
        return self.loadings.shape[0]

    @property
    def k(self) -> int:
        return self.loadings.shape[1]


def _zeros_spec(b: np.ndarray, nu2: np.ndarray, family: str, label: str) -> FactorModelSpec:
    return FactorModelSpec(b, nu2, np.zeros(b.shape[0]), family=family, label=label)


def build_case(
    case_id: int,
    p: int,
    K: int,
    rng: SeededRng | np.random.Generator,
    family: str = "gaussian",
) -> FactorModelSpec:
    """Benchmark loading/noise constructions.

    Case 1: deterministic; b_{lj} = sqrt(3/sqrt(p)) for l,j <= K and
            b_{lj} = a_{lj} sqrt(3/(p-j)) for l > K, where the sign pattern
            a_{lj} = -1 iff l = j (mod K) decorrelates the loading columns.
    Case 2: b_{lj} ~ N(0,1), nu2_j ~ U(0, 180).
    Case 3: b_{lj} ~ N(0,1), nu2 = 36K.
    Case 4: b_{jj} = 1, off-diagonal b_{lj} ~ N(0, 0.04), nu2_j ~ U(0, 5.5).
    """
    if not p > K >= 1:
        raise ConfigError(f"need p > K >= 1, got p={p}, K={K}")
    g = _as_generator(rng)
    if case_id == 1:
        b = np.empty((p, K))
        b[:K, :] = np.sqrt(3.0 / np.sqrt(p))
        rows = np.arange(K + 1, p + 1)
        for j in range(1, K + 1):
            col = np.full(p - K, np.sqrt(3.0 / (p - j)))
            col[rows % K == j % K] *= -1.0
            b[K:, j - 1] = col
        nu2 = np.full(p, 0.55**2)
    elif case_id == 2:
        b = g.standard_normal((p, K))
        nu2 = g.uniform(0.0, 180.0, p)
    elif case_id == 3:
        b = g.standard_normal((p, K))
        nu2 = np.full(p, 36.0 * K)
    elif case_id == 4:
        b = g.normal(0.0, 0.2, (p, K))
        b[np.arange(K), np.arange(K)] = 1.0
        nu2 = g.uniform(0.0, 5.5, p)
    else:
        raise ConfigError(f"case id must be 1..4, got {case_id}")
    return _zeros_spec(b, nu2, family, f"case{case_id}")


def sample_data(
    spec: FactorModelSpec, n: int, rng: SeededRng | np.random.Generator
) -> DataMatrix:
    """Draw n iid observations y_i = alpha + B f_i + eps_i."""
    if n < 3:
        raise ConfigError(f"need n >= 3 observations, got {n}")
    g = _as_generator(rng)
    p, k = spec.p, spec.k
    if spec.family == "gaussian":
        f = g.standard_normal((n, k))
        eps = g.standard_normal((n, p)) * np.sqrt(spec.noise_variances)
    else:
        f = g.uniform(0.0, 2.0 * np.sqrt(3.0), (n, k))
        eps = g.uniform(0.0, 1.0, (n, p)) * (2.0 * np.sqrt(3.0 * spec.noise_variances))
    return DataMatrix(spec.intercept + f @ spec.loadings.T + eps)


def population_correlation(spec: FactorModelSpec) -> np.ndarray:
    """Correlation matrix of Sigma = B B^T + diag(nu2)."""
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = spec.loadings @ spec.loadings.T + np.diag(spec.noise_variances)
        sigma = (sigma + sigma.T) / 2.0
    if not np.all(np.isfinite(sigma)):
        raise DataError("covariance matrix contains non-finite entries")
    return to_correlation(sigma)


def table1_scenario(
    scenario: int,
    K: int,
    p: int,
    sigma2: float,
    rng: SeededRng | np.random.Generator,
) -> FactorModelSpec:
    """Population designs behind the above-one eigenvalue counts: K-1 loading
    columns iid U(-1,1); the K-th column is U(-1,1) (scenario 1, full rank)
    or zero (scenario 2, rank K-1). Homogeneous noise variance sigma2."""
    if scenario not in (1, 2):
        raise ConfigError(f"scenario must be 1 or 2, got {scenario}")
    if K < 2:
        raise ConfigError(f"need K >= 2, got {K}")
    if not p > K:
        raise ConfigError(f"need p > K, got p={p}, K={K}")
    if not sigma2 > 0:
        raise ConfigError("sigma2 must be positive")
    g = _as_generator(rng)
    b = g.uniform(-1.0, 1.0, (p, K))
    if scenario == 2:
        b[:, K - 1] = 0.0
    return _zeros_spec(b, np.full(p, float(sigma2)), "gaussian", f"table1-s{scenario}")


def intro_counterexample_spec(
    p: int,
    K: int,
    nu2_extra: float = 25.0,
    rng: SeededRng | np.random.Generator = SeededRng(0),
) -> FactorModelSpec:
    """Heterogeneous-scale construction on which covariance-based counts
    overshoot: dense U(-1,1) loadings except series K+1, which carries no
    factor exposure but noise variance nu2_extra >> 1. Its covariance
    eigenvalue equals nu2_extra exactly and lands right below the K factor
    spikes, so gap/ratio methods on the covariance spectrum read K+1
    separated eigenvalues; the correlation spectrum is unaffected.
    """
    if not p > K + 1:
        raise ConfigError(f"need p > K+1, got p={p}, K={K}")
    if not nu2_extra > 1.0:
        raise ConfigError("nu2_extra must exceed the unit noise variance")
    g = _as_generator(rng)
    for _ in range(100):
        b = g.uniform(-1.0, 1.0, (p, K))
        b[K, :] = 0.0
        if np.linalg.cond(b) < 100.0:
            break
    else:
        raise DataError("failed to draw a well-conditioned loading matrix")
    nu2 = np.ones(p)
    nu2[K] = float(nu2_extra)
    return _zeros_spec(b, nu2, "gaussian", "intro-counterexample")


def noise_to_signal_norm(spec: FactorModelSpec) -> float:
    """Operator norm of diag(Sigma)^{-1} Psi, the quantity that must stay
    <= 1 for the population above-one count to equal the factor count.
    Diagnostic only; Psi is diagonal here so this is a max of ratios."""
    diag_sigma = np.sum(spec.loadings**2, axis=1) + spec.noise_variances
    return float(np.max(spec.noise_variances / diag_sigma))
