"""Synthetic factor models: construction of loading matrices and noise
profiles for the benchmark cases, and sampling of panels from them.

Observations follow y = B f + eps with independent factors (unit
variance) and independent noise with per-series variances nu2. There is
no intercept: every statistic centres the panel first.
Gaussian family: f ~ N(0,1), eps_j ~ N(0, nu2_j). Uniform family:
f ~ U(0, 2*sqrt(3)), eps_j ~ U(0, 2*sqrt(3*nu2_j)) — same variances,
nonzero means, which centering removes downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, check_integer
from .spectral import DataMatrix, to_correlation

__all__ = [
    "SeededRng",
    "FactorModelSpec",
    "build_case",
    "sample_data",
    "population_correlation",
    "table1_scenario",
    "intro_counterexample_spec",
]


@dataclass(frozen=True)
class SeededRng:
    """Reproducible RNG handle: (seed, stream) fully determines the draws.

    Streams with the same seed are statistically independent, so one seed
    can drive many replications without coordination. It is the package's
    one seed rule: replication generators and cell seeds both derive from
    SeedSequence([seed, stream]), and a negative seed is a ConfigError.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", check_integer("seed", self.seed))
        object.__setattr__(self, "stream", check_integer("stream", self.stream))
        if self.seed < 0 or self.stream < 0:
            raise ConfigError("seed and stream must be non-negative integers")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(self._sequence())

    def derived_seed(self) -> int:
        """The stream's first 64-bit state word: the seed of a child family
        of streams, such as a cell's replications."""
        return int(self._sequence().generate_state(1, dtype=np.uint64)[0])

    def _sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.seed, self.stream])


@dataclass(frozen=True)
class FactorModelSpec:
    """Loading matrix B (p x K), noise variances nu2 (> 0) and the
    population family. Rank deficiency of B is allowed (some
    scenarios are deliberately degenerate)."""

    loadings: np.ndarray
    noise_variances: np.ndarray
    family: str = "gaussian"

    def __post_init__(self):
        b = np.asarray(self.loadings, dtype=float)
        nu2 = np.asarray(self.noise_variances, dtype=float)
        if b.ndim != 2:
            raise ConfigError("loadings must be a p x K matrix")
        p, k = b.shape
        if not p > k:
            raise ConfigError(f"need p > K, got p={p}, K={k}")
        if k < 1:
            raise ConfigError("need at least one factor column")
        if nu2.shape != (p,) or np.any(nu2 <= 0.0):
            raise ConfigError("noise variances must be length p and strictly positive")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(nu2))):
            raise DataError("model spec contains non-finite values")
        if self.family not in ("gaussian", "uniform"):
            raise ConfigError(f"family must be 'gaussian' or 'uniform', got {self.family!r}")
        object.__setattr__(self, "loadings", b)
        object.__setattr__(self, "noise_variances", nu2)

    @property
    def p(self) -> int:
        return self.loadings.shape[0]

    @property
    def k(self) -> int:
        return self.loadings.shape[1]


def build_case(
    case_id: int,
    p: int,
    K: int,
    rng: np.random.Generator,
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
    if not (p := check_integer("p", p)) > (K := check_integer("K", K)) >= 1:
        raise ConfigError(f"need p > K >= 1, got p={p}, K={K}")
    if case_id == 1:
        rows, j = np.arange(K + 1, p + 1), np.arange(1, K + 1)
        b = np.empty((p, K))
        b[:K, :] = np.sqrt(3.0 / np.sqrt(p))
        b[K:, :] = np.where(rows[:, None] % K == j % K, -1.0, 1.0) * np.sqrt(3.0 / (p - j))
        nu2 = np.full(p, 0.55**2)
    elif case_id == 2:
        b = rng.standard_normal((p, K))
        nu2 = rng.uniform(0.0, 180.0, p)
    elif case_id == 3:
        b = rng.standard_normal((p, K))
        nu2 = np.full(p, 36.0 * K)
    elif case_id == 4:
        b = rng.normal(0.0, 0.2, (p, K))
        b[np.arange(K), np.arange(K)] = 1.0
        nu2 = rng.uniform(0.0, 5.5, p)
    else:
        raise ConfigError(f"case id must be 1..4, got {case_id}")
    return FactorModelSpec(b, nu2, family)


def sample_data(
    spec: FactorModelSpec,
    n: int,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> DataMatrix:
    """Draw n iid observations y_i = B f_i + eps_i.

    The noise is drawn straight into ``out`` (a writable, C-contiguous
    float64 n x p array; a new one when None), scaled and shifted in place.
    The returned DataMatrix wraps ``out``, so the next draw into ``out``
    overwrites it. The values are those of ``B f + eps`` bit for bit: each
    in-place step is the same IEEE operation with its operands swapped.
    """
    if (n := check_integer("n", n)) < 3:
        raise ConfigError(f"need n >= 3 observations, got {n}")
    p, k = spec.p, spec.k
    if out is None:
        out = np.empty((n, p))
    elif not (
        isinstance(out, np.ndarray)
        and out.shape == (n, p)
        and out.dtype == np.float64
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ConfigError(f"out must be a writable C-contiguous float64 array of shape ({n}, {p})")
    if spec.family == "gaussian":
        f = rng.standard_normal((n, k))
        rng.standard_normal(out=out)
        out *= np.sqrt(spec.noise_variances)
    else:
        f = rng.uniform(0.0, 2.0 * np.sqrt(3.0), (n, k))
        rng.random(out=out)
        out *= 2.0 * np.sqrt(3.0 * spec.noise_variances)
    out += f @ spec.loadings.T
    return DataMatrix(out)


def population_correlation(spec: FactorModelSpec) -> np.ndarray:
    """Correlation matrix of Sigma = B B^T + diag(nu2)."""
    # B B^T is exactly symmetric; an overflow in it is reported by to_correlation
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = spec.loadings @ spec.loadings.T + np.diag(spec.noise_variances)
    return to_correlation(sigma)


def table1_scenario(
    scenario: int,
    K: int,
    p: int,
    sigma2: float,
    rng: np.random.Generator,
) -> FactorModelSpec:
    """Population designs behind the above-one eigenvalue counts: K-1 loading
    columns iid U(-1,1); the K-th column is U(-1,1) (scenario 1, full rank)
    or zero (scenario 2, rank K-1). Homogeneous noise variance sigma2.
    FactorModelSpec refuses sigma2 <= 0."""
    if scenario not in (1, 2):
        raise ConfigError(f"scenario must be 1 or 2, got {scenario}")
    if not p > K >= 2:
        raise ConfigError(f"need p > K >= 2, got p={p}, K={K}")
    b = rng.uniform(-1.0, 1.0, (p, K))
    if scenario == 2:
        b[:, K - 1] = 0.0
    return FactorModelSpec(b, np.full(p, float(sigma2)), "gaussian")


def intro_counterexample_spec(
    p: int,
    K: int,
    nu2_extra: float,
    rng: np.random.Generator,
) -> FactorModelSpec:
    """Heterogeneous-scale construction on which covariance-based counts
    overshoot: dense U(-1,1) loadings except series K+1, which carries no
    factor exposure but noise variance nu2_extra >> 1. Its covariance
    eigenvalue equals nu2_extra exactly. When nu2_extra is below the K-th
    eigenvalue of B B^T + I it lands right below the K factor spikes, at
    position K+1, so gap/ratio methods on the covariance spectrum read K+1
    separated eigenvalues; the correlation spectrum is unaffected.
    """
    if not p > K + 1:
        raise ConfigError(f"need p > K+1, got p={p}, K={K}")
    if not nu2_extra > 1.0:
        raise ConfigError("nu2_extra must exceed the unit noise variance")
    b = rng.uniform(-1.0, 1.0, (p, K))
    b[K, :] = 0.0
    nu2 = np.ones(p)
    nu2[K] = float(nu2_extra)
    return FactorModelSpec(b, nu2, "gaussian")

