"""Bias correction of top sample correlation eigenvalues and the
adjusted-thresholding factor count.

The sample eigenvalue lambda_j of a high-dimensional correlation matrix
overshoots its population counterpart. The correction inverts a partial
Stieltjes transform of the trailing spectrum evaluated at lambda_j:

    m_j(z)  = (p-j)^{-1} [ sum_{l>j} (lambda_l - z)^{-1}
                           + ((3 lambda_j + lambda_{j+1})/4 - z)^{-1} ]
    mu_j(z) = -(1 - rho_j)/z + rho_j m_j(z),   rho_j = (p-j)/(n-1)
    adjusted_j = -1 / mu_j(lambda_j)

The divisor is p-j even though the bracket has p-j+1 summands; that is the
operative definition and is kept verbatim.

The count is then max{j <= r_max : adjusted_j > 1 + sqrt(p/(n-1))}, with
the empty set giving 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DegenerateGap, PoleAtZ, check_range
from .spectral import Spectrum

__all__ = [
    "AdjustedSpectrum",
    "partial_stieltjes",
    "companion_stieltjes",
    "adjust_eigenvalues",
    "act_threshold",
    "act_select",
    "act_estimate",
    "default_r_max",
]

#: relative jitter applied to break exact eigenvalue ties
TIE_JITTER = 1e-9


@dataclass(frozen=True)
class AdjustedSpectrum:
    """Bias-corrected top eigenvalues with the decision threshold.

    adjusted[j-1] holds the corrected value for the j-th eigenvalue,
    j = 1..r_max. `jittered` flags that tied eigenvalues were perturbed.
    """

    adjusted: np.ndarray
    threshold: float
    jittered: bool = False

    def __post_init__(self):
        arr = np.asarray(self.adjusted, dtype=float)
        if arr.ndim != 1:
            raise DataError("adjusted values must be a 1-d sequence")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise DataError("adjusted eigenvalues must be finite and positive")
        object.__setattr__(self, "adjusted", arr)


def default_r_max(p: int, n: int) -> int:
    """min(p//2, (n-1)//2, 50): generous for K up to ~10 while <= p-2."""
    return min(p // 2, (n - 1) // 2, 50)


def act_threshold(p: int, n: int) -> float:
    """Decision threshold 1 + sqrt(p/(n-1))."""
    if n < 2:
        raise ConfigError(f"threshold needs n >= 2, got {n}")
    return 1.0 + math.sqrt(p / (n - 1))


def _check_point(j: int, lam: np.ndarray, z: float) -> None:
    check_range("j", j, 1, lam.size - 1, "p-1")
    if lam[j - 1] <= lam[j]:
        raise DegenerateGap(
            f"eigenvalues {j} and {j + 1} are tied ({lam[j - 1]:g}); the correction needs a strict gap"
        )
    if np.any(lam[j:] == z) or (3.0 * lam[j - 1] + lam[j]) / 4.0 == z:
        raise PoleAtZ(f"z={z:g} coincides with a pole of the transform")


def _stieltjes(lam: np.ndarray, j, z, rho=None):
    """m_j(z), or mu_j(z) given rho = rho_j, for 1-based j and points z (scalars or arrays)."""
    # diff[j, l] = lambda_l - z_j where l > j, and inf (a zero term) where l <= j
    diff = np.where(np.less.outer(j, np.arange(1, lam.size + 1)), np.add.outer(-z, lam), np.inf)
    node = (3.0 * lam[j - 1] + lam[j]) / 4.0
    m = (np.sum(1.0 / diff, axis=-1) + 1.0 / (node - z)) / (lam.size - j)
    return m if rho is None else -(1.0 - rho) / z + rho * m


def partial_stieltjes(j: int, spec: Spectrum, z: float) -> float:
    """Partial Stieltjes transform m_j(z) of the spectrum past index j.

    Sums (lambda_l - z)^{-1} over l = j+1..p plus one synthetic node at
    (3 lambda_j + lambda_{j+1})/4, divided by p-j (p-j+1 summands).
    """
    _check_point(j, spec.eigenvalues, z)
    return float(_stieltjes(spec.eigenvalues, j, z))


def companion_stieltjes(j: int, spec: Spectrum, z: float) -> float:
    """Companion transform -(1-rho_j)/z + rho_j m_j(z), rho_j = (p-j)/(n-1) with n = spec.n."""
    n = spec.n
    if n < 2:
        raise ConfigError(f"companion transform needs n >= 2, got {n}")
    if z == 0.0:
        raise PoleAtZ("z=0 is a pole of the companion transform")
    _check_point(j, spec.eigenvalues, z)
    return float(_stieltjes(spec.eigenvalues, j, z, (spec.p - j) / (n - 1)))


def adjust_eigenvalues(spec: Spectrum, n: int, r_max: int | None = None) -> AdjustedSpectrum:
    """Correct the top r_max eigenvalues: adjusted_j = -1/mu_j(lambda_j).

    Exact ties among the leading eigenvalues, and the rest of a tied run past
    r_max+1, are broken by lowering each lower member by TIE_JITTER * lambda_j.
    """
    p = spec.p
    r_max = default_r_max(p, n) if r_max is None else r_max
    check_range("r_max", r_max, 1, p - 2, "p-2")
    threshold = act_threshold(p, n)

    work = spec.eigenvalues.copy()
    ties = np.flatnonzero(work[1 : r_max + 1] >= work[:r_max])
    for i in range(ties[0] if ties.size else p, p - 1):
        if i >= r_max and work[i + 1] <= work[i]:
            break
        if work[i + 1] >= work[i]:
            if work[i] <= 0.0:
                raise DegenerateGap(f"cannot jitter a tie at eigenvalue {work[i]:g}")
            work[i + 1] = min(work[i + 1], work[i]) - TIE_JITTER * work[i]
    # the first j with a zero z or a node pole decides (a tie jitter left is a node pole)
    z = work[:r_max]
    bad = np.flatnonzero((z == 0.0) | ((3.0 * z + work[1 : r_max + 1]) / 4.0 == z))
    if bad.size and z[bad[0]] == 0.0:
        raise PoleAtZ(f"eigenvalue {bad[0] + 1} is zero; the spectrum is too degenerate to adjust")
    if bad.size:
        _check_point(int(bad[0]) + 1, work, z[bad[0]])
    j = np.arange(1, r_max + 1)
    adjusted = -1.0 / _stieltjes(work, j, z, (p - j) / (n - 1))
    return AdjustedSpectrum(adjusted, threshold, jittered=ties.size > 0)


def act_select(adjusted: AdjustedSpectrum) -> int:
    """max{j : adjusted_j > threshold}; the empty set gives 0."""
    hits = np.flatnonzero(adjusted.adjusted > adjusted.threshold)
    return int(hits[-1] + 1) if hits.size else 0


def act_estimate(spec: Spectrum, *, r_max: int | None = None) -> int:
    """Adjusted correlation thresholding count from a correlation spectrum and its n."""
    return act_select(adjust_eigenvalues(spec, spec.n, r_max))

