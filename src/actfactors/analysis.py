"""Empirical-study helpers on spectra and factor matrices: variance shares,
factor regressions, and subspace distances between factor spaces.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError, check_range
from .spectral import Spectrum

__all__ = [
    "variance_explained",
    "ols_r2",
    "projection_distance",
]


def variance_explained(spec: Spectrum, k: int) -> float:
    """Share of total variance carried by the top k eigenvalues."""
    check_range("k", k, 0, spec.p, "p")
    total = float(spec.eigenvalues.sum())
    if total <= 0.0:
        raise DataError("total variance is zero")
    return float(spec.eigenvalues[:k].sum()) / total


def ols_r2(y: np.ndarray, F: np.ndarray) -> float:
    """Coefficient of determination of y regressed on (1, F)."""
    y = np.asarray(y, dtype=float).ravel()
    F = np.asarray(F, dtype=float)
    if F.ndim != 2:
        raise DataError("factor matrix must be 2-dimensional")
    n, k = F.shape
    if y.shape[0] != n:
        raise DataError(f"series has {y.shape[0]} rows, factors have {n}")
    if not k < n:
        raise ConfigError(f"need fewer regressors than observations, got k={k}, n={n}")
    # the basis's rank cut-off is lstsq's rcond=None: eps * max(n, k+1) * s_1
    q = _orthonormal_basis(np.column_stack([np.ones(n), F]), "design matrix")
    yc = y - y.mean()
    ss_tot = float(np.sum(yc**2))
    if ss_tot == 0.0:
        return 1.0  # constant series is fit exactly by the intercept
    r2 = float(np.sum((q.T @ yc) ** 2)) / ss_tot
    return float(min(1.0, max(0.0, r2)))


def _orthonormal_basis(A: np.ndarray, what: str) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] == 0:
        raise DataError(f"{what} must be a non-empty 2-d matrix")
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    tol = s[0] * max(A.shape) * np.finfo(float).eps if s.size else 0.0
    rank = int(np.count_nonzero(s > tol))
    if rank < A.shape[1]:
        raise DataError(f"{what} is rank deficient ({rank} < {A.shape[1]})")
    return u[:, : A.shape[1]]


def projection_distance(A: np.ndarray, B: np.ndarray) -> tuple[float, float]:
    """Operator and Frobenius norms of P_A - P_B, the difference of the
    orthogonal projectors onto the column spans of A and B.

    From Ra = (I - P_A) Q_B and Rb = (I - P_B) Q_A, for orthonormal bases
    Q_A, Q_B: the operator norm is max(|Ra|, |Rb|) (Kato) and the squared
    Frobenius norm is |Ra|_F^2 + |Rb|_F^2, so the cost scales with the
    column counts rather than the ambient dimension.
    """
    qa = _orthonormal_basis(A, "first matrix")
    qb = _orthonormal_basis(B, "second matrix")
    if qa.shape[0] != qb.shape[0]:
        raise DataError("matrices must have the same number of rows")
    ra = qb - qa @ (qa.T @ qb)
    rb = qa - qb @ (qb.T @ qa)
    op = max(np.linalg.norm(ra, 2), np.linalg.norm(rb, 2))
    return float(op), float(np.hypot(np.linalg.norm(ra), np.linalg.norm(rb)))
