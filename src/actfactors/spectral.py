"""Covariance/correlation construction, symmetric eigensolves, eigenvalue counts.

The sample covariance uses divisor n (not n-1); the estimation threshold
elsewhere uses n-1 separately. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, ZeroVarianceSeries

__all__ = [
    "DataMatrix",
    "Spectrum",
    "spectra",
    "sample_covariance",
    "to_correlation",
    "eigenvalues_desc",
    "kaiser_population_count",
    "naive_kaiser_estimate",
]

#: strictness tolerance for the population count lambda_j > 1
KAISER_TOL = 1e-10


def _as_matrix(values, what: str = "matrix") -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{what} must be 2-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class DataMatrix:
    """An n x p panel: rows are observations, columns are series."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.values, "data matrix")
        n, p = arr.shape
        if n < 3:
            raise DimensionError(f"panel needs at least 3 rows, got {n}")
        if p < 2:
            raise DimensionError(f"panel needs at least 2 columns, got {p}")
        if not np.all(np.isfinite(arr)):
            raise DataError("data matrix contains non-finite entries")
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Spectrum:
    """Descending eigenvalues of a symmetric PSD matrix, tagged with (p, n).

    n is the sample count behind the matrix; 0 marks a population-level
    spectrum. Small negatives are tolerated up to eigensolver round-off.
    """

    eigenvalues: np.ndarray
    p: int
    n: int = 0

    def __post_init__(self):
        arr = np.asarray(self.eigenvalues, dtype=float)
        if arr.ndim != 1:
            raise DataError("spectrum must be a 1-d sequence")
        if arr.shape[0] != self.p:
            raise DataError(f"spectrum has {arr.shape[0]} values, expected p={self.p}")
        if not np.all(np.isfinite(arr)):
            raise DataError("spectrum contains non-finite values")
        if np.any(np.diff(arr) > 0):
            raise DataError("spectrum must be non-increasing")
        # PSD floor, relative for large-scale covariance spectra
        floor = -1e-8 * max(1.0, arr[0] if arr.size else 0.0)
        if arr.size and arr[-1] < floor:
            raise DataError(f"spectrum has negative eigenvalue {arr[-1]:g} below PSD tolerance")
        if self.n < 0:
            raise DataError("sample count n must be >= 0")
        object.__setattr__(self, "eigenvalues", arr)


def sample_covariance(X: DataMatrix | np.ndarray) -> np.ndarray:
    """Sample covariance n^{-1} sum_i (y_i - ybar)(y_i - ybar)^T (divisor n)."""
    if isinstance(X, DataMatrix):
        arr = X.values
    else:
        arr = _as_matrix(X, "data matrix")
        if arr.shape[0] < 2:
            raise DimensionError(f"covariance needs at least 2 rows, got {arr.shape[0]}")
        if not np.all(np.isfinite(arr)):
            raise DataError("data matrix contains non-finite entries")
    centered = arr - arr.mean(axis=0)
    cov = centered.T @ centered / arr.shape[0]
    cov = (cov + cov.T) / 2.0
    # finite data can still overflow in the Gram product
    if not np.all(np.isfinite(cov)):
        raise DataError("covariance matrix contains non-finite entries")
    return cov


def to_correlation(M: np.ndarray) -> np.ndarray:
    """Rescale a covariance to unit diagonal: D^{-1/2} M D^{-1/2}, D = diag(M)."""
    arr = _as_matrix(M, "covariance matrix")
    p = arr.shape[0]
    d = np.diag(arr).copy()
    eps0 = 1e-12 * np.trace(arr) / p
    bad = np.flatnonzero(d <= eps0)
    if bad.size:
        raise ZeroVarianceSeries(int(bad[0]) + 1)
    inv_sd = 1.0 / np.sqrt(d)
    corr = arr * np.outer(inv_sd, inv_sd)
    # round-off can push |r| marginally past 1; clip and pin the diagonal
    np.clip(corr, -1.0, 1.0, out=corr)
    np.fill_diagonal(corr, 1.0)
    return (corr + corr.T) / 2.0


def eigenvalues_desc(M: np.ndarray, n: int = 0) -> Spectrum:
    """All p eigenvalues of a symmetric PSD matrix, descending.

    Near-zero eigenvalues are snapped to 0: round-off negatives within the
    PSD tolerance and the positive dust left on rank-deficient matrices,
    so a rank-r input reports exactly p - r zeros.
    """
    arr = _as_matrix(M, "matrix")
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {arr.shape}")
    scale = np.abs(arr).max() if arr.size else 0.0
    asym = np.abs(arr - arr.T).max() if arr.size else 0.0
    if asym > 1e-8 * max(scale, 1e-300):
        raise DataError(f"matrix is asymmetric beyond 1e-08 relative ({asym:g})")
    return _spectrum(arr, n)


def spectra(X: DataMatrix) -> tuple[Spectrum, Spectrum]:
    """Covariance and correlation spectra of a panel, both tagged with X.n.

    The same arithmetic as eigenvalues_desc on sample_covariance and
    to_correlation, without re-checking the symmetric matrices built here.
    """
    cov = sample_covariance(X)
    return _spectrum(cov, X.n), _spectrum(to_correlation(cov), X.n)


def _spectrum(arr: np.ndarray, n: int) -> Spectrum:
    w = np.linalg.eigvalsh(arr)
    w = np.sort(w)[::-1]
    p = arr.shape[0]
    scale = max(1.0, float(np.abs(w).max())) if w.size else 1.0
    neg_tol = 1e-8 * scale
    # solver round-off is O(p * eps * ||M||); snapping at 8x that zeroes the
    # dust on rank-deficient inputs without touching genuine small eigenvalues
    snap_tol = 8.0 * p * np.finfo(float).eps * scale
    w[(w < 0.0) & (w >= -neg_tol)] = 0.0
    w[(w > 0.0) & (w <= snap_tol)] = 0.0
    return Spectrum(w, p=p, n=n)


def kaiser_population_count(R: np.ndarray) -> int:
    """max{j : lambda_j(R) > 1}, the population count of above-one eigenvalues."""
    w = eigenvalues_desc(R).eigenvalues
    return int(np.count_nonzero(w > 1.0 + KAISER_TOL))


def naive_kaiser_estimate(spec: Spectrum) -> int:
    """max{j : sample lambda_j > 1}. Known to overcount when p/n is not small."""
    return int(np.count_nonzero(spec.eigenvalues > 1.0))
