"""Covariance/correlation construction, symmetric eigensolves, eigenvalue counts.

The sample covariance uses divisor n (not n-1); the estimation threshold
elsewhere uses n-1 separately. All functions are pure except spectra,
which consumes its panel when p > n (see there).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, ZeroVarianceSeries

__all__ = [
    "DataMatrix",
    "Spectrum",
    "spectra",
    "square_spectra",
    "sample_covariance",
    "to_correlation",
    "standard_deviations",
    "eigenvalues_desc",
    "kaiser_population_count",
    "naive_kaiser_estimate",
]

#: strictness tolerance for the population count lambda_j > 1
KAISER_TOL = 1e-10


def _as_matrix(values, what: str = "matrix", square: bool = False) -> np.ndarray:
    """values as a 2-d float array; with square, also finite and symmetric to 1e-8 relative."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{what} must be 2-dimensional, got shape {arr.shape}")
    if not square:
        return arr
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {arr.shape}")
    scale = np.abs(arr).max() if arr.size else 0.0
    if not np.isfinite(scale):
        raise DataError(f"{what} contains non-finite entries")
    asym = np.abs(arr - arr.T).max() if arr.size else 0.0
    if asym > 1e-8 * max(scale, 1e-300):
        raise DataError(f"{what} is asymmetric beyond 1e-08 relative ({asym:g})")
    return arr


@dataclass(frozen=True)
class DataMatrix:
    """An n x p panel: rows are observations, columns are series. The one
    panel rule: at least 3 rows, at least 1 column, all values finite."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.values, "data matrix")
        n, p = arr.shape
        if n < 3:
            raise DimensionError(f"panel needs at least 3 rows, got {n}")
        if p < 1:
            raise DimensionError(f"panel needs at least 1 column, got {p}")
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


def sample_covariance(X: DataMatrix) -> np.ndarray:
    """Sample covariance n^{-1} sum_i (y_i - ybar)(y_i - ybar)^T (divisor n)."""
    return _gram((X.values - X.values.mean(axis=0)).T, X.n)


def _gram(A: np.ndarray, n: int) -> np.ndarray:
    """A @ A.T / n, refused with a DataError when it is not finite.

    Finite data can still overflow in the product; it runs under
    np.errstate so the check, not a numpy warning, reports it. A @ A.T is
    exactly symmetric (one triangle computed and mirrored), so it needs no
    symmetrising pass.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        G = A @ A.T
        G /= n
    _check_finite(G)
    return G


def _check_finite(arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise DataError("covariance matrix contains non-finite entries")


def standard_deviations(d: np.ndarray) -> np.ndarray:
    """sqrt(d) for the variances d; a non-finite variance is a DataError,
    one below 1e-12 of the mean variance is a ZeroVarianceSeries naming its
    1-based column. This is the package's one zero-variance rule."""
    _check_finite(d)
    bad = np.flatnonzero(d <= 1e-12 * d.mean())
    if bad.size:
        raise ZeroVarianceSeries(int(bad[0]) + 1)
    return np.sqrt(d)


def to_correlation(M: np.ndarray) -> np.ndarray:
    """D^{-1/2} M D^{-1/2}, D = diag(M), for M symmetric to 1e-8 relative (not averaged)."""
    return _correlate_in_place(np.array(_as_matrix(M, "covariance matrix", square=True)))


def _correlate_in_place(M: np.ndarray) -> np.ndarray:
    """Rescale the covariance M to unit diagonal in place and return it."""
    inv_sd = 1.0 / standard_deviations(np.diag(M))
    # for variances below ~1e-308 the outer product of 1/sd overflows; refuse
    # the result before np.clip would turn an infinite entry into +-1
    with np.errstate(over="ignore", invalid="ignore"):
        M *= np.outer(inv_sd, inv_sd)
    if not np.all(np.isfinite(M)):
        raise DataError("matrix contains non-finite entries")
    # round-off can push |r| marginally past 1; clip and pin the diagonal
    np.clip(M, -1.0, 1.0, out=M)
    np.fill_diagonal(M, 1.0)
    return M


def eigenvalues_desc(M: np.ndarray, n: int = 0) -> Spectrum:
    """All p eigenvalues of a symmetric PSD matrix, descending.

    Near-zero eigenvalues are snapped to 0: round-off negatives within the
    PSD tolerance and the positive dust left on rank-deficient matrices,
    so a rank-r input reports exactly p - r zeros.
    """
    arr = _as_matrix(M, "matrix", square=True)
    return _spectrum(arr, n, arr.shape[0])


def spectra(X: DataMatrix) -> tuple[Spectrum, Spectrum]:
    """Covariance and correlation spectra of a panel, both tagged with X.n.

    For p <= n: square_spectra(X), which refuses a single series. For p > n
    (>= 3) the centred panel Z has rank at most n - 1, so both p x p spectra
    are those of the n x n Gram matrices Z Z^T/n and Zs Zs^T/n (Zs: each
    column of Z divided by its standard deviation) padded with p - n zeros.
    The covariance spectrum is square_spectra's bit for bit; the correlation
    spectrum agrees with the p x p route to round-off. That route consumes
    X: it centres and standardises X.values in place (so they must be
    writable) instead of copying the panel, and X holds Zs afterwards.
    """
    n, p = X.n, X.p
    if p <= n:
        return square_spectra(X)
    Z = X.values
    Z -= Z.mean(axis=0)
    # an overflowing variance is reported by standard_deviations; 1/sd and
    # the standardised entries (|Zs| <= sqrt(n)) cannot overflow
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.einsum("ij,ij->j", Z, Z) / n
    inv_sd = 1.0 / standard_deviations(d)
    G = _gram(Z, n)
    Z *= inv_sd
    return _spectrum(G, n, p), _spectrum(_gram(Z, n), n, p)


def square_spectra(X: DataMatrix) -> tuple[Spectrum, Spectrum]:
    """Covariance and correlation spectra of a panel, with the correlation
    through one p x p matrix; X is left unchanged.

    The correlation spectrum is bit for bit eigenvalues_desc on
    to_correlation of sample_covariance, at every p: the covariance is
    rescaled to the correlation in place and, being exactly symmetric as
    built, is not re-checked for symmetry. The covariance spectrum is that
    composition's bit for bit when p <= n. When p > n it is taken from the
    n x n Gram Z Z^T/n of the centred panel, padded with p - n exact zeros;
    it agrees with the p x p eigensolve to round-off (about 1e-15 of the
    top eigenvalue). G sums p terms per entry where the p x p matrix sums
    n, so on data near the overflow limit it overflows slightly earlier,
    with the same DataError. Fewer than 2 series is a DimensionError.
    """
    n, p = X.n, X.p
    if p < 2:
        raise DimensionError(f"spectra need at least 2 series, got {p}")
    Z = X.values - X.values.mean(axis=0)
    M = _gram(Z.T, n)  # sample_covariance(X), bit for bit
    cov = _gram(Z, n) if p > n else M
    del Z  # free the centred copy before the eigensolves
    cov_spec = _spectrum(cov, n, p)
    del cov
    return cov_spec, _spectrum(_correlate_in_place(M), n, p)


def _spectrum(arr: np.ndarray, n: int, p: int) -> Spectrum:
    """The p eigenvalues of arr, descending; an arr of order below p stands
    for a p x p matrix whose remaining eigenvalues are exact zeros."""
    w = np.linalg.eigvalsh(arr)
    w = np.sort(np.concatenate((w, np.zeros(p - w.size))))[::-1]
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
