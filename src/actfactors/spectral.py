"""Covariance/correlation construction, symmetric eigensolves, eigenvalue counts, PC scores.

The sample covariance uses divisor n (not n-1); the estimation threshold
elsewhere uses n-1 separately. All functions are pure except spectra, which
centres its panel in place. square_spectra is spectra on a copy at p <= n; at p > n
its covariance is the n x n Gram's, its correlation sample_covariance rescaled in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DimensionError, ZeroVarianceSeries, check_integer

__all__ = [
    "DataMatrix",
    "Spectrum",
    "spectra",
    "square_spectra",
    "pc_scores",
    "sample_covariance",
    "to_correlation",
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
    panel rule: at least 3 rows, at least 1 column, all values finite.
    Every panel statistic starts from centred(), the one centring."""

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

    def centred(self, out: np.ndarray | None = None) -> np.ndarray:
        """values minus their column means, in a new array or in out
        (out=values centres the panel in place).

        Finite entries near the largest float can overflow the column sums;
        this runs under np.errstate so such a panel gets non-finite entries,
        which the Gram's finiteness check reports as one DataError, instead
        of a numpy warning.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            return np.subtract(self.values, self.values.mean(axis=0), out=out)


@dataclass(frozen=True)
class Spectrum:
    """Descending eigenvalues of a symmetric PSD matrix, tagged with the
    sample count n behind it (keyword-only; 0 marks a population-level
    spectrum). Its order p is the eigenvalue count. Small negatives are
    tolerated up to eigensolver round-off.
    """

    eigenvalues: np.ndarray
    n: int = field(default=0, kw_only=True)

    def __post_init__(self):
        arr = np.asarray(self.eigenvalues, dtype=float)
        if arr.ndim != 1:
            raise DataError("spectrum must be a 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise DataError("spectrum contains non-finite values")
        if np.any(np.diff(arr) > 0):
            raise DataError("spectrum must be non-increasing")
        # PSD floor, relative for large-scale covariance spectra
        floor = -1e-8 * max(1.0, arr[0] if arr.size else 0.0)
        if arr.size and arr[-1] < floor:
            raise DataError(f"spectrum has negative eigenvalue {arr[-1]:g} below PSD tolerance")
        object.__setattr__(self, "n", check_integer("n", self.n))
        if self.n < 0:
            raise DataError("sample count n must be >= 0")
        object.__setattr__(self, "eigenvalues", arr)

    @property
    def p(self) -> int:
        return self.eigenvalues.size


def sample_covariance(X: DataMatrix) -> np.ndarray:
    """Sample covariance n^{-1} sum_i (y_i - ybar)(y_i - ybar)^T (divisor n),
    from X.centred(); a non-finite result (the entries or the column means
    overflow) is a DataError."""
    return _gram(X.centred().T, X.n)


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


def _standard_deviations(d: np.ndarray) -> np.ndarray:
    """sqrt(d) for the variances d: the package's one variance rule, shared
    by both spectra routes and pc_scores. A non-finite variance is a DataError; one below
    1e-12 of the mean variance is a ZeroVarianceSeries naming its 1-based
    column; one below the smallest normal float (subnormal: digits lost, and
    the rescale's outer product of 1/sd would overflow) is a DataError naming
    its column but not its value, whose last digits depend on the route."""
    _check_finite(d)
    # the mean of the scaled terms: d.mean() overflows on finite variances
    # whose sum passes the largest float
    bad = np.flatnonzero(d <= 1e-12 * (d / d.size).sum())
    if bad.size:
        raise ZeroVarianceSeries(int(bad[0]) + 1)
    tiny = np.finfo(float).tiny
    bad = np.flatnonzero(d < tiny)
    if bad.size:
        raise DataError(f"series in column {bad[0] + 1} has variance below {tiny:.3g}; rescale the panel")
    return np.sqrt(d)


def to_correlation(M: np.ndarray) -> np.ndarray:
    """D^{-1/2} M D^{-1/2}, D = diag(M), for M symmetric to 1e-8 relative (not averaged)."""
    return _correlate_in_place(np.array(_as_matrix(M, "covariance matrix", square=True)))


def _correlate_in_place(M: np.ndarray) -> np.ndarray:
    """Rescale the covariance M to unit diagonal in place and return it."""
    inv_sd = 1.0 / _standard_deviations(np.diag(M))
    # _standard_deviations keeps 1/sd below 1e154, so on a covariance the
    # product stays finite; a caller's non-PSD matrix (|M_ij| far above
    # sqrt(M_ii M_jj)) can still overflow, so refuse that before np.clip
    # would turn an infinite entry into +-1
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

    It consumes X at every p: it centres X.values in place (they must be
    writable), and for p > n standardises them too. Both routes refuse fewer
    than 3 series (ACT, GR and ON need r_max <= p - 2), a non-finite
    covariance and the variance rule of _standard_deviations alike. For
    p <= n both spectra are the public composition's, bit for bit when X is
    stored in C or Fortran order, else to round-off. For p > n (>= 4) the
    centred panel Z has rank at most n - 1, so both spectra are those of the
    n x n Grams Z Z^T/n and Zs Zs^T/n (Zs: Z with unit column variances)
    padded with p - n zeros, and agree with the composition to round-off.
    """
    n, p = X.n, X.p
    if p < 3:
        raise DimensionError(f"spectra need at least 3 series, got {p}")
    if not X.values.flags.writeable:
        raise ConfigError("spectra consumes its panel: X.values must be writable (pass a copy)")
    Z = X.centred(out=X.values)
    if p <= n:
        M = _gram(Z.T, n)  # sample_covariance(X), bit for bit
        return _spectrum(M, n, p), _spectrum(_correlate_in_place(M), n, p)
    # the Gram before the variances, as at p <= n, so a panel that overflows
    # one and has a zero variance gets the same error on both routes
    return _spectrum(_gram(Z, n), n, p), _spectrum(_gram(_standardise(Z, n), n), n, p)


def _standardise(Z: np.ndarray, n: int) -> np.ndarray:
    """The centred panel Z, each column divided in place by its standard deviation;
    1/sd and the standardised entries (|Zs| <= sqrt(n)) cannot overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.einsum("ij,ij->j", Z, Z) / n
    return np.multiply(Z, 1.0 / _standard_deviations(d), out=Z)


def square_spectra(X: DataMatrix) -> tuple[Spectrum, Spectrum]:
    """Covariance and correlation spectra of a panel, leaving X unchanged;
    estimate's route. For p <= n it is spectra on a copy of X. For p > n the
    covariance is spectra's, from the n x n Gram Z Z^T/n, and the correlation
    is sample_covariance(X) rescaled in place: the public composition minus
    to_correlation's copy and symmetry scan. It refuses the panels spectra
    refuses, with its messages, but takes a read-only one.
    """
    n, p = X.n, X.p
    if p <= n:
        return spectra(DataMatrix(X.values.copy(order="K")))  # X's layout, so the composition's bits
    cov_spec = _spectrum(_gram(X.centred(), n), n, p)
    return cov_spec, _spectrum(_correlate_in_place(sample_covariance(X)), n, p)


def pc_scores(X: DataMatrix) -> tuple[Spectrum, np.ndarray]:
    """The correlation spectrum of a panel, spectra's bit for bit, and the
    centred, standardised panel Zs times the top min(n-1, p) eigenvectors of
    that correlation, each with its largest-magnitude loading positive. For
    p > n both come from spectra's n x n Gram Zs Zs^T/n = U diag(lam) U^T:
    the scores are U_k sqrt(n lam_k), signed by the loadings Zs^T U_k. Errors:
    to_correlation(sample_covariance(X))'s, and fewer than 3 series."""
    n, p = X.n, X.p
    if p < 3:
        raise DimensionError(f"spectra need at least 3 series, got {p}")
    Z = X.centred()
    if p > n:
        G = _gram(_standardise(Z, n), n)
        spec = _spectrum(G, n, p)
        u = np.linalg.eigh(G)[1][:, :0:-1] * np.sqrt(n * spec.eigenvalues[: n - 1])  # the top n - 1
        return spec, u * _signs(Z.T @ u)
    M = _gram(Z.T, n)
    Z /= _standard_deviations(np.diag(M))
    spec = _spectrum(_correlate_in_place(M), n, p)
    w, v = np.linalg.eigh(M)
    del M  # free the correlation before the eigenvectors are gathered
    v = v[:, np.argsort(w)[::-1][: n - 1]]  # the top min(n-1, p)
    v *= _signs(v)
    return spec, Z @ v


def _signs(v: np.ndarray) -> np.ndarray:
    return np.where(v[np.argmax(np.abs(v), axis=0), range(v.shape[1])] < 0.0, -1.0, 1.0)


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
    return Spectrum(w, n=n)


def kaiser_population_count(R: np.ndarray) -> int:
    """max{j : lambda_j(R) > 1}, the population count of above-one eigenvalues."""
    w = eigenvalues_desc(R).eigenvalues
    return int(np.count_nonzero(w > 1.0 + KAISER_TOL))


def naive_kaiser_estimate(spec: Spectrum) -> int:
    """max{j : sample lambda_j > 1}. Known to overcount when p/n is not small."""
    return int(np.count_nonzero(spec.eigenvalues > 1.0))
