"""CSV panel ingestion and outlier cleaning.

Ingestion is strict: rectangular numeric CSV with a unique header row.
Missing cells either fail fast or, in drop-missing mode, remove the whole
series (logged). A body of unquoted numbers is one numpy C parse; the csv
cell loop runs only for missing tokens, quoted cells and errors.

Outliers are observations more than ten interquartile ranges from the
series median, the FRED-MD rule (McCracken & Ng, 2016); the median and
quartiles interpolate linearly between order statistics.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ParseError, check_flag
from .spectral import DataMatrix

__all__ = ["PanelDataset", "ingest_csv", "clean_outliers"]

_MISSING_TOKENS = {"", "na", "nan", "null"}

#: outlier rule: |x - median| > OUTLIER_IQR_MULTIPLE * (Q3 - Q1); a centre
#: the outliers cannot move, so one gross value flags only itself
OUTLIER_IQR_MULTIPLE = 10.0


@dataclass(frozen=True)
class PanelDataset:
    """Named series with their observations and a log of cleaning actions."""

    names: tuple[str, ...]
    data: DataMatrix
    cleaning_log: tuple[dict, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if len(self.names) != self.data.p:
            raise DataError(
                f"{len(self.names)} series names for {self.data.p} data columns"
            )
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "cleaning_log", tuple(self.cleaning_log))


def _rows(reader, path):
    """The reader's rows, with undecodable bytes and csv errors as ParseError."""
    try:
        yield from reader
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _body_lines(fh):
    """fh's remaining lines for np.loadtxt. A ValueError sends the file to the
    cell loop: a line that may hold a cell past the csv module's field limit,
    which the loop reports, or a body without data lines, where loadtxt
    would only warn."""
    limit = csv.field_size_limit()
    data = False
    for line in fh:
        if len(line) > limit and max(map(len, line.split(","))) > limit:
            raise ValueError("a cell may pass the csv field limit")
        data = data or line[:1] not in "\r\n"
        yield line
    if not data:
        raise ValueError("no data lines")


def _parse_cells(reader, names, path) -> np.ndarray:
    """The cell loop: one float() per cell, missing tokens as nan, and errors
    that name the offending row and column."""
    # one float64 array per row, so the cells never live as Python floats
    rows: list[np.ndarray] = []
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(names):
            raise ParseError(
                f"{path}: row {row_no} has {len(row)} cells, expected {len(names)}"
            )
        parsed = []
        for col_no, cell in enumerate(row, start=1):
            try:
                parsed.append(float(cell))
            except ValueError:
                # str.strip() also removes \x1c-\x1f, which float() keeps
                text = cell.strip()
                try:
                    parsed.append(np.nan if text.lower() in _MISSING_TOKENS else float(text))
                except ValueError:
                    raise ParseError(
                        f"{path}: non-numeric cell {cell!r} at row {row_no}, "
                        f"column {col_no} ({names[col_no - 1]})"
                    ) from None
        rows.append(np.array(parsed))
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows)


def ingest_csv(path, drop_missing: bool = False) -> PanelDataset:
    """Parse a rectangular UTF-8 CSV (header row, one observation per row;
    a leading byte-order mark is skipped).

    Missing cells (empty/NA/NaN/null, or any non-finite value such as inf) drop the whole series
    when drop_missing is set, otherwise raise; drop_missing must be True or False (errors.check_flag),
    checked before the file is read. Ragged rows, non-numeric cells and duplicate headers raise
    ParseError with the offending location (1-based, header is row 1); so do bytes that are not UTF-8
    and rows the csv module rejects, without a row number.

    A body of unquoted numbers is one np.loadtxt call. Any other body (a
    missing token, a quote, an error) is read again by the cell loop.
    """
    drop_missing = check_flag("drop_missing", drop_missing)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _rows(csv.reader(fh), path)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        names = [h.strip() for h in header]
        seen = {}
        for idx, name in enumerate(names, start=1):
            if name in seen:
                raise ParseError(
                    f"{path}: duplicate header {name!r} at columns {seen[name]} and {idx}"
                )
            seen[name] = idx

        try:
            # without quotes, loadtxt's cells are the csv module's; with
            # comments=None a '#' stays a non-numeric cell
            values = np.loadtxt(
                _body_lines(fh), dtype=float, delimiter=",", comments=None, quotechar=None, ndmin=2
            )
        except ValueError:  # UnicodeDecodeError included
            values = None
        if values is None or values.shape[1] != len(names):
            # start again: tell() is disabled once the file is iterated
            fh.seek(0)
            reader = _rows(csv.reader(fh), path)
            next(reader)
            values = _parse_cells(reader, names, path)

    # missing means non-finite after parsing: NA tokens, nan and inf alike
    missing = np.count_nonzero(~np.isfinite(values), axis=0)
    dropped = np.flatnonzero(missing)
    if dropped.size and not drop_missing:
        raise DataError(
            f"{path}: series {names[dropped[0]]!r} has missing observations "
            "(pass drop-missing mode to remove such series)"
        )
    log = [{"series": names[j], "action": "dropped-missing", "missing": int(missing[j])} for j in dropped]
    if dropped.size:
        values = values[:, missing == 0]
        names = [name for name, m in zip(names, missing) if m == 0]
    try:
        return PanelDataset(tuple(names), DataMatrix(values), tuple(log))
    except DataError as exc:  # DataMatrix's shape rule, with the file it refused
        raise type(exc)(f"{path}: {exc}") from None


def clean_outliers(ds: PanelDataset, policy: str = "median") -> PanelDataset:
    """Flag observations more than ten IQRs from the series median.

    policy="median" replaces each outlier with the series median (keeps
    series lengths aligned); policy="drop" removes the affected rows from
    every series. Series with zero IQR are skipped: silently when constant,
    logged otherwise. A series whose IQR overflows (it spans most of the
    float range) flags nothing and is left unchanged. Needs at least 4
    observations per series.
    """
    if policy not in ("median", "drop"):
        raise ConfigError(f"policy must be 'median' or 'drop', got {policy!r}")
    values = ds.data.values.copy()
    n, p = values.shape
    if n < 4:
        raise DataError(f"outlier cleaning needs at least 4 observations, got {n}")
    log = list(ds.cleaning_log)
    drop = np.zeros(n, dtype=bool)
    # per column, interpolating linearly between order statistics. A series
    # spanning most of the float range overflows the interpolation and the
    # IQR; its IQR is then infinite, so it flags nothing and is left for the
    # covariance check to refuse, without a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0], axis=0)
        iqr = q3 - q1
        dev = values - med
        flagged = np.abs(dev, out=dev) > OUTLIER_IQR_MULTIPLE * iqr
    del dev
    for j in np.flatnonzero((iqr == 0.0) | flagged.any(axis=0)):
        x = values[:, j]
        if iqr[j] == 0.0:
            if np.ptp(x) > 0.0:
                log.append({"series": ds.names[j], "action": "skipped-zero-iqr"})
            continue
        mask = flagged[:, j]
        for i in np.flatnonzero(mask):
            log.append(
                {
                    "series": ds.names[j],
                    "row": int(i) + 1,
                    "value": float(x[i]),
                    "action": "replaced-median" if policy == "median" else "dropped-row",
                }
            )
        if policy == "median":
            values[mask, j] = med[j]
        else:
            drop |= mask
    if drop.any():
        values = values[~drop]
    return PanelDataset(ds.names, DataMatrix(values), tuple(log))
