import csv
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from actfactors.errors import DataError, ParseError
from actfactors import panel
from actfactors.panel import clean_outliers, ingest_csv
from actfactors.spectral import DataMatrix
from actfactors.panel import PanelDataset


def write_csv(tmp_path, text, name="panel.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestIngest:
    def test_small_numeric(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
        ds = ingest_csv(path)
        assert ds.data.n == 3 and ds.data.p == 2
        assert ds.names == ("a", "b")
        np.testing.assert_array_equal(ds.data.values, [[1, 2], [3, 4], [5, 6]])

    def test_missing_cell_dropped_and_logged(self, tmp_path):
        path = write_csv(tmp_path, "a,b,c\n1,2,3\n4,,6\n7,8,9\n")
        ds = ingest_csv(path, drop_missing=True)
        assert ds.names == ("a", "c")
        assert ds.data.p == 2
        assert any(e["series"] == "b" and e["action"] == "dropped-missing" for e in ds.cleaning_log)

    def test_missing_cell_without_drop_mode(self, tmp_path):
        path = write_csv(tmp_path, "a,b,c\n1,2,3\n4,,6\n7,8,9\n")
        with pytest.raises(DataError):
            ingest_csv(path)

    def test_duplicate_header(self, tmp_path):
        path = write_csv(tmp_path, "a,a\n1,2\n3,4\n5,6\n")
        with pytest.raises(ParseError, match="duplicate header"):
            ingest_csv(path)

    def test_ragged_row_location(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3\n5,6\n")
        with pytest.raises(ParseError, match="row 3"):
            ingest_csv(path)

    def test_non_numeric_location(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3,oops\n5,6\n")
        with pytest.raises(ParseError, match="row 3, column 2"):
            ingest_csv(path)

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with EF BB BF
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,4\n5,6\n")
        assert ingest_csv(str(path)).names == ("a", "b")

    @pytest.mark.parametrize("text", ["a,b\n", "a,b\n\n\n", "a,b\r\n\r\n"])
    def test_header_only_is_no_data_rows_without_a_warning(self, tmp_path, text):
        # np.loadtxt only warns on a body without rows
        path = tmp_path / "header.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ParseError, match="no data rows"):
                ingest_csv(str(path))
        assert caught == []

    @pytest.mark.parametrize(
        "text, loop",
        [
            ("a,b,c\n1,2,3\n4,5,6\n7,8,9\n", False),
            ("a,b,c\n1,nan,3\n4,-inf,6\n7,8,9\n", False),
            ("a,b,c\n1,NA,3\n4,5,6\n7,8,9\n", True),
            ('a,b,c\n1,"2",3\n4,5,6\n7,8,9\n', True),
        ],
        ids=["numbers", "nan-coded", "NA-coded", "quoted"],
    )
    def test_cell_loop_runs_only_for_what_loadtxt_rejects(self, tmp_path, monkeypatch, text, loop):
        calls = []
        parse_cells = panel._parse_cells
        monkeypatch.setattr(panel, "_parse_cells", lambda *args: calls.append(args) or parse_cells(*args))
        ingest_csv(write_csv(tmp_path, text), drop_missing=True)
        assert len(calls) == loop

    def test_too_few_rows(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3,4\n")
        with pytest.raises(DataError):
            ingest_csv(path)


def _csv_errors_as_parse_errors(reader, path):
    try:
        yield from reader
    except csv.Error as exc:
        raise ParseError(f"{path}: {exc}") from None


def _oracle_ingest(path, drop_missing=False):
    """The earlier per-cell loop: strip, missing-token lookup, float() and a
    finiteness check on every cell, with a set of missing columns. Rows the
    csv module rejects are a ParseError without a row number."""
    with open(path, newline="") as fh:
        reader = _csv_errors_as_parse_errors(csv.reader(fh), path)
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

        rows = []
        missing_cols = set()
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise ParseError(
                    f"{path}: row {row_no} has {len(row)} cells, expected {len(names)}"
                )
            parsed = []
            for col_no, cell in enumerate(row, start=1):
                text = cell.strip()
                if text.lower() in {"", "na", "nan", "null"}:
                    missing_cols.add(col_no - 1)
                    parsed.append(np.nan)
                    continue
                try:
                    value = float(text)
                except ValueError:
                    raise ParseError(
                        f"{path}: non-numeric cell {cell!r} at row {row_no}, "
                        f"column {col_no} ({names[col_no - 1]})"
                    ) from None
                if not np.isfinite(value):
                    missing_cols.add(col_no - 1)
                    value = np.nan
                parsed.append(value)
            rows.append(parsed)

    if not rows:
        raise ParseError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=float)
    log = []
    if missing_cols:
        if not drop_missing:
            col = sorted(missing_cols)[0]
            raise DataError(
                f"{path}: series {names[col]!r} has missing observations "
                "(pass drop-missing mode to remove such series)"
            )
        keep = [j for j in range(len(names)) if j not in missing_cols]
        for j in sorted(missing_cols):
            log.append(
                {
                    "series": names[j],
                    "action": "dropped-missing",
                    "missing": int(np.count_nonzero(~np.isfinite(values[:, j]))),
                }
            )
        values = values[:, keep]
        names = [names[j] for j in keep]
    # the row and column counts are DataMatrix's rule
    return PanelDataset(tuple(names), DataMatrix(values), tuple(log))


def _outcome(fn, path, drop_missing):
    try:
        ds = fn(path, drop_missing=drop_missing)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    values = ds.data.values
    return ("parsed", ds.names, values.shape, values.tobytes(), ds.cleaning_log)


# str.isspace() characters float() strips, and \x1c-\x1f, which only str.strip() does
_PAD = st.one_of(
    st.just(""), st.just(""), st.text(st.sampled_from(" \t\x0b\x0c\x1c\x1d\x1e\x1f\xa0\u2003\u3000"), max_size=2)
)
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda x: f"{x:.3e}"),
    st.floats(-1e3, 1e3).map(lambda x: f"{x:+.2f}"),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["1_000", "-2_5.0_1", "+.5", "5.", "1E-3", "-0", "1e400"]),
)
_MISSING = st.sampled_from(["", "na", "nan", "null", "inf", "-infinity", "+nan"]).flatmap(
    lambda token: st.lists(st.booleans(), min_size=len(token), max_size=len(token)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(token, upper))
    )
)
_BAD = st.sampled_from(["oops", "0x10", "1__0", "--1", "1 2", "n/a", "_1"])


@st.composite
def _csv_texts(draw):
    """Mostly well-formed panels; each file may also carry missing or
    non-finite cells, bad or quoted cells, duplicate headers, ragged, blank
    or whitespace rows, and \n, \r\n or \r line endings."""
    p = draw(st.sampled_from([1] + [2, 3, 4, 5] * 3))
    unique = draw(st.sampled_from([True] * 5 + [False]))
    names = draw(st.lists(st.sampled_from("abcdefgh"), min_size=p, max_size=p, unique=unique))
    lines = [",".join(draw(_PAD) + name + draw(_PAD) for name in names)]
    kinds = ["number"] * 16 + ["missing"] * draw(st.sampled_from([0, 1])) + ["bad"] * draw(st.sampled_from([0] * 5 + [1]))
    for _ in range(draw(st.sampled_from([0, 2] + [3, 4, 5, 6, 7, 8] * 3))):
        shape = draw(st.sampled_from(["row"] * 20 + ["blank", "ragged"]))
        if shape == "blank":
            lines.append(draw(st.sampled_from(["", "", " ", "\x0c"])))
            continue
        width = p + draw(st.sampled_from([-1, 1])) if shape == "ragged" else p
        cells = []
        for _ in range(width):
            kind = draw(st.sampled_from(kinds))
            core = draw({"number": _NUMBER, "missing": _MISSING, "bad": _BAD}[kind])
            if draw(st.integers(0, 29)) == 0:
                core = f'"{core}"'
            cells.append(draw(_PAD) + core + draw(_PAD))
        lines.append(",".join(cells))
    eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


# files where numpy's tokenizer and the csv module could split or convert
# cells differently
_EDGE_FILES = {
    "whitespace-row": "a,b\n1,2\n \n3,4\n5,6\n",
    "form-feed-row": "a,b\n1,2\n\x0c\n3,4\n5,6\n",
    "whitespace-row-one-series": "a\n1\n \n3\n4\n",
    "crlf": "a,b\r\n1,2\r\n\r\n3,4\r\n5,6\r\n",
    "bare-cr": "a,b\r1,2\r\r3,4\r5,6",
    "quoted-cells": 'a,b\n"1","2"\n"3" ,4\n5,6\n',
    "doubled-quote": 'a,b\n"1""",2\n3,4\n5,6\n',
    "space-before-quote": 'a,b\n "1",2\n3,4\n5,6\n',
    "quoted-comma": 'a,b\n"1,5",2\n3,4\n5,6\n',
    "unterminated-quote": 'a,b\n1,2\n3,4\n5,"6',
    "quoted-header-newline": '"a\nx",b\n1,2\n3,4\n5,6\n',
    "hash-cell-start": "a,b\n#1,2\n3,4\n5,6\n",
    "hash-cell-middle": "a,b\n1#2,2\n3,4\n5,6\n",
    "hash-row": "a,b\n1,2\n# note\n3,4\n5,6\n",
    "nul": "a,b\n1\x00,2\n3,4\n5,6\n",
    "trailing-delimiter": "a,b\n1,2,\n3,4,\n5,6,\n",
    "trailing-delimiter-header": "a,b,\n1,2,\n3,4,\n5,6,\n",
    "rows-wider-than-header": "a,b\n1,2,3\n4,5,6\n7,8,9\n",
    "rows-narrower-than-header": "a,b,c\n1,2\n4,5\n7,8\n",
    "header-only": "a,b\n",
    "header-only-no-newline": "a,b",
    "header-then-blank-lines": "a,b\n\n\n",
    "nan-coded": "a,b,c\nnan,2,3\n4,-inf,6\n7,8,9\n",
    "na-coded": "a,b,c\nNA,2,3\n4,null,6\n7,,9\n",
    "cell-past-field-limit": "a,b\n1,2\n3," + "9" * 200_000 + "\n5,6\n",
    # numpy's quote rules read this as 4; the csv module rejects the cell
    "quoted-cell-past-field-limit-over-two-lines": (
        'a,b\n1,2\n3,"' + " " * 70_000 + "\n" + " " * 70_000 + '4"\n5,6\n'
    ),
}


class TestIngestMatchesCellLoop:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_csv_texts())
    def test_same_values_or_same_error(self, tmp_path, text):
        path = tmp_path / "fuzz.csv"
        path.write_text(text, encoding="utf-8")
        for drop_missing in (False, True):
            assert _outcome(ingest_csv, str(path), drop_missing) == _outcome(
                _oracle_ingest, str(path), drop_missing
            )

    @pytest.mark.parametrize("text", list(_EDGE_FILES.values()), ids=list(_EDGE_FILES))
    @pytest.mark.parametrize("drop_missing", [False, True])
    def test_tokenizer_edge_files(self, tmp_path, text, drop_missing):
        path = tmp_path / "edge.csv"
        path.write_bytes(text.encode())
        assert _outcome(ingest_csv, str(path), drop_missing) == _outcome(_oracle_ingest, str(path), drop_missing)

    def test_separator_padding_parses(self, tmp_path):
        # float() alone rejects "\x1c1"; the earlier loop stripped it first
        path = write_csv(tmp_path, "a,b,c\n\x1c1,2,7\x1f\n3,4,8\n5, NA ,9\n")
        ds = ingest_csv(path, drop_missing=True)
        assert ds.names == ("a", "c")
        np.testing.assert_array_equal(ds.data.values, [[1, 7], [3, 8], [5, 9]])
        assert ds.cleaning_log == ({"series": "b", "action": "dropped-missing", "missing": 1},)


def _oracle_clean_outliers(ds, policy="median"):
    """The earlier body of clean_outliers: one median and mask per column."""
    if policy not in ("median", "drop"):
        raise DataError(f"policy must be 'median' or 'drop', got {policy!r}")
    values = ds.data.values.copy()
    n, p = values.shape
    if n < 4:
        raise DataError(f"outlier cleaning needs at least 4 observations, got {n}")
    log = list(ds.cleaning_log)
    drop = np.zeros(n, dtype=bool)
    # per column, interpolating linearly between order statistics
    quartiles = np.percentile(values, [25.0, 50.0, 75.0], axis=0)
    for j in range(p):
        x = values[:, j]
        iqr = quartiles[2, j] - quartiles[0, j]
        if iqr == 0.0:
            if np.ptp(x) > 0.0:
                log.append({"series": ds.names[j], "action": "skipped-zero-iqr"})
            continue
        med = quartiles[1, j]
        mask = np.abs(x - med) > 10.0 * iqr
        if not mask.any():
            continue
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
            values[mask, j] = med
        else:
            drop |= mask
    if drop.any():
        values = values[~drop]  # DataMatrix refuses fewer than 3 rows
    return PanelDataset(ds.names, DataMatrix(values), tuple(log))


@st.composite
def _outlier_panels(draw):
    """Noise columns with heavy tails, spikes, ties, constant and zero-IQR
    columns, at shapes from barely cleanable to a few hundred cells."""
    n = draw(st.integers(4, 60))
    p = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    values = rng.standard_normal((n, p)) * rng.uniform(1e-3, 1e3, p) + rng.uniform(-50.0, 50.0, p)
    for j in range(p):
        kind = draw(st.sampled_from(["normal", "normal", "cauchy", "spiked", "ties", "constant", "zero-iqr"]))
        if kind == "cauchy":
            values[:, j] = rng.standard_cauchy(n)
        elif kind == "spiked":
            rows = rng.choice(n, size=draw(st.integers(1, max(1, n // 4))), replace=False)
            values[rows, j] += rng.choice([-1.0, 1.0], rows.size) * rng.uniform(20.0, 1e4, rows.size) * values[:, j].std()
        elif kind == "ties":
            values[:, j] = np.round(rng.standard_cauchy(n) / 5.0)
        elif kind == "constant":
            values[:, j] = rng.uniform(-5.0, 5.0)
        elif kind == "zero-iqr":
            values[:, j] = 1.0
            values[rng.choice(n, size=min(n // 5 + 1, n), replace=False), j] = rng.uniform(-100.0, 100.0)
    return PanelDataset(tuple(f"s{j}" for j in range(p)), DataMatrix(values), ({"series": "x", "action": "earlier"},))


def _cleaned(fn, ds, policy):
    try:
        out = fn(ds, policy)
    except DataError as exc:
        return ("raised", str(exc))
    return (out.names, out.data.values.shape, out.data.values.tobytes(), out.cleaning_log)


class TestCleanOutliersMatchesColumnLoop:
    @settings(max_examples=300, deadline=None)
    @given(ds=_outlier_panels(), policy=st.sampled_from(["median", "drop"]))
    def test_same_values_and_log(self, ds, policy):
        before = ds.data.values.tobytes()
        assert _cleaned(clean_outliers, ds, policy) == _cleaned(_oracle_clean_outliers, ds, policy)
        assert ds.data.values.tobytes() == before


class TestCleanOutliers:
    @staticmethod
    def spiked_panel():
        rng = np.random.default_rng(42)
        a = rng.standard_normal(100)
        a[17] = 500.0  # ~370 IQRs above the median; the rest stay within 10
        return np.column_stack([a, np.arange(100.0)])

    def test_far_point_replaced_with_median(self):
        x = self.spiked_panel()
        ds = PanelDataset(("a", "b"), DataMatrix(x))
        cleaned = clean_outliers(ds)
        assert cleaned.data.values[17, 0] == np.median(x[:, 0])
        entries = [e for e in cleaned.cleaning_log if e.get("series") == "a"]
        assert [e["row"] for e in entries] == [18]
        assert entries[0]["value"] == 500.0
        np.testing.assert_array_equal(cleaned.data.values[:, 1], x[:, 1])

    def test_drop_policy_removes_rows(self):
        x = self.spiked_panel()
        ds = PanelDataset(("a", "b"), DataMatrix(x))
        cleaned = clean_outliers(ds, policy="drop")
        assert cleaned.data.n == 99
        assert 500.0 not in cleaned.data.values

    def test_drop_policy_matches_row_set(self):
        # reference: the union of every column's outlier rows, removed at once
        rng = np.random.default_rng(5)
        x = rng.standard_normal((80, 8))
        x[[3, 17, 17, 40, 79], [0, 1, 4, 4, 7]] = [400.0, -300.0, 500.0, 350.0, -450.0]
        x[:, 2] = np.where(np.arange(80) == 60, 90.0, 1.0)  # zero IQR: skipped, row 61 kept
        drop_rows = set()
        for j in range(x.shape[1]):
            q1, med, q3 = np.percentile(x[:, j], [25.0, 50.0, 75.0])
            if q3 > q1:
                drop_rows.update(np.flatnonzero(np.abs(x[:, j] - med) > 10.0 * (q3 - q1)).tolist())
        keep = [i for i in range(x.shape[0]) if i not in drop_rows]
        names = tuple(f"s{j}" for j in range(x.shape[1]))
        cleaned = clean_outliers(PanelDataset(names, DataMatrix(x)), policy="drop")
        assert sorted(drop_rows) == [3, 17, 40, 79]
        assert cleaned.data.values.tobytes() == x[keep, :].tobytes()
        dropped = sorted({e["row"] - 1 for e in cleaned.cleaning_log if e["action"] == "dropped-row"})
        assert dropped == sorted(drop_rows)

    def test_constant_series_untouched(self):
        x = np.column_stack([np.full(6, 7.0), np.arange(6.0)])
        ds = PanelDataset(("const", "ramp"), DataMatrix(x))
        cleaned = clean_outliers(ds)
        np.testing.assert_array_equal(cleaned.data.values, x)
        assert not any(e.get("series") == "const" for e in cleaned.cleaning_log)

    def test_zero_iqr_nonconstant_skipped_and_logged(self):
        col = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 50.0])
        x = np.column_stack([col, np.arange(8.0)])
        ds = PanelDataset(("spiky", "ramp"), DataMatrix(x))
        cleaned = clean_outliers(ds)
        np.testing.assert_array_equal(cleaned.data.values[:, 0], col)
        assert any(
            e.get("series") == "spiky" and e["action"] == "skipped-zero-iqr"
            for e in cleaned.cleaning_log
        )

    def test_matches_per_column_quartiles(self):
        # reference: each column's median and quartiles from its own np.percentile call
        rng = np.random.default_rng(11)
        x = np.round(rng.standard_cauchy((60, 200)), 1)
        x[:, :5] = np.round(x[:, :5] / 50.0)  # ties, so some columns have zero IQR
        names = tuple(f"s{j}" for j in range(x.shape[1]))
        expected, replaced = x.copy(), []
        for j in range(x.shape[1]):
            q1, med, q3 = np.percentile(x[:, j], [25.0, 50.0, 75.0])
            mask = np.abs(x[:, j] - med) > 10.0 * (q3 - q1)
            if q3 > q1 and mask.any():
                expected[mask, j] = med
                replaced += [(f"s{j}", int(i) + 1) for i in np.flatnonzero(mask)]
        cleaned = clean_outliers(PanelDataset(names, DataMatrix(x)))
        np.testing.assert_array_equal(cleaned.data.values, expected)
        logged = [(e["series"], e["row"]) for e in cleaned.cleaning_log if e["action"] == "replaced-median"]
        assert replaced and logged == replaced

    def test_no_outliers_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((40, 3))
        ds = PanelDataset(("a", "b", "c"), DataMatrix(x))
        cleaned = clean_outliers(ds)
        np.testing.assert_array_equal(cleaned.data.values, x)
        assert cleaned.cleaning_log == ()
