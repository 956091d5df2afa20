import numpy as np
import pytest

from actfactors.errors import DataError, ParseError
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
        assert ds.n == 3 and ds.p == 2
        assert ds.names == ("a", "b")
        np.testing.assert_array_equal(ds.data.values, [[1, 2], [3, 4], [5, 6]])

    def test_missing_cell_dropped_and_logged(self, tmp_path):
        path = write_csv(tmp_path, "a,b,c\n1,2,3\n4,,6\n7,8,9\n")
        ds = ingest_csv(path, drop_missing=True)
        assert ds.names == ("a", "c")
        assert ds.p == 2
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

    def test_too_few_rows(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3,4\n")
        with pytest.raises(DataError):
            ingest_csv(path)


class TestCleanOutliers:
    @staticmethod
    def spiked_panel():
        rng = np.random.default_rng(42)
        a = rng.standard_normal(100)
        a[17] = 500.0  # ~370 IQRs above the mean; the rest stay within 10
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
        assert cleaned.n == 99
        assert 500.0 not in cleaned.data.values

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
        # reference: each column's quartiles from its own np.percentile call
        rng = np.random.default_rng(11)
        x = np.round(rng.standard_cauchy((60, 200)), 1)
        x[:, :5] = np.round(x[:, :5] / 50.0)  # ties, so some columns have zero IQR
        names = tuple(f"s{j}" for j in range(x.shape[1]))
        expected, replaced = x.copy(), []
        for j in range(x.shape[1]):
            q1, q3 = np.percentile(x[:, j], [25.0, 75.0])
            mask = np.abs(x[:, j] - x[:, j].mean()) > 10.0 * (q3 - q1)
            if q3 > q1 and mask.any():
                expected[mask, j] = np.median(x[:, j])
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
