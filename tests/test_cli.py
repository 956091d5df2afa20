import json

import numpy as np
import pytest

from actfactors.act import act_estimate, default_r_max
from actfactors.baselines import BaiNgVariant, bai_ng_estimate, ed_estimate, er_estimate, gr_estimate, on_estimate
from actfactors.cli import analyze_report, estimate_report, main
from actfactors.errors import ConfigError, DegenerateGap
from actfactors.harness import VALID_METHODS
from actfactors.models import SeededRng, build_case, sample_data
from actfactors.panel import PanelDataset, ingest_csv
from actfactors.spectral import DataMatrix, eigenvalues_desc, naive_kaiser_estimate, sample_covariance, to_correlation


def write_panel_csv(path, values, names=None):
    p = values.shape[1]
    names = names or [f"s{i}" for i in range(p)]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return str(path)


@pytest.fixture
def factor_panel_csv(tmp_path):
    g = SeededRng(100).generator()
    spec = build_case(4, 20, 3, g)
    X = sample_data(spec, 120, g)
    return write_panel_csv(tmp_path / "panel.csv", X.values)


class TestEstimateCommand:
    def test_report_contents(self, factor_panel_csv):
        ds = ingest_csv(factor_panel_csv)
        report = estimate_report(ds, methods=("ACT", "ER", "KAISER"))
        assert report["n"] == 120 and report["p"] == 20
        assert set(report["methods"]) == {"ACT", "ER", "KAISER"}
        assert all("k" in entry for entry in report["methods"].values())
        assert len(report["eigenvalues"]["correlation_top"]) == report["config"]["r_max"]
        assert len(report["adjusted_eigenvalues"]) == report["config"]["r_max"]
        assert report["threshold"] == pytest.approx(1.0 + np.sqrt(20 / 119))

    def test_method_errors_do_not_abort(self, factor_panel_csv):
        ds = ingest_csv(factor_panel_csv)
        report = estimate_report(ds, methods=("ACT", "GR"), r_max=18)
        assert "k" in report["methods"]["ACT"]
        assert report["methods"]["GR"].get("k") is not None or "error" in report["methods"]["GR"]

    def test_basis_override(self, factor_panel_csv):
        ds = ingest_csv(factor_panel_csv)
        per_method = estimate_report(ds, methods=("ER",))
        forced = estimate_report(ds, methods=("ER",), basis="corr")
        assert per_method["methods"]["ER"]["k"] >= 0
        assert forced["config"]["basis"] == "corr"
        with pytest.raises(ConfigError):
            estimate_report(ds, methods=("ER",), basis="both")

    def test_cli_json_output(self, factor_panel_csv, capsys):
        rc = main(["estimate", factor_panel_csv, "--methods", "ACT", "ER"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["methods"]["ACT"]["k"] >= 0

    def test_cli_out_file(self, factor_panel_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["estimate", factor_panel_csv, "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"].startswith("actfactors/estimate-report")

    def test_rescaling_invariance_of_correlation_methods(self, tmp_path):
        g = SeededRng(7).generator()
        spec = build_case(2, 10, 2, g)
        X = sample_data(spec, 80, g).values
        d = np.exp(np.linspace(-3, 4, 10))
        a = estimate_report(PanelDataset(tuple(f"s{i}" for i in range(10)), DataMatrix(X)))
        b = estimate_report(PanelDataset(tuple(f"s{i}" for i in range(10)), DataMatrix(X * d)))
        assert a["methods"]["ACT"] == b["methods"]["ACT"]
        assert a["methods"]["KAISER"] == b["methods"]["KAISER"]


ED_THRESHOLD = 0.5

#: direct calls of the public estimators: (cov spectrum, corr spectrum, n, p, r_max) -> count
ORACLES = {
    "ACT": lambda cov, corr, n, p, r: act_estimate(corr, n, r),
    "KAISER": lambda cov, corr, n, p, r: naive_kaiser_estimate(corr),
    "ER": lambda cov, corr, n, p, r: er_estimate(cov, r),
    "GR": lambda cov, corr, n, p, r: gr_estimate(cov, r),
    "ED": lambda cov, corr, n, p, r: ed_estimate(cov, ED_THRESHOLD, r),
    "ON": lambda cov, corr, n, p, r: on_estimate(cov, 0, r),
    "ON2": lambda cov, corr, n, p, r: on_estimate(cov, 0, r),
    **{
        m: lambda cov, corr, n, p, r, m=m: bai_ng_estimate(cov, n, p, BaiNgVariant.parse(m), r)
        for m in ("PC1", "PC2", "PC3", "IC1", "IC2", "IC3")
    },
}


class TestMethodTable:
    def test_oracles_cover_every_method(self):
        assert set(ORACLES) == set(VALID_METHODS)

    @pytest.mark.parametrize("method", sorted(ORACLES))
    def test_report_matches_direct_estimator(self, factor_panel_csv, method):
        ds = ingest_csv(factor_panel_csv)
        X = ds.data
        cov = sample_covariance(X)
        cov_spec = eigenvalues_desc(cov, X.n)
        corr_spec = eigenvalues_desc(to_correlation(cov), X.n)
        expected = ORACLES[method](cov_spec, corr_spec, X.n, X.p, default_r_max(X.p, X.n))
        report = estimate_report(ds, methods=(method,), ed_threshold=ED_THRESHOLD)
        assert report["methods"][method]["k"] == expected

    def test_duplicate_method_rejected(self, factor_panel_csv):
        ds = ingest_csv(factor_panel_csv)
        with pytest.raises(ConfigError):
            estimate_report(ds, methods=("ACT", "act"))

    def test_method_names_are_stripped(self, factor_panel_csv):
        report = estimate_report(ingest_csv(factor_panel_csv), methods=(" act", "er "))
        assert list(report["methods"]) == ["ACT", "ER"]


class TestExitCodes:
    def test_config_error_is_2(self, factor_panel_csv):
        assert main(["estimate", factor_panel_csv, "--methods", "NOPE"]) == 2

    def test_ed_without_threshold_is_2(self, factor_panel_csv):
        assert main(["estimate", factor_panel_csv, "--methods", "ED"]) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--methods", "ACT", "act"],
            ["--r-max", "40"],
            ["--methods", "ER", "--r-max", "20"],
            ["--methods", "PC1", "--r-max", "120"],
            ["--methods", "ON", "--on-r-min", "10"],
            ["--methods", "ED", "--ed-threshold", "0"],
        ],
    )
    def test_estimate_option_out_of_range_is_2(self, factor_panel_csv, args, capsys):
        assert main(["estimate", factor_panel_csv, *args]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["--methods", "ACT", "act"],
            ["--r-max", "40"],
            ["--on-r-min", "20"],
            ["--methods", "ED", "--ed-threshold", "-1"],
        ],
    )
    def test_simulate_option_out_of_range_is_2(self, args, capsys):
        base = ["simulate", "--case", "1", "--p", "30", "--n", "60", "--k", "3", "--reps", "2"]
        assert main([*base, *args]) == 2
        assert capsys.readouterr().out == ""

    def test_data_error_is_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3\n4,5\n")
        assert main(["estimate", str(bad)]) == 3

    def test_missing_file_is_3(self):
        assert main(["estimate", "/nonexistent/panel.csv"]) == 3

    def test_covariance_overflow_is_3(self, tmp_path, capsys):
        # every entry is finite, but the squared deviations overflow
        g = np.random.default_rng(7)
        path = write_panel_csv(tmp_path / "huge.csv", 1e160 * g.standard_normal((40, 6)))
        assert main(["estimate", path]) == 3
        assert "covariance matrix contains non-finite entries" in capsys.readouterr().err

    def test_method_error_outside_data_errors_is_3(self, tmp_path, monkeypatch, capsys):
        def degenerate(*args, **kwargs):
            raise DegenerateGap("tied eigenvalues")

        monkeypatch.setattr("actfactors.cli.analyze_report", degenerate)
        g = SeededRng(58).generator()
        panel_path = write_panel_csv(tmp_path / "p.csv", g.standard_normal((30, 5)))
        factor_path = write_panel_csv(tmp_path / "f.csv", g.standard_normal((30, 2)))
        assert main(["analyze", panel_path, "--factors", factor_path]) == 3
        assert "tied eigenvalues" in capsys.readouterr().err

    def test_argparse_error_is_2(self, capsys):
        assert main(["simulate", "--case", "9", "--p", "20", "--n", "50"]) == 2
        capsys.readouterr()


class TestSimulateCommand:
    def test_json_and_text(self, capsys):
        rc = main(
            [
                "simulate", "--case", "1", "--p", "30", "--n", "60", "--k", "3",
                "--reps", "3", "--seed", "9", "--methods", "ACT", "ER",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cells"][0]["methods"]["ACT"]["true_count"] >= 0
        rc = main(
            [
                "simulate", "--case", "1", "--p", "30", "--n", "60", "--k", "3",
                "--reps", "3", "--seed", "9", "--methods", "ACT", "--text-table",
            ]
        )
        assert rc == 0
        assert "TRUE" in capsys.readouterr().out


class TestTable1Command:
    def test_small_grid(self, capsys):
        rc = main(["table1", "--seeds", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["cells"]) == 24


class TestAnalyzeCommand:
    def test_analyze_report(self, tmp_path):
        g = SeededRng(55).generator()
        spec = build_case(4, 15, 3, g)
        X = sample_data(spec, 200, g)
        # observed factors: noisy versions of the true ones are not available,
        # so use three linear reads of the panel itself
        w = g.standard_normal((15, 3))
        F = X.values @ w
        panel_path = write_panel_csv(tmp_path / "p.csv", X.values)
        factor_path = write_panel_csv(
            tmp_path / "f.csv", F, names=["f1", "f2", "f3"]
        )
        ds = ingest_csv(panel_path)
        factors = ingest_csv(factor_path)
        report = analyze_report(ds, factors, k=3)
        assert report["k"] == 3
        assert set(report["r2_on_pc_factors"]) == {"f1", "f2", "f3"}
        assert 0.0 <= report["variance_explained_k"] <= 1.0
        assert report["projection_distance"]["operator"] <= report["projection_distance"]["frobenius"] + 1e-12

    def test_analyze_cli(self, tmp_path, capsys):
        g = SeededRng(56).generator()
        spec = build_case(4, 12, 2, g)
        X = sample_data(spec, 100, g)
        F = X.values[:, :2] + 0.01 * g.standard_normal((100, 2))
        panel_path = write_panel_csv(tmp_path / "p.csv", X.values)
        factor_path = write_panel_csv(tmp_path / "f.csv", F, names=["f1", "f2"])
        rc = main(["analyze", panel_path, "--factors", factor_path, "--k", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == 2
        assert doc["r2_on_pc_factors"]["f1"] > 0.0

    def test_mismatched_rows_is_3(self, tmp_path):
        g = SeededRng(57).generator()
        panel_path = write_panel_csv(tmp_path / "p.csv", g.standard_normal((30, 5)))
        factor_path = write_panel_csv(tmp_path / "f.csv", g.standard_normal((29, 2)))
        assert main(["analyze", panel_path, "--factors", factor_path]) == 3
