import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import actfactors
from actfactors import act as act_module, spectral as spectral_module
from actfactors.act import AdjustedSpectrum, act_estimate, act_select, adjust_eigenvalues, default_r_max
from actfactors.analysis import ols_r2
from actfactors.baselines import BaiNgVariant, bai_ng_estimate, ed_estimate, er_estimate, gr_estimate, on_estimate
from actfactors.cli import _build_parser, analyze_report, estimate_report, main
from actfactors.errors import ActFactorsError, ConfigError, DataError, DegenerateGap
from actfactors.harness import (
    METHODS, ExperimentConfig, ReplicationReport, render_text_table, run_experiment, run_table1,
)
from actfactors.models import SeededRng, build_case, sample_data
from actfactors.panel import PanelDataset, clean_outliers, ingest_csv
from actfactors.spectral import (
    DataMatrix, eigenvalues_desc, naive_kaiser_estimate, pc_scores, sample_covariance, spectra, to_correlation,
)

from helpers import refusal


def run_cli(args, env, **kwargs):
    """`actfactors ARGS` in a child process with the environment env, which
    is given this checkout's package on its PYTHONPATH."""
    src = str(Path(actfactors.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "actfactors.cli", *args],
        env={**env, "PYTHONPATH": path}, timeout=300, **kwargs,
    )


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

    def test_clean_replaces_only_a_gross_value(self, tmp_path):
        # measured from the mean, which one 1e4 moves by about 83, every
        # observation of the series was an outlier; all were replaced, and
        # the then constant series made estimate exit 3
        g = SeededRng(7).generator()
        X = np.array(sample_data(build_case(1, 60, 3, g), 120, g).values)
        X[30, 4] = 1e4
        out = tmp_path / "report.json"
        path = write_panel_csv(tmp_path / "outlier.csv", X)
        assert main(["estimate", path, "--clean", "--out", str(out)]) == 0
        log = json.loads(out.read_text())["cleaning_log"]
        assert log == [{"series": "s4", "row": 31, "value": 1e4, "action": "replaced-median"}]

    def test_method_errors_do_not_abort(self, tmp_path, factor_panel_csv, capsys):
        # at n < p both spectra end in exact zeros (rank n - 1): a method that
        # needs a positive tail or a strict gap within r_max records its error,
        # and the others still count; the adjusted values are written only when
        # ACT counted, so ACT's error is in its methods entry alone
        tail_sum_zero = {
            "GR": "NumericalDomain: tail sum V_10 must be positive",
            "IC3": "NumericalDomain: V(k) hit zero; IC criterion undefined",
        }
        tie_at_zero = {"ACT": "DegenerateGap: cannot jitter a tie at eigenvalue 0"}

        def noise(n):
            return write_panel_csv(tmp_path / f"noise-{n}.csv", np.random.default_rng(0).standard_normal((n, 50)))

        for path, args, errors in (
            (noise(10), ["--r-max", "9"], tail_sum_zero),
            (noise(5), ["--methods", "ACT", "KAISER", "--r-max", "6"], tie_at_zero),
            # r_max = p - 1 on the 120 x 20 panel is past ACT's p - 2, but ACT was not requested
            (factor_panel_csv, ["--methods", "ER", "--r-max", "19"], {}),
        ):
            assert main(["estimate", path, *args]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert {m: entry["error"] for m, entry in doc["methods"].items() if "error" in entry} == errors
            assert all("k" in entry for m, entry in doc["methods"].items() if m not in errors)
            act_counted = "k" in doc["methods"].get("ACT", {})
            adjusted_keys = sorted(key for key in doc if key.startswith("adjusted") or key == "jittered_ties")
            assert adjusted_keys == (["adjusted_eigenvalues", "jittered_ties"] if act_counted else [])

    def test_one_act_evaluation_per_report(self, factor_panel_csv, monkeypatch):
        # ACT's count and the adjusted values it reports come from one
        # evaluation of the correction formula, on the panel's correlation
        # spectrum; the option check's all-zero probe evaluates nothing
        seen = []
        stieltjes = act_module._stieltjes
        monkeypatch.setattr(act_module, "_stieltjes", lambda lam, *args: seen.append(lam) or stieltjes(lam, *args))
        report = estimate_report(ingest_csv(factor_panel_csv), methods=("ACT", "ER"))
        top = report["eigenvalues"]["correlation_top"]
        assert [lam[: len(top)].tolist() for lam in seen] == [top]
        assert "k" in report["methods"]["ACT"] and "adjusted_eigenvalues" in report

    def test_non_integer_r_max_is_a_config_error(self, factor_panel_csv):
        ds = ingest_csv(factor_panel_csv)
        assert refusal(lambda: estimate_report(ds, r_max=2.5)) == (
            ConfigError, "method ACT at p=20, n=120: r_max must be an integer, got 2.5"
        )
        assert estimate_report(ds, r_max=np.int64(5)) == estimate_report(ds, r_max=5)

    def test_basis_override(self, factor_panel_csv):
        ds = ingest_csv(factor_panel_csv)
        per_method = estimate_report(ds, methods=("ER",))
        forced = estimate_report(ds, methods=("ER",), basis="corr")
        assert per_method["methods"]["ER"]["k"] >= 0
        assert forced["config"]["basis"] == "corr"
        with pytest.raises(ConfigError):
            estimate_report(ds, methods=("ER",), basis="both")

    def test_default_basis_text_is_the_method_table(self, factor_panel_csv):
        # each requested method with its METHODS basis, in the requested order
        ds = ingest_csv(factor_panel_csv)
        text = estimate_report(ds, methods=("KAISER", "ER"))["config"]["basis"]
        assert text == "per-method default (KAISER: corr, ER: cov)"
        text = estimate_report(ds, methods=tuple(METHODS), ed_threshold=0.5)["config"]["basis"]
        entries = text.removeprefix("per-method default (").removesuffix(")").split(", ")
        assert entries == [f"{m}: {METHODS[m][0]}" for m in METHODS]

    @pytest.mark.parametrize("basis", [None, "cov", "corr"])
    def test_adjusted_values_explain_the_act_count(self, basis):
        # series scales spread over e^-3..e^3, so ACT counts 24 on the
        # covariance spectrum and 2 on the correlation spectrum
        n, p = 120, 60
        g = np.random.default_rng(3)
        X = g.standard_normal((n, 2)) @ g.standard_normal((2, p)) + g.standard_normal((n, p))
        X *= np.exp(g.uniform(-3, 3, p))
        ds = PanelDataset(tuple(f"s{i}" for i in range(p)), DataMatrix(X))
        report = estimate_report(ds, methods=("ACT",), basis=basis)
        adjusted = AdjustedSpectrum(np.array(report["adjusted_eigenvalues"]), report["threshold"])
        assert act_select(adjusted) == report["methods"]["ACT"]["k"] == (24 if basis == "cov" else 2)

    def test_cli_json_output(self, factor_panel_csv, capsys):
        rc = main(["estimate", factor_panel_csv, "--methods", "ACT", "ER"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["methods"]["ACT"]["k"] >= 0

    def test_default_methods(self, factor_panel_csv, capsys):
        assert main(["estimate", factor_panel_csv]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["methods"]) == doc["config"]["methods"] == ["ACT", "ER", "GR", "ON", "PC3", "IC3", "KAISER"]

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
    "ACT": lambda cov, corr, n, p, r: act_estimate(corr, r_max=r),
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
        assert set(ORACLES) == set(METHODS)

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

    @pytest.mark.parametrize("case_id", [1, 4])
    def test_large_p_report_keeps_the_composition_correlation(self, case_id):
        # p > n: the correlation side of the report is the p x p composition's
        # bit for bit, as perfbench's traced replay requires; the covariance
        # spectrum comes from the n x n Gram, so it moves only at round-off
        # and every count stays the composition's
        g = SeededRng(31).generator()
        X = sample_data(build_case(case_id, 150, 3, g), 40, g)
        n, p = X.n, X.p
        report = estimate_report(
            PanelDataset(tuple(f"s{i}" for i in range(p)), X), methods=tuple(METHODS), ed_threshold=ED_THRESHOLD
        )
        r_max = report["config"]["r_max"]
        cov = sample_covariance(X)
        cov_spec = eigenvalues_desc(cov, n)
        corr_spec = eigenvalues_desc(to_correlation(cov), n)
        assert report["eigenvalues"]["correlation_top"] == corr_spec.eigenvalues[:r_max].tolist()
        assert report["adjusted_eigenvalues"] == adjust_eigenvalues(corr_spec, n, r_max).adjusted.tolist()
        cov_top = np.array(report["eigenvalues"]["covariance_top"])
        assert np.abs(cov_top - cov_spec.eigenvalues[:r_max]).max() <= 1e-12 * cov_spec.eigenvalues[0]
        for method, oracle in ORACLES.items():
            try:
                expected = {"k": oracle(cov_spec, corr_spec, n, p, r_max)}
            except ActFactorsError as exc:
                expected = {"error": f"{type(exc).__name__}: {exc}"}
            assert report["methods"][method] == expected, method

    def test_duplicate_method_rejected(self, factor_panel_csv):
        ds = ingest_csv(factor_panel_csv)
        with pytest.raises(ConfigError):
            estimate_report(ds, methods=("ACT", "act"))

    def test_method_names_are_stripped(self, factor_panel_csv):
        report = estimate_report(ingest_csv(factor_panel_csv), methods=(" act", "er "))
        assert list(report["methods"]) == ["ACT", "ER"]


class TestFrontEndsAgree:
    """estimate and simulate take r_max and each method's outcome from the same harness code."""

    @pytest.mark.parametrize("n, p", [(200, 30), (40, 90)])
    def test_default_r_max_is_the_plans(self, n, p):
        ds = PanelDataset(tuple(f"s{i}" for i in range(p)), DataMatrix(SeededRng(63).generator().standard_normal((n, p))))
        report = estimate_report(ds, methods=("ACT",), r_max=None)
        (plan,) = ExperimentConfig(p_values=(p,), n_values=(n,), k_true=3, methods=("ACT",)).plans
        assert report["config"]["r_max"] == plan.r_max == default_r_max(p, n)

    def test_same_failure_text(self):
        # n = 20 leaves the covariance rank 19, so r_max = 25 reaches its zeros
        n, p, methods = 20, 60, ("ACT", "GR")
        config = ExperimentConfig(p_values=(p,), n_values=(n,), k_true=3, r_max=25, methods=methods, replications=2)
        simulated = run_experiment(config).cells[0]["methods"]
        g = SeededRng(64).generator()
        ds = PanelDataset(tuple(f"s{i}" for i in range(p)), sample_data(build_case(1, p, 3, g), n, g))
        estimated = estimate_report(ds, methods=methods, r_max=25)["methods"]
        expected = {
            "ACT": "DegenerateGap: cannot jitter a tie at eigenvalue 0",
            "GR": "NumericalDomain: tail sum V_26 must be positive",
        }
        for m, text in expected.items():
            assert simulated[m]["failures"] == [text] and simulated[m]["failed_count"] == 2
            assert estimated[m] == {"error": text}

    @pytest.mark.parametrize(
        "options",
        [
            dict(methods=("ACT",), on_r_min=-5, ed_threshold=-1.0),
            dict(methods=("ACT",), on_r_min=99),
            dict(methods=("KAISER",), r_max=100000),
            dict(methods=("ED",), ed_threshold=math.inf),
            dict(methods=("ACT",), ed_threshold=math.nan),
        ],
    )
    def test_same_option_rule(self, options):
        n, p = 120, 20
        X = DataMatrix(SeededRng(65).generator().standard_normal((n, p)))
        ds = PanelDataset(tuple(f"s{i}" for i in range(p)), X)
        with pytest.raises(ConfigError) as estimated:
            estimate_report(ds, **options)
        with pytest.raises(ConfigError) as simulated:
            ExperimentConfig(p_values=(p,), n_values=(n,), **options)
        assert str(estimated.value) == str(simulated.value)


def strict_json(text: str):
    """json.loads, refusing the NaN and Infinity that Python's json writes but JSON lacks."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    """Every report of a valid call is strict JSON, on both spectra routes."""

    ALL = list(METHODS)

    @pytest.mark.parametrize(
        "args",
        [
            ["estimate", "{wide}"],
            ["estimate", "{tall}"],
            ["estimate", "{tall}", "--clean", "--basis", "cov", "--methods", *ALL, "--ed-threshold", "0.5"],
            ["estimate", "{wide}", "--basis", "corr", "--methods", *ALL, "--ed-threshold", "0.5", "--on-r-min", "1"],
            ["estimate", "{wide}", "--basis", "cov", "--methods", *ALL, "--ed-threshold", "0.5"],
            ["analyze", "{tall}", "--factors", "{factors_tall}"],
            ["analyze", "{wide}", "--factors", "{factors_wide}", "--k", "2"],
            ["simulate", "--case", "1", "2", "--p", "20", "--n", "40", "--k", "3", "--reps", "2", "--family", "both",
             "--methods", *ALL, "--ed-threshold", "0.5"],
            ["simulate", "--case", "3", "4", "--p", "60", "--n", "30", "--k", "3", "--reps", "2",
             "--methods", *ALL, "--ed-threshold", "0.5", "--fixed-loadings"],
            ["table1", "--seeds", "1"],
        ],
        ids=["estimate-wide", "estimate-tall", "estimate-cov-tall", "estimate-corr-wide", "estimate-cov-wide",
             "analyze-tall", "analyze-wide", "simulate-tall", "simulate-wide", "table1"],
    )
    def test_report_parses_strictly(self, tmp_path, capsys, args):
        g = SeededRng(66).generator()
        paths = {}
        for name, (n, p) in {"tall": (120, 20), "wide": (30, 60)}.items():
            X = sample_data(build_case(1, p, 3, g), n, g).values
            paths[name] = write_panel_csv(tmp_path / f"{name}.csv", X)
            paths[f"factors_{name}"] = write_panel_csv(tmp_path / f"f_{name}.csv", X[:, :2], names=["f1", "f2"])
        assert main([arg.format(**paths) for arg in args]) == 0
        assert strict_json(capsys.readouterr().out)

    @pytest.mark.parametrize("report", ["analyze", "estimate", "simulate"])
    def test_numpy_integer_options_are_reported_as_ints(self, report):
        # the CLI parses ints; a library caller's numpy integers pass the same
        # checks, and each report holds them as ints, which json.dumps takes
        g = SeededRng(67).generator()
        X = sample_data(build_case(1, 20, 2, g), 60, g)
        ds = PanelDataset(tuple(f"s{i}" for i in range(20)), X)
        factors = PanelDataset(("f",), DataMatrix(X.values[:, :1]))
        dump = {
            "analyze": lambda i: json.dumps(analyze_report(ds, factors, k=i(2))),
            "estimate": lambda i: json.dumps(estimate_report(ds, r_max=i(5), on_r_min=i(1))),
            "simulate": lambda i: run_experiment(ExperimentConfig(
                p_values=(20,), n_values=(60,), k_true=i(2), replications=i(2), master_seed=i(3), r_max=i(4),
                on_r_min=i(1),
            )).to_json(),
        }[report]
        assert dump(np.int64) == dump(int)

    @pytest.mark.parametrize("report", ["estimate", "simulate", "table1", "simulate-list"])
    def test_numpy_scalar_settings_give_the_same_report(self, report):
        # each rule returns the Python scalar it admitted and the report holds
        # that: numpy integers of either width, a float32 gap threshold and a
        # numpy bool give the bytes Python scalars give; and the list rule
        # returns a tuple, so lists, as the CLI passes them, give a tuple grid's
        g = SeededRng(69).generator()
        X = sample_data(build_case(1, 20, 2, g), 60, g)
        ds = PanelDataset(tuple(f"s{i}" for i in range(20)), X)
        methods = ("ACT", "ED", "ON")
        dumps = {
            "estimate": lambda i, j, f, b: json.dumps(estimate_report(
                ds, methods=methods, r_max=i(5), on_r_min=j(1), ed_threshold=f(0.5),
            )),
            "simulate": lambda i, j, f, b, seq=tuple: run_experiment(ExperimentConfig(
                cases=seq((i(1), j(2))), p_values=seq((i(20), j(24))), n_values=seq((j(60),)), k_true=i(2),
                replications=j(3), master_seed=i(3), methods=seq(methods), r_max=j(4), on_r_min=i(1),
                ed_threshold=f(0.5), fresh_loadings=b(False),
            )).to_json(),
            "table1": lambda i, j, f, b: json.dumps(run_table1(seeds=i(2), master_seed=j(1))),
        }
        dumps["simulate-list"] = lambda i, j, f, b: dumps["simulate"](i, j, f, b, seq=list)
        expected = dumps[report.removesuffix("-list")](int, int, float, bool)
        assert dumps[report](np.int64, np.int32, np.float32, np.bool_) == expected


#: perfbench's tolerance for floats in its reference outputs
BLAS_RTOL = 1e-9


def assert_close(a, b, where="report"):
    """Equal JSON trees, except that floats need only agree to BLAS_RTOL."""
    if isinstance(a, float) and isinstance(b, float):
        assert math.isclose(a, b, rel_tol=BLAS_RTOL, abs_tol=0.0), (where, a, b)
    elif isinstance(a, dict) and isinstance(b, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            assert_close(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_close(x, y, f"{where}[{i}]")
    else:
        assert a == b, (where, a, b)


class TestBlasThreads:
    """Reports under one and two OpenBLAS threads: simulate writes the same
    bytes; on a 300 x 1000 panel estimate's floats move in their last
    digits, so only its counts are equal and its floats agree to BLAS_RTOL."""

    @staticmethod
    def run_both(args):
        return [
            run_cli(args, {**os.environ, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, check=True).stdout
            for threads in ("1", "2")
        ]

    def test_simulate_bytes_are_equal(self):
        # every case and family, a p <= n width (the p x p route) and a p > n
        # one (the dual-Gram route), and the seven methods of both bases
        args = [
            "simulate", "--case", "1", "2", "3", "4", "--p", "100", "1000", "--n", "300", "--family", "both",
            "--reps", "2", "--seed", "3", "--methods", "ACT", "ER", "GR", "ON", "PC3", "IC3", "KAISER",
        ]
        one, two = self.run_both(args)
        assert len(json.loads(one)["cells"]) == 16
        assert one == two

    def test_estimate_counts_are_equal(self, tmp_path):
        g = SeededRng(0).generator()
        path = write_panel_csv(tmp_path / "p.csv", sample_data(build_case(1, 1000, 5, g), 300, g).values)
        one, two = (json.loads(out) for out in self.run_both(["estimate", path, "--clean"]))
        assert one["methods"] == two["methods"]
        assert_close(one, two)


#: options out of their run-wide rule that no requested method reads (or a
#: threshold ED reads that is not finite); both front ends refuse each one
OPTIONS_NO_METHOD_CHECKS = [
    ["--methods", "ACT", "--on-r-min", "-5", "--ed-threshold", "-1"],
    ["--methods", "ACT", "--on-r-min", "99"],
    ["--methods", "KAISER", "--r-max", "100000"],
    ["--methods", "ED", "--ed-threshold", "inf"],
    ["--methods", "ACT", "--ed-threshold", "nan"],
]


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
            ["--r-max", "0"],
            ["--methods", "KAISER", "--r-max", "-5"],
            *OPTIONS_NO_METHOD_CHECKS,
        ],
    )
    def test_estimate_option_out_of_range_is_2(self, factor_panel_csv, args, capsys):
        assert main(["estimate", factor_panel_csv, *args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args",
        [
            ["--methods", "ACT", "act"],
            ["--r-max", "40"],
            ["--on-r-min", "20"],
            ["--methods", "ED", "--ed-threshold", "-1"],
            ["--r-max", "0"],
            ["--workers", "0"],
            ["--n", "2"],
            ["--methods", "KAISER", "--r-max", "-3"],
            ["--seed", "-1"],
            *OPTIONS_NO_METHOD_CHECKS,
            # a grid value listed twice
            ["--case", "1", "1"],
            ["--p", "30", "30"],
            ["--n", "60", "60"],
        ],
    )
    def test_simulate_option_out_of_range_is_2(self, args, capsys):
        base = ["simulate", "--case", "1", "--p", "30", "--n", "60", "--k", "3", "--reps", "2"]
        assert main([*base, *args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_negative_table1_seed_is_2(self, capsys):
        assert main(["table1", "--seeds", "2", "--seed", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: seed and stream must be non-negative integers\n")

    def test_data_error_is_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3\n4,5\n")
        assert main(["estimate", str(bad)]) == 3

    @pytest.mark.parametrize(
        "content",
        [b"caf\xe9,b\n1,2\n3,4\n5,6\n", b"a,b\n1,2\n3," + b"9" * 200_000 + b"\n5,6\n", b""],
        ids=["latin-1-header", "oversized-cell", "empty"],
    )
    @pytest.mark.parametrize("command", ["estimate", "analyze"])
    def test_malformed_csv_bytes_are_3(self, factor_panel_csv, tmp_path, capsys, command, content):
        # bytes that do not decode as UTF-8, a cell past the csv module's
        # field limit, or no bytes at all, end as one error line, not a traceback
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        args = ["estimate", str(bad)] if command == "estimate" else ["analyze", factor_panel_csv, "--factors", str(bad)]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, option, message",
        [
            ("a\n1\n2\n4\n8\n", "--drop-missing", "spectra need at least 3 series, got 1"),
            ("a,b\n1,2\n3,5\n", "--drop-missing", "{bad}: panel needs at least 3 rows, got 2"),
            ("a,b\n1,NA\nNA,2\n3,4\n", "--drop-missing", "{bad}: panel needs at least 1 column, got 0"),
            ("a,b,c\n1,2,3\n4,5,7\n2,9,1\n", "--clean", "outlier cleaning needs at least 4 observations, got 3"),
        ],
        ids=["one-series", "two-rows", "all-missing", "clean-three-rows"],
    )
    @pytest.mark.parametrize("command", ["estimate", "analyze"])
    def test_panel_shape_errors_are_3(self, tmp_path, capsys, command, text, option, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        factors = tmp_path / "f.csv"
        factors.write_text("f\n" + "".join(f"{v}\n" for v in (1.0, 2.0, 0.5, 3.0)))
        args = [str(bad), option]
        args = ["estimate", *args] if command == "estimate" else ["analyze", *args, "--factors", str(factors)]
        assert main(args) == 3
        assert capsys.readouterr() == ("", f"error: {message.format(bad=bad)}\n")

    def test_shape_error_names_the_file(self, tmp_path, capsys):
        # with two input files, the error says which one is too short
        g = SeededRng(65).generator()
        panel_path = write_panel_csv(tmp_path / "p.csv", g.standard_normal((30, 5)))
        short = write_panel_csv(tmp_path / "f2.csv", g.standard_normal((2, 1)), names=["f"])
        assert main(["analyze", panel_path, "--factors", short]) == 3
        assert capsys.readouterr().err == f"error: {short}: panel needs at least 3 rows, got 2\n"

    def test_option_error_keeps_its_message_after_the_spectra(self, tmp_path, capsys):
        # estimate_report computes the spectra before it checks the options
        path = write_panel_csv(tmp_path / "p.csv", SeededRng(62).generator().standard_normal((200, 30)))
        assert main(["estimate", path, "--r-max", "999"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: method ACT at p=30, n=200: r_max must satisfy 1 <= r_max <= p-2=28, got 999\n"

    def test_missing_file_is_3(self):
        assert main(["estimate", "/nonexistent/panel.csv"]) == 3

    def test_covariance_overflow_is_3(self, tmp_path, capfd):
        # every entry is finite, but the squared deviations (1e160), the
        # column sums (entries near 1e308) or the quartile spread of a series
        # alternating +-1.7e308 overflow; stderr holds the error line alone,
        # with no numpy overflow warning before it, also where warnings are
        # errors
        g = np.random.default_rng(7)
        huge, huge_wide = (
            write_panel_csv(tmp_path / f"huge-{n}x{p}.csv", 1e160 * g.standard_normal((n, p)))
            for n, p in ((40, 6), (4, 6))
        )
        big, big_wide = (
            write_panel_csv(tmp_path / f"big-{n}x{p}.csv", np.abs(g.standard_normal((n, p))) * 1e307 + 1e308)
            for n, p in ((40, 6), (10, 40))
        )
        spanning = g.standard_normal((40, 6))
        spanning[:, 0] = np.resize([1.7e308, -1.7e308], 40)
        spanning = write_panel_csv(tmp_path / "spanning.csv", spanning)
        factors = write_panel_csv(tmp_path / "f.csv", g.standard_normal((40, 1)), names=["f"])
        warnings_as_errors = {"PYTHONWARNINGS": "error::RuntimeWarning"}
        for args, env in (
            (["estimate", huge], {}),
            (["estimate", huge_wide], {}),
            (["estimate", big], {}),
            (["estimate", "--clean", big], warnings_as_errors),
            (["analyze", big, "--factors", factors], {}),
            (["estimate", big_wide], {}),
            (["estimate", "--clean", spanning], warnings_as_errors),
        ):
            assert run_cli(args, {**os.environ, **env}).returncode == 3, args
            captured = capfd.readouterr()
            assert captured.out == ""
            assert captured.err == "error: covariance matrix contains non-finite entries\n"

    def test_rescale_overflow_is_3(self, tmp_path, capfd):
        # a panel in units of about 1e-160: the variances pass the zero-variance
        # rule but fall below the variance floor, under which the rescale to
        # the correlation would overflow. Both shapes exit 3 on both
        # subcommands with the error line alone, and no numpy warning
        g = np.random.default_rng(3)
        for n, p in ((30, 50), (10, 50)):
            values = g.standard_normal((n, p))
            path = write_panel_csv(tmp_path / f"tiny-{n}x{p}.csv", (values - values.mean(axis=0)) * 1e-160)
            factors = np.random.default_rng(4).standard_normal((n, 1))
            factors = write_panel_csv(tmp_path / f"f-{n}.csv", factors, names=["f"])
            for args in (["estimate", path], ["analyze", path, "--factors", factors]):
                assert run_cli(args, dict(os.environ)).returncode == 3
                captured = capfd.readouterr()
                assert captured.out == ""
                assert captured.err == "error: series in column 1 has variance below 2.23e-308; rescale the panel\n"

    def test_two_series_is_3(self, tmp_path, capsys):
        # spectra need 3 series: ACT, GR and ON need r_max <= p - 2, so the
        # default methods cannot run on 2. The shape is refused before any
        # option is checked, so an explicit method list is refused too
        g = SeededRng(66).generator()
        panel = write_panel_csv(tmp_path / "p.csv", g.standard_normal((4, 2)), names=["a", "b"])
        factors = write_panel_csv(tmp_path / "f.csv", g.standard_normal((4, 1)), names=["f"])
        for args in (
            ["estimate", panel],
            ["analyze", panel, "--factors", factors],
            ["estimate", panel, "--methods", "ER", "KAISER", "--r-max", "1"],
        ):
            assert main(args) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: spectra need at least 3 series, got 2\n"

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


class TestParser:
    """Each subcommand's flags and their dests. An option that feeds a library
    parameter is absent from the namespace unless it is set."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["estimate", "p.csv"], {"command": "estimate", "csv": "p.csv", "clean": False, "out": None}),
            (
                ["simulate", "--case", "1", "--p", "20", "--n", "50"],
                {
                    "command": "simulate", "cases": [1], "p_values": [20], "n_values": [50],
                    "family": "gaussian", "text_table": False, "out": None,
                },
            ),
            (["table1"], {"command": "table1", "text_table": False, "out": None}),
            (
                ["analyze", "p.csv", "--factors", "f.csv"],
                {"command": "analyze", "csv": "p.csv", "factors": "f.csv", "clean": False, "out": None},
            ),
        ],
        ids=["estimate", "simulate", "table1", "analyze"],
    )
    def test_dests_and_defaults(self, argv, expected):
        parsed = vars(_build_parser().parse_args(argv))
        assert {k: v for k, v in parsed.items() if k != "run"} == expected


class TestOptionForwarding:
    """A command-line option reaches the library parameter its dest names; an
    option left out reaches it as that parameter's own default."""

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ([], {}),
            (
                ["--methods", "ACT", "ED", "ON", "--r-max", "5", "--ed-threshold", "0.5", "--on-r-min", "1",
                 "--basis", "corr"],
                dict(methods=("ACT", "ED", "ON"), r_max=5, ed_threshold=0.5, on_r_min=1, basis="corr"),
            ),
        ],
        ids=["unset", "set"],
    )
    def test_estimate(self, factor_panel_csv, capsys, args, kwargs):
        assert main(["estimate", factor_panel_csv, *args]) == 0
        expected = estimate_report(ingest_csv(factor_panel_csv), **kwargs)
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(expected))

    @pytest.mark.parametrize(
        "args, ingest_kwargs, clean_kwargs",
        [
            (["--clean"], {}, {}),
            (["--clean", "--clean-policy", "drop", "--drop-missing"], dict(drop_missing=True), dict(policy="drop")),
        ],
        ids=["unset", "set"],
    )
    def test_panel_options(self, tmp_path, capsys, args, ingest_kwargs, clean_kwargs):
        # a gross value for the cleaning policy, and a missing cell where drop_missing is set
        g = SeededRng(62).generator()
        X = np.array(sample_data(build_case(1, 20, 2, g), 100, g).values)
        X[10, 3] = 1e4
        if ingest_kwargs:
            X[20, 5] = np.nan
        path = write_panel_csv(tmp_path / "p.csv", X)
        assert main(["estimate", path, *args]) == 0
        expected = estimate_report(clean_outliers(ingest_csv(path, **ingest_kwargs), **clean_kwargs))
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(expected))

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ([], {}),
            (
                ["--k", "3", "--reps", "4", "--seed", "7", "--family", "both", "--fixed-loadings", "--workers", "2",
                 "--methods", "ACT", "ED", "--r-max", "5", "--ed-threshold", "0.5", "--on-r-min", "1"],
                dict(k_true=3, replications=4, master_seed=7, families=("gaussian", "uniform"), fresh_loadings=False,
                     methods=("ACT", "ED"), r_max=5, ed_threshold=0.5, on_r_min=1),
            ),
        ],
        ids=["unset", "set"],
    )
    def test_simulate(self, monkeypatch, capsys, args, kwargs):
        # --workers goes to run_experiment, not to the config; left out, the
        # fake's own default shows that nothing was passed
        seen = []

        def fake_run(config, workers="default"):
            seen.append((config, workers))
            return ReplicationReport({}, [])

        monkeypatch.setattr("actfactors.cli.run_experiment", fake_run)
        assert main(["simulate", "--case", "1", "--p", "20", "--n", "50", *args]) == 0
        capsys.readouterr()
        workers = 2 if "--workers" in args else "default"
        assert seen == [(ExperimentConfig(cases=(1,), p_values=(20,), n_values=(50,), **kwargs), workers)]

    @pytest.mark.parametrize(
        "args, kwargs", [([], {}), (["--seeds", "1", "--seed", "5"], dict(seeds=1, master_seed=5))], ids=["unset", "set"]
    )
    def test_table1(self, capsys, args, kwargs):
        assert main(["table1", *args]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(run_table1(**kwargs)))

    @pytest.mark.parametrize("args, kwargs", [([], {}), (["--k", "2"], dict(k=2))], ids=["unset", "set"])
    def test_analyze(self, factor_panel_csv, tmp_path, capsys, args, kwargs):
        factors = write_panel_csv(tmp_path / "f.csv", SeededRng(63).generator().standard_normal((120, 2)))
        assert main(["analyze", factor_panel_csv, "--factors", factors, *args]) == 0
        expected = analyze_report(ingest_csv(factor_panel_csv), ingest_csv(factors), **kwargs)
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(expected))


def readme_commands() -> list[list[str]]:
    """Every `actfactors ...` line in README's fenced code blocks, with
    backslash continuations joined, split into arguments."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.strip().startswith("actfactors ")]


class TestReadmeCommands:
    def test_readme_lists_commands(self):
        assert len(readme_commands()) >= 8

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_parses(self, argv, capsys):
        # parse only: a renamed or removed flag makes argparse exit 2
        try:
            _build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(argv)}\n{capsys.readouterr().err}")


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

    def test_text_table_with_out_file(self, tmp_path, capsys):
        # the table goes to stdout and the JSON to the file; the file has the
        # same bytes at one and at two workers
        args = ["simulate", "--case", "1", "--p", "30", "--n", "60", "--k", "3", "--reps", "4", "--seed", "9",
                "--methods", "ACT", "ER", "--text-table"]
        report = run_experiment(ExperimentConfig(
            cases=(1,), p_values=(30,), n_values=(60,), k_true=3, replications=4, master_seed=9, methods=("ACT", "ER"),
        ))
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.json"
            assert main([*args, "--workers", workers, "--out", str(out)]) == 0
            assert capsys.readouterr() == (render_text_table(report) + "\n", "")
            assert out.read_text() == report.to_json() + "\n"

    def test_default_methods_are_the_config_defaults(self, capsys):
        assert main(["simulate", "--case", "1", "--p", "30", "--n", "60", "--k", "3", "--reps", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["cells"][0]["methods"]) == doc["config"]["methods"] == list(ExperimentConfig().methods)


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

    @staticmethod
    def _case_panel(case, n, p):
        g = SeededRng(59).generator()
        X = sample_data(build_case(case, p, 3, g), n, g)
        ds = PanelDataset(tuple(f"s{i}" for i in range(p)), X)
        return ds, PanelDataset(("f1", "f2"), DataMatrix(g.standard_normal((n, 2))))

    CASE_SHAPES = [(case, n, p) for case in (1, 2, 3, 4) for n, p in ((60, 20), (40, 40), (30, 90))]

    @pytest.mark.parametrize(
        "case, n, p", CASE_SHAPES, ids=[f"{n}-{p}" + (f"-case{case}" if case > 1 else "") for case, n, p in CASE_SHAPES]
    )
    def test_analyze_and_estimate_report_the_same_act_count(self, case, n, p):
        # the same correlation eigenvalues, bit for bit at p <= n, and the
        # same count, also where ACT counts no factor (a given k lets analyze
        # report it). At p > n analyze takes spectra's n x n Gram and estimate
        # its p x p correlation, so they agree to round-off
        ds, factors = self._case_panel(case, n, p)
        analysis = analyze_report(ds, factors, k=1)
        estimate = estimate_report(ds, methods=("ACT",))
        top = analysis["correlation_top"]
        if p <= n:
            assert top == estimate["eigenvalues"]["correlation_top"][: len(top)]
        else:
            assert top == spectra(DataMatrix(ds.data.values.copy()))[1].eigenvalues[: len(top)].tolist()
            square = np.array(estimate["eigenvalues"]["correlation_top"][: len(top)])
            assert np.abs(np.array(top) - square).max() <= 1e-12 * square[0]
        count = estimate["methods"]["ACT"]["k"]
        assert analysis["act_k"] == count
        if count:
            assert analyze_report(ds, factors)["k"] == count
        else:
            assert refusal(lambda: analyze_report(ds, factors)) == (DataError, "selected factor count k=0 is not positive")

    @pytest.mark.parametrize("n, p", [(60, 20), (30, 90)], ids=["p<n", "p>n"])
    def test_analyze_builds_one_gram(self, monkeypatch, n, p):
        # one Gram serves the ACT count and the scores: the p x p correlation
        # at p <= n, the n x n Gram of the standardised panel at p > n
        shapes = []
        gram = spectral_module._gram
        monkeypatch.setattr(spectral_module, "_gram", lambda A, n: shapes.append(A.shape) or gram(A, n))
        ds, factors = self._case_panel(1, n, p)
        assert analyze_report(ds, factors)["k"] == 3
        assert shapes == [(p, n) if p <= n else (n, p)]

    def test_non_integer_k_is_a_config_error(self):
        ds, factors = self._case_panel(1, 60, 20)
        assert refusal(lambda: analyze_report(ds, factors, k=2.5)) == (ConfigError, "k must be an integer, got 2.5")
        assert analyze_report(ds, factors, k=np.int64(2)) == analyze_report(ds, factors, k=2)

    @pytest.mark.parametrize(
        "args, code, message",
        [
            # --k must lie in [1, min(n-1, p)] = [1, 6]; checked before any eigensolve
            (["--k", "0"], 2, "k must satisfy 1 <= k <= min(n-1, p)=6, got 0"),
            (["--k", "-1"], 2, "k must satisfy 1 <= k <= min(n-1, p)=6, got -1"),
            (["--k", "7"], 2, "k must satisfy 1 <= k <= min(n-1, p)=6, got 7"),
            # pure noise: ACT selects no factor
            ([], 3, "selected factor count k=0 is not positive"),
        ],
    )
    def test_factor_count_errors(self, tmp_path, capsys, args, code, message):
        g = SeededRng(60).generator()
        panel_path = write_panel_csv(tmp_path / "p.csv", g.standard_normal((40, 6)))
        factor_path = write_panel_csv(tmp_path / "f.csv", g.standard_normal((40, 2)))
        assert main(["analyze", panel_path, "--factors", factor_path, *args]) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_one_factor_series(self, tmp_path, capsys):
        # a single observed factor, such as a market factor, is regressed on
        # the PC scores like any other
        g = SeededRng(63).generator()
        X = sample_data(build_case(1, 20, 2, g), 150, g).values
        market = X.mean(axis=1) + 0.01 * g.standard_normal(150)
        panel_path = write_panel_csv(tmp_path / "p.csv", X)
        factor_path = write_panel_csv(tmp_path / "f.csv", market[:, None], names=["mkt"])
        assert main(["analyze", panel_path, "--factors", factor_path, "--k", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        scores = pc_scores(DataMatrix(X))[1][:, :2]
        assert doc["r2_on_pc_factors"] == {"mkt": ols_r2(market, scores)}
        assert doc["r2_on_pc_factors"]["mkt"] > 0.5

    def test_mismatched_rows_is_3(self, tmp_path):
        g = SeededRng(57).generator()
        panel_path = write_panel_csv(tmp_path / "p.csv", g.standard_normal((30, 5)))
        factor_path = write_panel_csv(tmp_path / "f.csv", g.standard_normal((29, 2)))
        assert main(["analyze", panel_path, "--factors", factor_path]) == 3

    def test_drop_policy_is_refused(self, tmp_path, capsys):
        # each file would drop its own outlier rows: here panel row 11 and
        # factor row 51, which leaves two 199-row files whose rows no longer
        # match; median cleaning keeps every row aligned
        g = SeededRng(61).generator()
        X = sample_data(build_case(1, 20, 2, g), 200, g).values
        F = X[:, :2] + 0.1 * g.standard_normal((200, 2))
        X[10, 3] = 1e4
        F[50, 0] = 1e4
        panel_path = write_panel_csv(tmp_path / "p.csv", X)
        factor_path = write_panel_csv(tmp_path / "f.csv", F, names=["f1", "f2"])
        args = ["analyze", panel_path, "--factors", factor_path, "--k", "2", "--clean"]
        assert main([*args, "--clean-policy", "drop"]) == 2
        assert "unrecognized arguments: --clean-policy drop" in capsys.readouterr().err
        # refused before either file is read: a missing file would exit 3
        missing = str(tmp_path / "missing.csv")
        assert main(["analyze", missing, "--factors", missing, "--clean", "--clean-policy", "drop"]) == 2
        capsys.readouterr()
