import itertools
import json
import math
import os
import re
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actfactors import harness
from actfactors.act import default_r_max
from actfactors.errors import ActFactorsError, ConfigError
from actfactors.harness import (
    METHODS,
    CellPlan,
    ExperimentConfig,
    MethodTally,
    ReplicationReport,
    aggregate,
    render_table1_text,
    render_text_table,
    run_cell,
    run_experiment,
    run_table1,
    _one_blas_thread_children,
    _plans,
    _run_replications,
)
from actfactors.models import SeededRng, build_case, sample_data
from actfactors.spectral import Spectrum, spectra


def small_config(**kw):
    base = dict(
        cases=(1,),
        p_values=(30,),
        n_values=(60,),
        k_true=3,
        replications=8,
        master_seed=5,
        methods=("ACT", "ER", "KAISER"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


RESULTS = Path(__file__).resolve().parents[1] / "results"


def published(name: str) -> tuple[dict, ExperimentConfig]:
    """A committed results/ report and the config it was run from."""
    doc = json.loads((RESULTS / name).read_text())
    return doc, ExperimentConfig(**{key: value for key, value in doc["config"].items() if key != "seed_manifest"})


def plan_of(cell: dict) -> CellPlan:
    """The plan a report cell was written from, rebuilt by keyword."""
    return CellPlan(
        case_id=cell["case"], family=cell["family"], p=cell["p"], n=cell["n"], k_true=cell["k_true"],
        replications=cell["replications"], r_max=cell["r_max"], ed_threshold=cell["ed_threshold"],
        on_r_min=cell["on_r_min"], fresh_loadings=cell["fresh_loadings"], cell_seed=cell["cell_seed"],
        methods=tuple(cell["methods"]),
    )


class TestConfigValidation:
    def test_empty_methods(self):
        with pytest.raises(ConfigError):
            small_config(methods=())

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            small_config(methods=("ACT", "BOGUS"))

    def test_duplicate_method(self):
        with pytest.raises(ConfigError):
            small_config(methods=("ACT", "act"))
        assert small_config(methods=(" act", "ER")).methods == ("ACT", "ER")

    @pytest.mark.parametrize(
        "kw",
        [
            dict(methods=("ACT",), r_max=29),
            dict(methods=("GR",), r_max=29),
            dict(methods=("ER",), r_max=30),
            dict(methods=("PC3",), r_max=20, n_values=(20,)),
            dict(methods=("ON2",), on_r_min=15),
            dict(methods=("ED",), ed_threshold=0.0),
        ],
    )
    def test_option_out_of_method_range(self, kw):
        with pytest.raises(ConfigError):
            small_config(**kw)

    @settings(max_examples=150, deadline=None)
    @given(
        methods=st.lists(st.sampled_from(list(METHODS)), min_size=1, max_size=4, unique=True),
        r_max=st.none() | st.integers(-3, 90),
        on_r_min=st.integers(-3, 90),
        ed_threshold=st.none() | st.floats(allow_nan=True, allow_infinity=True),
        p_values=st.lists(st.integers(5, 80), min_size=1, max_size=2),
        n_values=st.lists(st.integers(3, 80), min_size=1, max_size=2),
    )
    def test_every_recorded_option_meets_its_rule(self, methods, r_max, on_r_min, ed_threshold, p_values, n_values):
        try:
            config = small_config(
                methods=methods, r_max=r_max, on_r_min=on_r_min, ed_threshold=ed_threshold,
                p_values=p_values, n_values=n_values, replications=1,
            )
        except ConfigError:
            return
        options = asdict(config)
        threshold = options["ed_threshold"]
        assert threshold is None or (math.isfinite(threshold) and threshold > 0.0)
        for p, n in itertools.product(config.p_values, config.n_values):
            r = default_r_max(p, n) if options["r_max"] is None else options["r_max"]
            assert 1 <= r <= p - 1
            assert 0 <= options["on_r_min"] < r

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", list(METHODS))
    @pytest.mark.parametrize("p, n", [(5, 8), (100, 300), (40, 12)])
    def test_options_are_checked_before_any_value(self, method, p, n):
        # check_method_options runs the methods on an all-zero spectrum: each
        # must raise the ConfigError it raises on a strictly decreasing
        # spectrum, or none, and nothing but an ActFactorsError
        def config_error(spec, *options):
            try:
                METHODS[method][1](spec, *options)
            except ConfigError as exc:
                return str(exc)
            except ActFactorsError:
                pass
            return None

        zero, decreasing = Spectrum(np.zeros(p), n=n), Spectrum(np.linspace(2.0, 1.0, p), n=n)
        for r_max in (-1, 0, 1, p - 2, p - 1, p, n - 1, n):
            for ed_threshold, on_r_min in itertools.product((None, -1.0, 0.5, math.inf), (-1, 0, r_max - 1, r_max)):
                options = (r_max, ed_threshold, on_r_min)
                assert config_error(zero, *options) == config_error(decreasing, *options), options

    def test_ed_needs_threshold(self):
        with pytest.raises(ConfigError):
            small_config(methods=("ED",))
        small_config(methods=("ED",), ed_threshold=1.0)

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(cases=(5,)), "case id must be 1..4, got 5"),
            (dict(families=("cauchy",)), "family must be 'gaussian' or 'uniform', got 'cauchy'"),
            (dict(k_true=0), "need p > K >= 1, got p=30, K=0"),
        ],
        ids=["case", "family", "k"],
    )
    def test_grid_is_checked_by_build_case(self, kw, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            small_config(**kw)

    def test_dimension_guards(self):
        with pytest.raises(ConfigError):
            small_config(p_values=(4,), k_true=3)
        with pytest.raises(ConfigError):
            small_config(replications=0)
        with pytest.raises(ConfigError):
            small_config(k_true=0)


class TestRunCell:
    def test_single_replication_tally(self):
        config = small_config(replications=1, methods=("ACT",))
        report = run_experiment(config)
        entry = report.cells[0]["methods"]["ACT"]
        assert entry["true_pct"] in (0.0, 100.0)
        assert entry["true_count"] + entry["over_count"] + entry["under_count"] == 1
        if entry["true_pct"] == 100.0:
            assert entry["ave_k"] == config.k_true

    def test_failed_methods_are_counted(self):
        # r_max beyond the covariance rank makes the growth ratio fail on
        # every replication while the others keep running
        config = small_config(
            p_values=(20,), n_values=(10,), k_true=2, r_max=12,
            methods=("GR", "ER", "ACT"), replications=4,
        )
        report = run_experiment(config)
        entry = report.cells[0]["methods"]["GR"]
        assert entry["failed_count"] == 4
        assert entry["true_pct"] is None and entry["ave_k"] is None
        assert entry["failures"]
        er = report.cells[0]["methods"]["ER"]
        assert er["failed_count"] == 0

    def test_tally_of_outcomes(self):
        outcomes = [3, "DataError: b", 4, 2, "DataError: b", "ConfigError: a", 3]
        assert MethodTally.of(outcomes, 3) == MethodTally(
            true_count=2, over_count=1, under_count=1, failed_count=3, true_pct=50.0, over_pct=25.0,
            under_pct=25.0, ave_k=3.0, failures=["ConfigError: a", "DataError: b"],
        )
        assert MethodTally.of([], 3) == MethodTally()

    def test_chunks_join_in_replication_order(self):
        plan = _plans(small_config(cases=(2,), replications=7))[0]
        whole = _run_replications(plan, 0, 7)
        head, tail = _run_replications(plan, 0, 3), _run_replications(plan, 3, 7)
        assert whole == {m: head[m] + tail[m] for m in plan.methods}
        assert all(len(outcomes) == 7 for outcomes in whole.values())

    def test_percent_closure(self):
        report = run_experiment(small_config(replications=12))
        for cell in report.cells:
            for entry in cell["methods"].values():
                counts = (
                    entry["true_count"]
                    + entry["over_count"]
                    + entry["under_count"]
                    + entry["failed_count"]
                )
                assert counts == cell["replications"]
                if entry["true_pct"] is not None:
                    total = entry["true_pct"] + entry["over_pct"] + entry["under_pct"]
                    assert abs(total - 100.0) <= 1e-9


class TestPlans:
    def test_grid_order_and_cell_seeds_match_nested_loops(self):
        config = small_config(
            cases=(2, 1), families=("uniform", "gaussian"), p_values=(40, 30), n_values=(60, 50), master_seed=11
        )
        expected = []
        for case_id in config.cases:
            for family in config.families:
                for p in config.p_values:
                    for n in config.n_values:
                        seed = np.random.SeedSequence([11, len(expected)]).generate_state(1, dtype=np.uint64)[0]
                        expected.append((case_id, family, p, n, int(seed)))
        assert [(c.case_id, c.family, c.p, c.n, c.cell_seed) for c in _plans(config)] == expected

    @pytest.mark.parametrize("name", ["simulations.json", "simulations_rmax8.json"])
    def test_published_plans_reproduce(self, name):
        # every committed cell's plan, its cell seed included, from the report's config
        doc, config = published(name)
        assert len(doc["cells"]) == 32
        assert _plans(config) == [plan_of(cell) for cell in doc["cells"]]

    def test_negative_master_seed_is_refused_before_any_replication(self, monkeypatch):
        def never(*args):
            raise AssertionError("ran before the seed check")

        monkeypatch.setattr(harness, "_run_cells", never)
        monkeypatch.setattr(harness, "table1_scenario", never)
        with pytest.raises(ConfigError, match="non-negative"):
            run_experiment(small_config(master_seed=-1))
        with pytest.raises(ConfigError, match="non-negative"):
            run_table1(seeds=2, master_seed=-1)


class TestDeterminism:
    def test_bit_identical_reports(self):
        config = small_config(replications=10)
        a = run_experiment(config).to_json()
        b = run_experiment(config).to_json()
        assert a == b

    def test_worker_count_does_not_change_results(self):
        serial = run_experiment(small_config(replications=10, workers=1))
        parallel = run_experiment(small_config(replications=10, workers=3))
        assert serial.cells == parallel.cells

    def test_pooled_run_keeps_failures_and_the_environment(self, monkeypatch):
        # GR fails on every replication (r_max beyond the covariance rank);
        # the pool children run with one BLAS thread, the caller's
        # environment is restored afterwards
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        before = dict(os.environ)
        kw = dict(p_values=(20,), n_values=(10,), k_true=2, r_max=12, methods=("GR", "ER", "ACT"), replications=5)
        parallel = run_experiment(small_config(workers=2, **kw))
        assert dict(os.environ) == before
        assert parallel.cells == run_experiment(small_config(**kw)).cells
        assert parallel.cells[0]["methods"]["GR"]["failed_count"] == 5

    def test_blas_threads_pinned_only_inside_the_pool_block(self, monkeypatch):
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        before = dict(os.environ)
        with pytest.raises(LookupError), _one_blas_thread_children():
            assert [os.environ[name] for name in names] == ["1", "1", "1"]
            raise LookupError("the block failed")
        assert dict(os.environ) == before

    @pytest.mark.parametrize("family", ["gaussian", "uniform"])
    @pytest.mark.parametrize("p", [30, 90], ids=["p<n", "p>n"])
    def test_shared_panel_matches_fresh_panels(self, p, family):
        # the cell draws every replication into one buffer; each
        # replication must still count its own panel
        config = small_config(cases=(2,), p_values=(p,), families=(family,), methods=("ACT", "ER", "KAISER", "PC3"))
        plan = _plans(config)[0]
        fresh = []
        for r in range(plan.replications):
            g = SeededRng(plan.cell_seed, r).generator()
            X = sample_data(build_case(plan.case_id, p, plan.k_true, g, family), plan.n, g)
            cov_spec, corr_spec = spectra(X)
            fresh.append({
                m: METHODS[m][1](cov_spec if METHODS[m][0] == "cov" else corr_spec, plan.r_max, None, 0)[0]
                for m in plan.methods
            })
        for m, t in run_cell(plan).tallies.items():
            ks = [k[m] for k in fresh]
            assert (t.true_count, t.over_count, t.under_count, t.failed_count, t.ave_k) == (
                ks.count(plan.k_true),
                sum(k > plan.k_true for k in ks),
                sum(k < plan.k_true for k in ks),
                0,
                round(sum(ks) / len(ks), 2),
            )

    def test_master_seed_changes_results(self):
        a = run_experiment(small_config(master_seed=5, cases=(2,), replications=6))
        b = run_experiment(small_config(master_seed=6, cases=(2,), replications=6))
        assert a.cells != b.cells

    def test_fixed_loadings_mode(self):
        config = small_config(cases=(2,), replications=6, fresh_loadings=False)
        report = run_experiment(config)
        assert report.config["fresh_loadings"] is False
        assert report.cells[0]["fresh_loadings"] is False


class TestAggregate:
    def test_rounding_examples(self):
        plan = _plans(small_config(replications=200, methods=("ACT",)))[0]
        tally = MethodTally.of([3] * 198 + [2] * 2, 3)
        from actfactors.harness import CellResult

        report = aggregate([CellResult(plan, {"ACT": tally})], small_config(replications=200, methods=("ACT",)))
        entry = report.cells[0]["methods"]["ACT"]
        assert entry["true_pct"] == pytest.approx(99.0, abs=1e-12)
        assert entry["over_pct"] == pytest.approx(0.0, abs=1e-12)
        assert entry["under_pct"] == pytest.approx(1.0, abs=1e-12)

    def test_ave_rounding(self):
        plan = _plans(small_config(replications=3, methods=("ACT",)))[0]
        tally = MethodTally.of([5, 5, 4], 5)
        from actfactors.harness import CellResult

        report = aggregate([CellResult(plan, {"ACT": tally})], small_config(replications=3, methods=("ACT",)))
        assert report.cells[0]["methods"]["ACT"]["ave_k"] == 4.67


class TestReportShape:
    def test_json_round_trip_and_manifest(self):
        report = run_experiment(small_config(replications=4))
        doc = json.loads(report.to_json())
        assert doc["schema"].startswith("actfactors/replication-report")
        manifest = doc["config"]["seed_manifest"]
        assert manifest["master_seed"] == 5
        assert "cell_seed_rule" in manifest
        assert doc["cells"][0]["cell_seed"] == int(np.random.SeedSequence([5, 0]).generate_state(1, dtype=np.uint64)[0])

    def test_cells_are_written_from_their_plans(self):
        # a cell's keys are the plan's fields in order, case_id as "case" and
        # methods as per-method entries; the cell rebuilds its plan by keyword
        config = small_config(
            cases=(1, 2), replications=2, methods=("ED", "ER", "ACT"), ed_threshold=0.5, fresh_loadings=False
        )
        plans = _plans(config)
        cells = json.loads(run_experiment(config).to_json())["cells"]
        expected = [
            "case", "family", "p", "n", "k_true", "replications", "r_max", "ed_threshold", "on_r_min",
            "fresh_loadings", "cell_seed", "methods",
        ]
        assert expected == ["case", *[f.name for f in fields(CellPlan)][1:]]
        for plan, cell in zip(plans, cells, strict=True):
            assert list(cell) == expected
            assert list(cell["methods"]) == list(config.methods)
            assert plan_of(cell) == plan

    @pytest.mark.parametrize("name", ["simulations.json", "simulations_rmax8.json"])
    def test_published_grid_reproduces(self, name):
        # one committed cell (case 1, gaussian, p = 100; R = 1000) rerun from
        # its plan: a change to the counts or the report format shows here
        doc, config = published(name)
        (cell,) = [c for c in doc["cells"] if (c["case"], c["family"], c["p"]) == (1, "gaussian", 100)]
        report = json.loads(aggregate([run_cell(plan_of(cell))], config).to_json())
        assert report["cells"] == [cell]
        assert report["config"] == doc["config"]

    def test_on2_is_on_with_shared_r_min(self):
        report = run_experiment(small_config(replications=4, methods=("ON", "ON2"), on_r_min=3))
        methods = report.cells[0]["methods"]
        assert methods["ON"] == methods["ON2"]
        notes = report.config["seed_manifest"]["notes"]
        assert "r_min=0" not in notes and "shared r_min" in notes

    def test_text_table_literal(self):
        # shares print to 0.1, AVE to 0.01, and a method with no successful
        # replication prints "--"; one header per (case, family, n)
        def shares(true, over, under, ave):
            return {"true_pct": true, "over_pct": over, "under_pct": under, "ave_k": ave}

        head = {"case": 2, "family": "uniform", "n": 50, "k_true": 3, "replications": 3}
        p20 = {"ACT": shares(200 / 3, 100 / 3, 0.0, 3.33), "ER": shares(None, None, None, None)}
        p400 = {"ACT": shares(100.0, 0.0, 0.0, 3.0), "ER": shares(0.0, 0.0, 100.0, 1.67)}
        report = ReplicationReport(
            config={}, cells=[{**head, "p": 20, "methods": p20}, {**head, "p": 400, "methods": p400}]
        )
        assert render_text_table(report) == (
            "Case 2, uniform population, n=50, K=3, R=3\n"
            "     p             ACT       ER\n"
            "    20 TRUE       66.7       --\n"
            "       OVER       33.3       --\n"
            "       UNDER       0.0       --\n"
            "       AVE        3.33       --\n"
            "   400 TRUE      100.0      0.0\n"
            "       OVER        0.0      0.0\n"
            "       UNDER       0.0    100.0\n"
            "       AVE        3.00     1.67\n"
        )

    def test_text_table_layout(self):
        report = run_experiment(small_config(replications=4))
        text = render_text_table(report)
        for token in ("TRUE", "OVER", "UNDER", "AVE", "ACT", "Case 1"):
            assert token in text


#: the baselines results/README.md weighs ACT against, in its tie-listing order
BASELINES = ("PC3", "IC3", "ON2", "ER", "GR")


def verdict_columns(cell: dict) -> list[str]:
    """One published cell as results/README.md's verdict table prints it: the
    best baseline's TRUE share with its ties, ACT - best ± 2 SE in points,
    and the verdict (lead or trail past 2 SE, else tie)."""
    R = cell["replications"]
    true = {m: cell["methods"][m]["true_count"] for m in ("ACT", *BASELINES)}
    best = max(true[m] for m in BASELINES)
    diff = 100.0 * (true["ACT"] - best) / R
    two_se = 200.0 * math.sqrt(sum(q * (1.0 - q) / R for q in (true["ACT"] / R, best / R)))
    verdict = "lead" if diff > two_se else "trail" if diff < -two_se else "tie"
    names = "/".join(m for m in BASELINES if true[m] == best)
    return [f"{names} {100.0 * best / R:.1f}", f"{diff:+.1f} ± {two_se:.2f}", verdict]


class TestPublishedVerdicts:
    """results/README.md's verdict table and summaries, recomputed from the
    two committed reports: r_max 50 (simulations.json) and 8 (simulations_rmax8.json)."""

    @pytest.fixture(scope="class")
    def readme(self):
        return (RESULTS / "README.md").read_text()

    @pytest.fixture(scope="class")
    def runs(self):
        return {
            r_max: {(c["case"], c["family"], c["p"]): c for c in json.loads((RESULTS / name).read_text())["cells"]}
            for r_max, name in ((50, "simulations.json"), (8, "simulations_rmax8.json"))
        }

    @staticmethod
    def verdicts(cells) -> list[int]:
        tally = Counter(verdict_columns(cell)[2] for cell in cells)
        return [tally["lead"], tally["tie"], tally["trail"]]

    def test_verdict_table(self, readme, runs):
        rows = [[col.strip() for col in line.strip().strip("|").split("|")]
                for line in readme.splitlines() if re.match(r"\| \d", line)]
        # every share is of all R replications: no method failed in any cell
        tallies = [t for cells in runs.values() for c in cells.values() for t in c["methods"].values()]
        assert all(t["failed_count"] == 0 for t in tallies)
        assert rows == [
            [str(case), family, str(p), f"{cell['methods']['ACT']['true_pct']:.1f}",
             *verdict_columns(cell), *verdict_columns(runs[8][case, family, p])]
            for (case, family, p), cell in runs[50].items()
        ]
        assert len(rows) == 32

    def test_verdict_summaries(self, readme, runs):
        overall = re.search(
            r"ACT led in (\d+), tied in (\d+) and trailed in (\d+) at `r_max` 50,\s+"
            r"and led in (\d+), tied in (\d+) and trailed in (\d+) at `r_max` 8", readme
        )
        assert [int(x) for x in overall.groups()] == self.verdicts(runs[50].values()) + self.verdicts(runs[8].values())
        hetero = re.search(r"ACT led in (\d+) of the 16 cells, tied in (\d+) and trailed in (\d+),\s+at either", readme)
        for cells in runs.values():
            assert [int(x) for x in hetero.groups()] == self.verdicts(c for key, c in cells.items() if key[0] in (2, 4))

    def test_act_counts_do_not_depend_on_r_max(self, readme, runs):
        assert "ACT's counts do not depend on `r_max` here." in readme
        assert runs[50].keys() == runs[8].keys()
        assert all(runs[50][key]["methods"]["ACT"] == runs[8][key]["methods"]["ACT"] for key in runs[50])

    def test_act_over_share_by_p(self, readme, runs):
        claim = re.search(
            r"OVER share is ([\d.]+)-([\d.]+)% at p = 100\s+and ([\d.]+)-([\d.]+)% at p = 1000, "
            r"with a standard error of at most ([\d.]+) points", readme
        )
        acts = {p: [c["methods"]["ACT"] for key, c in runs[50].items() if key[2] == p] for p in (100, 1000)}
        shares = [f"{f(t['over_pct'] for t in acts[p]):.1f}" for p in (100, 1000) for f in (min, max)]
        (R,) = {c["replications"] for c in runs[50].values()}
        se = max(100.0 * math.sqrt(q * (1.0 - q) / R) for p in acts for q in (t["over_count"] / R for t in acts[p]))
        assert [*shares, f"{se:.1f}"] == list(claim.groups())


class TestTable1:
    def test_counts_identical_across_seeds(self):
        table = run_table1(seeds=2)
        for cell in table["cells"]:
            expected = cell["K"] if cell["scenario"] == 1 else cell["K"] - 1
            assert set(cell["counts"]) == {expected}

    def test_text_rendering(self):
        table = run_table1(seeds=2)
        text = render_table1_text(table)
        assert "s1 v=1" in text and "s2 v=2" in text

    def test_seed_guard(self):
        with pytest.raises(ConfigError):
            run_table1(seeds=0)
