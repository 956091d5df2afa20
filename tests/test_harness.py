import json

import pytest

from actfactors.errors import ConfigError
from actfactors.harness import (
    ExperimentConfig,
    MethodTally,
    aggregate,
    render_table1_text,
    render_text_table,
    run_experiment,
    run_table1,
    _cell_seed,
    _plans,
)


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

    def test_ed_needs_threshold(self):
        with pytest.raises(ConfigError):
            small_config(methods=("ED",))
        small_config(methods=("ED",), ed_threshold=1.0)

    def test_dimension_guards(self):
        with pytest.raises(ConfigError):
            small_config(p_values=(4,), k_true=3)
        with pytest.raises(ConfigError):
            small_config(replications=0)


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
        tally = MethodTally(true_count=198, over_count=0, under_count=2, khat_sum=198 * 3 + 2 * 2)
        from actfactors.harness import CellResult

        report = aggregate([CellResult(plan, {"ACT": tally})], small_config(replications=200, methods=("ACT",)))
        entry = report.cells[0]["methods"]["ACT"]
        assert entry["true_pct"] == pytest.approx(99.0, abs=1e-12)
        assert entry["over_pct"] == pytest.approx(0.0, abs=1e-12)
        assert entry["under_pct"] == pytest.approx(1.0, abs=1e-12)

    def test_ave_rounding(self):
        plan = _plans(small_config(replications=3, methods=("ACT",)))[0]
        tally = MethodTally(true_count=2, under_count=1, khat_sum=5 + 5 + 4)
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
        assert doc["cells"][0]["cell_seed"] == _cell_seed(5, 0)

    def test_on2_is_on_with_shared_r_min(self):
        report = run_experiment(small_config(replications=4, methods=("ON", "ON2"), on_r_min=3))
        methods = report.cells[0]["methods"]
        assert methods["ON"] == methods["ON2"]
        notes = report.config["seed_manifest"]["notes"]
        assert "r_min=0" not in notes and "shared r_min" in notes

    def test_text_table_layout(self):
        report = run_experiment(small_config(replications=4))
        text = render_text_table(report)
        for token in ("TRUE", "OVER", "UNDER", "AVE", "ACT", "Case 1"):
            assert token in text


class TestTable1:
    def test_counts_identical_across_seeds(self):
        table = run_table1(seeds=5, k_values=(5,), p_values=(50,), sigma2_values=(1.0,))
        for cell in table["cells"]:
            expected = cell["K"] if cell["scenario"] == 1 else cell["K"] - 1
            assert set(cell["counts"]) == {expected}

    def test_text_rendering(self):
        table = run_table1(seeds=2, k_values=(5,), p_values=(50,), sigma2_values=(1.0, 2.0))
        text = render_table1_text(table)
        assert "s1 v=1" in text and "s2 v=2" in text

    def test_seed_guard(self):
        with pytest.raises(ConfigError):
            run_table1(seeds=0)
