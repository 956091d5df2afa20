"""Traced run: per-layer metrics measured from outside the program.

Every span is recorded by this file around a call into one public function
of one package module, kept in memory, and written out when the run ends.
A span has a name (``<module>.<function>``), start and end, the span that
caused it, and the operation it belongs to.

Monte Carlo part. Each cell is run by ``harness.run_experiment`` as in the
untraced run, then by ``harness.run_cell`` (timed), and then every
replication is replayed through ``models``, ``spectral``, ``act`` and
``baselines`` from the report's ``cell_seed`` and ``SeededRng(cell_seed, r)``.
The replayed tallies must equal the report's; a mismatch fails the run.

Estimate part. Each CSV panel goes through ``cli.main`` as in the untraced
run, then through ``panel.ingest_csv``, ``panel.clean_outliers`` and
``cli.estimate_report`` one by one, and then the report's spectra, ACT and
baselines are replayed on the cleaned panel; replayed counts must equal the
report's.

Every traced run runs both parts so that every layer is reported on every
workload. A Monte Carlo workload adds an estimate side path on one panel
drawn from its own first cell; ``estimate-csv`` adds a Monte Carlo side
path on one cell of its first case (R = 2). ``models``, ``spectral``,
``act`` and ``baselines`` metrics and ``trace_overhead_pct`` come from the
workload's own path; ``harness`` metrics from the Monte Carlo part and
``panel`` and ``cli`` metrics from the estimate part.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import replace

import workloads as wl
from checks import check_output
from actfactors.act import act_select, adjust_eigenvalues
from actfactors.baselines import BaiNgVariant, bai_ng_estimate, er_estimate, gr_estimate, on_estimate
from actfactors.cli import estimate_report
from actfactors.errors import ActFactorsError
from actfactors.harness import CellPlan, run_cell
from actfactors.models import SeededRng
from actfactors.panel import clean_outliers, ingest_csv
from actfactors.spectral import eigenvalues_desc, naive_kaiser_estimate, sample_covariance, to_correlation

UNITS = {
    "models.build_case_ms": "ms",
    "models.sample_data_ms": "ms",
    "spectral.sample_covariance_ms": "ms",
    "spectral.to_correlation_ms": "ms",
    "spectral.eigenvalues_desc_ms": "ms",
    "spectral.eig_calls_per_rep": "count",
    "spectral.eig_dim": "count",
    "spectral.eig_flops_computed": "flop",
    "spectral.gram_flops_computed": "flop",
    "act.adjust_eigenvalues_ms": "ms",
    "act.resolvent_terms": "count",
    "baselines.estimators_ms": "ms",
    "baselines.failed_share": "ratio",
    "harness.run_cell_ms_per_rep": "ms",
    "harness.overhead_ms_per_rep": "ms",
    "harness.parallel_efficiency": "ratio",
    "panel.ingest_csv_ms": "ms",
    "panel.ingest_mb_per_s": "MB/s",
    "panel.clean_outliers_ms": "ms",
    "cli.estimate_report_ms": "ms",
    "cli.overhead_ms": "ms",
    "trace_overhead_pct": "%",
}

#: the parallel-efficiency probe needs R >= 2 * workers, or run_cell stays serial
PARALLEL_WORKERS = 2


class Tracer:
    """Spans kept in memory, with the operation and path they belong to."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op = None
        self.path = None

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
            "path": self.path,
            **attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def select(self, name: str, path: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and s["path"] == path]


def _ms(span: dict) -> float:
    return (span["end"] - span["start"]) * 1e3


def _outcome(fn, *args):
    """The count, or the exception's type name for a method-level failure."""
    try:
        return fn(*args)
    except ActFactorsError as exc:
        return type(exc).__name__


def _baseline(method: str, cov_spec, n: int, p: int, r_max: int) -> int:
    if method == "ER":
        return er_estimate(cov_spec, r_max)
    if method == "GR":
        return gr_estimate(cov_spec, r_max)
    if method in ("ON", "ON2"):
        return on_estimate(cov_spec, 0, r_max)
    return bai_ng_estimate(cov_spec, n, p, BaiNgVariant.parse(method), r_max)


def replay_methods(tr: Tracer, X, r_max: int, methods) -> tuple[dict, object]:
    """Spectra, ACT and baselines for one panel, one span per call.
    Returns each method's count (or failure type) and the adjusted spectrum."""
    n, p = X.n, X.p
    with tr.span("spectral.sample_covariance", n=n, p=p):
        cov = sample_covariance(X)
    with tr.span("spectral.eigenvalues_desc", dim=p):
        cov_spec = eigenvalues_desc(cov, n)
    with tr.span("spectral.to_correlation"):
        corr = to_correlation(cov)
    with tr.span("spectral.eigenvalues_desc", dim=p):
        corr_spec = eigenvalues_desc(corr, n)
    with tr.span("act.adjust_eigenvalues", p=p, r_max=r_max):
        adjusted = _outcome(adjust_eigenvalues, corr_spec, n, r_max)
    ks = {"ACT": adjusted if isinstance(adjusted, str) else act_select(adjusted)}
    others = [m for m in methods if m not in ("ACT", "KAISER")]
    with tr.span("baselines.estimators", calls=len(others)) as rec:
        for m in others:
            ks[m] = _outcome(_baseline, m, cov_spec, n, p, r_max)
        rec["failed"] = sum(isinstance(ks[m], str) for m in others)
    if "KAISER" in methods:
        ks["KAISER"] = naive_kaiser_estimate(corr_spec)
    return ks, adjusted


def _tally_problems(where: str, expected: dict, ks_per_rep: list[dict], k_true: int) -> list[str]:
    problems = []
    for m, e in expected.items():
        ks = [ks[m] for ks in ks_per_rep]
        good = [k for k in ks if not isinstance(k, str)]
        got = {
            "true_count": sum(k == k_true for k in good),
            "over_count": sum(k > k_true for k in good),
            "under_count": sum(k < k_true for k in good),
            "failed_count": len(ks) - len(good),
            "ave_k": round(sum(good) / len(good), 2) if good else None,
        }
        for field, value in got.items():
            if e[field] != value:
                problems.append(f"{where} {m}.{field}: replayed {value!r} != reported {e[field]!r}")
    return problems


def _plan(cell: dict) -> CellPlan:
    return CellPlan(
        case_id=cell["case"],
        family=cell["family"],
        p=cell["p"],
        n=cell["n"],
        k_true=cell["k_true"],
        cell_seed=cell["cell_seed"],
        replications=cell["replications"],
        methods=tuple(cell["methods"]),
        r_max=cell["r_max"],
        ed_threshold=cell["ed_threshold"],
        on_r_min=cell["on_r_min"],
        fresh_loadings=cell["fresh_loadings"],
    )


def trace_cell(tr: Tracer, cell: dict) -> list[str]:
    """Time run_cell on a reported cell, replay it, and time the serial and
    parallel runs of the parallel-efficiency probe."""
    plan = _plan(cell)
    with tr.span("harness.run_cell", role="workload", workers=1, reps=plan.replications):
        result = run_cell(plan)
    problems = []
    for m, t in result.tallies.items():
        for field in ("true_count", "over_count", "under_count", "failed_count"):
            if getattr(t, field) != cell["methods"][m][field]:
                problems.append(f"run_cell {m}.{field} differs from run_experiment")
    ks_per_rep = []
    for r in range(plan.replications):
        with tr.span("harness.replication", rep=r):
            g = SeededRng(plan.cell_seed, r).generator()
            X = wl.draw_panel(plan.case_id, plan.family, plan.p, plan.n, g, tr.span)
            ks_per_rep.append(replay_methods(tr, X, plan.r_max, plan.methods)[0])
    problems += _tally_problems(f"cell {plan.case_id}/{plan.family}", cell["methods"], ks_per_rep, plan.k_true)
    probe = replace(plan, replications=max(plan.replications, 2 * PARALLEL_WORKERS))
    for role, workers in (("serial", 1), ("parallel", PARALLEL_WORKERS)):
        with tr.span("harness.run_cell", role=role, workers=workers, reps=probe.replications):
            run_cell(probe, workers)
    return problems


def trace_estimate(tr: Tracer, csv, out_dir) -> tuple[list[str], dict | None]:
    """One estimate call as the CLI runs it, then replayed stage by stage.
    Returns the problems found and the CLI's output."""
    main_out, replay_out = out_dir / "trace-main.json", out_dir / "trace-replay.json"
    with tr.span("cli.main"):
        code = wl.cli.main(wl.estimate_argv(csv, main_out))
    if code != 0:
        return [f"actfactors estimate {csv} exited with code {code}"], None
    with tr.span("bench.estimate_replay"):
        with tr.span("panel.ingest_csv", bytes=csv.stat().st_size):
            ds = ingest_csv(csv)
        with tr.span("panel.clean_outliers"):
            ds = clean_outliers(ds)
        with tr.span("cli.estimate_report"):
            report = estimate_report(ds)
        with tr.span("cli.write_json"):
            replay_out.write_text(json.dumps(report, indent=2) + "\n")
    ks, adjusted = replay_methods(tr, ds.data, report["config"]["r_max"], report["config"]["methods"])
    with open(main_out) as fh:
        main = wl.estimate_output(json.load(fh))
    problems = []
    if main != wl.estimate_output(report):
        problems.append(f"{csv.name}: cli.main output differs from the replayed report")
    for m, entry in report["methods"].items():
        k = ks[m]
        if ("k" in entry and entry["k"] != k) or ("error" in entry and not entry["error"].startswith(f"{k}:")):
            problems.append(f"{csv.name} {m}: replayed {k!r} != reported {entry}")
    if not isinstance(adjusted, str) and report.get("adjusted_eigenvalues") != adjusted.adjusted.tolist():
        problems.append(f"{csv.name}: replayed adjusted eigenvalues differ")
    return problems, main


def _median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("no spans to summarize")
    return float(statistics.median(values))


def _by_op(spans: list[dict]) -> dict:
    out: dict = {}
    for s in spans:
        out.setdefault(s["op"], []).append(s)
    return out


def stage_metrics(tr: Tracer, path: str) -> dict:
    """models, spectral, act and baselines metrics of one path, as medians
    per call (times) or per replication / estimate call (counts)."""
    covs = tr.select("spectral.sample_covariance", path)
    eigs = tr.select("spectral.eigenvalues_desc", path)
    acts = tr.select("act.adjust_eigenvalues", path)
    bases = tr.select("baselines.estimators", path)
    units = len(covs)
    return {
        "models.build_case_ms": _median(map(_ms, tr.select("models.build_case", path))),
        "models.sample_data_ms": _median(map(_ms, tr.select("models.sample_data", path))),
        "spectral.sample_covariance_ms": _median(map(_ms, covs)),
        "spectral.to_correlation_ms": _median(map(_ms, tr.select("spectral.to_correlation", path))),
        "spectral.eigenvalues_desc_ms": _median(map(_ms, eigs)),
        "spectral.eig_calls_per_rep": len(eigs) / units,
        "spectral.eig_dim": _median(s["dim"] for s in eigs),
        # symmetric eigenvalues-only solve: tridiagonal reduction, 4/3 d^3
        "spectral.eig_flops_computed": sum(4.0 / 3.0 * s["dim"] ** 3 for s in eigs) / units,
        # covariance Gram as a general product: 2 n p^2
        "spectral.gram_flops_computed": _median(2.0 * s["n"] * s["p"] ** 2 for s in covs),
        "act.adjust_eigenvalues_ms": _median(map(_ms, acts)),
        # one resolvent term per trailing eigenvalue plus the synthetic node
        "act.resolvent_terms": _median(
            sum(s["p"] - j + 1 for j in range(1, s["r_max"] + 1)) for s in acts
        ),
        "baselines.estimators_ms": _median(map(_ms, bases)),
        "baselines.failed_share": sum(s["failed"] for s in bases) / max(1, sum(s["calls"] for s in bases)),
    }


def harness_metrics(tr: Tracer) -> tuple[dict, float]:
    """harness metrics and the Monte Carlo trace overhead, as medians over cells."""
    per_rep, overhead, efficiency, trace_pct = [], [], [], []
    children: dict = {}
    for s in tr.spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    for spans in _by_op(tr.select("harness.run_cell", "mc")).values():
        role = {s["role"]: s for s in spans}
        work, serial, parallel = role["workload"], role["serial"], role["parallel"]
        reps = [s for s in tr.select("harness.replication", "mc") if s["op"] == work["op"]]
        stage_ms = sum(_ms(c) for r in reps for c in children.get(r["id"], []))
        n_reps = work["reps"]
        per_rep.append(_ms(work) / n_reps)
        overhead.append((_ms(work) - stage_ms) / n_reps)
        efficiency.append(_ms(serial) / (PARALLEL_WORKERS * _ms(parallel)))
        serial_per_rep = _ms(serial) / serial["reps"]
        replay_per_rep = sum(map(_ms, reps)) / n_reps
        trace_pct.append(100.0 * (replay_per_rep - serial_per_rep) / serial_per_rep)
    metrics = {
        "harness.run_cell_ms_per_rep": _median(per_rep),
        "harness.overhead_ms_per_rep": _median(overhead),
        "harness.parallel_efficiency": _median(efficiency),
    }
    return metrics, _median(trace_pct)


def estimate_metrics(tr: Tracer) -> tuple[dict, float]:
    """panel and cli metrics and the estimate trace overhead, medians over calls."""
    cli_overhead, trace_pct = [], []
    for spans in _by_op([s for s in tr.spans if s["path"] == "estimate" and s["op"] is not None]).values():
        named = {s["name"]: s for s in spans}
        main = _ms(named["cli.main"])
        inner = sum(_ms(named[k]) for k in ("panel.ingest_csv", "panel.clean_outliers", "cli.estimate_report"))
        cli_overhead.append(main - inner)
        trace_pct.append(100.0 * (_ms(named["bench.estimate_replay"]) - main) / main)
    ingests = tr.select("panel.ingest_csv", "estimate")
    metrics = {
        "panel.ingest_csv_ms": _median(map(_ms, ingests)),
        "panel.ingest_mb_per_s": _median(s["bytes"] / 1e6 / (_ms(s) / 1e3) for s in ingests),
        "panel.clean_outliers_ms": _median(map(_ms, tr.select("panel.clean_outliers", "estimate"))),
        "cli.estimate_report_ms": _median(map(_ms, tr.select("cli.estimate_report", "estimate"))),
        "cli.overhead_ms": _median(cli_overhead),
    }
    return metrics, _median(trace_pct)


def traced_run(w, seed: int, seconds: float, expected: list | None) -> dict:
    """Run traced sweeps for at least ``seconds``; return the per-layer
    metrics, operation counts, problems found and the spans."""
    tr = Tracer()
    out_dir = wl.run_dir(w, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    if w.kind == "estimate":
        tr.path = "estimate"
        wl.make_inputs(w, seed, tr.span)
    _, first = wl.run_op(w, seed, 0, tag="warmup")
    if w.kind == "estimate":
        mc_w, est_w = replace(w, kind="mc", cases=w.cases[:1], reps=2), w
        panels = [wl.csv_path(w, seed, i) for i in range(len(w.ops))]
    else:
        mc_w, est_w = w, replace(w, kind="estimate", reps=0)
        g = SeededRng(first["cell_seed"], 0).generator()
        panels = [out_dir / "side-panel.csv"]
        wl.write_panel(panels[0], wl.draw_panel(first["case"], first["family"], w.p, w.n, g).values)

    attempted, failed, problems, sweep = 0, 0, [], 0
    start = time.perf_counter()
    while sweep == 0 or time.perf_counter() - start < seconds:
        for i in range(len(mc_w.ops)):
            tr.op, tr.path = f"mc/{sweep}/{i}", "mc"
            with tr.span("harness.run_experiment"):
                _, cell = wl.run_op(mc_w, seed, i)
            found = check_output(mc_w, cell, expected[i] if expected and mc_w is w else None)
            found += trace_cell(tr, cell)
            attempted, failed = attempted + 1, failed + bool(found)
            problems += found
        for j, csv in enumerate(panels):
            tr.op, tr.path = f"estimate/{sweep}/{j}", "estimate"
            found, main = trace_estimate(tr, csv, out_dir)
            if main is not None:
                found += check_output(est_w, main, expected[j] if expected and est_w is w else None)
            attempted, failed = attempted + 1, failed + bool(found)
            problems += found
        sweep += 1

    harness, mc_trace_pct = harness_metrics(tr)
    estimate, est_trace_pct = estimate_metrics(tr)
    own = "estimate" if w.kind == "estimate" else "mc"
    metrics = {
        **stage_metrics(tr, own),
        **harness,
        **estimate,
        "trace_overhead_pct": est_trace_pct if own == "estimate" else mc_trace_pct,
    }
    return {
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in UNITS.items()},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": {"sweeps": sweep, "spans": len(tr.spans)},
        "spans": tr.spans,
    }
