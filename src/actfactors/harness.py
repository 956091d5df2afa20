"""Monte Carlo replication engine producing TRUE/OVER/UNDER/AVE tables
across methods, cases, dimensions and populations.

Determinism: every replication draws from a generator derived from
(master seed, cell index, replication index), so reports are bit-identical
for a given seed regardless of worker count or scheduling. Covariance and
correlation spectra are computed once per replication and shared by all
methods; covariance feeds ER/GR/ED/ON/PC/IC, correlation feeds the
adjusted-threshold count and the above-one count.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .act import act_estimate, default_r_max
from .baselines import BaiNgVariant, bai_ng_estimate, ed_estimate, er_estimate, gr_estimate, on_estimate
from .errors import ActFactorsError, ConfigError
from .models import SeededRng, build_case, sample_data, population_correlation, table1_scenario
from .spectral import Spectrum, kaiser_population_count, naive_kaiser_estimate, spectra

__all__ = [
    "METHODS",
    "VALID_METHODS",
    "canonical_methods",
    "check_method_options",
    "ExperimentConfig",
    "CellPlan",
    "CellResult",
    "ReplicationReport",
    "run_cell",
    "aggregate",
    "run_experiment",
    "run_table1",
    "render_text_table",
    "render_table1_text",
]

REPORT_SCHEMA = "actfactors/replication-report/v1"

#: method name -> (default spectrum, estimator call). Every call takes
#: (spectrum, n, r_max, ed_threshold, on_r_min) and returns the count.
#: ON2 is an alias for ON: the gap-ratio argmax with the shared r_min and
#: r_max; the alias exists for table layouts and is noted in report metadata.
METHODS = {
    "ACT": ("corr", lambda s, n, r_max, ed, r_min: act_estimate(s, n, r_max)),
    "ER": ("cov", lambda s, n, r_max, ed, r_min: er_estimate(s, r_max)),
    "GR": ("cov", lambda s, n, r_max, ed, r_min: gr_estimate(s, r_max)),
    "ED": ("cov", lambda s, n, r_max, ed, r_min: ed_estimate(s, ed, r_max)),
    "ON": ("cov", lambda s, n, r_max, ed, r_min: on_estimate(s, r_min, r_max)),
    "ON2": ("cov", lambda s, n, r_max, ed, r_min: on_estimate(s, r_min, r_max)),
    "KAISER": ("corr", lambda s, n, r_max, ed, r_min: naive_kaiser_estimate(s)),
    **{
        name: (
            "cov",
            lambda s, n, r_max, ed, r_min, v=BaiNgVariant.parse(name): bai_ng_estimate(s, n, s.p, v, r_max),
        )
        for name in ("IC1", "IC2", "IC3", "PC1", "PC2", "PC3")
    },
}
VALID_METHODS = tuple(METHODS)


def canonical_methods(methods, ed_threshold: float | None) -> tuple[str, ...]:
    """Upper-cased, stripped method names, each known and listed once; ED
    needs an explicit gap threshold."""
    out = []
    for m in methods:
        name = str(m).strip().upper()
        if name not in METHODS:
            raise ConfigError(f"unknown method {m!r}; valid: {', '.join(VALID_METHODS)}")
        if name in out:
            raise ConfigError(f"method {name} is listed more than once")
        out.append(name)
    if not out:
        raise ConfigError("method list must not be empty")
    if "ED" in out and ed_threshold is None:
        raise ConfigError("method ED requires an explicit ed_threshold (--ed-threshold)")
    return tuple(out)


def check_method_options(
    methods: tuple[str, ...], p: int, n: int, r_max: int, ed_threshold: float | None, on_r_min: int
) -> None:
    """Raise ConfigError if an option is out of range for a method at (p, n).

    Each method runs once on a strictly decreasing positive spectrum, on
    which no estimator meets a data error, so the bounds checked are exactly
    the ones the estimators enforce.
    """
    probe = Spectrum(np.linspace(2.0, 1.0, p), p=p, n=n)
    for m in methods:
        try:
            METHODS[m][1](probe, n, r_max, ed_threshold, on_r_min)
        except ConfigError as exc:
            raise ConfigError(f"method {m} at p={p}, n={n}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid of simulation cells plus method and execution settings."""

    cases: tuple[int, ...] = (1,)
    p_values: tuple[int, ...] = (100,)
    n_values: tuple[int, ...] = (300,)
    k_true: int = 5
    families: tuple[str, ...] = ("gaussian",)
    replications: int = 1000
    master_seed: int = 0
    methods: tuple[str, ...] = ("PC3", "IC3", "ON2", "ER", "GR", "ACT")
    r_max: int | None = None
    ed_threshold: float | None = None
    on_r_min: int = 0
    fresh_loadings: bool = True
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "cases", tuple(int(c) for c in self.cases))
        object.__setattr__(self, "p_values", tuple(int(p) for p in self.p_values))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "families", tuple(self.families))
        object.__setattr__(self, "methods", canonical_methods(self.methods, self.ed_threshold))
        if self.replications < 1:
            raise ConfigError("need at least one replication")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not self.cases or not self.p_values or not self.n_values or not self.families:
            raise ConfigError("cases, p_values, n_values and families must be non-empty")
        for c in self.cases:
            if c not in (1, 2, 3, 4):
                raise ConfigError(f"case id must be 1..4, got {c}")
        for fam in self.families:
            if fam not in ("gaussian", "uniform"):
                raise ConfigError(f"family must be 'gaussian' or 'uniform', got {fam!r}")
        for n in self.n_values:
            if n < 3:
                raise ConfigError(f"need n >= 3, got {n}")
        for p in self.p_values:
            if p < self.k_true + 2:
                raise ConfigError(f"need p >= K+2, got p={p}, K={self.k_true}")
            for n in self.n_values:
                r_max = self.r_max or default_r_max(p, n)
                check_method_options(self.methods, p, n, r_max, self.ed_threshold, self.on_r_min)


@dataclass(frozen=True)
class CellPlan:
    """One simulation cell, fully self-describing so workers can run it."""

    case_id: int
    family: str
    p: int
    n: int
    k_true: int
    cell_seed: int
    replications: int
    methods: tuple[str, ...]
    r_max: int
    ed_threshold: float | None
    on_r_min: int
    fresh_loadings: bool


@dataclass
class MethodTally:
    true_count: int = 0
    over_count: int = 0
    under_count: int = 0
    failed_count: int = 0
    khat_sum: int = 0
    failure_messages: list = field(default_factory=list)


@dataclass
class CellResult:
    plan: CellPlan
    tallies: dict  # method -> MethodTally


def _run_replications(plan: CellPlan, rep_indices: range) -> dict:
    tallies = {m: MethodTally() for m in plan.methods}
    estimators = [(tallies[m], *METHODS[m]) for m in plan.methods]
    fixed_spec = None
    if not plan.fresh_loadings:
        # loadings drawn once per cell from the reserved stream one past the last rep
        g = SeededRng(plan.cell_seed, plan.replications).generator()
        fixed_spec = build_case(plan.case_id, plan.p, plan.k_true, g, plan.family)
    for r in rep_indices:
        g = SeededRng(plan.cell_seed, r).generator()
        spec = fixed_spec if fixed_spec is not None else build_case(
            plan.case_id, plan.p, plan.k_true, g, plan.family
        )
        X = sample_data(spec, plan.n, g)
        cov_spec, corr_spec = spectra(X)
        for tally, basis, estimate in estimators:
            m_spec = cov_spec if basis == "cov" else corr_spec
            try:
                khat = estimate(m_spec, plan.n, plan.r_max, plan.ed_threshold, plan.on_r_min)
            except ActFactorsError as exc:
                tally.failed_count += 1
                msg = f"{type(exc).__name__}: {exc}"
                if msg not in tally.failure_messages:
                    tally.failure_messages.append(msg)
                continue
            tally.khat_sum += khat
            if khat == plan.k_true:
                tally.true_count += 1
            elif khat > plan.k_true:
                tally.over_count += 1
            else:
                tally.under_count += 1
    return tallies


def _merge_tallies(parts: list[dict], methods: tuple[str, ...]) -> dict:
    merged = {m: MethodTally() for m in methods}
    for part in parts:
        for m in methods:
            a, b = merged[m], part[m]
            a.true_count += b.true_count
            a.over_count += b.over_count
            a.under_count += b.under_count
            a.failed_count += b.failed_count
            a.khat_sum += b.khat_sum
            for msg in b.failure_messages:
                if msg not in a.failure_messages:
                    a.failure_messages.append(msg)
    return merged


def _worker(args) -> dict:
    plan, start, stop = args
    return _run_replications(plan, range(start, stop))


def run_cell(plan: CellPlan, workers: int = 1) -> CellResult:
    """Run all replications of one cell, optionally across processes.

    Tallies merge associatively and commutatively, and every replication's
    generator depends only on (cell seed, replication index), so the result
    is identical for any worker count.
    """
    R = plan.replications
    if workers <= 1 or R < 2 * workers:
        return CellResult(plan, _run_replications(plan, range(R)))
    bounds = np.linspace(0, R, workers + 1, dtype=int)
    chunks = [(plan, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_worker, chunks))
    return CellResult(plan, _merge_tallies(parts, plan.methods))


def _cell_seed(master_seed: int, cell_index: int) -> int:
    return int(
        np.random.SeedSequence([master_seed, cell_index]).generate_state(1, dtype=np.uint64)[0]
    )


def _plans(config: ExperimentConfig) -> list[CellPlan]:
    plans = []
    index = 0
    for case_id in config.cases:
        for family in config.families:
            for p in config.p_values:
                for n in config.n_values:
                    plans.append(
                        CellPlan(
                            case_id=case_id,
                            family=family,
                            p=p,
                            n=n,
                            k_true=config.k_true,
                            cell_seed=_cell_seed(config.master_seed, index),
                            replications=config.replications,
                            methods=config.methods,
                            r_max=config.r_max or default_r_max(p, n),
                            ed_threshold=config.ed_threshold,
                            on_r_min=config.on_r_min,
                            fresh_loadings=config.fresh_loadings,
                        )
                    )
                    index += 1
    return plans


@dataclass
class ReplicationReport:
    """Aggregated per-cell, per-method outcome shares plus a seed manifest."""

    config: dict
    cells: list
    schema: str = REPORT_SCHEMA

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps({"schema": self.schema, "config": self.config, "cells": self.cells}, indent=indent)


def aggregate(results: list[CellResult], config: ExperimentConfig) -> ReplicationReport:
    """Fold tallies into percentage shares.

    Percentages are over the successful replications and are stored exact
    (they sum to 100 up to float division); text rendering rounds them to
    0.1. The average count is rounded to 0.01. Failures are reported
    separately and never folded into the shares.
    """
    cells = []
    for res in results:
        plan = res.plan
        per_method = {}
        for m in plan.methods:
            t = res.tallies[m]
            succ = plan.replications - t.failed_count
            entry = {
                "true_count": t.true_count,
                "over_count": t.over_count,
                "under_count": t.under_count,
                "failed_count": t.failed_count,
                "true_pct": 100.0 * t.true_count / succ if succ else None,
                "over_pct": 100.0 * t.over_count / succ if succ else None,
                "under_pct": 100.0 * t.under_count / succ if succ else None,
                "ave_k": round(t.khat_sum / succ, 2) if succ else None,
            }
            if t.failure_messages:
                entry["failures"] = sorted(t.failure_messages)
            per_method[m] = entry
        cells.append(
            {
                "case": plan.case_id,
                "family": plan.family,
                "p": plan.p,
                "n": plan.n,
                "k_true": plan.k_true,
                "replications": plan.replications,
                "r_max": plan.r_max,
                "ed_threshold": plan.ed_threshold,
                "on_r_min": plan.on_r_min,
                "fresh_loadings": plan.fresh_loadings,
                "cell_seed": plan.cell_seed,
                "methods": per_method,
            }
        )
    cfg = asdict(config)
    cfg["seed_manifest"] = {
        "master_seed": config.master_seed,
        "rng": "numpy PCG64 via SeedSequence([seed, stream])",
        "cell_seed_rule": "SeedSequence([master_seed, cell_index]).generate_state(1, uint64)",
        "replication_rule": "SeededRng(cell_seed, replication_index)",
        "fixed_loadings_stream": "replications (one past the last index)",
        "notes": "ON2 is an alias of ON with the shared r_min and r_max",
    }
    return ReplicationReport(config=cfg, cells=cells)


def run_experiment(config: ExperimentConfig) -> ReplicationReport:
    results = [run_cell(plan, config.workers) for plan in _plans(config)]
    return aggregate(results, config)


def render_text_table(report: ReplicationReport) -> str:
    """Aligned TRUE/OVER/UNDER/AVE rows per p, one column per method."""
    lines = []
    groups: dict[tuple, list] = {}
    for cell in report.cells:
        groups.setdefault((cell["case"], cell["family"], cell["n"]), []).append(cell)
    for (case, family, n), cells in groups.items():
        first = cells[0]
        lines.append(
            f"Case {case}, {family} population, n={n}, K={first['k_true']}, "
            f"R={first['replications']}"
        )
        methods = list(first["methods"].keys())
        header = f"{'p':>6} {'':6}" + "".join(f"{m:>9}" for m in methods)
        lines.append(header)
        for cell in cells:
            rows = {
                "TRUE": lambda e: e["true_pct"],
                "OVER": lambda e: e["over_pct"],
                "UNDER": lambda e: e["under_pct"],
                "AVE": lambda e: e["ave_k"],
            }
            for label, get in rows.items():
                cols = []
                for m in methods:
                    val = get(cell["methods"][m])
                    if val is None:
                        cols.append(f"{'--':>9}")
                    elif label == "AVE":
                        cols.append(f"{val:>9.2f}")
                    else:
                        cols.append(f"{val:>9.1f}")
                head = f"{cell['p']:>6}" if label == "TRUE" else f"{'':>6}"
                lines.append(f"{head} {label:<6}" + "".join(cols))
        lines.append("")
    return "\n".join(lines)


def run_table1(
    seeds: int = 20,
    master_seed: int = 0,
    k_values: tuple[int, ...] = (5, 10),
    p_values: tuple[int, ...] = (50, 100),
    sigma2_values: tuple[float, ...] = (1.0, 2.0, 3.0),
) -> dict:
    """Population above-one eigenvalue counts over the scenario grid,
    repeated across seeds."""
    if seeds < 1:
        raise ConfigError("need at least one seed")
    cells = []
    index = 0
    for scenario in (1, 2):
        for K in k_values:
            for p in p_values:
                for sigma2 in sigma2_values:
                    counts = []
                    for s in range(seeds):
                        rng = SeededRng(_cell_seed(master_seed, index), s)
                        spec = table1_scenario(scenario, K, p, sigma2, rng)
                        counts.append(kaiser_population_count(population_correlation(spec)))
                    cells.append(
                        {
                            "scenario": scenario,
                            "K": K,
                            "p": p,
                            "sigma2": sigma2,
                            "counts": counts,
                        }
                    )
                    index += 1
    return {
        "schema": "actfactors/population-count-table/v1",
        "seeds": seeds,
        "master_seed": master_seed,
        "cells": cells,
    }


def render_table1_text(table: dict) -> str:
    """Counts of above-one population eigenvalues, scenario 1 vs scenario 2."""
    by_key = {}
    sigmas = sorted({c["sigma2"] for c in table["cells"]})
    for c in table["cells"]:
        by_key[(c["scenario"], c["K"], c["p"], c["sigma2"])] = c["counts"]
    lines = [f"Above-one population eigenvalue counts ({table['seeds']} seeds per cell)"]
    header = f"{'K':>4} {'p':>5}"
    for s in (1, 2):
        for sig in sigmas:
            header += f"  s{s} v={sig:g}"
    lines.append(header)
    ks = sorted({c["K"] for c in table["cells"]})
    ps = sorted({c["p"] for c in table["cells"]})
    for K in ks:
        for p in ps:
            row = f"{K:>4} {p:>5}"
            for s in (1, 2):
                for sig in sigmas:
                    counts = by_key[(s, K, p, sig)]
                    uniq = sorted(set(counts))
                    cellstr = str(uniq[0]) if len(uniq) == 1 else "/".join(map(str, uniq))
                    row += f"{cellstr:>9}"
            lines.append(row)
    return "\n".join(lines)
