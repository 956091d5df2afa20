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

import contextlib
import itertools
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .act import act_select, adjust_eigenvalues, default_r_max
from .baselines import (
    BaiNgVariant, bai_ng_estimate, check_gap_threshold, ed_estimate, er_estimate, gr_estimate, on_estimate,
)
from .errors import ActFactorsError, ConfigError
from .models import SeededRng, build_case, sample_data, population_correlation, table1_scenario
from .spectral import Spectrum, kaiser_population_count, naive_kaiser_estimate, spectra

__all__ = [
    "METHODS",
    "canonical_methods",
    "check_method_options",
    "count_factors",
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
#: (spectrum, r_max, ed_threshold, on_r_min), reads p and n from the
#: spectrum, and returns (count, evidence): ACT's evidence is the
#: AdjustedSpectrum its count was selected on, every other method's is None.
#: ON2 is an alias for ON: the gap-ratio argmax with the shared r_min and
#: r_max; the alias exists for table layouts and is noted in report metadata.
METHODS = {
    "ACT": ("corr", lambda s, r_max, ed, r_min: (act_select(a := adjust_eigenvalues(s, s.n, r_max)), a)),
    "ER": ("cov", lambda s, r_max, ed, r_min: (er_estimate(s, r_max), None)),
    "GR": ("cov", lambda s, r_max, ed, r_min: (gr_estimate(s, r_max), None)),
    "ED": ("cov", lambda s, r_max, ed, r_min: (ed_estimate(s, ed, r_max), None)),
    "ON": ("cov", lambda s, r_max, ed, r_min: (on_estimate(s, r_min, r_max), None)),
    "ON2": ("cov", lambda s, r_max, ed, r_min: (on_estimate(s, r_min, r_max), None)),
    "KAISER": ("corr", lambda s, r_max, ed, r_min: (naive_kaiser_estimate(s), None)),
    **{
        name: (
            "cov",
            lambda s, r_max, ed, r_min, v=BaiNgVariant.parse(name): (bai_ng_estimate(s, s.n, s.p, v, r_max), None),
        )
        for name in ("IC1", "IC2", "IC3", "PC1", "PC2", "PC3")
    },
}


def canonical_methods(methods) -> tuple[str, ...]:
    """Upper-cased, stripped method names, each known and listed once."""
    out = []
    for m in methods:
        name = str(m).strip().upper()
        if name not in METHODS:
            raise ConfigError(f"unknown method {m!r}; valid: {', '.join(METHODS)}")
        if name in out:
            raise ConfigError(f"method {name} is listed more than once")
        out.append(name)
    if not out:
        raise ConfigError("method list must not be empty")
    return tuple(out)


def check_method_options(
    methods: tuple[str, ...], p: int, n: int, r_max: int | None, ed_threshold: float | None, on_r_min: int
) -> int:
    """Return r_max, default_r_max(p, n) when None, after raising ConfigError
    if an option is out of range for a method at (p, n), or breaks its
    run-wide rule whatever the methods. The methods run on an all-zero
    spectrum, where each estimator checks its options before it reads a
    value and computes nothing, so the bounds checked are its own."""
    r_max = default_r_max(p, n) if r_max is None else r_max
    probe = Spectrum(np.zeros(p), n=n)
    count_factors(methods, {"cov": probe, "corr": probe}, r_max, ed_threshold, on_r_min)
    # every option a report records meets its rule, whether or not a method
    # reads it; p - 1 is the widest r_max any estimator admits
    if not 1 <= r_max <= p - 1:
        raise ConfigError(f"r_max must satisfy 1 <= r_max <= p-1={p - 1}, got {r_max}")
    if not 0 <= on_r_min < r_max:
        raise ConfigError(f"on_r_min must satisfy 0 <= on_r_min < r_max={r_max}, got {on_r_min}")
    check_gap_threshold(ed_threshold)
    return r_max


def count_factors(
    methods, by_basis: dict, r_max: int, ed_threshold: float | None, on_r_min: int, basis: str | None = None
) -> tuple[dict, dict]:
    """(counts, evidence). counts: per method, its count on by_basis["cov"] or by_basis["corr"]
    (its own basis, or ``basis`` for every method), or "Type: message" if its estimator raised
    any error but a ConfigError, which is raised with the method and the spectrum's p and n.
    evidence: per method that counted, the evidence returned with its count, if not None."""
    counts, evidence = {}, {}
    for m in methods:
        default_basis, estimate = METHODS[m]
        spec = by_basis[basis or default_basis]
        try:
            counts[m], evidence[m] = estimate(spec, r_max, ed_threshold, on_r_min)
        except ConfigError as exc:
            raise ConfigError(f"method {m} at p={spec.p}, n={spec.n}: {exc}") from None
        except ActFactorsError as exc:
            counts[m] = f"{type(exc).__name__}: {exc}"
    return counts, {m: detail for m, detail in evidence.items() if detail is not None}


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
        object.__setattr__(self, "methods", canonical_methods(self.methods))
        if self.replications < 1:
            raise ConfigError("need at least one replication")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if not self.cases or not self.p_values or not self.n_values or not self.families:
            raise ConfigError("cases, p_values, n_values and families must be non-empty")
        for p, n in itertools.product(self.p_values, self.n_values):
            if n < 3:
                raise ConfigError(f"need n >= 3, got {n}")
            if p < self.k_true + 2:
                raise ConfigError(f"need p >= K+2, got p={p}, K={self.k_true}")
        # the plans run_experiment runs check the options and the master seed
        _plans(self)
        # build_case refuses an unknown case id or family, and K < 1
        for case_id, family, p in itertools.product(self.cases, self.families, self.p_values):
            build_case(case_id, p, self.k_true, np.random.default_rng(0), family)


@dataclass(frozen=True)
class CellPlan:
    """One simulation cell, fully self-describing so workers can run it."""

    # declared in the report's key order: aggregate writes a cell as
    # asdict(plan), with case_id as "case" and methods as per-method entries
    case_id: int
    family: str
    p: int
    n: int
    k_true: int
    replications: int
    r_max: int
    ed_threshold: float | None
    on_r_min: int
    fresh_loadings: bool
    cell_seed: int
    methods: tuple[str, ...]


@dataclass
class MethodTally:
    """One method's report entry, fields in the report's key order: counts;
    percentages of the successful replications, stored exact (the text table
    rounds them to 0.1); the average count rounded to 0.01; shares None when
    every replication failed; and each distinct failure message once, sorted."""

    true_count: int = 0
    over_count: int = 0
    under_count: int = 0
    failed_count: int = 0
    true_pct: float | None = None
    over_pct: float | None = None
    under_pct: float | None = None
    ave_k: float | None = None
    failures: list = field(default_factory=list)

    @classmethod
    def of(cls, outcomes: list, k_true: int) -> MethodTally:
        """Tally one method's outcomes: counts, or "Type: message" failures."""
        ks = [o for o in outcomes if not isinstance(o, str)]
        failures = sorted({o for o in outcomes if isinstance(o, str)})
        if not ks:
            return cls(failed_count=len(outcomes), failures=failures)
        true, over, under = sum(k == k_true for k in ks), sum(k > k_true for k in ks), sum(k < k_true for k in ks)
        succ = len(ks)
        return cls(
            true_count=true, over_count=over, under_count=under, failed_count=len(outcomes) - succ,
            true_pct=100.0 * true / succ, over_pct=100.0 * over / succ, under_pct=100.0 * under / succ,
            ave_k=round(sum(ks) / succ, 2), failures=failures,
        )


@dataclass
class CellResult:
    plan: CellPlan
    tallies: dict  # method -> MethodTally


def _run_replications(plan: CellPlan, start: int, stop: int) -> dict:
    """Per method, each replication's count in order, or "Type: message" if the estimator raised."""
    outcomes = {m: [] for m in plan.methods}
    fixed_spec = None
    if not plan.fresh_loadings:
        # loadings drawn once per cell from the reserved stream one past the last rep
        g = SeededRng(plan.cell_seed, plan.replications).generator()
        fixed_spec = build_case(plan.case_id, plan.p, plan.k_true, g, plan.family)
    # every replication draws into this one buffer
    panel = np.empty((plan.n, plan.p))
    for r in range(start, stop):
        g = SeededRng(plan.cell_seed, r).generator()
        spec = fixed_spec or build_case(plan.case_id, plan.p, plan.k_true, g, plan.family)
        cov_spec, corr_spec = spectra(sample_data(spec, plan.n, g, out=panel))
        by_basis = {"cov": cov_spec, "corr": corr_spec}
        counts, _ = count_factors(plan.methods, by_basis, plan.r_max, plan.ed_threshold, plan.on_r_min)
        for m, k in counts.items():
            outcomes[m].append(k)
    return outcomes


@contextlib.contextmanager
def _one_blas_thread_children():
    """Set the BLAS thread-count variables to 1 for the block, then restore
    each one, removing those that were absent. Spawned children read them
    when they load numpy; this process's BLAS, already loaded, is unaffected."""
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    saved = {name: os.environ.get(name) for name in names}
    os.environ.update(dict.fromkeys(saved, "1"))
    try:
        yield
    finally:
        for name in saved:
            del os.environ[name]
        os.environ.update({name: value for name, value in saved.items() if value is not None})


def _run_cells(plans: list[CellPlan], workers: int) -> list[CellResult]:
    """Run each cell in at most ``workers`` chunks of at least two replications, in this process
    (one worker or one chunk) or in one pool of spawned processes for all cells, and tally each
    cell from its chunks in replication order. Spawned children import the caller's ``__main__``,
    so a script that runs with workers > 1 needs an ``if __name__ == "__main__":`` guard."""
    tasks = []
    for cell, plan in enumerate(plans):
        n_chunks = max(1, min(workers, plan.replications // 2))
        bounds = np.linspace(0, plan.replications, n_chunks + 1, dtype=int)
        tasks += [(cell, plan, int(start), int(stop)) for start, stop in itertools.pairwise(bounds)]
    cells, *args = zip(*tasks)
    if workers == 1 or len(tasks) == 1:
        parts = list(map(_run_replications, *args))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        with _one_blas_thread_children():
            with ProcessPoolExecutor(min(workers, len(tasks)), mp_context=spawn) as pool:
                parts = list(pool.map(_run_replications, *args))
    joined = [{m: [] for m in plan.methods} for plan in plans]
    for cell, part in zip(cells, parts):
        for m, outcomes in part.items():
            joined[cell][m] += outcomes
    return [
        CellResult(plan, {m: MethodTally.of(outcomes, plan.k_true) for m, outcomes in by_method.items()})
        for plan, by_method in zip(plans, joined)
    ]


def run_cell(plan: CellPlan, workers: int = 1) -> CellResult:
    """Run all replications of one cell, optionally across processes."""
    return _run_cells([plan], workers)[0]


def _plans(config: ExperimentConfig) -> list[CellPlan]:
    grid = itertools.product(config.cases, config.families, config.p_values, config.n_values)
    return [
        CellPlan(
            case_id=case_id,
            family=family,
            p=p,
            n=n,
            k_true=config.k_true,
            replications=config.replications,
            r_max=check_method_options(config.methods, p, n, config.r_max, config.ed_threshold, config.on_r_min),
            ed_threshold=config.ed_threshold,
            on_r_min=config.on_r_min,
            fresh_loadings=config.fresh_loadings,
            cell_seed=SeededRng(config.master_seed, index).derived_seed(),
            methods=config.methods,
        )
        for index, (case_id, family, p, n) in enumerate(grid)
    ]


@dataclass
class ReplicationReport:
    """Aggregated per-cell, per-method outcome shares plus a seed manifest."""

    config: dict
    cells: list

    def to_json(self) -> str:
        return json.dumps({"schema": REPORT_SCHEMA, "config": self.config, "cells": self.cells}, indent=2)


def aggregate(results: list[CellResult], config: ExperimentConfig) -> ReplicationReport:
    """Write each cell as asdict(plan), with case_id as "case" and each
    method as asdict(tally), its failures left out when there are none."""
    cells = []
    for res in results:
        cell = asdict(res.plan)
        methods = {
            m: {key: value for key, value in asdict(res.tallies[m]).items() if key != "failures" or value}
            for m in cell.pop("methods")
        }
        cells.append({"case": cell.pop("case_id"), **cell, "methods": methods})
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
    return aggregate(_run_cells(_plans(config), config.workers), config)


#: text-table rows: (label, per-method report field, format of a present value)
_TABLE_ROWS = (
    ("TRUE", "true_pct", ".1f"),
    ("OVER", "over_pct", ".1f"),
    ("UNDER", "under_pct", ".1f"),
    ("AVE", "ave_k", ".2f"),
)


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
            for label, key, fmt in _TABLE_ROWS:
                values = [cell["methods"][m][key] for m in methods]
                cols = "".join(f"{'--':>9}" if v is None else f"{v:>9{fmt}}" for v in values)
                head = cell["p"] if label == "TRUE" else ""
                lines.append(f"{head:>6} {label:<6}{cols}")
        lines.append("")
    return "\n".join(lines)


#: the paper's population-count grid: K, p and sigma^2, for scenarios 1 and 2
_TABLE1_GRID = ((5, 10), (50, 100), (1.0, 2.0, 3.0))


def run_table1(seeds: int = 20, master_seed: int = 0) -> dict:
    """Population above-one eigenvalue counts over the scenario grid,
    repeated across seeds."""
    if seeds < 1:
        raise ConfigError("need at least one seed")
    cells = []
    grid = itertools.product((1, 2), *_TABLE1_GRID)
    for index, (scenario, K, p, sigma2) in enumerate(grid):
        cell_seed = SeededRng(master_seed, index).derived_seed()
        specs = (table1_scenario(scenario, K, p, sigma2, SeededRng(cell_seed, s).generator()) for s in range(seeds))
        counts = [kaiser_population_count(population_correlation(spec)) for spec in specs]
        cells.append({"scenario": scenario, "K": K, "p": p, "sigma2": sigma2, "counts": counts})
    return {
        "schema": "actfactors/population-count-table/v1",
        "seeds": seeds,
        "master_seed": master_seed,
        "cells": cells,
    }


def render_table1_text(table: dict) -> str:
    """Counts of above-one population eigenvalues, scenario 1 vs scenario 2."""
    counts = {(c["scenario"], c["K"], c["p"], c["sigma2"]): c["counts"] for c in table["cells"]}
    ks, ps, sigmas = _TABLE1_GRID
    columns = list(itertools.product((1, 2), sigmas))
    lines = [
        f"Above-one population eigenvalue counts ({table['seeds']} seeds per cell)",
        f"{'K':>4} {'p':>5}" + "".join(f"  s{s} v={sig:g}" for s, sig in columns),
    ]
    for K, p in itertools.product(ks, ps):
        cells = ("/".join(map(str, sorted(set(counts[(s, K, p, sig)])))) for s, sig in columns)
        lines.append(f"{K:>4} {p:>5}" + "".join(f"{cell:>9}" for cell in cells))
    return "\n".join(lines)
