"""Command-line surface: estimate factor counts from a CSV, run the
simulation harness, tabulate population counts, and run the empirical
factor analysis.

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .act import act_estimate, act_threshold, adjust_eigenvalues, default_r_max
from .analysis import ols_r2, pc_scores, projection_distance, variance_explained
from .errors import ActFactorsError, ConfigError, DataError
from .harness import (
    METHODS,
    ExperimentConfig,
    VALID_METHODS,
    canonical_methods,
    check_method_options,
    render_table1_text,
    render_text_table,
    run_experiment,
    run_table1,
)
from .panel import PanelDataset, clean_outliers, ingest_csv
from .spectral import eigenvalues_desc, sample_covariance, spectra, to_correlation

__all__ = ["main", "estimate_report", "analyze_report"]

REPORT_SCHEMA = "actfactors/estimate-report/v1"
DEFAULT_METHODS = ("ACT", "ER", "GR", "ON", "PC3", "IC3", "KAISER")


def estimate_report(
    ds: PanelDataset,
    methods=DEFAULT_METHODS,
    r_max: int | None = None,
    ed_threshold: float | None = None,
    on_r_min: int = 0,
    basis: str | None = None,
) -> dict:
    """Per-method factor counts for one panel, with the spectra and the
    adjusted eigenvalues behind them. Options out of range for a requested
    method raise ConfigError before any estimate; method errors on the data
    are recorded per method and do not abort the run."""
    X = ds.data
    n, p = X.n, X.p
    methods = canonical_methods(methods, ed_threshold)
    if basis not in (None, "cov", "corr"):
        raise ConfigError(f"basis must be 'cov' or 'corr', got {basis!r}")
    r_max = r_max or default_r_max(p, n)
    check_method_options(methods, p, n, r_max, ed_threshold, on_r_min)
    cov_spec, corr_spec = spectra(X)
    by_basis = {"cov": cov_spec, "corr": corr_spec}
    results = {}
    for m in methods:
        default_basis, estimate = METHODS[m]
        try:
            results[m] = {"k": estimate(by_basis[basis or default_basis], n, r_max, ed_threshold, on_r_min)}
        except ActFactorsError as exc:
            results[m] = {"error": f"{type(exc).__name__}: {exc}"}
    adjusted_info = {}
    try:
        adj = adjust_eigenvalues(corr_spec, n, r_max)
        adjusted_info = {
            "adjusted_eigenvalues": adj.adjusted.tolist(),
            "jittered_ties": adj.jittered,
        }
    except ActFactorsError as exc:
        adjusted_info = {"adjusted_error": f"{type(exc).__name__}: {exc}"}
    return {
        "schema": REPORT_SCHEMA,
        "n": n,
        "p": p,
        "series": list(ds.names),
        "config": {
            "methods": list(methods),
            "r_max": r_max,
            "ed_threshold": ed_threshold,
            "on_r_min": on_r_min,
            "basis": basis or "per-method default (covariance for ER/GR/ED/ON/PC/IC, correlation for ACT/KAISER)",
        },
        "threshold": act_threshold(p, n),
        "eigenvalues": {
            "covariance_top": cov_spec.eigenvalues[:r_max].tolist(),
            "correlation_top": corr_spec.eigenvalues[:r_max].tolist(),
        },
        **adjusted_info,
        "methods": results,
        "cleaning_log": [dict(entry) for entry in ds.cleaning_log],
    }


def analyze_report(ds: PanelDataset, factors: PanelDataset, k: int | None = None) -> dict:
    """Factor-space analysis: share of variance explained, R-squared of each
    observed factor on the top-k correlation PC scores, and the projector
    distance between the observed-factor span and the PC-score span."""
    X = ds.data
    n = X.n
    if factors.data.n != n:
        raise DataError(
            f"panel has {n} observations but factor series have {factors.data.n}"
        )
    corr_spec = eigenvalues_desc(to_correlation(sample_covariance(X)), n)
    act_k = act_estimate(corr_spec, n)
    use_k = k if k is not None else act_k
    if use_k < 1:
        raise DataError(f"selected factor count k={use_k} is not positive")
    scores = pc_scores(X, use_k, basis="correlation")
    fmat = factors.data.values
    r2 = {
        name: ols_r2(fmat[:, j], scores) for j, name in enumerate(factors.names)
    }
    op, frob = projection_distance(fmat, scores)
    return {
        "schema": "actfactors/analysis-report/v1",
        "n": n,
        "p": X.p,
        "act_k": act_k,
        "k": use_k,
        "threshold": act_threshold(X.p, n),
        "variance_explained_k": variance_explained(corr_spec, use_k),
        "correlation_top": corr_spec.eigenvalues[: max(use_k + 5, 10)].tolist(),
        "r2_on_pc_factors": r2,
        "projection_distance": {"operator": op, "frobenius": frob},
    }


def _emit(doc: str, out_path: str | None, stdout_text: str | None = None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(doc)
            if not doc.endswith("\n"):
                fh.write("\n")
        if stdout_text is not None:
            print(stdout_text)
    else:
        print(stdout_text if stdout_text is not None else doc)


def _add_common_method_args(sp) -> None:
    sp.add_argument("--methods", nargs="+", default=list(DEFAULT_METHODS), metavar="M",
                    help=f"methods to run (choices: {', '.join(VALID_METHODS)})")
    sp.add_argument("--r-max", type=int, default=None, help="search bound (default min(p/2, (n-1)/2, 50))")
    sp.add_argument("--ed-threshold", type=float, default=None,
                    help="gap threshold for ED (required when ED is requested)")
    sp.add_argument("--on-r-min", type=int, default=0, help="lower search bound for ON")
    sp.add_argument("--out", default=None, help="write JSON here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="actfactors",
                                 description="Factor-count estimation and Monte Carlo harness")
    sub = ap.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate the number of factors in a CSV panel")
    est.add_argument("csv")
    _add_common_method_args(est)
    est.add_argument("--basis", choices=["cov", "corr"], default=None,
                     help="force every method onto one spectrum (default: per-method convention)")
    est.add_argument("--clean", action="store_true", help="apply outlier cleaning first")
    est.add_argument("--clean-policy", choices=["median", "drop"], default="median")
    est.add_argument("--drop-missing", action="store_true",
                     help="drop series containing missing observations")

    sim = sub.add_parser("simulate", help="run the replication harness on synthetic panels")
    sim.add_argument("--case", type=int, choices=[1, 2, 3, 4], required=True, nargs="+")
    sim.add_argument("--p", type=int, nargs="+", required=True)
    sim.add_argument("--n", type=int, nargs="+", required=True)
    sim.add_argument("--k", type=int, default=5, help="true number of factors")
    sim.add_argument("--reps", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--family", choices=["gaussian", "uniform", "both"], default="gaussian")
    sim.add_argument("--fixed-loadings", action="store_true",
                     help="draw loadings once per cell instead of per replication")
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--text-table", action="store_true", help="print the aligned text table")
    _add_common_method_args(sim)

    t1 = sub.add_parser("table1", help="population above-one eigenvalue counts per scenario")
    t1.add_argument("--seeds", type=int, default=20)
    t1.add_argument("--seed", type=int, default=0, help="master seed")
    t1.add_argument("--text-table", action="store_true")
    t1.add_argument("--out", default=None)

    an = sub.add_parser("analyze", help="variance explained, factor regressions, subspace distance")
    an.add_argument("csv")
    an.add_argument("--factors", required=True, help="CSV of observed factor series")
    an.add_argument("--k", type=int, default=None,
                    help="number of PC factors (default: the adjusted-threshold estimate)")
    an.add_argument("--clean", action="store_true")
    an.add_argument("--clean-policy", choices=["median", "drop"], default="median")
    an.add_argument("--drop-missing", action="store_true")
    an.add_argument("--out", default=None)
    return ap


def _cmd_estimate(args) -> None:
    ds = ingest_csv(args.csv, drop_missing=args.drop_missing)
    if args.clean:
        ds = clean_outliers(ds, policy=args.clean_policy)
    report = estimate_report(
        ds,
        methods=args.methods,
        r_max=args.r_max,
        ed_threshold=args.ed_threshold,
        on_r_min=args.on_r_min,
        basis=args.basis,
    )
    _emit(json.dumps(report, indent=2), args.out)


def _cmd_simulate(args) -> None:
    families = ("gaussian", "uniform") if args.family == "both" else (args.family,)
    config = ExperimentConfig(
        cases=tuple(args.case),
        p_values=tuple(args.p),
        n_values=tuple(args.n),
        k_true=args.k,
        families=families,
        replications=args.reps,
        master_seed=args.seed,
        methods=tuple(args.methods),
        r_max=args.r_max,
        ed_threshold=args.ed_threshold,
        on_r_min=args.on_r_min,
        fresh_loadings=not args.fixed_loadings,
        workers=args.workers,
    )
    report = run_experiment(config)
    text = render_text_table(report) if args.text_table else None
    _emit(report.to_json(), args.out, stdout_text=text)


def _cmd_table1(args) -> None:
    table = run_table1(seeds=args.seeds, master_seed=args.seed)
    text = render_table1_text(table) if args.text_table else None
    _emit(json.dumps(table, indent=2), args.out, stdout_text=text)


def _cmd_analyze(args) -> None:
    ds = ingest_csv(args.csv, drop_missing=args.drop_missing)
    factors = ingest_csv(args.factors, drop_missing=args.drop_missing)
    if args.clean:
        ds = clean_outliers(ds, policy=args.clean_policy)
        factors = clean_outliers(factors, policy=args.clean_policy)
    report = analyze_report(ds, factors, k=args.k)
    _emit(json.dumps(report, indent=2), args.out)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handlers = {
        "estimate": _cmd_estimate,
        "simulate": _cmd_simulate,
        "table1": _cmd_table1,
        "analyze": _cmd_analyze,
    }
    try:
        handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ActFactorsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
