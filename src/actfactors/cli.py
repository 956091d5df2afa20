"""Command-line surface: estimate factor counts from a CSV, run the
simulation harness, tabulate population counts, and run the empirical
factor analysis.

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from .act import act_estimate, act_threshold
from .analysis import ols_r2, projection_distance, variance_explained
from .errors import ActFactorsError, ConfigError, DataError, check_range
from .harness import (
    METHODS,
    ExperimentConfig,
    canonical_methods,
    check_method_options,
    count_factors,
    render_table1_text,
    render_text_table,
    run_experiment,
    run_table1,
)
from .panel import PanelDataset, clean_outliers, ingest_csv
from .spectral import pc_scores, square_spectra

__all__ = ["main", "estimate_report", "analyze_report"]

REPORT_SCHEMA = "actfactors/estimate-report/v2"
DEFAULT_METHODS = ("ACT", "ER", "GR", "ON", "PC3", "IC3", "KAISER")


def estimate_report(
    ds: PanelDataset,
    methods=DEFAULT_METHODS,
    r_max: int | None = None,
    ed_threshold: float | None = None,
    on_r_min: int = 0,
    basis: str | None = None,
) -> dict:
    """Per-method factor counts for one panel, with the spectra and, when ACT
    counted, the adjusted eigenvalues behind its count. Options out of range
    for a requested method raise ConfigError before any estimate; method
    errors on the data are recorded per method and do not abort the run."""
    X = ds.data
    n, p = X.n, X.p
    methods = canonical_methods(methods)
    if basis not in (None, "cov", "corr"):
        raise ConfigError(f"basis must be 'cov' or 'corr', got {basis!r}")
    # not spectra(): square_spectra keeps the correlation (and adjusted)
    # eigenvalues earlier reports published, bit for bit. It runs first, so a
    # panel it refuses is a data error before any option
    cov_spec, corr_spec = square_spectra(X)
    r_max, on_r_min, ed_threshold = check_method_options(methods, p, n, r_max, ed_threshold, on_r_min)
    by_basis = {"cov": cov_spec, "corr": corr_spec}
    counts, evidence = count_factors(methods, by_basis, r_max, ed_threshold, on_r_min, basis)
    results = {m: {"error": k} if isinstance(k, str) else {"k": k} for m, k in counts.items()}
    # the values ACT's count was selected on, present only when ACT counted
    adj = evidence.get("ACT")
    adjusted = {} if adj is None else {"adjusted_eigenvalues": adj.adjusted.tolist(), "jittered_ties": adj.jittered}
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
            "basis": basis or f"per-method default ({', '.join(f'{m}: {METHODS[m][0]}' for m in methods)})",
        },
        "threshold": act_threshold(p, n),
        "eigenvalues": {
            "covariance_top": cov_spec.eigenvalues[:r_max].tolist(),
            "correlation_top": corr_spec.eigenvalues[:r_max].tolist(),
        },
        **adjusted,
        "methods": results,
        "cleaning_log": [dict(entry) for entry in ds.cleaning_log],
    }


def analyze_report(ds: PanelDataset, factors: PanelDataset, k: int | None = None) -> dict:
    """Factor-space analysis: share of variance explained, R-squared of each
    observed factor on the top-k correlation PC scores, and the projector
    distance between the observed-factor span and the PC-score span."""
    X = ds.data
    n, p = X.n, X.p
    if k is not None:
        k = check_range("k", k, 1, min(n - 1, p), "min(n-1, p)")
    if factors.data.n != n:
        raise DataError(f"panel has {n} observations but factor series have {factors.data.n}")
    # spectra's correlation spectrum, estimate's bit for bit at p <= n
    corr_spec, scores = pc_scores(X)
    act_k = act_estimate(corr_spec)
    use_k = k if k is not None else act_k
    if use_k < 1:
        raise DataError(f"selected factor count k={use_k} is not positive")
    scores = scores[:, :use_k]
    fmat = factors.data.values
    r2 = {name: ols_r2(fmat[:, j], scores) for j, name in enumerate(factors.names)}
    op, frob = projection_distance(fmat, scores)
    return {
        "schema": "actfactors/analysis-report/v1",
        "n": n,
        "p": p,
        "act_k": act_k,
        "k": use_k,
        "threshold": act_threshold(p, n),
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


def _build_parser() -> argparse.ArgumentParser:
    # an option that feeds a library parameter takes that parameter's name as
    # its dest and declares no default: left out, it is absent from the
    # namespace, and _forward lets the library's own default apply
    unset = argparse.SUPPRESS
    methods = argparse.ArgumentParser(add_help=False, argument_default=unset)
    methods.add_argument("--methods", nargs="+", metavar="M",
                         help=f"methods to run (default: estimate {' '.join(DEFAULT_METHODS)}, simulate "
                              f"{' '.join(ExperimentConfig.methods)}; choices: {', '.join(METHODS)})")
    methods.add_argument("--r-max", type=int, help="search bound (default: act.default_r_max(p, n))")
    methods.add_argument("--ed-threshold", type=float, help="gap threshold for ED (required when ED is requested)")
    methods.add_argument("--on-r-min", type=int, help="lower search bound for ON")
    panel = argparse.ArgumentParser(add_help=False)
    panel.add_argument("csv")
    panel.add_argument("--clean", action="store_true", help="apply outlier cleaning first")
    panel.add_argument("--drop-missing", action="store_true", default=unset,
                       help="drop series containing missing observations")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write JSON here instead of stdout")

    ap = argparse.ArgumentParser(prog="actfactors",
                                 description="Factor-count estimation and Monte Carlo harness")
    sub = ap.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", parents=[panel, methods, out], argument_default=unset,
                         help="estimate the number of factors in a CSV panel")
    est.add_argument("--basis", choices=["cov", "corr"],
                     help="force every method onto one spectrum (default: per-method convention)")
    est.add_argument("--clean-policy", dest="policy", choices=["median", "drop"])
    est.set_defaults(run=_cmd_estimate)

    sim = sub.add_parser("simulate", parents=[methods, out], argument_default=unset,
                         help="run the replication harness on synthetic panels")
    sim.add_argument("--case", dest="cases", type=int, choices=[1, 2, 3, 4], required=True, nargs="+")
    sim.add_argument("--p", dest="p_values", type=int, nargs="+", required=True)
    sim.add_argument("--n", dest="n_values", type=int, nargs="+", required=True)
    sim.add_argument("--k", dest="k_true", type=int, help="true number of factors")
    sim.add_argument("--reps", dest="replications", type=int)
    sim.add_argument("--seed", dest="master_seed", type=int)
    sim.add_argument("--family", choices=["gaussian", "uniform", "both"], default="gaussian")
    sim.add_argument("--fixed-loadings", dest="fresh_loadings", action="store_false",
                     help="draw loadings once per cell instead of per replication")
    sim.add_argument("--workers", type=int)
    sim.add_argument("--text-table", action="store_true", default=False, help="print the aligned text table")
    sim.set_defaults(run=_cmd_simulate)

    t1 = sub.add_parser("table1", parents=[out], argument_default=unset,
                        help="population above-one eigenvalue counts per scenario")
    t1.add_argument("--seeds", type=int)
    t1.add_argument("--seed", dest="master_seed", type=int, help="master seed")
    t1.add_argument("--text-table", action="store_true", default=False)
    t1.set_defaults(run=_cmd_table1)

    an = sub.add_parser("analyze", parents=[panel, out], argument_default=unset,
                        help="variance explained, factor regressions, subspace distance")
    an.add_argument("--factors", required=True, help="CSV of observed factor series")
    an.add_argument("--k", type=int, help="number of PC factors (default: the adjusted-threshold estimate)")
    an.set_defaults(run=_cmd_analyze)
    return ap


def _forward(fn, args, *positional, **fixed):
    """fn(*positional, **fixed), plus each option set on the command line whose
    dest names one of fn's other parameters."""
    names = list(inspect.signature(fn).parameters)[len(positional):]
    return fn(*positional, **{k: v for k, v in vars(args).items() if k in names}, **fixed)


def _panel(args, path) -> PanelDataset:
    ds = _forward(ingest_csv, args, path)
    return _forward(clean_outliers, args, ds) if args.clean else ds


def _cmd_estimate(args) -> None:
    report = _forward(estimate_report, args, _panel(args, args.csv))
    _emit(json.dumps(report, indent=2), args.out)


def _cmd_simulate(args) -> None:
    families = ("gaussian", "uniform") if args.family == "both" else (args.family,)
    report = _forward(run_experiment, args, _forward(ExperimentConfig, args, families=families))
    text = render_text_table(report) if args.text_table else None
    _emit(report.to_json(), args.out, stdout_text=text)


def _cmd_table1(args) -> None:
    table = _forward(run_table1, args)
    text = render_table1_text(table) if args.text_table else None
    _emit(json.dumps(table, indent=2), args.out, stdout_text=text)


def _cmd_analyze(args) -> None:
    report = _forward(analyze_report, args, _panel(args, args.csv), _panel(args, args.factors))
    _emit(json.dumps(report, indent=2), args.out)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        args.run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ActFactorsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
