"""actfactors: how many common factors drive a high-dimensional panel?

The headline estimator counts the bias-corrected eigenvalues of the sample
correlation matrix that exceed 1 + sqrt(p/(n-1)). The package also ships
the classical covariance-spectrum baselines (ER, GR, ED, ON, PC/IC), the
synthetic factor models used to benchmark them, a deterministic Monte
Carlo harness, and a CSV/CLI front end.
"""

from .act import (
    AdjustedSpectrum,
    act_estimate,
    act_select,
    act_threshold,
    adjust_eigenvalues,
    companion_stieltjes,
    default_r_max,
    partial_stieltjes,
)
from .baselines import (
    BaiNgVariant,
    bai_ng_estimate,
    ed_estimate,
    er_estimate,
    gr_estimate,
    on_estimate,
)
from .errors import (
    ActFactorsError,
    ConfigError,
    DataError,
    DegenerateGap,
    DimensionError,
    NumericalDomain,
    ParseError,
    PoleAtZ,
    ZeroVarianceSeries,
)
from .harness import (
    ExperimentConfig,
    ReplicationReport,
    render_table1_text,
    render_text_table,
    run_experiment,
    run_table1,
)
from .models import (
    FactorModelSpec,
    SeededRng,
    build_case,
    intro_counterexample_spec,
    population_correlation,
    sample_data,
    table1_scenario,
)
from .analysis import ols_r2, projection_distance, variance_explained
from .panel import PanelDataset, clean_outliers, ingest_csv
from .spectral import (
    DataMatrix,
    Spectrum,
    eigenvalues_desc,
    kaiser_population_count,
    naive_kaiser_estimate,
    pc_scores,
    sample_covariance,
    spectra,
    square_spectra,
    to_correlation,
)

__version__ = "0.1.0"
