"""Peak traced memory of the estimate and PC-score paths, in units of the arrays they must hold.

numpy reports its array buffers to tracemalloc; LAPACK's workspace inside
eigvalsh is not traced, so the bounds count the matrices the package builds.
"""

import tracemalloc

import numpy as np

from actfactors.cli import estimate_report
from actfactors.panel import PanelDataset, ingest_csv
from actfactors.spectral import DataMatrix, pc_scores


def traced_peak(call) -> int:
    """Peak traced bytes of call() above the memory live when it starts."""
    call()  # warm caches and lazy imports outside the measurement
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def test_estimate_report_holds_one_square_matrix_and_its_rescale():
    # p > n, where the earlier composition kept four p x p buffers alive
    n, p = 30, 300
    X = DataMatrix(np.random.default_rng(0).standard_normal((n, p)))
    ds = PanelDataset(tuple(f"s{j}" for j in range(p)), X)
    assert traced_peak(lambda: estimate_report(ds)) <= 2.5 * 8 * p * p


def test_pc_scores_hold_one_square_matrix_and_its_eigenvectors():
    # the earlier body built the covariance, a rescaled copy and the
    # eigenvectors, and centred the panel twice: about 3.2 p x p matrices
    n, p = 30, 300
    X = DataMatrix(np.random.default_rng(2).standard_normal((n, p)))
    assert traced_peak(lambda: pc_scores(X)) <= 2.5 * 8 * p * p


def test_pc_scores_build_no_square_matrix_above_n():
    # p > n: the n x n Gram of the standardised panel gives the spectrum and
    # the scores, so the peak is the centred copy, its loadings and n x n
    # matrices; the p x p correlation and its eigenvectors held 2.3
    n, p = 30, 300
    X = DataMatrix(np.random.default_rng(2).standard_normal((n, p)))
    assert traced_peak(lambda: pc_scores(X)) <= 0.5 * 8 * p * p


def test_ingest_csv_holds_at_most_three_panels(tmp_path):
    # the earlier parser kept every cell as a Python float: about 5 panels
    n, p = 50, 400
    path = tmp_path / "panel.csv"
    values = np.random.default_rng(1).standard_normal((n, p))
    lines = [",".join(f"s{j}" for j in range(p))]
    lines += [",".join(repr(float(v)) for v in row) for row in values]
    path.write_text("\n".join(lines) + "\n")
    assert traced_peak(lambda: ingest_csv(path)) <= 3 * 8 * n * p
