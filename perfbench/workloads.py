"""Workload definitions shared by the benchmark runner and the set-up probe.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
imports ``actfactors`` from there; it raises ImportError when the checkout
holds no program to measure.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

if not (SRC / "actfactors" / "__init__.py").is_file():
    raise ImportError(f"no actfactors package under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import actfactors  # noqa: E402
from actfactors import cli  # noqa: E402
from actfactors.harness import ExperimentConfig, run_experiment  # noqa: E402
from actfactors.models import SeededRng, build_case, sample_data  # noqa: E402

if Path(actfactors.__file__).resolve().parent != SRC / "actfactors":
    raise ImportError(f"actfactors was imported from {actfactors.__file__}, not from {SRC}")

K_TRUE = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    kind "mc": one operation is a serial ``run_experiment`` call on one
    (case, family) cell with ``reps`` replications.
    kind "estimate": one operation is an ``actfactors estimate --clean`` call
    on one CSV panel drawn from case ``cases[i]``.
    """

    name: str
    kind: str
    cases: tuple[int, ...] = (1, 2, 3, 4)
    families: tuple[str, ...] = ("gaussian",)
    p: int = 100
    n: int = 300
    reps: int = 0

    @property
    def ops(self) -> list[tuple[int, str]]:
        """(case, family) of each operation, in sweep order."""
        if self.kind == "estimate":
            return [(c, "gaussian") for c in self.cases]
        return [(c, f) for c in self.cases for f in self.families]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc-small-p", "mc", families=("gaussian", "uniform"), p=100, reps=25),
        Workload("mc-large-p", "mc", p=1000, reps=2),
        Workload("estimate-csv", "estimate", p=1000),
    )
}

#: sizes for the smoke mode: every code path, a fraction of a second each
TINY = {"p": 20, "n": 40}


def sized(w: Workload, tiny: bool) -> Workload:
    if not tiny:
        return w
    return replace(w, reps=4 if w.kind == "mc" else 0, **TINY)


def op_seed(seed: int, index: int) -> int:
    """Master seed of operation ``index``, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_dir(w: Workload, seed: int) -> Path:
    return WORK / f"{w.name}-p{w.p}-n{w.n}-seed{seed}"


def csv_path(w: Workload, seed: int, index: int) -> Path:
    return run_dir(w, seed) / f"panel{index}.csv"


def write_panel(path: Path, X: np.ndarray) -> None:
    """Write an n x p panel as CSV with full float precision, so that parsing
    it back gives the drawn values exactly."""
    path.parent.mkdir(parents=True, exist_ok=True)
    header = ",".join(f"s{j + 1:04d}" for j in range(X.shape[1]))
    np.savetxt(path, X, fmt="%.17g", delimiter=",", header=header, comments="")


def no_span(name: str, **attrs):
    return contextlib.nullcontext()


def draw_panel(case: int, family: str, p: int, n: int, rng: np.random.Generator, span=no_span):
    """Draw one panel the way the harness draws a replication: loadings and
    noise first, then the observations, from the same generator."""
    with span("models.build_case"):
        spec = build_case(case, p, K_TRUE, rng, family)
    with span("models.sample_data"):
        return sample_data(spec, n, rng)


def make_inputs(w: Workload, seed: int, span=no_span) -> None:
    """Write the CSV panels of an estimate workload (no-op for "mc")."""
    if w.kind != "estimate":
        return
    for i, (case, family) in enumerate(w.ops):
        g = SeededRng(op_seed(seed, i)).generator()
        X = draw_panel(case, family, w.p, w.n, g, span)
        write_panel(csv_path(w, seed, i), X.values)


def estimate_argv(csv: Path, out: Path) -> list[str]:
    return ["estimate", str(csv), "--clean", "--out", str(out)]


def run_op(w: Workload, seed: int, index: int, tag: str = "run") -> tuple[float, dict]:
    """Run operation ``index`` once; return (wall seconds of the program call,
    its output). Only the call into the program is timed."""
    if w.kind == "mc":
        case, family = w.ops[index]
        config = ExperimentConfig(
            cases=(case,),
            p_values=(w.p,),
            n_values=(w.n,),
            k_true=K_TRUE,
            families=(family,),
            replications=w.reps,
            master_seed=op_seed(seed, index),
        )
        t0 = time.perf_counter()
        report = run_experiment(config)
        elapsed = time.perf_counter() - t0
        return elapsed, report.cells[0]
    out = run_dir(w, seed) / f"{tag}-out{index}.json"
    argv = estimate_argv(csv_path(w, seed, index), out)
    t0 = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"actfactors {' '.join(argv)} exited with code {code}")
    with open(out) as fh:
        return elapsed, estimate_output(json.load(fh))


def estimate_output(report: dict) -> dict:
    """The parts of an estimate report that the output check compares."""
    return {
        "p": report["p"],
        "r_max": report["config"]["r_max"],
        "methods": report["methods"],
        "adjusted_eigenvalues": report.get("adjusted_eigenvalues"),
    }
