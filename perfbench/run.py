"""actfactors benchmark: Monte Carlo throughput, estimate-call latency,
set-up time and memory on three workloads, with a traced run for per-layer
stage times.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke             # every workload, tiny sizes
    python3 perfbench/run.py --write-reference   # record reference.json

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the provenance, sample counts and any problems found. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones (see ``tracing.py``). The full report and the trace spans are
written under ``.perfbench_work/``.

Exit codes: 0 when a result was printed, 2 when the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import checks

try:
    import tracing
    import workloads as wl
except ImportError as exc:  # the checkout holds no program; main() reports it
    wl = tracing = None
    LOAD_ERROR = exc

HERE = Path(__file__).resolve().parent

END_TO_END_UNITS = {
    "reps_per_s": "1/s",
    "op_ms_p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: fresh interpreters started per run to time set-up; setup_s is their median
SETUP_PROBES = 5
#: On the 2-core VM the baseline was measured on, host speed drifted by
#: 15-30% between 10-20 s windows (quartile distance over median of a fixed
#: pure-Python loop), far more than any bound a later change should be held to. So every operation's wall time is also
#: scaled to reference speed: multiplied by REF_LOOP_S over the time the
#: reference loop took just before it. The scaled times give reps_per_s and
#: op_ms_p50; the raw wall-clock figures go to the detail line.
REF_LOOP_ITERATIONS = 200_000
REF_LOOP_S = 0.010


def provenance(w, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    sha = None
    if (wl.ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "actfactors_version": wl.actfactors.__version__,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": asdict(w),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for
    child (pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def setup_seconds(w, seed: int, tiny: bool, probes: int) -> list[float]:
    """Wall time of fresh interpreters that import actfactors and run the
    workload's first operation once."""
    cmd = [sys.executable, str(HERE / "probe.py"), w.name, str(seed)] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=150)
        times.append(time.perf_counter() - t0)
    return times


def ref_loop_s() -> float:
    """Wall time of a fixed pure-Python loop that touches no program code."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REF_LOOP_ITERATIONS):
        total += i
    return time.perf_counter() - t0


def measure(w, seed: int, seconds: float, expected: list | None) -> dict:
    """Closed loop, one caller: sweep every operation in order, repeating
    whole sweeps until ``seconds`` have passed."""
    wl.run_op(w, seed, 0, tag="warmup")
    panels_per_op = w.reps if w.kind == "mc" else 1
    op_s, scaled_s, ref_s, sweep_rates, raw_rates = [], [], [], [], []
    first_out, problems = {}, []
    attempted = failed = sweeps = 0
    start = time.perf_counter()
    while sweeps == 0 or time.perf_counter() - start < seconds:
        busy = scaled_busy = 0.0
        done = 0
        for i in range(len(w.ops)):
            attempted += 1
            ref = ref_loop_s()
            try:
                elapsed, out = wl.run_op(w, seed, i)
            except Exception as exc:  # a failing operation is counted; the run goes on
                failed += 1
                problems.append(f"op {i}: {type(exc).__name__}: {exc}")
                continue
            scaled = elapsed * REF_LOOP_S / ref
            busy, scaled_busy, done = busy + elapsed, scaled_busy + scaled, done + 1
            op_s.append(elapsed)
            scaled_s.append(scaled)
            ref_s.append(ref)
            found = checks.check_output(w, out, expected[i] if expected else None)
            if out != first_out.setdefault(i, out):
                found.append(f"op {i}: output differs from its first run in this process")
            if found:
                failed += 1
                problems += found
        if done:
            sweep_rates.append(done * panels_per_op / scaled_busy)
            raw_rates.append(done * panels_per_op / busy)
        sweeps += 1

    def median(values, scale=1.0):
        return scale * statistics.median(values) if values else math.nan

    return {
        "metrics": {"reps_per_s": median(sweep_rates), "op_ms_p50": median(scaled_s, 1e3)},
        "wall_clock": {
            "reps_per_s": median(raw_rates),
            "op_ms_p50": median(op_s, 1e3),
            "ref_loop_ms_p50": median(ref_s, 1e3),
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": {"sweeps": sweeps, "ops_timed": len(op_s)},
    }


def run(w, seed: int, seconds: float, trace: int, tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, detail report)."""
    expected = None if tiny else checks.load_reference(w, seed)
    out_dir = wl.run_dir(w, seed)
    try:
        if trace:
            res = tracing.traced_run(w, seed, seconds, expected)
            metrics = res["metrics"]
        else:
            wl.make_inputs(w, seed)
            res = measure(w, seed, seconds, expected)
            rss = peak_rss_mb()  # before the probes, which are children too
            setup = setup_seconds(w, seed, tiny, 1 if tiny else SETUP_PROBES)
            res["samples"]["setup_probes"] = len(setup)
            values = {**res["metrics"], "setup_s": statistics.median(setup), "peak_rss_mb": rss}
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    correct = res["failed"] == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    result = {"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}
    detail = {
        "provenance": provenance(w, seed, seconds, trace),
        "reference_checked": expected is not None,
        "samples": res["samples"],
        "wall_clock": res.get("wall_clock"),
        "problems": res["problems"][:50],
    }
    wl.WORK.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{seed}-trace{trace}" + ("-tiny" if tiny else "")
    (wl.WORK / f"{stem}.json").write_text(json.dumps({**detail, "result": result}, indent=1))
    if trace:
        (wl.WORK / f"{stem}-spans.json").write_text(json.dumps(res["spans"]))
    return result, detail


def write_reference() -> None:
    """Record every operation's output at the default seed."""
    ref = {}
    for w in wl.WORKLOADS.values():
        wl.make_inputs(w, checks.DEFAULT_SEED)
        views = []
        for i in range(len(w.ops)):
            _, out = wl.run_op(w, checks.DEFAULT_SEED, i)
            problems = checks.check_output(w, out, None)
            if problems:
                raise RuntimeError(f"{w.name} op {i}: {problems}")
            views.append(checks.reference_view(w, out))
        shutil.rmtree(wl.run_dir(w, checks.DEFAULT_SEED), ignore_errors=True)
        ref[checks.reference_key(w)] = views
    checks.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")


def smoke() -> int:
    """Run every workload at tiny size, traced and untraced, and check that
    each metric named in BENCHMARK.json appears with its unit."""
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    errors = []
    if sorted(x["name"] for x in spec["workloads"]) != sorted(wl.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from perfbench/workloads.py")
    for name, w in wl.WORKLOADS.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, detail = run(wl.sized(w, True), 0, 0.0, trace, tiny=True)
            where = f"{name} --trace {trace}"
            if not result["correct"] or result["attempted"] < 1:
                errors.append(f"{where}: not correct: {detail['problems'][:3]}")
            if set(result["metrics"]) != {m["name"] for m in spec[key]}:
                errors.append(f"{where}: metrics {sorted(result['metrics'])} differ from {key}")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    errors.append(f"{where}: {m['name']} missing or not in {m['unit']}: {got}")
    for e in errors:
        print(f"smoke: {e}", file=sys.stderr)
    print(f"smoke: {'FAIL' if errors else 'ok'} ({len(wl.WORKLOADS)} workloads, traced and untraced)")
    return 1 if errors else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if wl is None:
        print(f"perfbench: cannot load the program: {LOAD_ERROR}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.write_reference:
        write_reference()
        return 0
    if args.workload not in wl.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    result, detail = run(wl.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
