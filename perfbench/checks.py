"""Output checks.

At the default seed every operation's output is compared with
``reference.json``: counts must match exactly, floats within a relative
tolerance of ``RTOL``. At any seed the invariants hold: for each method
true + over + under + failed = R and the average count lies in [0, r_max]
(Monte Carlo cells); every reported count lies in [0, r_max] and every
adjusted eigenvalue is finite and positive (estimate calls). The naive
above-one count (KAISER) is not searched up to r_max; its bound is p.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 0
#: relative tolerance for floats in the reference (adjusted eigenvalues,
#: average counts); loose enough for a reordered BLAS reduction
RTOL = 1e-9


def reference_key(w) -> str:
    return f"{w.name}/p{w.p}/n{w.n}/reps{w.reps}"


def load_reference(w, seed: int) -> list | None:
    """Per-operation expected outputs, or None off the default seed."""
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE) as fh:
        return json.load(fh).get(reference_key(w))


def reference_view(w, out: dict) -> dict:
    """The part of an operation's output that the reference pins."""
    if w.kind != "mc":
        return out
    fields = ("true_count", "over_count", "under_count", "failed_count", "ave_k")
    return {
        "case": out["case"],
        "family": out["family"],
        "p": out["p"],
        "methods": {m: {f: e[f] for f in fields} for m, e in out["methods"].items()},
    }


def _diff(expected, actual, where: str, problems: list[str]) -> None:
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            problems.append(f"{where}: keys {sorted(actual)} != {sorted(expected)}")
            return
        for key in expected:
            _diff(expected[key], actual[key], f"{where}.{key}", problems)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            problems.append(f"{where}: length {len(actual)} != {len(expected)}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _diff(e, a, f"{where}[{i}]", problems)
    elif isinstance(expected, float) and isinstance(actual, (int, float)):
        if not math.isclose(actual, expected, rel_tol=RTOL, abs_tol=0.0):
            problems.append(f"{where}: {actual!r} != {expected!r} (rtol {RTOL:g})")
    elif expected != actual:
        problems.append(f"{where}: {actual!r} != {expected!r}")


def _invariants(w, out: dict) -> list[str]:
    problems = []
    for m, e in out["methods"].items():
        r_max = out["p"] if m == "KAISER" else out["r_max"]
        if w.kind == "mc":
            total = e["true_count"] + e["over_count"] + e["under_count"] + e["failed_count"]
            if total != w.reps:
                problems.append(f"{m}: true+over+under+failed = {total}, expected R = {w.reps}")
            if e["ave_k"] is not None and not 0 <= e["ave_k"] <= r_max:
                problems.append(f"{m}: average count {e['ave_k']} outside [0, {r_max}]")
        elif "k" in e and not 0 <= e["k"] <= r_max:
            problems.append(f"{m}: count {e['k']} outside [0, {r_max}]")
    adjusted = out.get("adjusted_eigenvalues")
    if adjusted is not None and not all(math.isfinite(v) and v > 0.0 for v in adjusted):
        problems.append("adjusted eigenvalues must be finite and positive")
    return problems


def check_output(w, out: dict, expected: dict | None) -> list[str]:
    """Problems found in one operation's output; empty when it is correct."""
    problems = _invariants(w, out)
    if expected is not None:
        _diff(expected, reference_view(w, out), "output", problems)
    return problems
