"""Output checks.  Every check is counted as attempted; the benchmark's
error_rate is failed checks over attempted checks."""

from __future__ import annotations

import json
import math
from pathlib import Path

DIV_TOL = 1e-12
CANCEL_TOL = 1e-10
# Relative tolerance against the stored reference.  Measured (README.md,
# "Why a relative tolerance of 1e-10"): one-ulp perturbations of the FFTs and
# linear kernels move the compared values by at most 1.1e-15 relative; a sign
# or factor error in any term moves them by more than 1e-3 on at least one
# workload.
REFERENCE_RTOL = 1e-10
# Diagnostics that are roundoff residuals themselves; they are checked
# against DIV_TOL / CANCEL_TOL instead of the reference.
RESIDUALS = ("div_u_max", "div_b_max", "cancel_max")
REFERENCE_PATH = Path(__file__).with_name("reference.json")


class Checks:
    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))


def check_records(checks: Checks, records: list[dict]) -> None:
    """Finite values, divergence and cancellation residuals on every record,
    and a non-increasing l2_energy."""
    checks.check("records.nonempty", len(records) > 0)
    for i, rec in enumerate(records):
        values = [v for v in rec.values() if v is not None]
        checks.check(f"record[{i}].finite", all(math.isfinite(v) for v in values))
        for key, tol in (("div_u_max", DIV_TOL), ("div_b_max", DIV_TOL),
                         ("cancel_max", CANCEL_TOL)):
            v = rec[key]
            checks.check(f"record[{i}].{key}", v is not None and v <= tol,
                         f"{v!r} > {tol}")
    for i in range(1, len(records)):
        a, b = records[i - 1]["l2_energy"], records[i]["l2_energy"]
        checks.check(f"record[{i}].l2_energy_nonincreasing", b <= a,
                     f"{b!r} > {a!r}")


def load_reference(workload: str, seed: int, n: int) -> dict | None:
    """The stored final record for this workload, realization seed and
    grid, if any."""
    ref = json.loads(REFERENCE_PATH.read_text()).get(workload)
    if ref is None or ref["seed"] != seed or ref["n"] != n:
        return None
    return ref["final_record"]


def check_reference(checks: Checks, final: dict, reference: dict) -> None:
    for key, want in reference.items():
        if key in RESIDUALS or want is None:
            continue
        got = final.get(key)
        ok = got is not None and abs(got - want) <= REFERENCE_RTOL * abs(want)
        checks.check(f"reference.{key}", ok, f"got {got!r}, want {want!r}")
