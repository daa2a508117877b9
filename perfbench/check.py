"""Correctness checks of one operation's report rows against the references.

The references are the rows each operation produced at the default seed
when the benchmark was defined. On that seed a row must match its
reference: exact and upper values to a tight relative tolerance, Monte
Carlo values (rows with a standard error) within ``MC_SIGMAS`` combined
standard errors, other deterministic values (ascent and group-average lower
bounds) to ``LOWER_RTOL``. On every seed the row layout, the verdicts and
the certification labels must be identical, and no verdict may be FAIL.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

EXACT_RTOL = 1e-9
LOWER_RTOL = 1e-6
MC_SIGMAS = 5.0

REFERENCE_DIR = Path(__file__).resolve().parent / "references"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_references(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _label(row: dict, i: int) -> str:
    return f"row {i} ({row.get('kind')} n={row.get('n')})"


def _value_problem(row: dict, ref: dict) -> str | None:
    value, expected = row.get("value"), ref.get("value")
    if expected is None and value is None:
        return None
    if expected is None or value is None:
        return f"value {value!r} where the reference has {expected!r}"
    se, se_ref = row.get("stderr") or 0.0, ref.get("stderr") or 0.0
    if se_ref > 0.0:
        limit = MC_SIGMAS * math.hypot(se, se_ref)
        rule = f"{MC_SIGMAS:g} combined stderr"
    elif ref.get("cert") in ("exact", "upper"):
        limit = EXACT_RTOL * abs(expected)
        rule = f"rtol {EXACT_RTOL:g}"
    else:
        limit = LOWER_RTOL * abs(expected)
        rule = f"rtol {LOWER_RTOL:g}"
    if abs(value - expected) > limit:
        return f"value {value!r} vs reference {expected!r} (outside {rule})"
    return None


def row_problems(rows: list[dict], ref_rows: list[dict], compare_values: bool) -> list[str]:
    """Every mismatch between an operation's rows and its reference rows."""
    problems = [f"{_label(r, i)}: verdict FAIL" for i, r in enumerate(rows)
                if r.get("verdict") == "FAIL"]
    if len(rows) != len(ref_rows):
        return problems + [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for key in ("kind", "n", "u_recip", "v_recip", "cert", "verdict"):
            if row.get(key) != ref.get(key):
                problems.append(f"{_label(row, i)}: {key} {row.get(key)!r} "
                                f"vs reference {ref.get(key)!r}")
        if compare_values:
            problem = _value_problem(row, ref)
            if problem:
                problems.append(f"{_label(row, i)}: {problem}")
    return problems
