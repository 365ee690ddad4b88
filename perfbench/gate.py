"""Output-correctness gate for `pilotadapt simulate` CSVs.

At a seed with a shipped reference CSV (produced by `make_refs.py` at the
commit the benchmark was defined on), integer and string columns must match
exactly and the float columns within a relative tolerance of 1e-9. At any
other seed the rows are checked against invariants: the exact header, the
expected rows in the expected order, finite positive rates, and
rel_gain == R_grp / R_conv - 1.
"""

from __future__ import annotations

import math

HEADER = "M,U_mux,trial,direction,R_grp,R_conv,rel_gain,bound,scheduler,seed"
COLUMNS = HEADER.split(",")
FLOAT_COLUMNS = ("R_grp", "R_conv", "rel_gain", "bound")
RTOL = 1e-9


def _rows(text: str) -> tuple[str, list[dict]]:
    lines = text.splitlines()
    if not lines:
        return "", []
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        rows.append(dict(zip(COLUMNS, fields)) if len(fields) == len(COLUMNS) else {})
    return lines[0], rows


def _float(row: dict, col: str) -> float:
    try:
        return float(row[col])
    except (KeyError, ValueError):
        return math.nan


def _row_ok_invariants(row: dict, key: tuple, scheduler: str) -> bool:
    m, u, trial, direction = key
    if not row:
        return False
    if (row["M"], row["U_mux"], row["trial"], row["direction"]) != (
        str(m), str(u), str(trial), direction
    ):
        return False
    if row["scheduler"] != scheduler or not row["seed"].isdigit():
        return False
    r_grp, r_conv = _float(row, "R_grp"), _float(row, "R_conv")
    rel_gain, bound = _float(row, "rel_gain"), _float(row, "bound")
    if not all(math.isfinite(v) for v in (r_grp, r_conv, rel_gain, bound)):
        return False
    if r_grp <= 0.0 or r_conv <= 0.0 or bound < 0.0:
        return False
    return math.isclose(rel_gain, r_grp / r_conv - 1.0, rel_tol=RTOL, abs_tol=1e-12)


def _row_ok_reference(row: dict, ref: dict) -> bool:
    for col in COLUMNS:
        if col in FLOAT_COLUMNS:
            if not math.isclose(_float(row, col), _float(ref, col), rel_tol=RTOL, abs_tol=0.0):
                return False
        elif row.get(col) != ref.get(col):
            return False
    return True


def failed_rows(
    text: str, keys: list[tuple], scheduler: str, reference: str | None
) -> tuple[int, str]:
    """Number of expected rows that fail the gate, and the first reason."""
    header, rows = _rows(text)
    if header != HEADER:
        return len(keys), f"header {header!r}"
    if len(rows) != len(keys):
        return len(keys), f"{len(rows)} rows, expected {len(keys)}"
    ref_rows = None
    if reference is not None:
        ref_header, ref_rows = _rows(reference)
        if ref_header != HEADER or len(ref_rows) != len(keys):
            return len(keys), "reference CSV does not match the workload grid"
    failed, reason = 0, ""
    for i, (row, key) in enumerate(zip(rows, keys)):
        ok = _row_ok_invariants(row, key, scheduler)
        if ok and ref_rows is not None:
            ok = _row_ok_reference(row, ref_rows[i])
        if not ok:
            failed += 1
            reason = reason or f"row {i + 1}: {','.join(row.values())}"
    return failed, reason
