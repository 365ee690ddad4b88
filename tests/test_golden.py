"""Golden rows: the sweep output and the conventional partitions are pinned.

Two small grids with log-normal fading (non-unit large-scale gains) in both
directions: one greedy (M in {16, 64}, U_mux in {4, 7}) and one exact
(M in {16, 64}, U_mux = 3 on 3 RBs). Integer and string CSV columns and the
per-RB user sets of the conventional schedule must match exactly; float
columns must match within a relative tolerance of 1e-9.

To rewrite the files (only when a change of the numbers is intended and
explained), run from the repository root:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import math
import sys
from pathlib import Path

import pytest

from pilotadapt.channel import generate_realization
from pilotadapt.core import build_population
from pilotadapt.config import config_from_dict
from pilotadapt.experiments import CSV_HEADER, rows_to_csv, run_sweep
from pilotadapt.patterns import conventional_pattern, default_registry
from pilotadapt.scheduling import conventional_schedule_exact, conventional_schedule_greedy

DATA = Path(__file__).resolve().parent / "data"
RTOL = 1e-9
FLOAT_COLUMNS = {"R_grp", "R_conv", "rel_gain", "bound"}

GRIDS = {
    "greedy": {
        "m_list": [16, 64],
        "u_mux_list": [4, 7],
        "trials": 2,
        "num_rbs": 4,
        "direction": "both",
        "scheduler": "greedy",
        "fading": "lognormal:6",
        "seed": 11,
    },
    "exact": {
        "m_list": [16, 64],
        "u_mux_list": [3],
        "trials": 3,
        "num_rbs": 3,
        "direction": "both",
        "scheduler": "exact",
        "fading": "lognormal:6",
        "seed": 11,
    },
}


def _partitions(cfg, rows) -> list[dict]:
    """Conventional per-RB user sets for every row, from the row's own seed."""
    profiles = cfg.profiles
    schedule = (
        conventional_schedule_exact if cfg.scheduler == "exact" else conventional_schedule_greedy
    )
    out = []
    for row in rows:
        pop = build_population(cfg.sizes_for(row.u_mux), profiles, cfg.fading, seed=row.seed)
        sys_cfg = cfg.system_config(row.m, row.u_mux)
        real = generate_realization(pop, sys_cfg, seed=row.seed)
        pattern = conventional_pattern(default_registry(profiles, cfg.numerology, row.u_mux))
        assign = schedule(real, pattern, row.direction)
        out.append(
            {
                "M": row.m,
                "U_mux": row.u_mux,
                "trial": row.trial,
                "direction": row.direction,
                "rb_users": [list(u) for u in assign.rb_users],
            }
        )
    return out


def _generate(name: str) -> tuple[str, list[dict]]:
    cfg = config_from_dict(GRIDS[name])
    rows = run_sweep(cfg)
    return rows_to_csv(rows), _partitions(cfg, rows)


def _csv_records(text: str) -> list[dict]:
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    cols = CSV_HEADER.split(",")
    return [dict(zip(cols, line.split(","))) for line in lines[1:]]


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_golden_rows_and_partitions(name):
    csv_text, partitions = _generate(name)
    want = _csv_records((DATA / f"golden_{name}.csv").read_text())
    got = _csv_records(csv_text)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for col, value in w.items():
            if col in FLOAT_COLUMNS:
                assert math.isclose(float(g[col]), float(value), rel_tol=RTOL, abs_tol=0.0), (
                    col, g, w
                )
            else:
                assert g[col] == value, (col, g, w)
    golden_parts = json.loads((DATA / f"golden_{name}_partitions.json").read_text())
    assert partitions == golden_parts


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    DATA.mkdir(exist_ok=True)
    for grid in GRIDS:
        text, parts = _generate(grid)
        (DATA / f"golden_{grid}.csv").write_text(text)
        lines = ",\n".join(json.dumps(p) for p in parts)
        (DATA / f"golden_{grid}_partitions.json").write_text(f"[\n{lines}\n]\n")
