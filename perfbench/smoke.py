"""Smoke check of the benchmark: every workload at its minimal grid, in seconds.

    python3 perfbench/smoke.py

Runs `run.py --smoke` untraced and traced for each workload and asserts that
the result line carries exactly the metrics BENCHMARK.json names for that
mode, each with its unit and a finite value, that the output was compared
with a shipped reference CSV, and that the correctness gate passed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import ROOT, WORKLOADS  # noqa: E402

SEED = 0


def check(workload: str, trace: int, expected: dict) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
            "--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    meta, result = json.loads(lines[-2]), json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"gate: correct={result.get('correct')} failed={result.get('failed')}")
    if not meta.get("reference_checked"):
        problems.append("no reference CSV was compared")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics differ: missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, expected {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check(workload, trace, expected[trace])
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
