"""Run the benchmark over several seeds and print one summary per workload.

    python3 perfbench/report.py --seeds 1 2 3 4 5 [--seconds 10] [--trace 0 1]
                                [--workloads exact_u4 ...] [--out perfbench/results/NAME.json]

For every workload and metric it prints the unit, the median over the runs,
the highest percentile with at least ten runs beyond it (the maximum when
there are fewer), the number of runs, and the quartile spread as a share of
the median next to the metric's bound from BENCHMARK.json; for traced runs,
each layer time as a share of the traced sweep's wall time. It also prints the
correctness verdict with the failed share of attempted rows. `--out` writes
every run's result and provenance as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import COMPUTED_METRICS  # noqa: E402
from run import tail  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402


def _bench_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve().parent / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"workload": workload, "seed": seed, "trace": trace,
                "error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    meta = json.loads(lines[-2])
    return {"workload": workload, "seed": seed, "trace": trace,
            "provenance": meta["provenance"], "raw": meta.get("raw", {}),
            "result": json.loads(lines[-1])}


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if q3 != q1 else 0.0


def _values(run: dict) -> dict:
    """Metric name -> (value, unit); raw child figures carry no bound."""
    out = {n: (m["value"], m["unit"]) for n, m in run["result"]["metrics"].items()}
    out.update({f"raw.{n}": (v, "") for n, v in run.get("raw", {}).items()
                if not isinstance(v, list)})
    return out


def summarize(runs: list[dict], bounds: dict) -> list[str]:
    lines = []
    groups: dict[tuple, list[dict]] = {}
    for r in runs:
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    for (workload, trace), group in groups.items():
        ok = [r for r in group if "result" in r]
        errors = len(group) - len(ok)
        attempted = sum(r["result"]["attempted"] for r in ok)
        failed = sum(r["result"]["failed"] for r in ok)
        correct = all(r["result"]["correct"] for r in ok)
        verdict = "PASS" if ok and errors == 0 and correct else "FAIL"
        lines.append(
            f"== {workload} (trace {trace}): gate {verdict}, {len(ok)} runs, "
            f"{errors} errored, failed_frac {failed / max(attempted, 1):.4f} "
            f"({failed}/{attempted} rows)"
        )
        lines.append(f"  {'metric':34} {'unit':6} {'median':>12} {'tail':>12} {'n':>3} "
                     f"{'spread':>7} {'bound':>6} {'share':>6}")
        values = [_values(r) for r in ok]
        names = sorted({n for v in values for n in v})
        for name in names:
            vals = [v[name][0] for v in values if name in v]
            unit = next(v[name][1] for v in values if name in v)
            median = statistics.median(vals)
            sweep = [v["experiments.sweep_s"][0] for v in values if "experiments.sweep_s" in v]
            # a traced layer's time as a share of the traced sweep's wall time
            share = f"{median / statistics.median(sweep):6.1%}" if sweep and unit == "s" else ""
            label = f"{name} (computed)" if name in COMPUTED_METRICS else name
            lines.append(
                f"  {label:34} {unit:6} {median:12.6g} {tail(vals)[0]:12.6g} "
                f"{len(vals):3d} {spread(vals):7.4f} {bounds.get(name, ''):>6} {share:>6}"
            )
    return lines


def write_results(path: Path, seconds: int, runs: list[dict]) -> None:
    """JSON with one run per line."""
    body = ",\n".join(json.dumps(r) for r in runs)
    path.write_text(f'{{"seconds": {seconds}, "runs": [\n{body}\n]}}\n')


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=list(WORKLOADS))
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = _bench_spec()
    seconds = args.seconds or spec.get("run_seconds", 10)
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    runs = []
    for workload in args.workloads:
        for trace in args.trace:
            for seed in args.seeds:
                runs.append(run_once(workload, seed, seconds, trace))
                sys.stderr.write(f"{workload} trace={trace} seed={seed} done\n")
    print("\n".join(summarize(runs, bounds)))
    if args.out:
        write_results(Path(args.out), seconds, runs)
    return 0 if all("result" in r and r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
