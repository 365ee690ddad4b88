"""pilotadapt sweep benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Drives the simulator from outside, from the root of a source checkout (the
package is imported from `src/`; nothing is installed). Workloads are defined
in `workloads.py`; each run writes the workload's config from `--seed` and
repeats `pilotadapt simulate` child processes on it for `--seconds` seconds.

`--trace 0` times `simulate` processes of the package under `src/` in pairs
with processes of the frozen copy under `perfbench/baseline/` (the package at
the commit that defined the benchmark), in ABBA order. The host this was built
on drifts by tens of percent within minutes, and the ratio within a pair
cancels that. It reports:
  speedup_vs_baseline  total baseline wall time / total current wall time over
                       the pairs (steadier here than the median of per-pair
                       ratios: each child alone varies by about 10%)
  cpu_vs_baseline      total current user+sys CPU time / total baseline CPU time
  peak_rss_mb          median max RSS of the current `simulate` processes
  setup_s              spawn-to-exit wall time of `pilotadapt patterns` on the
                       config (interpreter start, imports, config parse, pattern
                       registry), as seconds on the defining host: the
                       baseline's time there (BASELINE_SETUP_S) times the median
                       current/baseline ratio of set-up pairs, one before each pair
The raw trials per second, CPU seconds per trial and set-up seconds of both
packages go to the provenance line.

`--trace 1` alternates untraced children with children run through
`traced_simulate.py` and reports the per-layer metrics of `layers.py`
(times are medians over the traced sweeps; counts must repeat exactly across
them) plus `trace.overhead_frac`, the traced over the untraced median wall
time minus one.

Every child's CSV passes through the correctness gate of `gate.py`; `attempted`
and `failed` count result rows, and a child that exits nonzero fails all of
its rows. Children run with BLAS pinned to one thread; the run refuses to
start when workers x BLAS threads exceed the CPUs available. `--smoke` runs
the workload's minimal grid. The last line of standard output is the result
JSON; the line before it records provenance.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gate  # noqa: E402
from layers import COUNT_METRICS, sweep_metrics  # noqa: E402
from workloads import (  # noqa: E402
    BASELINE_SRC_DIR,
    BLAS_THREADS,
    ROOT,
    THREAD_PIN_VARS,
    WORKLOADS,
    check_host,
    check_sources,
    child_env,
    cli_argv,
    expected_keys,
    num_trials,
    reference_path,
    run_child,
    traced_argv,
    write_config,
)

# `pilotadapt patterns` wall time of the baseline package on the host the
# benchmark was defined on (2-core Xeon, Python 3.11.7, numpy 2.4.6): run medians
# ranged 0.16-0.21 s as the host drifted. setup_s is this times the measured
# current/baseline ratio, i.e. set-up seconds on that host at a fixed speed.
BASELINE_SETUP_S = 0.18
MIN_PAIRS = 2
MIN_TRACED_SWEEPS = 2


def _git_sha() -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workers: int, nproc: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "workers": workers,
        "thread_pins": {var: BLAS_THREADS for var in THREAD_PIN_VARS},
    }


class Run:
    """One benchmark run: a config, a scratch directory, and the gate tallies."""

    def __init__(self, workload, seed: int, smoke: bool, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.cfg = workload.sweep(smoke)
        self.keys = expected_keys(self.cfg)
        self.trials = num_trials(self.cfg)
        self.env = child_env(workload.workers)
        self.baseline_env = child_env(workload.workers, BASELINE_SRC_DIR)
        self.config_path = workdir / "workload.toml"
        write_config(self.cfg, seed, self.config_path)
        ref = reference_path(workload.name, seed, smoke)
        self.reference = ref.read_text() if ref.is_file() else None
        self.attempted = 0
        self.failed = 0
        self.counts_repeat = True
        self.raw: dict = {}
        self.count = 0

    def _tag(self, kind: str) -> str:
        self.count += 1
        return f"{kind}{self.count}"

    def setup_time(self, baseline: bool = False) -> float:
        argv = cli_argv("patterns", self.config_path, self.seed, None)
        env = self.baseline_env if baseline else self.env
        res = run_child(argv, env, self.workdir, self._tag("patterns"))
        if res.returncode != 0:
            raise SystemExit(f"perfbench: `pilotadapt patterns` failed: {res.stderr}")
        return res.wall_s

    def _gate(self, res, out: Path) -> bool:
        self.attempted += len(self.keys)
        if res.returncode != 0:
            self.failed += len(self.keys)
            sys.stderr.write(f"perfbench: child exited {res.returncode}: {res.stderr}\n")
            return False
        bad, reason = gate.failed_rows(
            out.read_text(), self.keys, self.cfg["scheduler"], self.reference
        )
        self.failed += bad
        if bad:
            sys.stderr.write(f"perfbench: {bad} rows failed the gate; {reason}\n")
        return True

    def simulate(self):
        tag = self._tag("simulate")
        out = self.workdir / f"{tag}.csv"
        res = run_child(cli_argv("simulate", self.config_path, self.seed, out),
                        self.env, self.workdir, tag)
        return res if self._gate(res, out) else None

    def simulate_baseline(self):
        # writes its CSV like the current child does, so both sides do the same I/O
        tag = self._tag("baseline")
        res = run_child(cli_argv("simulate", self.config_path, self.seed, self.workdir / f"{tag}.csv"),
                        self.baseline_env, self.workdir, tag)
        if res.returncode != 0:
            raise SystemExit(f"perfbench: the baseline package failed: {res.stderr}")
        return res

    def traced(self):
        tag = self._tag("traced")
        out = self.workdir / f"{tag}.csv"
        spans = self.workdir / f"{tag}.json"
        res = run_child(traced_argv(self.config_path, self.seed, out, spans),
                        self.env, self.workdir, tag)
        if not self._gate(res, out):
            return None
        return res, json.loads(spans.read_text())


def _timed_loop(seconds: float, minimum: int, step) -> None:
    """Call step() at least `minimum` times, then while another fits in `seconds`."""
    start = time.perf_counter()
    durations = []
    while True:
        elapsed = time.perf_counter() - start
        if len(durations) >= minimum and elapsed + statistics.median(durations) > seconds:
            return
        step()
        durations.append(time.perf_counter() - start - elapsed)


def _pair(swap: bool, current, baseline) -> tuple:
    """Call both, in the given order; return (current result, baseline result)."""
    if swap:
        b = baseline()
        return current(), b
    c = current()
    return c, baseline()


def measure_end_to_end(run: Run, seconds: float) -> dict:
    run.setup_time()  # warms the bytecode and file caches
    run.setup_time(baseline=True)
    setup, pairs = [], []
    order = itertools.count()

    def step():
        # ABBA order, so a steady drift within the run cancels as well
        swap = bool(next(order) % 2)
        setup.append(_pair(swap, run.setup_time, lambda: run.setup_time(baseline=True)))
        current, baseline = _pair(swap, run.simulate, run.simulate_baseline)
        if current is not None:
            pairs.append((current, baseline))

    _timed_loop(seconds, 1 if run.smoke else MIN_PAIRS, step)
    if not pairs:
        raise SystemExit("perfbench: every simulate child failed")
    med = statistics.median
    run.raw = {
        "trials_per_s": med(run.trials / c.wall_s for c, _ in pairs),
        "cpu_s_per_trial": med(c.cpu_s / run.trials for c, _ in pairs),
        "baseline_trials_per_s": med(run.trials / b.wall_s for _, b in pairs),
        "setup_s": med(c for c, _ in setup),
        "baseline_setup_s": med(b for _, b in setup),
        "current_wall_s": [c.wall_s for c, _ in pairs],
        "baseline_wall_s": [b.wall_s for _, b in pairs],
    }
    return {
        "speedup_vs_baseline": (
            sum(b.wall_s for _, b in pairs) / sum(c.wall_s for c, _ in pairs), "x"
        ),
        "cpu_vs_baseline": (
            sum(c.cpu_s for c, _ in pairs) / sum(b.cpu_s for _, b in pairs), "x"
        ),
        "peak_rss_mb": (med(c.maxrss_mb for c, _ in pairs), "MB"),
        "setup_s": (BASELINE_SETUP_S * med(c / b for c, b in setup), "s"),
    }


PER_LAYER_UNITS = {
    "scheduling.exact_transitions": "count",
    "scheduling.gram_calls": "count",
    "scheduling.gram_gflop": "GFLOP",
    "scheduling.subset_rates_calls": "count",
    "scheduling.subsets_evaluated": "count",
    "scheduling.greedy_candidates": "count",
    "channel.h_mb": "MB",
    "phy.evaluate_calls": "count",
    "experiments.trials": "count",
    "experiments.concurrency": "ratio",
    "trace.overhead_frac": "ratio",
}


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, else the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.0f} of {n}"


def measure_per_layer(run: Run, seconds: float) -> dict:
    plain, traced, sweeps, trial_s = [], [], [], []

    def step():
        res = run.simulate()
        if res is not None:
            plain.append(res.wall_s)
        out = run.traced()
        if out is not None:
            res, dump = out
            traced.append(res.wall_s)
            metrics, latencies = sweep_metrics(dump["spans"], run.cfg)
            sweeps.append(metrics)
            trial_s.extend(latencies)

    _timed_loop(seconds, MIN_TRACED_SWEEPS, step)
    if not sweeps or not plain:
        raise SystemExit("perfbench: every traced or untraced child failed")
    result = {}
    for name in sweeps[0]:
        values = [s[name] for s in sweeps]
        if name in COUNT_METRICS:
            if len(set(values)) != 1:
                sys.stderr.write(f"perfbench: count {name} differs across sweeps: {values}\n")
                run.counts_repeat = False
            result[name] = values[0]
        else:
            result[name] = statistics.median(values)
    p50 = statistics.median(trial_s)
    tail_s, label = tail(trial_s)
    sys.stderr.write(f"perfbench: trial latency p50 {p50:.4f} s, tail ({label}) {tail_s:.4f} s\n")
    result["experiments.trial_p50_s"] = p50
    result["experiments.trial_tail_s"] = tail_s
    result["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return {
        name: (value, PER_LAYER_UNITS.get(name, "s")) for name, value in sorted(result.items())
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal grid, one pair")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # SIGTERM unwinds like an exception, so the current child is stopped and
    # the scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    check_sources()
    workload = WORKLOADS[args.workload]
    nproc = check_host(workload.workers)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".perfbench_work"))
    try:
        run = Run(workload, args.seed, args.smoke, workdir)
        if args.trace:
            metrics = measure_per_layer(run, args.seconds)
        else:
            metrics = measure_end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"provenance": provenance(workload.workers, nproc),
                      "workload": workload.name, "seed": args.seed,
                      "reference_checked": run.reference is not None,
                      "raw": run.raw}))
    print(json.dumps({
        "correct": run.failed == 0 and run.counts_repeat,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
