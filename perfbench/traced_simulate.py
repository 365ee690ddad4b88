"""Run `pilotadapt simulate` in-process with spans around each layer call.

The package itself is not changed: this script replaces, from outside, the
public functions as `pilotadapt.experiments` calls them, plus
`RbRateCalculator.__init__` (the Gram / cross-power build) and
`RbRateCalculator.rates_for_subsets`, with wrappers that record a span each.
Spans stay in memory and are written as JSON when the run ends.

    python3 perfbench/traced_simulate.py --config CFG --seed N --out ROWS.csv --spans SPANS.json
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pilotadapt import cli, experiments, scheduling  # noqa: E402

# span name -> function name in pilotadapt.experiments
EXPERIMENTS_TARGETS = {
    "experiments.trial": "run_trial",
    "channel.generate": "generate_realization",
    "patterns.registry": "default_registry",
    "patterns.conventional": "conventional_pattern",
    "scheduling.exact": "conventional_schedule_exact",
    "scheduling.greedy": "conventional_schedule_greedy",
    "scheduling.grouping": "grouping_schedule",
    "phy.evaluate": "evaluate_schedule",
}
CALCULATOR_TARGETS = {
    "scheduling.gram": "__init__",
    "scheduling.subset_rates": "rates_for_subsets",
}


class Tracer:
    """Span recorder with one span stack per thread.

    A span is [name, start, end, parent span, trial id, item count]; the
    trial id is (M, U_mux, trial) from `run_trial`'s arguments and is
    inherited by every span nested under it on the same thread.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def wrap(self, name, fn, trial_of=None, count_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            trial = trial_of(args) if trial_of else (parent[4] if parent else None)
            span = [name, 0.0, 0.0, parent, trial, count_of(args) if count_of else 0]
            self.spans.append(span)  # list.append is atomic under the GIL
            stack.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def dump(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": index[id(parent)] if parent is not None else None,
                "trial": trial,
                "n": n,
            }
            for name, start, end, parent, trial, n in self.spans
        ]


def _trial_id(args):
    # run_trial(cfg, m, mux, trial, seed)
    return list(args[1:4]) if len(args) >= 4 else None


def _subset_count(args):
    # rates_for_subsets(self, subsets)
    return len(args[1]) if len(args) >= 2 else 0


def install(tracer: Tracer) -> list[str]:
    """Patch every target that exists; return the names that were missing."""
    missing = []
    for span, attr in EXPERIMENTS_TARGETS.items():
        fn = getattr(experiments, attr, None)
        if fn is None:
            missing.append(f"pilotadapt.experiments.{attr}")
            continue
        trial_of = _trial_id if span == "experiments.trial" else None
        setattr(experiments, attr, tracer.wrap(span, fn, trial_of=trial_of))
    calc = getattr(scheduling, "RbRateCalculator", None)
    for span, attr in CALCULATOR_TARGETS.items():
        fn = getattr(calc, attr, None) if calc is not None else None
        if fn is None:
            missing.append(f"pilotadapt.scheduling.RbRateCalculator.{attr}")
            continue
        count_of = _subset_count if attr == "rates_for_subsets" else None
        setattr(calc, attr, tracer.wrap(span, fn, count_of=count_of))
    return missing


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    tracer = Tracer()
    missing = install(tracer)
    for name in missing:
        sys.stderr.write(f"traced_simulate: {name} not found, its span is not recorded\n")
    sweep = tracer.wrap("experiments.sweep", cli.main)
    code = sweep(["simulate", "--config", args.config, "--seed", args.seed, "--out", args.out])
    with open(args.spans, "w") as fh:
        json.dump({"missing": missing, "spans": tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
