"""Per-layer metrics from the spans of one traced sweep.

Times are sums of span durations, or of self time: a span's duration minus
the part of it its child spans cover. The COMPUTED metrics come from closed
forms over the sweep grid and the spans' trial ids, not from the program.
"""

from __future__ import annotations

from collections import defaultdict

from workloads import SUBCARRIERS_PER_RB, SYMBOLS_PER_RB, exact_transitions

COUNT_METRICS = (
    "scheduling.exact_transitions",
    "scheduling.gram_calls",
    "scheduling.gram_gflop",
    "scheduling.subset_rates_calls",
    "scheduling.subsets_evaluated",
    "scheduling.greedy_candidates",
    "channel.h_mb",
    "phy.evaluate_calls",
    "experiments.trials",
)
COMPUTED_METRICS = ("scheduling.exact_transitions", "scheduling.gram_gflop", "channel.h_mb")


def _self_times(spans: list[dict]) -> list[float]:
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s["end"] - s["start"]) - covered)
    return out


def sweep_metrics(spans: list[dict], cfg: dict) -> tuple[dict, list[float]]:
    """Layer metrics of one traced sweep, and its per-trial latencies."""
    self_s = _self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    items = defaultdict(int)
    for s, own in zip(spans, self_s):
        total[s["name"]] += s["end"] - s["start"]
        self_total[s["name"]] += own
        calls[s["name"]] += 1
        items[s["name"]] += s["n"]

    n_rbs = cfg["num_rbs"]
    gram_flop = 0.0
    transitions = 0
    greedy_candidates = 0
    for s in spans:
        trial = s["trial"]
        if s["name"] == "scheduling.gram" and trial:
            m, mux = trial[0], trial[1]
            k = n_rbs * mux
            gram_flop += 8.0 * k * k * SYMBOLS_PER_RB * SUBCARRIERS_PER_RB * m
        elif s["name"] == "scheduling.exact" and trial:
            transitions += exact_transitions(n_rbs * trial[1], n_rbs, trial[1])
        elif s["name"] == "scheduling.subset_rates" and s["parent"] is not None:
            if spans[s["parent"]]["name"] == "scheduling.greedy":
                greedy_candidates += s["n"]

    trial_s = [s["end"] - s["start"] for s in spans if s["name"] == "experiments.trial"]
    sweep_s = total["experiments.sweep"]
    h_bytes = max(
        n_rbs * mux * n_rbs * SYMBOLS_PER_RB * SUBCARRIERS_PER_RB * m * 16
        for m in cfg["m_list"]
        for mux in cfg["u_mux_list"]
    )
    metrics = {
        # exact DP or greedy, whichever the workload runs: a per-scheduler
        # time would read 0 on every run of the other workloads
        "scheduling.conventional_self_s": (
            self_total["scheduling.exact"] + self_total["scheduling.greedy"]
        ),
        "scheduling.exact_transitions": transitions,
        "scheduling.gram_s": total["scheduling.gram"],
        "scheduling.gram_calls": calls["scheduling.gram"],
        "scheduling.gram_gflop": gram_flop / 1e9,
        "scheduling.subset_rates_s": total["scheduling.subset_rates"],
        "scheduling.subset_rates_calls": calls["scheduling.subset_rates"],
        "scheduling.subsets_evaluated": items["scheduling.subset_rates"],
        "scheduling.greedy_candidates": greedy_candidates,
        "scheduling.grouping_s": total["scheduling.grouping"],
        "channel.generate_s": total["channel.generate"],
        "channel.h_mb": h_bytes / 1e6,
        "phy.evaluate_s": total["phy.evaluate"],
        "phy.evaluate_calls": calls["phy.evaluate"],
        "patterns.build_s": total["patterns.registry"] + total["patterns.conventional"],
        "experiments.self_s": self_total["experiments.trial"],
        "experiments.sweep_s": sweep_s,
        "experiments.concurrency": sum(trial_s) / sweep_s if sweep_s > 0 else 0.0,
        "experiments.trials": len(trial_s),
    }
    return metrics, trial_s
