"""Workload definitions and the child processes that run them.

Every workload is a `pilotadapt simulate` sweep on a config this module
writes from the workload seed. The grids follow the repository's own configs
(`configs/table1.toml`, `configs/fig4.toml`) and the large-M regime that
`asymptotics.py` models; the trial count per child process is reduced so that
one measured run holds several child processes.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC_DIR = ROOT / "src"
# Frozen copy of the package at the commit that defined the benchmark. Each
# run times it alternately with the package under `src/`, so host speed drift
# cancels out of the ratio between the two.
BASELINE_SRC_DIR = BENCH_DIR / "baseline"
REFS_DIR = BENCH_DIR / "refs"

BLAS_THREADS = 1
THREAD_PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150.0

# LTE resource-block grid (pilotadapt.core.lte_numerology): symbols x subcarriers.
SYMBOLS_PER_RB = 14
SUBCARRIERS_PER_RB = 12

BASE_CONFIG = {
    "num_rbs": 4,
    "picker": "random",
    "snr_db": 10.0,
    "profiles": "table1",
    "group_sizes": "auto",
    "fading": "constant",
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    workers: int
    smoke: dict = field(default_factory=dict)

    def sweep(self, smoke: bool = False) -> dict:
        cfg = dict(BASE_CONFIG)
        cfg.update(self.config)
        if smoke:
            cfg.update(self.smoke)
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # configs/table1.toml: the exact DP's Python loop dominates; channel
            # generation and the Gram build are under 3%.
            name="exact_u4",
            config={
                "m_list": [32, 64],
                "u_mux_list": [4],
                "trials": 1,
                "direction": "uplink",
                "scheduler": "exact",
            },
            workers=1,
            smoke={"m_list": [32], "u_mux_list": [3]},
        ),
        Workload(
            # configs/fig4.toml: never enters the DP; the Gram build and channel
            # generation dominate, with thousands of single-subset rate calls.
            name="greedy_u4to7",
            config={
                "m_list": [64, 112],
                "u_mux_list": [4, 5, 6, 7],
                "trials": 2,
                "direction": "uplink",
                "scheduler": "greedy",
            },
            workers=1,
            smoke={"m_list": [64], "u_mux_list": [4, 7], "trials": 1},
        ),
        Workload(
            # Large M in both directions on 2 workers: the downlink MRT path, a
            # Gram per direction, a 154 MB channel tensor per trial, and the only
            # run of the experiments thread pool.
            name="greedy_both_m512",
            config={
                "m_list": [512],
                "u_mux_list": [7],
                "trials": 2,
                "direction": "both",
                "scheduler": "greedy",
            },
            workers=2,
            smoke={"m_list": [128]},
        ),
    )
}


def directions(cfg: dict) -> list[str]:
    return ["uplink", "downlink"] if cfg["direction"] == "both" else [cfg["direction"]]


def expected_keys(cfg: dict) -> list[tuple[int, int, int, str]]:
    """(M, U_mux, trial, direction) of every row, in the CLI's output order."""
    return sorted(
        (m, u, t, d)
        for m in cfg["m_list"]
        for u in cfg["u_mux_list"]
        for t in range(cfg["trials"])
        for d in directions(cfg)
    )


def num_trials(cfg: dict) -> int:
    return len(cfg["m_list"]) * len(cfg["u_mux_list"]) * cfg["trials"]


def write_config(cfg: dict, seed: int, path: Path) -> None:
    """Write the flat `key = value` format that pilotadapt's config loader reads."""
    lines = ["# generated by perfbench/workloads.py"]
    for key, value in {**cfg, "seed": seed}.items():
        if isinstance(value, str):
            text = f'"{value}"'
        elif isinstance(value, list):
            text = "[" + ", ".join(str(v) for v in value) + "]"
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    path.write_text("\n".join(lines) + "\n")


def exact_transitions(k: int, n_rbs: int, mux: int) -> int:
    """(state, subset) pairs the subset DP visits, in closed form.

    States after placing c users are all C(k, c) masks; each extends by every
    subset of the free users whose size leaves the rest fitting the later RBs.
    """
    total = 0
    levels = {0}
    for r in range(n_rbs):
        nxt = set()
        for c in levels:
            free = k - c
            lo = max(0, free - (n_rbs - r - 1) * mux)
            for size in range(lo, min(mux, free) + 1):
                total += math.comb(k, c) * math.comb(free, size)
                nxt.add(c + size)
        levels = nxt
    return total


def check_host(workers: int) -> int:
    """CPUs this process may use; refuse oversubscribed thread counts."""
    nproc = len(os.sched_getaffinity(0))
    if workers * BLAS_THREADS > nproc:
        raise SystemExit(
            f"perfbench: {workers} workers x {BLAS_THREADS} BLAS threads exceed "
            f"the {nproc} available CPUs; refusing to run"
        )
    return nproc


def check_sources() -> None:
    """Fail unless the pilotadapt package sources sit in this checkout."""
    if not (SRC_DIR / "pilotadapt" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no pilotadapt sources under {SRC_DIR}")


def child_env(workers: int, src_dir: Path = SRC_DIR) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for var in THREAD_PIN_VARS:
        env[var] = str(BLAS_THREADS)
    env["PILOTADAPT_WORKERS"] = str(workers)
    return env


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stderr: str


def run_child(argv: list[str], env: dict, workdir: Path, tag: str) -> ChildResult:
    """Run one child to completion and read its own wall time, CPU and peak RSS."""
    err_path = workdir / f"{tag}.stderr"
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=workdir, stdout=subprocess.DEVNULL, stderr=err
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stderr=err_path.read_text()[-2000:],
    )


def cli_argv(command: str, config: Path, seed: int, out: Path | None) -> list[str]:
    argv = [sys.executable, "-m", "pilotadapt.cli", command,
            "--config", str(config), "--seed", str(seed)]
    if out is not None:
        argv += ["--out", str(out)]
    return argv


def traced_argv(config: Path, seed: int, out: Path, spans: Path) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "traced_simulate.py"),
            "--config", str(config), "--seed", str(seed),
            "--out", str(out), "--spans", str(spans)]


def reference_path(workload: str, seed: int, smoke: bool) -> Path:
    sub = f"{workload}.smoke" if smoke else workload
    return REFS_DIR / sub / f"seed{seed}.csv"
