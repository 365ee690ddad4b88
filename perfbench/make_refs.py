"""Write the reference CSVs the correctness gate compares against.

    python3 perfbench/make_refs.py [--seeds 0 1 ...]

Runs `pilotadapt simulate` once per workload and seed with the same config
and environment the benchmark uses, and stores the CSV under
`perfbench/refs/<workload>/seed<N>.csv` (the smoke grid at seed 0 under
`perfbench/refs/<workload>.smoke/`). Run it only on a commit whose rows are
known to be right; the shipped files come from the commit that defined the
benchmark.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    ROOT,
    WORKLOADS,
    check_host,
    check_sources,
    child_env,
    cli_argv,
    reference_path,
    run_child,
    write_config,
)

DEFAULT_SEEDS = range(20)
SMOKE_SEED = 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    args = parser.parse_args()
    check_sources()
    jobs = [(w, s, False) for w in WORKLOADS.values() for s in args.seeds]
    jobs += [(w, SMOKE_SEED, True) for w in WORKLOADS.values()]
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="refs-", dir=ROOT / ".perfbench_work"))
    try:
        for workload, seed, smoke in jobs:
            check_host(workload.workers)
            config = workdir / "workload.toml"
            out = workdir / "rows.csv"
            write_config(workload.sweep(smoke), seed, config)
            res = run_child(cli_argv("simulate", config, seed, out),
                            child_env(workload.workers), workdir, "refs")
            if res.returncode != 0:
                sys.stderr.write(f"{workload.name} seed {seed}: {res.stderr}\n")
                return 1
            dest = reference_path(workload.name, seed, smoke)
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(out, dest)
            print(f"wrote {dest.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
