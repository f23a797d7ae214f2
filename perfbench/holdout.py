"""Run every workload at the default seed and a held-out seed; print all metrics.

Run from the repository root::

    python3 perfbench/holdout.py            # prints every metric, both seeds
    python3 perfbench/holdout.py --write    # also rewrites perfbench/holdout.json

Each (workload, seed) runs ``perfbench/run.py`` twice, one process after
the other: ``--trace 0`` for the end-to-end metrics and ``--trace 1`` for
the per-layer ledger.  The table shows every metric by name with its unit.
``holdout.json`` keeps the values that repeat exactly for a seed (the
simulated counts, ``paper_error`` and the failure counts), so a change that
claims to touch only speed can be checked against it value for value.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-bump", "colocation-base", "snapshot-sweep")
DEFAULT_SEED = 42
HELD_OUT_SEED = 7
#: Metrics that are functions of the seed alone (no host timing).
EXACT = ("paper_error", "job_failure_rate", "trace_cache.hits",
         "l1.hit_ratio", "llc.miss_ratio", "llc.dirty_evictions",
         "bump.read_coverage", "bump.read_overfetch", "bump.write_coverage",
         "dram.row_hit_ratio", "dram.write_share", "dram.read_latency_cycles",
         "dram.transfers", "sim.ipc", "sim.energy_per_access_nj",
         "snapshot.bytes", "store.hit_ratio", "dram.transfers_per_batch")


def run(workload, seed, seconds, trace):
    """One benchmark process: its ``#`` environment line and result object."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed")
    lines = done.stdout.strip().splitlines()
    return lines[0], json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--write", action="store_true",
                        help="rewrite perfbench/holdout.json")
    args = parser.parse_args(argv)

    seeds = (DEFAULT_SEED, HELD_OUT_SEED)
    table = {}
    environment = {}
    for workload in WORKLOADS:
        for seed in seeds:
            for trace in (0, 1):
                header, outcome = run(workload, seed, args.seconds, trace)
                environment[f"{workload} {seed} {trace}"] = header
                for name, metric in outcome["metrics"].items():
                    row = table.setdefault((workload, name), {"unit": metric["unit"]})
                    row[seed] = metric["value"]

    for header in dict.fromkeys(environment.values()):
        print(header)
    print(f"{'workload':16s} {'metric':26s} {'unit':15s} "
          f"{'seed ' + str(DEFAULT_SEED):>14s} {'seed ' + str(HELD_OUT_SEED):>14s}")
    for (workload, name), row in table.items():
        print(f"{workload:16s} {name:26s} {row['unit']:15s} "
              f"{row[seeds[0]]:>14.6g} {row[seeds[1]]:>14.6g}")

    if args.write:
        exact = {workload: {str(seed): {name: table[(workload, name)][seed]
                                        for name in EXACT}
                            for seed in seeds}
                 for workload in WORKLOADS}
        (HERE / "holdout.json").write_text(json.dumps(
            {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
             "environment": environment, "workloads": exact},
            indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
