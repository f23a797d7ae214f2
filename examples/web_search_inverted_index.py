#!/usr/bin/env python3
"""Web Search scenario: why code/data correlation predicts bulk accesses.

Section III.A of the paper (Figure 4) explains BuMP's key insight with the
inverted index of a web search engine: a query term is found through a
pointer-chasing hash-table walk (fine-grained, unpredictable, low region
density), after which the term's *index page* -- kilobytes of contiguously
laid out posting/rank metadata -- is read in full (coarse-grained, high
region density), always by the same scoring function.

This example reproduces that story at the microarchitectural level:

1. it generates the Web Search workload and characterises its region access
   density (the Figure 5 measurement);
2. it runs BuMP and inspects its structures: how many distinct (PC, offset)
   tuples the Bulk History Table needed to cover the index-page scans, and
   how much storage that costs compared to footprint-per-region schemes;
3. it reports coverage, overfetch and the row-buffer hit ratio achieved.

Run it with::

    python examples/web_search_inverted_index.py [--accesses 80000]
"""

from __future__ import annotations

import argparse

from repro.analysis.reporting import format_table, print_report
from repro.common.params import CacheParams, SystemParams
from repro.sim import base_open, bump_system, ideal_system
from repro.sim.runner import build_trace, run_configs
from repro.sim.system import ServerSystem


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accesses", type=int, default=80_000)
    parser.add_argument("--llc-mb", type=int, default=1,
                        help="LLC capacity in MiB (paper configuration: 4; the "
                             "default 1MiB reaches steady state on short traces)")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()
    system = SystemParams().scaled(
        llc=CacheParams(size_bytes=args.llc_mb * 1024 * 1024, associativity=16,
                        hit_latency_cycles=8, banks=8)
    )

    print("Characterising the Web Search memory reference stream...")
    configs = [config.with_overrides(system=system)
               for config in (base_open(), ideal_system(), bump_system())]
    results = run_configs("web_search", configs,
                          num_accesses=args.accesses, seed=args.seed)
    density = results["ideal"].density

    print_report(format_table(
        [
            ["reads", f"{density.read_density['low']:.2f}",
             f"{density.read_density['medium']:.2f}", f"{density.read_density['high']:.2f}"],
            ["writes", f"{density.write_density['low']:.2f}",
             f"{density.write_density['medium']:.2f}", f"{density.write_density['high']:.2f}"],
        ],
        headers=["traffic", "low (<25%)", "medium (25-50%)", "high (>=50%)"],
    ))
    print("High-density traffic comes from index-page scans; the low-density tail is "
          "the hash-table walk that locates each term (Figure 4 of the paper).")

    # Re-run BuMP on a fresh system to inspect predictor internals.
    print("\nInspecting BuMP's predictor structures...")
    server = ServerSystem(bump_system().with_overrides(system=system),
                          workload_name="web_search")
    trace = build_trace("web_search", args.accesses, seed=args.seed)
    result = server.run(trace, warmup_accesses=args.accesses // 2)
    bump = server.bump

    trained_tuples = len(bump.bht)
    rows = [
        ["BHT (PC,offset) tuples trained", str(trained_tuples)],
        ["BHT storage", f"{bump.bht.storage_bits() / 8 / 1024:.2f} KiB"],
        ["RDTT storage (trigger + density)", f"{bump.rdtt.storage_bits() / 8 / 1024:.2f} KiB"],
        ["DRT storage", f"{bump.drt.storage_bits() / 8 / 1024:.2f} KiB"],
        ["total BuMP storage", f"{bump.storage_bits() / 8 / 1024:.2f} KiB"],
        ["read coverage", f"{result.read_coverage:.2f}"],
        ["read overfetch", f"{result.read_overfetch:.2f}"],
        ["write coverage", f"{result.write_coverage:.2f}"],
        ["row-buffer hit ratio (BuMP)", f"{result.row_buffer_hit_ratio:.2f}"],
        ["row-buffer hit ratio (Base-open)", f"{results['base_open'].row_buffer_hit_ratio:.2f}"],
    ]
    print_report(format_table(rows, headers=["metric", "value"]))

    print("A handful of scoring/scanning functions touch every index page, so a few "
          "hundred (PC, offset) tuples are enough to predict bulk transfers for an "
          "arbitrarily large index -- that is why BuMP needs ~14KB where per-region "
          "footprint prefetchers need tens of kilobytes per core.")


if __name__ == "__main__":
    main()
