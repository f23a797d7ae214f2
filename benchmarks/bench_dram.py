"""Throughput benchmark for the flat-array DRAM engine.

Measures the flat DRAM engine (``repro.dram.flat``, the default) against the
object engine (``repro.dram.system`` + per-request ``MemoryController``),
the request-object reference whose FR-FCFS queue scans its window on every
pop.  Both engines take the same ``enqueue_block_batch`` intake.
Results are bit-identical between the engines (asserted here and by the
parity suite); only the speed differs.

Two kinds of scenarios bracket the engine:

* **Engine replay** -- the DRAM transfer stream of a memory-bound run is
  recorded once and replayed through both memory-system engines in
  isolation.  This is the engine comparison proper (100% memory system, no
  cache-layer time diluting it) and where the >= 2x acceptance target
  applies: ``replay_random`` replays the row-locality-poor stream of a
  DRAM-resident run, ``replay_bulk`` the row-hit-heavy stream of a
  Full-region bulk-streaming run.

* **End to end** -- whole simulations under both engines: a synthetic
  DRAM-resident trace (every access misses the LLC), a writeback storm
  (store-heavy traffic through the eager-writeback system, ~2 DRAM
  transfers per access), and the two memory-bound catalog scenarios the
  paper's multi-tenant evaluation leans on (``antagonist-burst`` and
  ``tenant-colocation``) under BuMP and the open-row baseline.  These
  ratios are Amdahl-bounded by the (already flattened) cache layer, so they
  sit below the replay numbers; the JSON records both honestly.

The results are written as a JSON trajectory file (``BENCH_dram.json`` by
default) so CI can archive one point per commit.  Run directly::

    PYTHONPATH=src python benchmarks/bench_dram.py [--smoke]

``--smoke`` shrinks every stream so the whole file finishes in seconds; CI
runs it and fails when the flat engine is not faster than the object engine
on any scenario (or when the engines diverge).  The full run additionally
enforces the 2x replay target.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import __version__
from repro.dram.flat import FlatMemorySystem
from repro.dram.system import MemorySystem
from repro.exec.campaign import result_fingerprint
from repro.scenario.catalog import get_scenario
from repro.scenario.compiler import iter_scenario_chunks
from repro.sim.config import base_open, bump_system, eager_writeback_system
from repro.sim.runner import run_trace
from repro.sim.system import ServerSystem
from repro.trace.buffer import TraceBuffer

SEED = 42
CORES = 16
REPLAY_BATCH = 4096


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else float("inf")


def synthetic_trace(accesses: int, footprint_bytes_per_core: int,
                    store_fraction: float = 0.5, seed: int = 7) -> TraceBuffer:
    """A trace whose per-core working set has a controlled footprint."""
    rng = np.random.default_rng(seed)
    core = rng.integers(0, CORES, accesses).astype(np.int32)
    blocks_per_core = max(footprint_bytes_per_core // 64, 1)
    offsets = rng.integers(0, blocks_per_core, accesses).astype(np.uint64)
    address = (core.astype(np.uint64) << np.uint64(32)) | (offsets << np.uint64(6))
    pc = (rng.integers(0, 64, accesses).astype(np.uint64) << np.uint64(2)) \
        + np.uint64(0x400000)
    is_store = rng.random(accesses) < store_fraction
    instructions = rng.integers(1, 4, accesses).astype(np.int32)
    return TraceBuffer(core, pc, address, is_store, instructions)


# --------------------------------------------------------------------- #
# Engine replay
# --------------------------------------------------------------------- #
def record_transfer_stream(trace: TraceBuffer, config) -> tuple:
    """Run one simulation and record every DRAM transfer it generates."""
    system = ServerSystem(config, workload_name="recorder", dram_engine="flat")
    columns: tuple = ([], [], [], [])
    original = system.memory.enqueue_block_batch

    def recording(*batch):
        for column, values in zip(columns, batch):
            column.extend(values)
        original(*batch)

    system.memory.enqueue_block_batch = recording
    system.run(trace)
    blocks, kinds, arrivals, cores = columns
    return (np.array(blocks, dtype=np.int64),
            np.array(kinds, dtype=np.int64),
            np.array(arrivals, dtype=np.float64),
            np.array(cores, dtype=np.int64),
            config)


def _fresh_engines(config):
    params = config.system
    system = ServerSystem(config, dram_engine="object")
    obj = system.memory
    flat = FlatMemorySystem(params.dram_timing, params.dram_org, obj.mapping,
                            config.page_policy,
                            window=params.dram_org.transaction_queue_entries)
    return obj, flat


def bench_replay(name: str, stream: tuple, repeats: int) -> dict:
    """Replay a recorded transfer stream through both engines in isolation."""
    *columns, config = stream
    transfers = len(columns[0])
    column_lists = [column.tolist() for column in columns]

    best = {"object": float("inf"), "flat": float("inf")}
    stats = {}
    for _ in range(repeats):
        obj, flat = _fresh_engines(config)
        start = time.perf_counter()
        obj.enqueue_block_batch(*column_lists)
        obj.drain()
        best["object"] = min(best["object"], time.perf_counter() - start)
        stats["object"] = obj.aggregate_stats().snapshot()

        start = time.perf_counter()
        for lo in range(0, transfers, REPLAY_BATCH):
            flat.enqueue_block_batch(
                *(column[lo:lo + REPLAY_BATCH] for column in columns))
        flat.drain()
        best["flat"] = min(best["flat"], time.perf_counter() - start)
        stats["flat"] = flat.aggregate_stats().snapshot()

    identical = stats["flat"] == stats["object"]
    row = {
        "kind": "engine_replay",
        "transfers": transfers,
        "object_seconds": best["object"],
        "flat_seconds": best["flat"],
        "object_transfers_per_second": _rate(transfers, best["object"]),
        "flat_transfers_per_second": _rate(transfers, best["flat"]),
        "speedup": best["object"] / best["flat"],
        "results_identical": identical,
        "row_hit_ratio": (stats["flat"]["row_hits"] / stats["flat"]["accesses"]
                          if stats["flat"]["accesses"] else 0.0),
    }
    print(f"  {name}: object {row['object_transfers_per_second']:,.0f} tr/s, "
          f"flat {row['flat_transfers_per_second']:,.0f} tr/s "
          f"({row['speedup']:.2f}x, row hit {row['row_hit_ratio']:.0%}, "
          f"identical={identical})")
    return row


# --------------------------------------------------------------------- #
# End-to-end scenarios
# --------------------------------------------------------------------- #
def bench_end_to_end(name: str, trace, config, repeats: int,
                     num_accesses=None) -> dict:
    """Run one trace (or chunk list) under both DRAM engines, end to end."""
    timings = {}
    results = {}
    for engine in ("object", "flat"):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            result = run_trace(trace, config, warmup_fraction=0.5,
                               dram_engine=engine, num_accesses=num_accesses)
            best = min(best, time.perf_counter() - start)
        timings[engine] = best
        results[engine] = result
    identical = (result_fingerprint(results["flat"])
                 == result_fingerprint(results["object"]))
    accesses = int(results["flat"].counters["accesses"])
    transfers = int(results["flat"].dram["accesses"])
    row = {
        "kind": "end_to_end",
        "config": config.name,
        "accesses": accesses,
        "dram_transfers": transfers,
        "object_seconds": timings["object"],
        "flat_seconds": timings["flat"],
        "object_accesses_per_second": _rate(accesses, timings["object"]),
        "flat_accesses_per_second": _rate(accesses, timings["flat"]),
        "speedup": timings["object"] / timings["flat"],
        "results_identical": identical,
    }
    print(f"  {name}: object {row['object_accesses_per_second']:,.0f} acc/s, "
          f"flat {row['flat_accesses_per_second']:,.0f} acc/s "
          f"({row['speedup']:.2f}x, {transfers} transfers, "
          f"identical={identical})")
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny streams for CI (seconds, not minutes)")
    parser.add_argument("--output", default="BENCH_dram.json",
                        help="trajectory JSON path")
    args = parser.parse_args(argv)

    resident_accesses = 20_000 if args.smoke else 120_000
    storm_accesses = 15_000 if args.smoke else 60_000
    bulk_accesses = 4_000 if args.smoke else 20_000
    scenario_scale = 0.01 if args.smoke else 0.1
    repeats = 1 if args.smoke else 3

    print(f"DRAM engine benchmark ({'smoke' if args.smoke else 'full'}), "
          f"{CORES} cores")

    resident_trace = synthetic_trace(resident_accesses, 2 * 1024 * 1024)
    storm_trace = synthetic_trace(storm_accesses, 2 * 1024 * 1024,
                                  store_fraction=0.95)
    from repro.sim.config import full_region_system

    print("engine replay (isolated memory system):")
    scenarios = {
        "replay_random": bench_replay(
            "replay_random",
            record_transfer_stream(resident_trace, base_open()), repeats),
        "replay_bulk": bench_replay(
            "replay_bulk",
            record_transfer_stream(
                synthetic_trace(bulk_accesses, 2 * 1024 * 1024),
                full_region_system()),
            repeats),
    }

    print("end to end (full simulations):")
    scenarios["dram_resident"] = bench_end_to_end(
        "dram_resident", resident_trace, base_open(), repeats)
    scenarios["writeback_storm"] = bench_end_to_end(
        "writeback_storm", storm_trace, eager_writeback_system(), repeats)
    for scenario_name in ("antagonist-burst", "tenant-colocation"):
        scenario = get_scenario(scenario_name, scale=scenario_scale)
        chunks = list(iter_scenario_chunks(scenario, seed=SEED))
        for config in (base_open(), bump_system()):
            key = f"{scenario_name}/{config.name}"
            scenarios[key] = bench_end_to_end(
                key, chunks, config, repeats,
                num_accesses=scenario.total_accesses)

    payload = {
        "benchmark": "dram",
        "version": __version__,
        "mode": "smoke" if args.smoke else "full",
        "num_cores": CORES,
        "seed": SEED,
        "engines": {
            "object": "request-object MemorySystem + per-channel controllers",
            "flat": "flat-array engine: NumPy state, ring-buffer queues, "
                    "batched enqueue_block_batch intake",
        },
        "scenarios": scenarios,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")

    failures = []
    for name, row in scenarios.items():
        if not row["results_identical"]:
            failures.append(f"{name}: engines diverged (parity broken)")
        if row["speedup"] <= 1.0:
            failures.append(
                f"{name}: flat engine not faster than object "
                f"({row['speedup']:.2f}x)")
    if not args.smoke:
        replay_best = max(scenarios["replay_random"]["speedup"],
                          scenarios["replay_bulk"]["speedup"])
        if replay_best < 2.0:
            failures.append(
                f"engine replay speedup {replay_best:.2f}x below the "
                "2x memory-bound target")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
