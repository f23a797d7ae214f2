"""Golden result fingerprints of BuMP and full-region streaming.

Every case simulates a paper workload on a scaled-down LLC (so the LLC
evicts and BuMP's region terminations, DRT and bulk transfers all fire
within a short trace) and compares the :func:`result_fingerprint` and a
handful of predictor-table counters with ``golden/bump_fingerprints.json``.
The six paper workloads run under ``bump``, ``bump_vwq`` and
``full_region``; web_search also runs under four BuMP region geometries.
The DRAM-path cases run data_serving under ``bump`` on the object DRAM
engine with every transaction scheduler, on the dict cache + object DRAM
reference pair, and with close-row pages, so the engine choice and the
issuing core each staged transfer carries are pinned too.

Regenerate the file (only when a change is *meant* to alter results) with::

    PYTHONPATH=src python tests/test_golden_bump.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.analysis.paper_data import WORKLOAD_ORDER
from repro.common.params import CacheParams, SystemParams
from repro.dram.controller import PagePolicy
from repro.core.config import BuMPConfig
from repro.exec.campaign import result_fingerprint
from repro.sim.config import bump_system, bump_vwq_system, full_region_system
from repro.sim.runner import build_trace
from repro.sim.system import ServerSystem
from repro.workloads.catalog import get_workload

GOLDEN = Path(__file__).parent / "golden" / "bump_fingerprints.json"
SMALL_SYSTEM = SystemParams().scaled(
    llc=CacheParams(size_bytes=256 * 1024, associativity=16, hit_latency_cycles=8),
)
ACCESSES = 24_000
WARMUP = 12_000
CORES = 8
SEED = 3

#: Table counters that must be non-zero somewhere in the set, so every
#: BuMP path (both conflict kinds, DRT hits, bulk reads, bulk writebacks)
#: is exercised by at least one pinned case.
COUNTERS = ("density_conflicts", "trigger_conflicts", "drt_hits",
            "bulk_read_triggers", "bulk_writeback_triggers")


#: Workload of the DRAM-path cases: its writebacks reach DRAM, so the
#: write-buffering scheduler changes the result.
DRAM_WORKLOAD = "data_serving"
#: Transaction schedulers of the object DRAM engine; every case but
#: ``frfcfs`` must give a result different from the ``frfcfs`` one.
SCHEDULERS = ("fcfs", "frfcfs", "bank_round_robin", "write_drain")


def _cases():
    """Case name -> (workload, config factory, cache engine, DRAM engine).

    An engine of ``None`` is the default one.
    """
    cases = {}
    for name in WORKLOAD_ORDER:
        cases[f"{name}/bump"] = (name, bump_system, None, None)
        cases[f"{name}/bump_vwq"] = (name, bump_vwq_system, None, None)
        cases[f"{name}/full_region"] = (name, full_region_system, None, None)
    for region in (512, 2048):
        for fraction in (0.25, 1.0):
            bump = BuMPConfig().with_region_size(region, threshold_fraction=fraction)
            cases[f"web_search/bump-r{region}-t{int(fraction * 100)}"] = (
                "web_search", lambda bump=bump: bump_system(bump), None, None)
    for scheduler in SCHEDULERS:
        cases[f"{DRAM_WORKLOAD}/bump/object-{scheduler}"] = (
            DRAM_WORKLOAD, lambda scheduler=scheduler: bump_system(scheduler=scheduler),
            None, "object")
    cases[f"{DRAM_WORKLOAD}/bump/dict-object"] = (
        DRAM_WORKLOAD, bump_system, "dict", "object")
    cases[f"{DRAM_WORKLOAD}/bump/object-close"] = (
        DRAM_WORKLOAD, lambda: bump_system(page_policy=PagePolicy.CLOSE),
        None, "object")
    return cases


CASES = _cases()


def simulate(case: str) -> dict:
    workload, make_config, cache_engine, dram_engine = CASES[case]
    config = make_config().with_overrides(system=SMALL_SYSTEM)
    trace = build_trace(get_workload(workload), ACCESSES, CORES, SEED)
    system = ServerSystem(config, workload_name=workload,
                          cache_engine=cache_engine, dram_engine=dram_engine)
    assert system.dram_engine == (dram_engine or "flat")
    result = system.run(trace, warmup_accesses=WARMUP)
    observed = {
        "fingerprint": result_fingerprint(result),
        "bulk_read_triggers": result.predictor["bulk_read_triggers"],
        "bulk_writeback_triggers": result.predictor["bulk_writeback_triggers"],
    }
    bump = system.bump
    if bump is not None:
        observed["density_conflicts"] = bump.rdtt.stats["density_conflicts"]
        observed["trigger_conflicts"] = bump.rdtt.stats["trigger_conflicts"]
        observed["drt_hits"] = bump.drt.stats["hits"]
    return observed


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def observed():
    return {case: simulate(case) for case in CASES}


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_bump_result_matches_golden(case, golden, observed):
    assert observed[case] == golden[case]


@pytest.mark.parametrize("scheduler", [s for s in SCHEDULERS if s != "frfcfs"])
def test_dram_ablation_changes_the_result(scheduler, golden):
    """A scheduler case equal to the FR-FCFS one would pin nothing."""
    prefix = f"{DRAM_WORKLOAD}/bump/object-"
    assert (golden[prefix + scheduler]["fingerprint"]
            != golden[prefix + "frfcfs"]["fingerprint"])


@pytest.mark.parametrize("counter", COUNTERS)
def test_golden_set_exercises_every_bump_path(counter, golden):
    assert any(entry.get(counter, 0) > 0 for entry in golden.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_golden_bump.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({case: simulate(case) for case in CASES},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
