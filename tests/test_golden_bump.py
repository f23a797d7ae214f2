"""Golden result fingerprints of BuMP and full-region streaming.

Every case simulates a paper workload on a scaled-down LLC (so the LLC
evicts and BuMP's region terminations, DRT and bulk transfers all fire
within a short trace) and compares the :func:`result_fingerprint` and a
handful of predictor-table counters with ``golden/bump_fingerprints.json``.
The six paper workloads run under ``bump``, ``bump_vwq`` and
``full_region``; web_search also runs under four BuMP region geometries.

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


def _cases():
    cases = {}
    for name in WORKLOAD_ORDER:
        cases[f"{name}/bump"] = (name, bump_system)
        cases[f"{name}/bump_vwq"] = (name, bump_vwq_system)
        cases[f"{name}/full_region"] = (name, full_region_system)
    for region in (512, 2048):
        for fraction in (0.25, 1.0):
            bump = BuMPConfig().with_region_size(region, threshold_fraction=fraction)
            cases[f"web_search/bump-r{region}-t{int(fraction * 100)}"] = (
                "web_search", lambda bump=bump: bump_system(bump))
    return cases


CASES = _cases()


def simulate(case: str) -> dict:
    workload, make_config = CASES[case]
    config = make_config().with_overrides(system=SMALL_SYSTEM)
    trace = build_trace(get_workload(workload), ACCESSES, CORES, SEED)
    system = ServerSystem(config, workload_name=workload)
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
