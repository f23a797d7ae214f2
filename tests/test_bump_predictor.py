"""Unit tests for the complete BuMP engine and the Full-region foil."""

import numpy as np
import pytest

from repro.common.addressing import BLOCK_SIZE, REGION_SIZE
from repro.common.params import CacheParams, SystemParams
from repro.common.request import LLCRequest, LLCRequestKind
from repro.cache.agent import NO_ACTIONS, AgentActions
from repro.cache.set_assoc import EvictedLine
from repro.core.bump import BuMPPredictor
from repro.core.config import BuMPConfig
from repro.core.fullregion import FullRegionStreamer
from repro.sim.config import bump_system, bump_vwq_system
from repro.sim.runner import build_trace
from repro.sim.system import ServerSystem
from repro.trace.buffer import TraceBuffer

#: Scaled-down LLC so a short trace evicts and BuMP triggers bulk transfers.
SMALL_SYSTEM = SystemParams().scaled(
    llc=CacheParams(size_bytes=256 * 1024, associativity=16, hit_latency_cycles=8),
)


def block(region, offset):
    return region * REGION_SIZE + offset * BLOCK_SIZE


def demand(pc, address, store=False, core=0):
    kind = LLCRequestKind.DEMAND_WRITE if store else LLCRequestKind.DEMAND_READ
    return LLCRequest(core=core, pc=pc, block_address=address, kind=kind, is_store=store)


def evicted(address, dirty=False):
    return EvictedLine(block_address=address, dirty=dirty, prefetched=False, used=True)


def train_dense_region(bump, region, pc=0x400, blocks=10, store=False, trigger_offset=0):
    """Access ``blocks`` blocks of ``region`` then evict one to terminate it."""
    for offset in range(trigger_offset, trigger_offset + blocks):
        bump.on_access(demand(pc, block(region, offset % 16), store=store), hit=False)
    return bump.on_eviction(evicted(block(region, trigger_offset), dirty=store))


# --------------------------------------------------------------------- #
# Bulk read prediction
# --------------------------------------------------------------------- #
def test_untrained_miss_generates_no_bulk_read():
    bump = BuMPPredictor()
    actions = bump.on_miss(demand(0x400, block(1, 0)))
    assert actions.empty


def test_high_density_termination_trains_bht_and_triggers_bulk_reads():
    bump = BuMPPredictor()
    train_dense_region(bump, region=1, pc=0x400, blocks=10)
    # A later miss by the same instruction at the same offset of a brand new
    # region triggers a bulk read of the region's other fifteen blocks.
    actions = bump.on_miss(demand(0x400, block(50, 0)))
    assert len(actions.fetch_blocks) == 15
    assert block(50, 0) not in actions.fetch_blocks
    assert set(actions.fetch_blocks) == {block(50, i) for i in range(1, 16)}


def test_low_density_region_does_not_train_bht():
    bump = BuMPPredictor()
    train_dense_region(bump, region=2, pc=0x500, blocks=3)
    actions = bump.on_miss(demand(0x500, block(60, 0)))
    assert actions.empty


def test_bulk_read_keyed_by_pc_and_offset():
    bump = BuMPPredictor()
    train_dense_region(bump, region=3, pc=0x600, blocks=12, trigger_offset=4)
    # Same PC but different trigger offset: no prediction.
    assert bump.on_miss(demand(0x600, block(70, 0))).empty
    # Same PC and matching offset: prediction fires.
    assert len(bump.on_miss(demand(0x600, block(70, 4))).fetch_blocks) == 15


def test_density_threshold_respected():
    config = BuMPConfig(density_threshold_blocks=12)
    bump = BuMPPredictor(config)
    train_dense_region(bump, region=4, pc=0x700, blocks=10)
    assert bump.on_miss(demand(0x700, block(80, 0))).empty
    train_dense_region(bump, region=5, pc=0x700, blocks=13)
    assert len(bump.on_miss(demand(0x700, block(81, 0))).fetch_blocks) == 15


# --------------------------------------------------------------------- #
# Bulk write prediction
# --------------------------------------------------------------------- #
def test_dirty_eviction_of_active_modified_region_triggers_bulk_writeback():
    bump = BuMPPredictor()
    actions = train_dense_region(bump, region=6, pc=0x800, blocks=10, store=True)
    # The terminating dirty eviction itself must stream the rest of the region.
    assert len(actions.writeback_blocks) == 15
    assert block(6, 0) not in actions.writeback_blocks


def test_clean_eviction_of_modified_region_defers_to_drt():
    bump = BuMPPredictor()
    for offset in range(10):
        bump.on_access(demand(0x900, block(7, offset), store=True), hit=False)
    clean_term = bump.on_eviction(evicted(block(7, 2), dirty=False))
    assert clean_term.empty
    assert bump.drt.contains(7)
    # The later dirty eviction of another block finds the region in the DRT.
    actions = bump.on_eviction(evicted(block(7, 5), dirty=True))
    assert len(actions.writeback_blocks) == 15
    assert not bump.drt.contains(7)


def test_clean_region_never_enters_drt():
    bump = BuMPPredictor()
    train_dense_region(bump, region=8, pc=0xA00, blocks=10, store=False)
    assert len(bump.drt) == 0


def test_dirty_eviction_without_tracking_generates_nothing():
    bump = BuMPPredictor()
    actions = bump.on_eviction(evicted(block(99, 3), dirty=True))
    assert actions.empty


def test_conflict_terminated_modified_region_lands_in_drt():
    config = BuMPConfig(trigger_entries=16, density_entries=16, associativity=16)
    bump = BuMPPredictor(config)
    # Fill the density table with 16 dense modified regions, then promote a
    # 17th to force a conflict termination of the oldest one.
    for region in range(17):
        for offset in range(9):
            bump.on_access(demand(0xB00, block(region, offset), store=True), hit=False)
    assert bump.drt.contains(0)


# --------------------------------------------------------------------- #
# Overheads and bookkeeping
# --------------------------------------------------------------------- #
def test_total_storage_is_about_14_kilobytes():
    bump = BuMPPredictor()
    assert bump.storage_bits() / 8 / 1024 == pytest.approx(14.0, abs=2.5)


def test_structure_access_counts_accumulate():
    bump = BuMPPredictor()
    train_dense_region(bump, region=10, pc=0xC00, blocks=10)
    bump.on_miss(demand(0xC00, block(90, 0)))
    counts = bump.structure_access_counts()
    assert counts["rdtt"] > 0
    assert counts["bht_drt"] > 0


# --------------------------------------------------------------------- #
# Hoisted counters and the shared empty bundle
# --------------------------------------------------------------------- #
def test_hooks_without_traffic_return_the_shared_empty_bundle():
    bump = BuMPPredictor()
    assert bump.on_access(demand(0x400, block(1, 0)), hit=False) is NO_ACTIONS
    assert bump.on_miss(demand(0x400, block(1, 0))) is NO_ACTIONS
    assert bump.on_eviction(evicted(block(1, 0))) is NO_ACTIONS
    with pytest.raises(AttributeError):
        NO_ACTIONS.merge(AgentActions(fetch_blocks=[64]))
    assert NO_ACTIONS.empty


def test_counters_fold_only_once_nonzero():
    bump = BuMPPredictor()
    assert "bulk_read_triggers" not in bump.stats
    train_dense_region(bump, region=1, pc=0x400, blocks=10)
    bump.on_miss(demand(0x400, block(50, 0)))
    assert bump.stats["bulk_read_triggers"] == 1
    assert bump.stats["bulk_read_blocks_requested"] == 15
    assert bump.stats["regions_terminated"] == 1
    # A read folds the pending ints: reading again adds nothing.
    assert bump.stats["rdtt_accesses"] == 10
    bump.stats.reset()
    assert "rdtt_accesses" not in bump.stats


def test_measured_window_without_bulk_triggers_has_no_trigger_key():
    system = ServerSystem(bump_system().with_overrides(system=SMALL_SYSTEM),
                          workload_name="web_search")
    system.run(build_trace("web_search", 12_000, 8, 3))
    assert system.bump.bht.stats["hits"] > 0  # the warm-up did trigger
    system.begin_measurement()
    # One core re-reading one block with an untrained PC: an LLC access and
    # a BHT probe that misses, then L1 hits.
    tail = TraceBuffer(core=np.zeros(4, dtype=int), pc=np.full(4, 0xDEAD0),
                       address=np.full(4, 1 << 40), is_store=np.zeros(4, dtype=bool),
                       instructions=np.full(4, 10))
    predictor = system.run(tail).predictor
    assert predictor["rdtt_accesses"] == 1 and predictor["bht_probes"] == 1
    assert "bulk_read_triggers" not in predictor
    assert "bulk_read_blocks_requested" not in predictor


@pytest.mark.parametrize("engine", ["dict", "flat"])
def test_shared_empty_bundle_survives_both_demand_paths(engine):
    """bump_vwq merges two agents' bundles on ``_llc_demand_access`` (dict)
    and ``_llc_demand_fast`` (flat); neither may extend the shared bundle."""
    system = ServerSystem(bump_vwq_system().with_overrides(system=SMALL_SYSTEM),
                          workload_name="web_search", cache_engine=engine)
    result = system.run(build_trace("web_search", 12_000, 8, 3))
    assert result.predictor["bulk_read_triggers"] > 0
    assert result.predictor["bulk_writeback_triggers"] > 0
    assert NO_ACTIONS.fetch_blocks == () and NO_ACTIONS.writeback_blocks == ()


# --------------------------------------------------------------------- #
# Full-region foil
# --------------------------------------------------------------------- #
def test_full_region_fetches_whole_region_on_every_miss():
    streamer = FullRegionStreamer()
    actions = streamer.on_miss(demand(0x1, block(3, 5)))
    assert len(actions.fetch_blocks) == 15
    assert block(3, 5) not in actions.fetch_blocks


def test_full_region_writes_back_whole_region_on_dirty_eviction():
    streamer = FullRegionStreamer()
    assert streamer.on_eviction(evicted(block(4, 1), dirty=False)).writeback_blocks == []
    actions = streamer.on_eviction(evicted(block(4, 1), dirty=True))
    assert len(actions.writeback_blocks) == 15


def test_full_region_needs_no_storage():
    assert FullRegionStreamer().storage_bits() == 0
