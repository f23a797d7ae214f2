"""Unit tests for the Bulk History Table and the Dirty Region Table.

The per-miss BHT probe and the per-eviction DRT probe run in the BuMP
hooks, so those paths are driven through a :class:`BuMPPredictor`.
"""

import pytest

from repro.common.addressing import BLOCK_SIZE, REGION_SIZE
from repro.common.request import LLCRequest, LLCRequestKind
from repro.cache.set_assoc import EvictedLine
from repro.core.bht import BulkHistoryTable
from repro.core.bump import BuMPPredictor
from repro.core.config import BuMPConfig
from repro.core.drt import DirtyRegionTable


def predicts(bump, pc, offset):
    """Whether an LLC miss by ``pc`` at ``offset`` triggers a bulk read."""
    request = LLCRequest(core=0, pc=pc, block_address=REGION_SIZE * 40 + offset * BLOCK_SIZE,
                         kind=LLCRequestKind.DEMAND_READ)
    return bool(bump.on_miss(request).fetch_blocks)


def probe_drt(bump, region):
    """Whether a dirty eviction in untracked ``region`` hits the DRT."""
    victim = EvictedLine(block_address=region * REGION_SIZE, dirty=True,
                         prefetched=False, used=True)
    return bool(bump.on_eviction(victim).writeback_blocks)


# --------------------------------------------------------------------- #
# BHT
# --------------------------------------------------------------------- #
def test_bht_predicts_only_trained_tuples():
    bump = BuMPPredictor()
    assert predicts(bump, 0x400, 2) is False
    bump.bht.train(0x400, 2)
    assert predicts(bump, 0x400, 2) is True
    assert predicts(bump, 0x400, 3) is False
    assert predicts(bump, 0x404, 2) is False


def test_bht_offset_is_part_of_the_key():
    """Section IV.B: the PC is augmented with the region offset to tolerate
    misaligned software objects."""
    bump = BuMPPredictor()
    bump.bht.train(0x500, 0)
    bump.bht.train(0x500, 7)
    assert predicts(bump, 0x500, 0) and predicts(bump, 0x500, 7)
    assert not predicts(bump, 0x500, 1)


def test_bht_training_is_idempotent_and_counted():
    bht = BulkHistoryTable()
    bht.train(0x1, 1)
    bht.train(0x1, 1)
    trainings, _triggers = bht.entry_for(0x1, 1)
    assert trainings == 2
    assert bht.stats["trainings"] == 2


def test_bht_hit_ratio_and_trigger_counts():
    bump = BuMPPredictor()
    bht = bump.bht
    bht.train(0x2, 0)
    predicts(bump, 0x2, 0)
    predicts(bump, 0x3, 0)
    assert bht.hit_ratio == pytest.approx(0.5)
    assert bht.entry_for(0x2, 0) == [1, 1]


def test_bht_capacity_bounded():
    config = BuMPConfig(bht_entries=32, associativity=16)
    bht = BulkHistoryTable(config)
    for pc in range(100):
        bht.train(pc, 0)
    assert len(bht) <= 32


def test_bht_storage_close_to_paper_figure():
    # Section IV.D: 1024 entries cost about 4.5KB.
    assert BulkHistoryTable().storage_bits() / 8 / 1024 == pytest.approx(4.5, abs=1.0)


# --------------------------------------------------------------------- #
# DRT
# --------------------------------------------------------------------- #
def test_drt_probe_consumes_entry():
    bump = BuMPPredictor()
    drt = bump.drt
    drt.insert(123)
    assert drt.contains(123)
    assert probe_drt(bump, 123) is True
    assert probe_drt(bump, 123) is False
    assert not drt.contains(123)


def test_drt_miss_probe():
    bump = BuMPPredictor()
    assert probe_drt(bump, 999) is False
    assert bump.drt.stats["probes"] == 1
    assert bump.drt.hit_ratio == 0.0


def test_drt_invalidate_is_idempotent():
    drt = DirtyRegionTable()
    drt.insert(5)
    drt.invalidate(5)
    drt.invalidate(5)
    assert len(drt) == 0


def test_drt_capacity_bounded_with_conflicts_counted():
    config = BuMPConfig(drt_entries=32, associativity=16)
    drt = DirtyRegionTable(config)
    for region in range(100):
        drt.insert(region)
    assert len(drt) <= 32
    assert drt.stats["conflict_evictions"] >= 68


def test_drt_storage_close_to_paper_figure():
    # Section IV.D: 1024 entries cost about 4.25KB.
    assert DirtyRegionTable().storage_bits() / 8 / 1024 == pytest.approx(4.25, abs=1.0)
