"""Unit tests for the Region Density Tracking Table.

The RDTT is trained by the BuMP hooks, so these tests drive it through a
:class:`BuMPPredictor` and inspect the tables and counters it owns.
"""

from repro.common.addressing import BLOCK_SIZE, REGION_SIZE
from repro.common.request import LLCRequest, LLCRequestKind
from repro.cache.set_assoc import EvictedLine
from repro.core.bump import BuMPPredictor
from repro.core.config import BuMPConfig

#: The entry layout documented in :mod:`repro.core.rdtt`, which the BuMP
#: hooks build and read; these tests pin it.
REGION, TRIGGER_PC, TRIGGER_OFFSET, PATTERN, DIRTY = range(5)


def accessed_blocks(entry):
    return bin(entry[PATTERN]).count("1")


def block(region, offset):
    return region * REGION_SIZE + offset * BLOCK_SIZE


def access(bump, address, pc, is_write=False):
    kind = LLCRequestKind.DEMAND_WRITE if is_write else LLCRequestKind.DEMAND_READ
    bump.on_access(LLCRequest(core=0, pc=pc, block_address=address, kind=kind,
                              is_store=is_write), hit=False)


def evict(bump, address, dirty=False):
    return bump.on_eviction(EvictedLine(block_address=address, dirty=dirty,
                                        prefetched=False, used=True))


def occupancy(table_sets):
    return sum(map(len, table_sets))


def test_first_access_allocates_in_trigger_table():
    bump = BuMPPredictor()
    access(bump, block(5, 2), pc=0x400)
    entry = bump.rdtt.lookup_active(block(5, 0))
    assert entry is not None
    assert entry[TRIGGER_PC] == 0x400
    assert entry[TRIGGER_OFFSET] == 2
    assert accessed_blocks(entry) == 1
    assert occupancy(bump.rdtt.density_sets) == 0


def test_second_access_promotes_to_density_table():
    """Figure 7, events 1-3: allocate, transfer, update."""
    bump = BuMPPredictor()
    access(bump, block(5, 2), pc=0x400)
    access(bump, block(5, 3), pc=0x404)
    assert occupancy(bump.rdtt.trigger_sets) == 0
    assert occupancy(bump.rdtt.density_sets) == 1
    entry = bump.rdtt.lookup_active(block(5, 0))
    assert accessed_blocks(entry) == 2
    # The trigger PC/offset of the *first* access is preserved.
    assert entry[TRIGGER_PC] == 0x400 and entry[TRIGGER_OFFSET] == 2
    access(bump, block(5, 0), pc=0x408)
    assert accessed_blocks(bump.rdtt.lookup_active(block(5, 0))) == 3
    assert bump.rdtt.stats["promotions"] == 1


def test_store_access_sets_dirty_bit():
    bump = BuMPPredictor()
    access(bump, block(1, 0), pc=1)
    assert not bump.rdtt.lookup_active(block(1, 0))[DIRTY]
    access(bump, block(1, 1), pc=1, is_write=True)
    assert bump.rdtt.lookup_active(block(1, 0))[DIRTY]


def test_eviction_terminates_active_region():
    """Figure 7, event 4: an eviction in an active region terminates it."""
    bump = BuMPPredictor()
    for offset in range(10):
        access(bump, block(7, offset), pc=0x400)
    evict(bump, block(7, 3))
    assert bump.rdtt.stats["eviction_terminations"] == 1
    assert bump.stats["regions_high_density"] == 1
    assert bump.rdtt.lookup_active(block(7, 0)) is None


def test_eviction_outside_tracked_regions_returns_none():
    bump = BuMPPredictor()
    assert evict(bump, block(99, 0), dirty=True).empty
    assert "eviction_terminations" not in bump.rdtt.stats
    assert "regions_terminated" not in bump.stats


def test_eviction_terminates_single_access_region_as_low_density():
    bump = BuMPPredictor()
    access(bump, block(3, 0), pc=1)
    evict(bump, block(3, 0))
    assert bump.rdtt.stats["eviction_terminations"] == 1
    assert bump.stats["regions_low_density"] == 1
    assert "regions_high_density" not in bump.stats


def test_density_table_conflict_reports_termination():
    config = BuMPConfig(trigger_entries=16, density_entries=16, associativity=16)
    bump = BuMPPredictor(config)
    # Promote 17 distinct regions into the fully-associative density table;
    # the 17th promotion must displace the least recently used region.
    for region in range(17):
        access(bump, block(region, 0), pc=0x10)
        access(bump, block(region, 1), pc=0x10)
    assert bump.rdtt.stats["density_conflicts"] == 1
    assert "trigger_conflicts" not in bump.rdtt.stats
    assert bump.stats["regions_terminated"] == 1
    assert bump.rdtt.lookup_active(block(0, 0)) is None
    assert {entry[REGION] for entry in bump.rdtt.density_sets[0].values()} \
        == set(range(1, 17))


def test_trigger_table_conflict_reports_low_density_region():
    config = BuMPConfig(trigger_entries=16, density_entries=16, associativity=16)
    bump = BuMPPredictor(config)
    for region in range(17):
        access(bump, block(region, 0), pc=0x10)
    assert bump.rdtt.stats["trigger_conflicts"] == 1
    assert bump.stats["regions_terminated"] == 1
    assert bump.stats["regions_low_density"] == 1


def test_active_region_count_and_storage():
    bump = BuMPPredictor()
    rdtt = bump.rdtt
    assert rdtt.active_regions == 0
    access(bump, block(1, 0), pc=1)
    access(bump, block(2, 0), pc=1)
    access(bump, block(2, 1), pc=1)
    assert rdtt.active_regions == 2
    # Section IV.D: the RDTT costs roughly 2.5KB + 3KB.
    assert 4 * 1024 <= rdtt.storage_bits() / 8 <= 8 * 1024


def test_repeated_access_to_same_block_does_not_inflate_density():
    bump = BuMPPredictor()
    for _ in range(5):
        access(bump, block(4, 2), pc=1)
    # A single-block region bounces between trigger and density tables but
    # its density never exceeds one block.
    assert accessed_blocks(bump.rdtt.lookup_active(block(4, 0))) == 1
