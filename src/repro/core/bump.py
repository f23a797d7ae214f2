"""The BuMP engine: bulk memory access prediction and streaming.

This class wires the RDTT, BHT and DRT together exactly as Figure 6 of the
paper describes and exposes the result as an LLC agent:

* every demand LLC access (read or write) trains the RDTT;
* every LLC miss probes the BHT with the (PC, offset) of the missing access;
  a hit triggers a *bulk read* of the region's other blocks;
* every LLC eviction terminates the victim's active region (if any); a
  terminated high-density region trains the BHT, and a terminated
  high-density *modified* region either triggers *bulk writebacks* right away
  (when the termination was a dirty eviction) or is remembered in the DRT;
* every dirty LLC eviction that does not belong to an active region probes
  the DRT; a hit triggers bulk writebacks and consumes the entry.

The engine never touches the LLC or memory directly: it returns the block
addresses to fetch or write back in an :class:`AgentActions` bundle and the
system model performs (and attributes) the traffic.

The three hooks run on the simulator's hottest path, so each works directly
on the tables' per-set dicts (bound once at construction; entry layouts in
:mod:`repro.core.rdtt`, :mod:`repro.core.bht` and :mod:`repro.core.drt`),
counts events as plain ints that ``stats`` folds in when read, and returns
the shared :data:`NO_ACTIONS` bundle whenever it requests no traffic.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.addressing import BLOCK_SIZE
from repro.common.request import LLCRequest
from repro.common.stats import EventCounters, StatGroup
from repro.cache.agent import NO_ACTIONS, AgentActions, LLCAgent
from repro.cache.set_assoc import EvictedLine
from repro.core.bht import BulkHistoryTable
from repro.core.config import BuMPConfig
from repro.core.drt import DirtyRegionTable
from repro.core.rdtt import RegionDensityTracker


class BuMPPredictor(LLCAgent, EventCounters):
    """Bulk Memory Access Prediction and Streaming."""

    name = "bump"
    COUNTERS = (
        "rdtt_accesses", "bht_probes", "evictions_observed", "drt_probes",
        "regions_low_density", "regions_high_density",
        "regions_high_density_modified", "bulk_read_triggers",
        "bulk_writeback_triggers")

    def __init__(self, config: BuMPConfig = None) -> None:
        self.config = config = config if config is not None else BuMPConfig()
        self.rdtt = RegionDensityTracker(config)
        self.bht = BulkHistoryTable(config)
        self.drt = DirtyRegionTable(config)
        self._init_counters("bump")
        self._region_size = config.region_size_bytes
        self._threshold = config.density_threshold_blocks
        self._ways = config.associativity
        self._trigger_sets = self.rdtt.trigger_sets
        self._density_sets = self.rdtt.density_sets
        self._bht_sets = self.bht.sets
        self._drt_sets = self.drt.sets
        self._trigger_num_sets = len(self._trigger_sets)
        self._density_num_sets = len(self._density_sets)
        self._bht_num_sets = len(self._bht_sets)
        self._drt_num_sets = len(self._drt_sets)

    @property
    def stats(self) -> StatGroup:
        """BuMP's event counters (pending hook counts folded in)."""
        group = self._stats
        # Derived from the counted events: every termination is low or high
        # density, and a bulk transfer covers its region but the block that
        # triggered it.
        others = self.config.blocks_per_region - 1
        for key, value in (
                ("regions_terminated",
                 self.n_regions_low_density + self.n_regions_high_density),
                ("bulk_read_blocks_requested", self.n_bulk_read_triggers * others),
                ("bulk_writeback_blocks_requested",
                 self.n_bulk_writeback_triggers * others)):
            if value:
                group.inc(key, value)
        return super().stats

    # ------------------------------------------------------------------ #
    # LLC access stream (read and write requests after the L1 filter)
    # ------------------------------------------------------------------ #
    def on_access(self, request: LLCRequest, hit: bool) -> AgentActions:
        """Train the RDTT with a demand access.

        Never requests traffic: a region displaced by a table conflict at
        most trains the BHT and is remembered in the DRT.
        """
        self.n_rdtt_accesses += 1
        rdtt = self.rdtt
        rdtt.n_accesses += 1
        block = request.block_address
        region_size = self._region_size
        region = block // region_size
        offset = (block % region_size) // BLOCK_SIZE
        bit = 1 << offset
        index = hash(region)
        # RDTT entry slots (repro.core.rdtt):
        # [region, trigger_pc, trigger_offset, pattern, dirty].
        density = self._density_sets[index % self._density_num_sets]
        entry = density.pop(region, None)
        if entry is not None:
            density[region] = entry
            entry[3] |= bit
            if request.is_store:
                entry[4] = True
            return NO_ACTIONS

        trigger = self._trigger_sets[index % self._trigger_num_sets]
        entry = trigger.pop(region, None)
        if entry is not None:
            # Second access: promote the region to the density table.
            entry[3] |= bit
            if request.is_store:
                entry[4] = True
            rdtt.n_promotions += 1
            table_set = density
        else:
            # First access: allocate in the trigger table.
            entry = [region, request.pc, offset, bit, request.is_store]
            rdtt.n_allocations += 1
            table_set = trigger
        if len(table_set) < self._ways:
            table_set[region] = entry
            return NO_ACTIONS

        victim = table_set.pop(next(iter(table_set)))
        table_set[region] = entry
        if table_set is density:
            rdtt.n_density_conflicts += 1
        else:
            rdtt.n_trigger_conflicts += 1
        if bin(victim[3]).count("1") < self._threshold:
            self.n_regions_low_density += 1
        else:
            self._terminate_dense(victim, None)
        return NO_ACTIONS

    # ------------------------------------------------------------------ #
    # LLC miss stream (bulk read prediction)
    # ------------------------------------------------------------------ #
    def on_miss(self, request: LLCRequest) -> AgentActions:
        """Probe the BHT; on a hit, bulk-read the region's other blocks."""
        self.n_bht_probes += 1
        bht = self.bht
        bht.n_probes += 1
        block = request.block_address
        offset = (block % self._region_size) // BLOCK_SIZE
        key = (request.pc, offset)
        table_set = self._bht_sets[hash(key) % self._bht_num_sets]
        # Entry slots: [trainings, triggers].
        entry = table_set.pop(key, None)
        if entry is None:
            return NO_ACTIONS
        table_set[key] = entry
        entry[1] += 1
        bht.n_hits += 1
        self.n_bulk_read_triggers += 1
        return AgentActions(self.config.other_region_blocks(block), [])

    # ------------------------------------------------------------------ #
    # LLC eviction stream (region termination and bulk writebacks)
    # ------------------------------------------------------------------ #
    def on_eviction(self, victim: EvictedLine) -> AgentActions:
        """Terminate the victim's region and generate bulk writebacks."""
        self.n_evictions_observed += 1
        rdtt = self.rdtt
        rdtt.n_evictions_seen += 1
        block = victim.block_address
        region = block // self._region_size
        index = hash(region)
        entry = self._density_sets[index % self._density_num_sets].pop(region, None)
        if entry is None:
            entry = self._trigger_sets[index % self._trigger_num_sets].pop(region, None)
        if entry is not None:
            rdtt.n_eviction_terminations += 1
            if bin(entry[3]).count("1") < self._threshold:
                self.n_regions_low_density += 1
                return NO_ACTIONS
            return self._terminate_dense(entry, block if victim.dirty else None)

        if not victim.dirty:
            return NO_ACTIONS
        self.n_drt_probes += 1
        drt = self.drt
        drt.n_probes += 1
        if self._drt_sets[index % self._drt_num_sets].pop(region, None) is None:
            return NO_ACTIONS
        drt.n_hits += 1
        self.n_bulk_writeback_triggers += 1
        return AgentActions([], self.config.other_region_blocks(block))

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _terminate_dense(self, entry: List, dirty_block: Optional[int]) -> AgentActions:
        """A high-density region terminated: train the BHT, handle its writebacks.

        ``dirty_block`` is the evicted block when a dirty eviction ended the
        region: its first dirty eviction streams the rest of the region's
        writebacks right now.  Otherwise (a conflict or a clean eviction) a
        modified region is remembered in the DRT, so a later dirty eviction
        can trigger the bulk writeback.
        """
        self.n_regions_high_density += 1
        self.bht.train(entry[1], entry[2])
        if not entry[4]:
            return NO_ACTIONS
        self.n_regions_high_density_modified += 1
        if dirty_block is None:
            self.drt.insert(entry[0])
            return NO_ACTIONS
        self.n_bulk_writeback_triggers += 1
        return AgentActions([], self.config.other_region_blocks(dirty_block))

    # ------------------------------------------------------------------ #
    # Overheads
    # ------------------------------------------------------------------ #
    def storage_bits(self) -> int:
        """Total storage of BuMP's structures (~14KB at the default geometry)."""
        return (self.rdtt.storage_bits() + self.bht.storage_bits()
                + self.drt.storage_bits())

    def structure_access_counts(self) -> dict:
        """Access counts used by the on-chip energy overhead analysis."""
        stats = self.stats
        return {
            "rdtt": stats["rdtt_accesses"] + stats["evictions_observed"],
            "bht_drt": stats["bht_probes"] + stats["drt_probes"]
                        + self.bht.stats["trainings"] + self.drt.stats["insertions"],
        }
