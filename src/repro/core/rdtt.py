"""Region Density Tracking Table (RDTT).

The RDTT monitors the LLC access and eviction streams to learn, for every
*active* region (the interval between the region's first access and the first
LLC eviction of one of its blocks), which of its cache blocks were accessed
and whether any were modified.

Internally it is split exactly as Section IV.B describes:

* the **trigger table** holds regions with a single accessed block, recording
  the (PC, offset) of that first (triggering) access and a dirty bit;
* the **density table** holds regions with more than one accessed block,
  adding a per-block access bit-vector ("pattern").

A region *terminates* when one of its blocks is evicted from the LLC, or when
its tracking entry is displaced by a table conflict.

Both tables are lists of per-set dicts (see :meth:`BuMPConfig.table_sets`)
mapping a region number to a five-slot entry list::

    [region, trigger_pc, trigger_offset, pattern, dirty]

``pattern`` is the access bit-vector (bit *i* for block offset *i*) and
``dirty`` whether any access was a store.  This module owns the state and
its counters; the training itself runs in the hooks of
:class:`repro.core.bump.BuMPPredictor`, which build and read these entries
directly because they run on every LLC access and eviction.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.stats import EventCounters
from repro.core.config import BuMPConfig


class RegionDensityTracker(EventCounters):
    """The RDTT: trigger table + density table."""

    COUNTERS = ("accesses", "allocations", "promotions", "trigger_conflicts",
                "density_conflicts", "evictions_seen", "eviction_terminations")

    def __init__(self, config: BuMPConfig = None) -> None:
        self.config = config if config is not None else BuMPConfig()
        self.trigger_sets = self.config.table_sets(self.config.trigger_entries)
        self.density_sets = self.config.table_sets(self.config.density_entries)
        self._init_counters("rdtt")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def lookup_active(self, block_address: int) -> Optional[List]:
        """The entry tracking ``block_address``'s region, if any (LRU untouched)."""
        region = self.config.region_of(block_address)
        entry = BuMPConfig.set_of(self.density_sets, region).get(region)
        if entry is not None:
            return entry
        return BuMPConfig.set_of(self.trigger_sets, region).get(region)

    @property
    def active_regions(self) -> int:
        """Number of regions currently tracked in either table."""
        return sum(map(len, self.trigger_sets)) + sum(map(len, self.density_sets))

    def storage_bits(self) -> int:
        """Storage of both tables.

        Trigger entries hold a region tag, the PC/offset tuple and a dirty
        bit; density entries add the per-block pattern.  With the default
        geometry this lands at roughly 2.5KB + 3KB, matching Section IV.D.
        """
        tag_bits = 30
        pc_offset_bits = 32 + self.config.offset_bits
        trigger_bits = self.config.trigger_entries * (tag_bits + pc_offset_bits + 2)
        density_bits = self.config.density_entries * (
            tag_bits + pc_offset_bits + self.config.blocks_per_region + 2
        )
        return trigger_bits + density_bits
