"""Dirty Region Table (DRT).

Most density-table terminations happen because of table conflicts, *before*
the region's first dirty LLC eviction (Section IV.C).  To still be able to
stream such a region's writebacks in bulk later, BuMP records terminated
high-density *modified* regions in the DRT, indexed by region address.

On a dirty LLC eviction the DRT is probed; a hit means the evicted block
belongs to a known high-density modified region, so the writeback generation
logic issues bulk writebacks for the region's remaining dirty blocks and the
entry is invalidated.  The table is a list of per-set dicts (see
:meth:`BuMPConfig.table_sets`) mapping a region to ``True``; the probe runs
in :meth:`repro.core.bump.BuMPPredictor.on_eviction`, directly on these sets.
"""

from __future__ import annotations

from repro.common.stats import EventCounters
from repro.core.config import BuMPConfig


class DirtyRegionTable(EventCounters):
    """Tracks cache-resident high-density modified regions."""

    COUNTERS = ("insertions", "conflict_evictions", "probes", "hits")

    def __init__(self, config: BuMPConfig = None) -> None:
        self.config = config if config is not None else BuMPConfig()
        self.sets = self.config.table_sets(self.config.drt_entries)
        self._init_counters("drt")

    def insert(self, region: int) -> None:
        """Record ``region`` as a high-density modified region."""
        self.n_insertions += 1
        if self.config.touch(self.sets, region, True):
            self.n_conflict_evictions += 1

    def contains(self, region: int) -> bool:
        """Presence check that does not consume the entry or touch LRU."""
        return region in BuMPConfig.set_of(self.sets, region)

    def invalidate(self, region: int) -> None:
        """Drop a region (used when its blocks all left the LLC)."""
        BuMPConfig.set_of(self.sets, region).pop(region, None)

    def __len__(self) -> int:
        return sum(map(len, self.sets))

    @property
    def hit_ratio(self) -> float:
        """Fraction of dirty-eviction probes that found a tracked region."""
        return self.stats.ratio("hits", "probes")

    def storage_bits(self) -> int:
        """Storage: region tag + valid per entry (~4.25KB at the default size)."""
        bits_per_entry = 33
        return self.config.drt_entries * bits_per_entry
