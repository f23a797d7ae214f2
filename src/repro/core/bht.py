"""Bulk History Table (BHT).

The BHT holds one entry per (PC, offset) tuple that has been observed to
trigger a high-density region.  It is trained by the RDTT when a high-density
region terminates, and probed on every LLC miss: a hit predicts that the miss
falls into a high-density region and causes the access generation logic to
issue a bulk read of the region's remaining blocks (Section IV.B).

Entries carry only a valid bit in the paper; here each entry also remembers
how many times it was trained and how many bulk transfers it triggered so the
experiment harness can report predictor behaviour.  The table is a list of
per-set dicts (see :meth:`BuMPConfig.table_sets`) mapping ``(pc, offset)``
to a ``[trainings, triggers]`` list.  The per-miss probe runs in
:meth:`repro.core.bump.BuMPPredictor.on_miss`, directly on these sets.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.stats import EventCounters
from repro.core.config import BuMPConfig


class BulkHistoryTable(EventCounters):
    """Predicts whether an LLC miss falls into a high-density region."""

    COUNTERS = ("trainings", "probes", "hits")

    def __init__(self, config: BuMPConfig = None) -> None:
        self.config = config if config is not None else BuMPConfig()
        self.sets = self.config.table_sets(self.config.bht_entries)
        self._init_counters("bht")

    def train(self, pc: int, offset: int) -> None:
        """Record that (``pc``, ``offset``) triggered a high-density region."""
        self.n_trainings += 1
        entry = self.entry_for(pc, offset)
        if entry is None:
            entry = [0, 0]
        entry[0] += 1
        self.config.touch(self.sets, (pc, offset), entry)

    def entry_for(self, pc: int, offset: int) -> Optional[List[int]]:
        """The ``[trainings, triggers]`` entry of a tuple (LRU untouched)."""
        key = (pc, offset)
        return BuMPConfig.set_of(self.sets, key).get(key)

    def __len__(self) -> int:
        return sum(map(len, self.sets))

    @property
    def hit_ratio(self) -> float:
        """Fraction of LLC-miss probes that predicted a bulk transfer."""
        return self.stats.ratio("hits", "probes")

    def storage_bits(self) -> int:
        """Storage: PC tag + offset + valid per entry (~4.5KB at the default size)."""
        bits_per_entry = 32 + self.config.offset_bits + 1
        return self.config.bht_entries * bits_per_entry
