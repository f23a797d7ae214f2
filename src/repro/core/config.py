"""Configuration of the BuMP engine (Section IV.D of the paper).

The defaults reproduce the paper's chosen design point; Figure 11's design
space exploration sweeps ``region_size_bytes`` over {512, 1024, 2048} and the
density threshold over {25%, 50%, 75%, 100%} of the region's blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.addressing import BLOCK_SIZE


@dataclass
class BuMPConfig:
    """Structural parameters of BuMP."""

    #: Size of the tracked memory region; also the bulk-transfer unit.
    region_size_bytes: int = 1024
    #: Number of accessed blocks at or above which a region counts as
    #: high-density.  The paper's default is eight blocks of a 1KB region (50%).
    density_threshold_blocks: int = 8
    #: Trigger-table entries (regions with exactly one accessed block so far).
    trigger_entries: int = 256
    #: Density-table entries (regions with more than one accessed block).
    density_entries: int = 256
    #: Bulk history table entries (one per learned (PC, offset) tuple).
    bht_entries: int = 1024
    #: Dirty region table entries (cache-resident high-density modified regions).
    drt_entries: int = 1024
    #: Associativity shared by all four structures.
    associativity: int = 16

    def __post_init__(self) -> None:
        if self.region_size_bytes % BLOCK_SIZE != 0:
            raise ValueError("region size must be a whole number of cache blocks")
        if self.blocks_per_region < 2:
            raise ValueError("a region must span at least two cache blocks")
        if not 1 <= self.density_threshold_blocks <= self.blocks_per_region:
            raise ValueError("density threshold must fall within the region")

    @property
    def blocks_per_region(self) -> int:
        """Number of cache blocks in one region."""
        return self.region_size_bytes // BLOCK_SIZE

    @property
    def offset_bits(self) -> int:
        """Bits needed to name a block within a region (4 for 1KB regions)."""
        return (self.blocks_per_region - 1).bit_length()

    @property
    def density_threshold_fraction(self) -> float:
        """The density threshold as a fraction of the region's blocks."""
        return self.density_threshold_blocks / self.blocks_per_region

    def with_threshold_fraction(self, fraction: float) -> "BuMPConfig":
        """Return a copy with the threshold set to ``fraction`` of the region."""
        blocks = max(1, round(fraction * self.blocks_per_region))
        return replace(self, density_threshold_blocks=blocks)

    def with_region_size(self, region_size_bytes: int,
                         threshold_fraction: float = None) -> "BuMPConfig":
        """Return a copy with a different region size.

        When ``threshold_fraction`` is omitted the current fractional
        threshold is preserved (the paper's sweep holds the fraction fixed
        while varying the region size).
        """
        if threshold_fraction is None:
            threshold_fraction = self.density_threshold_fraction
        blocks = max(1, round(threshold_fraction * (region_size_bytes // BLOCK_SIZE)))
        return replace(self, region_size_bytes=region_size_bytes,
                       density_threshold_blocks=blocks)

    def region_of(self, block_address: int) -> int:
        """Region number of a block address at this configuration's region size."""
        return block_address // self.region_size_bytes

    def offset_of(self, block_address: int) -> int:
        """Block offset of a block address within its region."""
        return (block_address % self.region_size_bytes) // BLOCK_SIZE

    def table_sets(self, entries: int) -> list:
        """Empty sets of an ``entries``-entry table at this associativity.

        Every BuMP structure is a list of per-set dicts indexed by
        ``hash(key) % len(sets)``.  A set is insertion-ordered from least to
        most recently used: a touch is delete + reinsert and the victim of
        a full set is its first key, which is exact LRU per set.
        """
        if entries <= 0 or self.associativity <= 0:
            raise ValueError("entries and associativity must be positive")
        if entries % self.associativity != 0:
            raise ValueError("entries must be a multiple of associativity")
        return [{} for _ in range(entries // self.associativity)]

    @staticmethod
    def set_of(sets: list, key) -> dict:
        """The set of a :meth:`table_sets` table that holds ``key``."""
        return sets[hash(key) % len(sets)]

    def touch(self, sets: list, key, value) -> bool:
        """Store ``key`` -> ``value`` as its set's most recently used entry.

        Returns whether a full set displaced its least recently used key.
        The hooks of :class:`repro.core.bump.BuMPPredictor` inline this.
        """
        table_set = self.set_of(sets, key)
        displaced = (table_set.pop(key, None) is None
                     and len(table_set) >= self.associativity)
        if displaced:
            del table_set[next(iter(table_set))]
        table_set[key] = value
        return displaced

    def region_blocks(self, region: int) -> list:
        """Block addresses of every block in ``region``, ascending."""
        base = region * self.region_size_bytes
        return list(range(base, base + self.region_size_bytes, BLOCK_SIZE))

    def other_region_blocks(self, block_address: int) -> list:
        """Every block of ``block_address``'s region but that (aligned) block.

        The blocks a bulk transfer triggered by ``block_address`` moves.
        """
        blocks = self.region_blocks(self.region_of(block_address))
        del blocks[self.offset_of(block_address)]
        return blocks


DEFAULT_BUMP_CONFIG = BuMPConfig()
