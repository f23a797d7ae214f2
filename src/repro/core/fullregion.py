"""The indiscriminate "Full-region" streaming design (the paper's foil).

Full-region performs bulk transfers without any density prediction: every LLC
miss fetches the whole region, and every dirty LLC eviction writes back the
whole region.  Section V shows why this is a bad idea -- coverage rises a
little over BuMP, but overfetch explodes (4.3x extra reads on average), the
LLC thrashes, memory bandwidth saturates, and both energy and performance
collapse on bandwidth-hungry workloads.  Reproducing that collapse is part of
validating that the simulator punishes indiscriminate streaming the way real
memory systems do.
"""

from __future__ import annotations

from repro.common.request import LLCRequest
from repro.common.stats import StatGroup
from repro.cache.agent import AgentActions, LLCAgent
from repro.cache.set_assoc import EvictedLine
from repro.core.config import BuMPConfig


class FullRegionStreamer(LLCAgent):
    """Bulk-transfer every region on every miss and every dirty eviction."""

    name = "full_region"

    def __init__(self, config: BuMPConfig = None) -> None:
        self.config = config if config is not None else BuMPConfig()
        self.stats = StatGroup("full_region")

    def on_miss(self, request: LLCRequest) -> AgentActions:
        """Fetch the whole region around every LLC miss."""
        actions = AgentActions(self.config.other_region_blocks(request.block_address))
        self.stats.inc("bulk_read_triggers")
        self.stats.inc("bulk_read_blocks_requested", len(actions.fetch_blocks))
        return actions

    def on_eviction(self, victim: EvictedLine) -> AgentActions:
        """Write back the whole region around every dirty eviction."""
        if not victim.dirty:
            return AgentActions()
        actions = AgentActions(
            writeback_blocks=self.config.other_region_blocks(victim.block_address))
        self.stats.inc("bulk_writeback_triggers")
        self.stats.inc("bulk_writeback_blocks_requested", len(actions.writeback_blocks))
        return actions

    def storage_bits(self) -> int:
        """Full-region needs no prediction state at all."""
        return 0
