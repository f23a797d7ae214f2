"""Interface between the LLC and the engines that observe or inject traffic.

The paper places three kinds of engines next to the shared LLC: prefetchers
(the stride baseline and SMS), the eager-writeback engine (VWQ) and BuMP
itself.  All of them observe the LLC's access, miss, fill and eviction
streams and may ask the system to inject additional block reads (prefetches /
bulk reads) or additional writebacks (eager / bulk writebacks).

To keep control flow simple and acyclic, agents do not act on the LLC
directly.  Each notification returns an :class:`AgentActions` bundle listing
the block addresses the agent wants fetched or written back; the system model
(:mod:`repro.sim.system`) performs those actions and attributes the resulting
DRAM traffic.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.request import LLCRequest
from repro.cache.set_assoc import EvictedLine


class AgentActions:
    """Traffic an LLC agent asks the system to generate.

    A plain ``__slots__`` class rather than a dataclass: one bundle is built
    per notification on the simulator hot path, so construction cost matters.
    """

    __slots__ = ("fetch_blocks", "writeback_blocks")

    def __init__(self, fetch_blocks: Optional[Sequence[int]] = None,
                 writeback_blocks: Optional[Sequence[int]] = None) -> None:
        #: Block addresses to fetch from memory into the LLC if not resident.
        self.fetch_blocks: List[int] = fetch_blocks if fetch_blocks is not None else []
        #: Block addresses whose dirty copies should be eagerly written back.
        self.writeback_blocks: List[int] = (
            writeback_blocks if writeback_blocks is not None else []
        )

    def merge(self, other: "AgentActions") -> None:
        """Append the actions requested by another agent."""
        self.fetch_blocks.extend(other.fetch_blocks)
        self.writeback_blocks.extend(other.writeback_blocks)

    @property
    def empty(self) -> bool:
        """True when the agent requested no additional traffic."""
        return not self.fetch_blocks and not self.writeback_blocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AgentActions(fetch_blocks={self.fetch_blocks!r}, "
                f"writeback_blocks={self.writeback_blocks!r})")


#: The bundle every hook returns when it requests no traffic -- nearly every
#: notification -- so the common case allocates nothing.  Built on tuples:
#: callers read bundles but never extend one they did not build, and merging
#: into this shared one raises instead of leaking traffic into later hooks.
NO_ACTIONS = AgentActions((), ())


class LLCAgent:
    """Base class for engines attached to the LLC.

    Subclasses override only the notifications they care about; every default
    implementation returns the shared empty bundle :data:`NO_ACTIONS`.
    """

    name = "agent"

    def on_access(self, request: LLCRequest, hit: bool) -> AgentActions:
        """A demand request (read or write) probed the LLC."""
        return NO_ACTIONS

    def on_miss(self, request: LLCRequest) -> AgentActions:
        """A demand request missed in the LLC and will be sent to memory."""
        return NO_ACTIONS

    def on_fill(self, block_address: int, prefetched: bool) -> AgentActions:
        """A block was installed in the LLC."""
        return NO_ACTIONS

    def on_eviction(self, victim: EvictedLine) -> AgentActions:
        """A block was evicted from the LLC (clean or dirty)."""
        return NO_ACTIONS

    def storage_bits(self) -> int:
        """Total storage the agent's hardware structures require, in bits.

        Used by the overhead analysis (Section V.F / VI of the paper).
        """
        return 0
