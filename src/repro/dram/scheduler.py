"""FR-FCFS transaction scheduling: the window-scan reference.

The memory controllers in the paper use First-Ready, First-Come-First-Served
scheduling [Rixner et al., ISCA 2000]: among the requests in the transaction
queue, a request that would hit in an already-open row buffer is served
before older requests that would require an activation; ties are broken by
age.  The scheduler only looks at a bounded window of the oldest pending
requests, which is why accesses to the same DRAM page that are separated by
more than the window in the arrival stream cannot be merged into row hits --
the effect Section II.C of the paper identifies as the reason row-buffer
locality goes unexploited in server CMPs.

:class:`FRFCFSQueue` states that policy as directly as possible: each pop
scans the window oldest-first and takes the first row hit, else the oldest
demand request, else the oldest request.  It is the object engine's queue
and the independent reference the flat engine (:mod:`repro.dram.flat`) is
checked against; the flat engine keeps the same decisions incrementally
(per-row buckets and a ready view of the open rows) so that it never scans.
The engine parity suite and the golden fingerprints hold the two to
identical results.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.common.request import DRAMRequest, KIND_IS_DEMAND
from repro.dram.address_mapping import DRAMCoordinates

PendingEntry = Tuple[DRAMRequest, DRAMCoordinates]

#: Ranks and banks below this bound pack into one int key; anything larger
#: (never the case for a real organisation) falls back to a tuple key.
_PACK_LIMIT = 64


def row_state_key(rank: int, bank: int, row: int):
    """Combined hashable key identifying one (rank, bank, row) triple.

    Packs into a single int when rank and bank are small (always true for
    the organisations the paper evaluates), because int hashing is much
    cheaper than tuple hashing on the scheduling path.
    """
    if 0 <= rank < _PACK_LIMIT and 0 <= bank < _PACK_LIMIT:
        return (row << 12) | (rank << 6) | bank
    return (row, rank, bank)


def open_row_key_set(open_rows) -> set:
    """Normalise an ``{(rank, bank): row}`` mapping to a set of combined keys."""
    return {
        row_state_key(rank, bank, row)
        for (rank, bank), row in open_rows.items()
        if row is not None
    }


class FRFCFSQueue:
    """Bounded-window FR-FCFS transaction queue for one channel."""

    def __init__(self, window: int = 64) -> None:
        if window < 1:
            raise ValueError("scheduling window must hold at least one request")
        self.window = window
        #: Entries oldest-first: (request, coords, row_state_key, is_demand).
        self._pending: List[tuple] = []

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> List[PendingEntry]:
        """The queued requests, oldest first (read-only view for tests)."""
        return [(entry[0], entry[1]) for entry in self._pending]

    def push(self, request: DRAMRequest, coords: DRAMCoordinates) -> None:
        """Append a request to the tail of the queue."""
        self._pending.append((
            request, coords, row_state_key(coords.rank, coords.bank, coords.row),
            KIND_IS_DEMAND[request.kind.code]))

    def pop_next(self, open_rows: Union[set, dict]) -> Optional[PendingEntry]:
        """Remove and return the next request to serve under FR-FCFS.

        ``open_rows`` describes the rows currently open across the channel's
        banks: a set of :func:`row_state_key` keys or a
        ``(rank, bank) -> row-or-None`` mapping.  Within the scheduling
        window the oldest row-hit request wins; when no queued request would
        hit, the oldest *demand* request wins (demand reads and writebacks
        are latency-critical, while prefetches and bulk transfers can
        tolerate extra queueing); with neither, the oldest request wins.
        Returns ``None`` when the queue is empty.
        """
        pending = self._pending
        if not pending:
            return None
        open_set = open_rows if type(open_rows) is set else open_row_key_set(open_rows)
        limit = self.window if self.window < len(pending) else len(pending)
        chosen = -1
        oldest_demand = -1
        for index in range(limit):
            entry = pending[index]
            if entry[2] in open_set:
                chosen = index
                break
            if oldest_demand < 0 and entry[3]:
                oldest_demand = index
        if chosen < 0:
            chosen = oldest_demand if oldest_demand >= 0 else 0
        entry = pending.pop(chosen)
        return (entry[0], entry[1])

    def any_pending_for_row(self, coords: DRAMCoordinates) -> bool:
        """True when another queued request (within the window) targets the same row.

        Used by the close-row page policy to decide whether to keep a row
        open after an access (FR-FCFS close-row still merges back-to-back
        hits it can see).
        """
        key = row_state_key(coords.rank, coords.bank, coords.row)
        return any(entry[2] == key for entry in self._pending[:self.window])
