"""Per-channel memory controller.

The controller accepts block-granular DRAM requests tagged with an arrival
time (in memory-bus cycles), queues them in a bounded FR-FCFS transaction
window, serves them against the channel's banks, and records everything the
evaluation needs:

* row-buffer hits / misses / conflicts and the activation count (energy);
* per-request latency, split by request kind, so the timing model can charge
  exposed stall cycles only to demand reads;
* data-bus occupancy, which bounds achievable bandwidth and is what makes the
  indiscriminate Full-region scheme collapse (Section V.D).

The controller supports the two page policies the paper compares: *open-row*
(rows stay open after an access) and *close-row* (rows are precharged right
after an access unless another queued request targets the same row).

The transaction queue is any policy of :mod:`repro.dram.policies`; under
the paper's FR-FCFS it is the window-scan :class:`FRFCFSQueue`.  Together
with :class:`repro.dram.system.MemorySystem` this is the object DRAM
engine: the independent reference for the flat engine
(:mod:`repro.dram.flat`) and the host of the ablation schedulers.
Counters are kept as plain attributes and exposed as a :class:`StatGroup`
through the ``stats`` property.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Tuple

from repro.common.params import DDR3Timing, DRAMOrganization
from repro.common.request import DRAMRequest, DRAMRequestKind, KIND_IS_READ
from repro.common.stats import StatGroup
from repro.dram.address_mapping import AddressMapping, DRAMCoordinates
from repro.dram.bank import Bank, RowBufferOutcome
from repro.dram.scheduler import FRFCFSQueue, row_state_key

#: Kinds in ``code`` order, for translating fast-path counters back to names.
_KINDS_BY_CODE = tuple(DRAMRequestKind)
_DEMAND_READ_CODE = DRAMRequestKind.DEMAND_READ.code


class PagePolicy(Enum):
    """Row-buffer management policy of the memory controller."""

    OPEN = "open"
    CLOSE = "close"


class MemoryController:
    """Controller for a single DDR3 channel."""

    def __init__(self, channel_id: int, timing: DDR3Timing, org: DRAMOrganization,
                 mapping: AddressMapping, page_policy: PagePolicy = PagePolicy.OPEN,
                 window: int = 64, scheduler: str = "frfcfs",
                 record_completed: bool = True) -> None:
        self.channel_id = channel_id
        self.timing = timing
        self.org = org
        self.mapping = mapping
        self.page_policy = page_policy
        if scheduler == "frfcfs":
            self.queue = FRFCFSQueue(window=window)
        else:
            from repro.dram.policies import make_scheduler

            self.queue = make_scheduler(scheduler, window=window)
        self._banks: Dict[Tuple[int, int], Bank] = {
            (rank, bank): Bank(timing)
            for rank in range(org.ranks_per_channel)
            for bank in range(org.banks_per_rank)
        }
        #: The same banks as a flat list indexed by rank * banks_per_rank +
        #: bank, so the serve path needs no key-tuple allocation.
        self._banks_per_rank = org.banks_per_rank
        self._bank_list = [
            self._banks[(rank, bank)]
            for rank in range(org.ranks_per_channel)
            for bank in range(org.banks_per_rank)
        ]
        #: Open-row state as a set of combined (row, rank, bank) keys -- the
        #: form the scheduling window consumes -- plus each bank's current
        #: entry (indexed like ``_bank_list``) for incremental maintenance.
        self._open_keys: set = set()
        self._open_key_of_bank = [None] * len(self._bank_list)
        self._close_policy = page_policy is PagePolicy.CLOSE
        self._drain_threshold = 2 * self.queue.window
        #: Cycle at which the shared data bus becomes free.
        self.bus_free_cycle = 0.0
        #: Cycle of the last completed transfer (elapsed busy span of the channel).
        self.last_completion_cycle = 0.0
        #: With ``record_completed`` every served request is retained so
        #: :meth:`drain` can hand the caller per-request outcomes (unit tests
        #: and trace capture).  The simulator turns it off: all measurements
        #: fold into the scalar counters at serve time, and retaining one
        #: object per transfer would grow memory linearly with trace length
        #: (the streaming paths promise a bounded footprint).
        self._record_completed = record_completed
        self._completed: List[DRAMRequest] = []
        self.reset_counters()

    # ------------------------------------------------------------------ #
    # Counters
    # ------------------------------------------------------------------ #
    def reset_counters(self) -> None:
        """Zero every measurement counter (architectural state is preserved)."""
        self._accesses = 0
        self._row_hits = 0
        self._row_misses = 0
        self._row_conflicts = 0
        self._activations = 0
        self._reads = 0
        self._writes = 0
        self._bus_busy_cycles = 0.0
        self._demand_reads = 0
        self._demand_read_latency = 0.0
        self._demand_read_service = 0.0
        self._kind_counts = [0] * len(_KINDS_BY_CODE)

    @property
    def stats(self) -> StatGroup:
        """Measurement counters as a :class:`StatGroup`."""
        group = StatGroup(f"mc{self.channel_id}")
        group.set("accesses", self._accesses)
        group.set("row_hits", self._row_hits)
        group.set("row_misses", self._row_misses)
        group.set("row_conflicts", self._row_conflicts)
        group.set("activations", self._activations)
        group.set("reads", self._reads)
        group.set("writes", self._writes)
        group.set("bus_busy_cycles", self._bus_busy_cycles)
        group.set("demand_reads", self._demand_reads)
        group.set("demand_read_latency_cycles", self._demand_read_latency)
        group.set("demand_read_service_cycles", self._demand_read_service)
        for kind, count in zip(_KINDS_BY_CODE, self._kind_counts):
            group.set(f"kind_{kind.value}", count)
        return group

    # ------------------------------------------------------------------ #
    # Request intake
    # ------------------------------------------------------------------ #
    def enqueue(self, request: DRAMRequest) -> None:
        """Queue one block transfer for this channel.

        ``request.arrival_cycle`` must already be expressed in memory-bus
        cycles.  To bound memory footprint and mimic the finite transaction
        queue, the controller drains eagerly once twice the scheduling window
        is pending.
        """
        queue = self.queue
        queue.push(request, self.mapping.map(request.block_address))
        if len(queue) >= self._drain_threshold:
            self._drain(queue.window)

    def drain(self) -> List[DRAMRequest]:
        """Serve every pending request and return all newly completed ones.

        The returned list is empty when the controller was built with
        ``record_completed=False`` (the statistics counters are unaffected).
        """
        self._drain(len(self.queue))
        completed, self._completed = self._completed, []
        return completed

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def _drain(self, count: int) -> None:
        queue = self.queue
        for _ in range(count):
            entry = queue.pop_next(self._open_keys)
            if entry is None:
                return
            self._serve(*entry)

    def _serve(self, request: DRAMRequest, coords: DRAMCoordinates) -> None:
        _channel, rank, bank_index, row, _column = coords
        flat_bank = rank * self._banks_per_rank + bank_index
        bank = self._bank_list[flat_bank]
        close_after = False
        if self._close_policy:
            close_after = not self.queue.any_pending_for_row(coords)

        kind_code = request.kind.code
        is_read = KIND_IS_READ[kind_code]
        outcome, _issue, data_ready = bank.access(
            row,
            start_cycle=request.arrival_cycle,
            is_write=not is_read,
            close_after=close_after,
        )
        open_row = bank.open_row
        old_key = self._open_key_of_bank[flat_bank]
        new_key = (None if open_row is None
                   else row_state_key(rank, bank_index, open_row))
        if new_key != old_key:
            if old_key is not None:
                self._open_keys.discard(old_key)
            if new_key is not None:
                self._open_keys.add(new_key)
            self._open_key_of_bank[flat_bank] = new_key

        burst = self.timing.burst_cycles
        data_start = data_ready if data_ready > self.bus_free_cycle else self.bus_free_cycle
        completion = data_start + burst
        self.bus_free_cycle = completion
        if completion > self.last_completion_cycle:
            self.last_completion_cycle = completion

        request.row_hit = outcome is RowBufferOutcome.HIT
        request.latency_cycles = completion - request.arrival_cycle

        self._accesses += 1
        self._bus_busy_cycles += burst
        self._kind_counts[kind_code] += 1
        if is_read:
            self._reads += 1
        else:
            self._writes += 1
        if outcome is RowBufferOutcome.HIT:
            self._row_hits += 1
        else:
            self._activations += 1
            if outcome is RowBufferOutcome.CONFLICT:
                self._row_conflicts += 1
            else:
                self._row_misses += 1
        if kind_code == _DEMAND_READ_CODE:
            self._demand_reads += 1
            self._demand_read_latency += request.latency_cycles
            # Unloaded (service) latency by row-buffer outcome; the timing
            # model charges this to the core while bandwidth saturation is
            # captured separately by the channel-elapsed-time bound.
            timing = self.timing
            if outcome is RowBufferOutcome.HIT:
                service = timing.row_hit_latency
            elif outcome is RowBufferOutcome.MISS:
                service = timing.row_miss_latency
            else:
                service = timing.row_conflict_latency
            self._demand_read_service += service
        if self._record_completed:
            self._completed.append(request)

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #
    @property
    def row_hit_ratio(self) -> float:
        """Fraction of column accesses served from an open row buffer."""
        if self._accesses == 0:
            return 0.0
        return self._row_hits / self._accesses

    @property
    def average_demand_read_latency(self) -> float:
        """Mean loaded latency (queueing included) of demand reads, in bus cycles."""
        if self._demand_reads == 0:
            return 0.0
        return self._demand_read_latency / self._demand_reads

    @property
    def average_demand_read_service(self) -> float:
        """Mean unloaded service latency of demand reads, in bus cycles."""
        if self._demand_reads == 0:
            return 0.0
        return self._demand_read_service / self._demand_reads

    @property
    def activations(self) -> int:
        """Total row activations issued by this controller."""
        return self._activations

    def bank_states(self) -> Dict[Tuple[int, int], Bank]:
        """Expose per-bank state for tests and detailed analysis."""
        return dict(self._banks)
