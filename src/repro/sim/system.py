"""The full simulated server: cores' L1s, shared LLC, agents, NOC and DRAM.

:class:`ServerSystem` is the trace interpreter.  For every processor access
it walks the hierarchy the same way hardware would:

1. the access probes the issuing core's L1; hits stop there, dirty L1 victims
   are forwarded to the LLC;
2. an L1 miss becomes a demand LLC request (carrying the PC when the
   configuration requires it); every attached agent (stride, SMS, VWQ, BuMP,
   Full-region, density profiler) observes the access;
3. an LLC miss becomes a demand DRAM read and the block is filled; every
   agent observes the miss and may request additional fetches (prefetches /
   bulk reads), which are filled into the LLC as *prefetched* blocks;
4. LLC evictions are observed by the agents (BuMP terminates region tracking
   here and may stream bulk writebacks); dirty victims become demand DRAM
   writes; eager/bulk writebacks clean resident dirty blocks and become DRAM
   writes attributed to the mechanism that generated them;
5. every DRAM transfer is timestamped with the core-time at which it was
   generated and handed to the FR-FCFS memory controllers.

At the end of a run the system assembles a :class:`SimulationResult` with the
traffic decomposition, row-buffer statistics, timing summary and energy
breakdown the experiments consume.
"""

from __future__ import annotations

import gc
import time
import weakref
from typing import List, Optional

import numpy as np

from repro.cache.agent import AgentActions, LLCAgent
from repro.cache.engine import cache_engine_name
from repro.cache.flat import FLAG_DIRTY, FLAG_PREFETCHED, FLAG_USED
from repro.cache.l1 import L1DataCache
from repro.cache.llc import LastLevelCache
from repro.cache.set_assoc import EvictedLine
from repro.common.addressing import BLOCK_BITS, block_address
from repro.common.request import (
    DRAMRequestKind,
    LLCRequest,
    LLCRequestKind,
)
from repro.common.stats import StatGroup
from repro.core.bump import BuMPPredictor
from repro.core.fullregion import FullRegionStreamer
from repro.dram.address_mapping import make_block_interleaving, make_region_interleaving
from repro.dram.engine import resolve_dram_engine
from repro.dram.flat import FlatMemorySystem
from repro.dram.system import MemorySystem
from repro.energy.accounting import ServerEnergyModel
from repro.noc.crossbar import Crossbar, MessageType
from repro.prefetch.sms import SpatialMemoryStreaming
from repro.prefetch.stride import StridePrefetcher
from repro.sim.config import SystemConfig
from repro.sim.results import SimulationResult
from repro.sim.timing import TimingModel
from repro.telemetry.recorder import resolve_telemetry
from repro.trace.buffer import TraceBuffer
from repro.workloads.density import RegionDensityProfiler


#: System counters hoisted to plain instance ints on the flat-engine hot path
#: and folded into the ``counters`` StatGroup once per chunk.
_HOT_COUNTERS = (
    ("_h_l1_writebacks", "l1_writebacks"),
    ("_h_llc_hits", "llc_hits"),
    ("_h_llc_load_hits", "llc_load_hits"),
    ("_h_covered_reads", "covered_reads"),
    ("_h_covered_loads", "covered_loads"),
    ("_h_llc_misses", "llc_misses"),
    ("_h_demand_reads", "demand_reads"),
    ("_h_store_triggered_reads", "store_triggered_reads"),
    ("_h_load_triggered_reads", "load_triggered_reads"),
    ("_h_load_demand_misses", "load_demand_misses"),
    ("_h_llc_evictions", "llc_evictions"),
    ("_h_demand_writebacks", "demand_writebacks"),
    ("_h_overfetch_evictions", "overfetch_evictions"),
    ("_h_bulk_reads", "bulk_reads"),
    ("_h_prefetch_reads", "prefetch_reads"),
    ("_h_bulk_writebacks", "bulk_writebacks"),
    ("_h_eager_writebacks", "eager_writebacks"),
)

#: DRAM request-kind codes, hoisted for the staged DRAM issue sites.
_DEMAND_READ_CODE = DRAMRequestKind.DEMAND_READ.code
_DEMAND_WRITEBACK_CODE = DRAMRequestKind.DEMAND_WRITEBACK.code
#: LLC request kinds, hoisted: an enum member lookup costs ~0.1 us per access.
_LLC_DEMAND_READ = LLCRequestKind.DEMAND_READ
_LLC_DEMAND_WRITE = LLCRequestKind.DEMAND_WRITE

#: Systems whose :meth:`ServerSystem.run` has finished and that are still
#: alive.  A finished system holds ~10 MB (mostly the LLC's block->slot dict
#: and its int keys) that the cyclic collector does not track, and the
#: allocation-light hot path seldom triggers a full collection, so one kept
#: alive only by a reference cycle -- a closure stored on the system itself,
#: say -- can linger while several later systems warm up.
_FINISHED: "weakref.WeakSet[ServerSystem]" = weakref.WeakSet()


def reclaim_finished_systems(running: "ServerSystem") -> None:
    """Collect cyclic garbage if a finished system other than ``running`` lives.

    Called before a warmup, the point where a new system grows to its full
    footprint.  Survivors are reachable, so they are dropped from the watch
    set: each finished system triggers at most one collection.
    """
    if any(system is not running for system in _FINISHED):
        gc.collect()
        _FINISHED.clear()


#: Upper bound on the per-instruction-count cycle-increment memo
#: (``_cycle_increment_cache``).  Synthetic workloads draw from a handful of
#: distinct instruction counts, but fuzzed or externally captured traces can
#: carry thousands; past this bound the memo evicts its oldest entry, so it
#: can never grow with trace length.  Eviction is insertion-ordered (hits
#: vastly outnumber inserts and the cached values are config-fixed
#: arithmetic, so per-hit recency tracking would cost more than the memo
#: saves).
_CYCLE_CACHE_LIMIT = 1024

#: Rows per pass of the fused row loop.  Each pass decodes its rows into
#: Python lists (block addresses are boxed ints); passes of this size keep
#: those lists small enough to stay in the CPU caches.  On a 120k-access
#: web_search warmup under ``bump`` (2-vCPU Xeon) they ran ~6 % faster than
#: one pass per 64K-row chunk (median of 10 alternating runs).
_ROW_BATCH = 8192


def _source_intensity(source) -> float:
    """Current admission intensity a source reports (1.0 when open-loop)."""
    return float(getattr(source, "current_intensity", 1.0))


class ServerSystem:
    """One configured instance of the simulated 16-core server."""

    #: The only trace interpreter.  Kept as a constant because the
    #: repository benchmark prints it in its environment header line.
    interp = "scalar"

    def __init__(self, config: SystemConfig, workload_name: str = "workload",
                 cache_engine: Optional[str] = None,
                 dram_engine: Optional[str] = None,
                 telemetry=None) -> None:
        self.config = config
        self.workload_name = workload_name
        #: Observability recorder (``None`` when telemetry is off -- the
        #: run loop tests this once per chunk and otherwise executes the
        #: exact pre-telemetry code path).  Resolution: explicit argument >
        #: ``REPRO_TELEMETRY`` environment variable > off.
        self.telemetry = resolve_telemetry(telemetry)
        params = config.system

        self.cache_engine = cache_engine_name(cache_engine)
        self._flat_engine = self.cache_engine == "flat"
        self.l1s = [L1DataCache(params.l1d, core, engine=self.cache_engine)
                    for core in range(params.num_cores)]
        self.llc = LastLevelCache(params.llc, engine=self.cache_engine)
        #: Raw flat cache arrays, indexed by core (fused-loop fast path).
        self._l1_arrays = [l1._cache for l1 in self.l1s] if self._flat_engine else None
        self._llc_array = self.llc._cache if self._flat_engine else None
        if self._flat_engine:
            # Per-core L1 state unbundled for the fused row loop: bound dict
            # probes and the raw stamp/flag buffers, indexed by core.  The
            # underlying objects live for the system's lifetime, so the bound
            # references never go stale.  L1s are always LRU (L1DataCache
            # never takes a policy), which the inlined promote relies on.
            arrays = self._l1_arrays
            self._l1_slot_get = [cache._slot_of.get for cache in arrays]
            self._l1_ticks = [cache._tick for cache in arrays]
            self._l1_stamps = [cache._stamps_mv for cache in arrays]
            self._l1_flags = [cache._flags_mv for cache in arrays]
            self._l1_set_mask = arrays[0]._set_mask
        self._carries_pc = config.carries_pc
        self.noc = Crossbar(num_cores=params.num_cores)
        #: instruction count -> core-cycle increment (config-fixed arithmetic).
        self._cycle_increment_cache = {}
        for attr, _key in _HOT_COUNTERS:
            setattr(self, attr, 0)

        if config.interleaving == "block":
            mapping = make_block_interleaving(params.dram_org,
                                              params.dram_org.row_buffer_bytes)
        elif config.interleaving == "region":
            mapping = make_region_interleaving(params.dram_org,
                                               params.dram_org.row_buffer_bytes)
        else:
            raise ValueError(f"unknown interleaving scheme {config.interleaving!r}")
        # Effective DRAM engine: the flat engine covers the paper's space
        # (FR-FCFS, packable organisations) and transparently falls back to
        # the object engine outside it; results are bit-identical either way.
        self.dram_engine = resolve_dram_engine(
            dram_engine, scheduler=config.scheduler, org=params.dram_org)
        if self.dram_engine == "flat":
            self.memory = FlatMemorySystem(
                params.dram_timing, params.dram_org, mapping,
                config.page_policy,
                window=params.dram_org.transaction_queue_entries,
            )
        else:
            self.memory = MemorySystem(
                params.dram_timing, params.dram_org, mapping, config.page_policy,
                window=params.dram_org.transaction_queue_entries,
                scheduler=config.scheduler,
                # Every measurement folds into scalar counters at serve time;
                # retaining one request object per transfer would grow memory
                # linearly with trace length and break the streaming paths'
                # bounded-footprint promise.
                record_completed=False,
            )
        # Staged per-chunk DRAM transfers: every issue site appends
        # (block, kind code, arrival, core) scalars here and ``_flush_dram``
        # hands the memory system the whole batch at chunk boundaries --
        # the simulator never builds a DRAMRequest itself.
        self._dram_blocks: list = []
        self._dram_kinds: list = []
        self._dram_arrivals: list = []
        self._dram_cores: list = []

        self.agents: List[LLCAgent] = []
        self.bump: Optional[BuMPPredictor] = None
        self.profiler: Optional[RegionDensityProfiler] = None
        self._build_agents()
        self._refresh_agent_hooks()

        self.counters = StatGroup("system")
        if config.timing_model == "analytic":
            self.timing = TimingModel(params)
        elif config.timing_model == "interval":
            from repro.cpu.interval import IntervalTimingModel

            self.timing = IntervalTimingModel(params)
        else:
            raise ValueError(f"unknown timing model {config.timing_model!r}")
        self.energy_model = ServerEnergyModel(params)
        self._core_cycle = 0.0
        #: Bus-cycle arrival timestamp of the access being processed
        #: (maintained by the fused loop for the staged DRAM issue sites).
        self._arrival_bus = 0.0
        self._instructions = 0.0
        self._bus_ratio = params.core_cycles_per_dram_cycle
        self._measurement_start_core_cycle = 0.0
        self._measurement_start_bus_cycle = 0.0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build_agents(self) -> None:
        config = self.config
        if config.use_stride:
            self.agents.append(StridePrefetcher())
        if config.use_nextline:
            from repro.prefetch.nextline import NextLinePrefetcher

            self.agents.append(NextLinePrefetcher())
        if config.use_stealth:
            from repro.prefetch.stealth import StealthPrefetcher

            self.agents.append(StealthPrefetcher())
        if config.use_sms:
            self.agents.append(SpatialMemoryStreaming())
        if config.use_vwq:
            from repro.writeback.vwq import VirtualWriteQueue

            self.agents.append(VirtualWriteQueue())
        if config.use_eager_writeback:
            from repro.writeback.eager import EagerWriteback

            self.agents.append(EagerWriteback())
        if config.use_bump:
            self.bump = BuMPPredictor(config.bump)
            self.agents.append(self.bump)
        if config.use_full_region:
            self.agents.append(FullRegionStreamer(config.bump))
        if config.attach_profiler or config.ideal_row_locality:
            self.profiler = RegionDensityProfiler(config.bump.region_size_bytes)
            self.agents.append(self.profiler)

    def _refresh_agent_hooks(self) -> None:
        """Partition agents by which notification hooks they actually override.

        The fast path then skips agents whose hook is the base-class no-op
        (e.g. the stride prefetcher neither observes misses nor evictions),
        avoiding a call and an empty-:class:`AgentActions` allocation per
        event.  Recomputed at the start of every run so agents attached after
        construction (``run_trace``'s ``extra_agents``) are picked up.
        """
        agents = self.agents
        self._access_agents = [
            agent for agent in agents
            if type(agent).on_access is not LLCAgent.on_access
        ]
        self._miss_agents = [
            agent for agent in agents
            if type(agent).on_miss is not LLCAgent.on_miss
        ]
        self._eviction_agents = [
            agent for agent in agents
            if type(agent).on_eviction is not LLCAgent.on_eviction
        ]

    # ------------------------------------------------------------------ #
    # Trace interpretation
    # ------------------------------------------------------------------ #
    def run(self, trace, warmup_accesses: int = 0) -> SimulationResult:
        """Run a trace to completion and return the collected measurements.

        ``trace`` may be a :class:`repro.trace.buffer.TraceBuffer`, an
        iterable of :class:`TraceBuffer` chunks (the streaming pipeline), a
        sequence/iterator of boxed :class:`Access` records (the legacy
        shape), a :class:`repro.scenario.spec.Scenario` (compiled to a chunk
        stream on the fly, at the compiler's default seed), or any
        :class:`repro.trace.source.TraceSource`.  Every shape is interpreted
        through the same columnar row loop, so the result is identical
        regardless of how the trace arrives.

        Production is pull-based: the system fully services chunk *k* before
        requesting chunk *k+1*, and sources declaring ``wants_feedback``
        receive a :class:`~repro.trace.source.FeedbackSample` (assembled by
        :meth:`feedback_sample`) before every pull -- the hook closed-loop
        traffic shapers react through.  Open-loop sources are pulled with
        ``feedback=None`` and pay nothing for the feedback path.

        ``warmup_accesses`` accesses are simulated first to warm the caches,
        the predictor tables and the DRAM row buffers (mirroring the paper's
        SMARTS-style warmed-checkpoint methodology); their events are then
        discarded and only the remainder of the trace is measured.
        """
        # Imported lazily: repro.scenario sits above repro.sim in the layer
        # order, so a module-level import would be circular.  By the time a
        # Scenario instance reaches us its package is necessarily loaded.
        from repro.scenario.compiler import iter_scenario_chunks
        from repro.scenario.spec import Scenario
        from repro.trace.source import as_trace_source

        if warmup_accesses > 0:
            reclaim_finished_systems(self)
        if isinstance(trace, Scenario):
            trace = iter_scenario_chunks(trace)
        source = as_trace_source(trace)
        wants_feedback = bool(getattr(source, "wants_feedback", False))
        recorder = self.telemetry
        if recorder is not None:
            recorder.on_run_start(self, self.workload_name)
        timing = recorder is not None and recorder.wants_spans
        clock = time.perf_counter
        self._refresh_agent_hooks()
        processed = 0
        measuring = False
        pulled = 0
        while True:
            feedback = self.feedback_sample(processed) if wants_feedback else None
            if timing:
                tick = clock()
                chunk = source.next_chunk(feedback)
                recorder.add_stage("chunk_generation", clock() - tick)
            else:
                chunk = source.next_chunk(feedback)
            if chunk is None:
                break
            pulled += 1
            if not len(chunk):
                continue
            self._check_cores(chunk, pulled - 1, source)
            if warmup_accesses and not measuring:
                split = warmup_accesses - processed
                if len(chunk) >= split:
                    # The measurement boundary falls in (or at the end of)
                    # this chunk: warm up on the head window, then measure
                    # whatever remains.
                    chunk = self._cross_warmup_boundary(
                        chunk, split, recorder, timing, clock, source)
                    processed += split
                    measuring = True
                    if chunk is None:
                        continue
            if timing:
                tick = clock()
                self._run_chunk(chunk)
                recorder.add_stage("chunk_service", clock() - tick)
            else:
                self._run_chunk(chunk)
            processed += len(chunk)
            if recorder is not None:
                recorder.on_chunk(self, intensity=_source_intensity(source))
        if warmup_accesses and processed < warmup_accesses:
            raise ValueError("trace shorter than the requested warmup interval")
        if recorder is None:
            self._flush_dram()
            self.memory.drain()
            result = self._collect_results()
        else:
            with recorder.span("dram_drain"):
                self._flush_dram()
                self.memory.drain()
            with recorder.span("result_assembly"):
                result = self._collect_results()
            recorder.on_run_end(self)
        _FINISHED.add(self)
        return result

    def _check_cores(self, chunk: TraceBuffer, index: int, source) -> None:
        """Refuse a chunk naming a core outside ``[0, num_cores)``.

        Without this a negative core silently runs on the last core and one
        past the end dies deep in the interpreter with an ``IndexError``.
        """
        cores = chunk.core
        num_cores = len(self.l1s)
        if cores.min() >= 0 and cores.max() < num_cores:
            return
        row = int(((cores < 0) | (cores >= num_cores)).argmax())
        path = getattr(source, "path", None)
        origin = f"trace file {path}, " if path is not None else ""
        raise ValueError(
            f"{origin}chunk {index}, row {row}: core {cores[row]} is outside "
            f"the simulated system's {num_cores} cores (0..{num_cores - 1})")

    def _cross_warmup_boundary(self, chunk, split: int, recorder, timing: bool,
                               clock, source) -> Optional[TraceBuffer]:
        """Service a chunk that crosses the warmup boundary at ``split``.

        Runs the warmup head, discards the warmup statistics
        (:meth:`begin_measurement`) and returns the yet-to-be-serviced tail
        (``None`` when the boundary coincides with the chunk end).  The one
        shared implementation of the split for every run mode -- telemetry
        hooks fire only when a recorder is attached, and the simulation call
        sequence is identical either way.
        """
        head = chunk if split == len(chunk) else chunk[:split]
        if timing:
            tick = clock()
            self._run_chunk(head)
            recorder.add_stage("chunk_service", clock() - tick)
        else:
            self._run_chunk(head)
        if recorder is not None:
            recorder.on_chunk(self, intensity=_source_intensity(source))
        self.begin_measurement()
        if recorder is not None:
            recorder.on_measurement_start(self)
        return None if split == len(chunk) else chunk[split:]

    def feedback_sample(self, accesses: int) -> "FeedbackSample":
        """Assemble the closed-loop feedback observation at a chunk boundary.

        All values are cumulative over the run (memory counters reset at the
        warmup boundary's :meth:`begin_measurement`); controllers difference
        against their own last-boundary sample.  Safe to call at any chunk
        boundary: the hot-counter fold is idempotent and every staged DRAM
        transfer has already been flushed by :meth:`_run_chunk`.
        """
        from repro.trace.source import FeedbackSample

        self._flush_hot_counters()
        memory = self.memory
        stats = memory.aggregate_stats()
        return FeedbackSample(
            accesses=int(accesses),
            core_cycle=float(self._core_cycle),
            demand_reads=int(stats["demand_reads"]),
            read_latency_cycles=float(stats["demand_read_latency_cycles"]),
            queue_depth=int(memory.pending_count()),
            llc_misses=int(self.counters["llc_misses"]),
        )

    def _run_chunk(self, chunk: TraceBuffer) -> None:
        """Interpret one columnar chunk.

        Zero-length chunks (phase-boundary splices, empty streams) return
        immediately -- before this guard they paid the full five-column
        decode.  Under the flat cache engine the chunk runs through the
        fused row loop (:meth:`_run_chunk_flat`) in passes of
        :data:`_ROW_BATCH` rows.  Under the dict engine every access walks
        the original per-access call chain, preserving it as the benchmark
        baseline.
        """
        if not len(chunk):
            return
        if self._flat_engine:
            for start in range(0, len(chunk), _ROW_BATCH):
                self._run_chunk_flat(chunk[start:start + _ROW_BATCH])
            self._flush_dram()
            return
        cores, pcs, addresses, stores, instructions = chunk.columns_as_lists()
        step = self._step_fields
        for i in range(len(cores)):
            step(cores[i], pcs[i], addresses[i], stores[i], instructions[i])
        self._flush_dram()

    def _flush_dram(self) -> None:
        """Hand the staged per-chunk DRAM transfers to the memory system.

        Every DRAM issue site appends plain (block, kind code, arrival
        cycle, core) scalars to the staging lists; this flush passes the
        whole batch to the memory system's ``enqueue_block_batch`` at chunk
        boundaries, on either engine.  The batch keeps the issue order and
        the arrival stamps, so the memory system sees exactly the enqueue
        sequence it would have seen one transfer at a time; nothing reads
        DRAM state in the middle of a chunk.
        """
        blocks = self._dram_blocks
        if blocks:
            self.memory.enqueue_block_batch(blocks, self._dram_kinds,
                                            self._dram_arrivals,
                                            self._dram_cores)
            self._dram_blocks = []
            self._dram_kinds = []
            self._dram_arrivals = []
            self._dram_cores = []

    def _run_chunk_flat(self, chunk: TraceBuffer) -> None:
        """Fused row loop over the flat-array caches.

        Block addresses and L1 set indices are decoded for the whole chunk in
        two vector ops; the L1-hit case is then fully inlined: one dict
        probe, one stamp write and (for stores) one flag write, with no
        method call and no allocation.  ``accesses``/``l1_hits`` live in
        loop locals, the per-access cycle accumulation runs on a local
        float (same add sequence as the scalar path, so results stay
        bit-identical), and everything is flushed into the StatGroups once
        per chunk.  The architectural state the slow path reads
        (``_core_cycle``) is synced before every L1 miss, so DRAM arrival
        timestamps are unchanged.

        The inlined probe mirrors ``FlatSetAssociativeCache.demand_access``
        under two L1 invariants: replacement is LRU (touch always promotes)
        and resident lines always have the used bit set (the L1 never fills
        prefetched blocks), so the prefetch-hit branch cannot fire.
        """
        shifted = (chunk.address >> np.uint64(BLOCK_BITS)).astype(np.int64)
        blocks = (shifted << BLOCK_BITS).tolist()
        l1_sets = (shifted & self._l1_set_mask).tolist()
        cores = chunk.core.tolist()
        pcs = chunk.pc.tolist()
        stores = chunk.is_store.tolist()
        instructions = chunk.instructions.tolist()
        n = len(cores)
        config = self.config
        # Per-access cycle increments are memoized by instruction count; each
        # entry is computed as (instructions * cpi) / cores -- the exact
        # operation order of _step_fields -- because folding it into one
        # precomputed factor rounds differently for non-power-of-two core
        # counts and would break bit-identity with the dict engine.
        arrival_cpi = config.arrival_cpi
        num_cores_divisor = config.system.num_cores
        cycle_of = self._cycle_increment_cache
        dirty_flag = FLAG_DIRTY
        l1_arrays = self._l1_arrays
        slot_get = self._l1_slot_get
        ticks = self._l1_ticks
        stamps = self._l1_stamps
        flags = self._l1_flags
        demand = self._llc_demand_fast
        num_cores = len(l1_arrays)
        hits_by_core = [0] * num_cores
        misses_by_core = [0] * num_cores
        core_cycle = self._core_cycle
        bus_ratio = self._bus_ratio
        # Integer column sum: exact regardless of order, so summing it
        # vectorized matches the scalar path's per-access accumulation.
        instruction_total = int(chunk.instructions.sum(dtype=np.int64))
        for core, pc, block, set_index, is_store, instructions_i in zip(
                cores, pcs, blocks, l1_sets, stores, instructions):
            delta = cycle_of.get(instructions_i)
            if delta is None:
                delta = cycle_of[instructions_i] = (
                    instructions_i * arrival_cpi / num_cores_divisor)
                if len(cycle_of) > _CYCLE_CACHE_LIMIT:
                    del cycle_of[next(iter(cycle_of))]
            core_cycle += delta
            slot = slot_get[core](block)
            if slot is not None:
                # L1 hit: promote to MRU, set the dirty bit on stores.
                tick_list = ticks[core]
                tick = tick_list[set_index] + 1
                tick_list[set_index] = tick
                stamps[core][slot] = tick
                if is_store:
                    flags_mv = flags[core]
                    line_flags = flags_mv[slot]
                    if not line_flags & dirty_flag:
                        flags_mv[slot] = line_flags | dirty_flag
                hits_by_core[core] += 1
                continue
            # L1 miss: allocate (write-allocate), forward a dirty victim,
            # then take the LLC demand path.
            misses_by_core[core] += 1
            self._core_cycle = core_cycle
            # One divide per miss: every DRAM transfer generated while this
            # access is processed arrives at the same bus timestamp (the
            # object engine divides per transfer with an unchanged
            # numerator, so the values are identical).
            self._arrival_bus = core_cycle / bus_ratio
            victim = l1_arrays[core].fill_l1(block, is_store, pc, core)
            if victim is not None:
                self._l1_writeback_fast(victim)
            demand(core, pc, block, is_store)
        self._core_cycle = core_cycle
        self._instructions += instruction_total
        l1_hits = 0
        for core in range(num_cores):
            hits = hits_by_core[core]
            if hits:
                l1_hits += hits
                l1_arrays[core]._p_hits += hits
            if misses_by_core[core]:
                l1_arrays[core]._p_misses += misses_by_core[core]
        counters = self.counters
        counters.inc("accesses", n)
        if l1_hits:
            counters.inc("l1_hits", l1_hits)
        self._flush_hot_counters()

    def _flush_hot_counters(self) -> None:
        """Fold the hoisted per-chunk counter ints into the StatGroup."""
        self.counters.fold(self, _HOT_COUNTERS)

    def begin_measurement(self) -> None:
        """Discard warmup statistics while keeping all architectural state."""
        self._flush_dram()
        self.memory.drain()
        self._flush_hot_counters()
        self.counters.reset()
        self.noc.reset()
        self.llc.stats.reset()
        self.llc.array_stats.reset()
        for controller in self.memory.controllers:
            controller.reset_counters()
        for agent in self.agents:
            stats = getattr(agent, "stats", None)
            if stats is not None:
                stats.reset()
        self._instructions = 0.0
        self._measurement_start_core_cycle = self._core_cycle
        self._measurement_start_bus_cycle = self._core_cycle / self._bus_ratio

    def _step_fields(self, core: int, pc: int, address: int, is_store: bool,
                     instructions: int) -> None:
        counters = self.counters
        counters.inc("accesses")
        self._instructions += instructions
        self._core_cycle += (
            instructions * self.config.arrival_cpi / self.config.system.num_cores
        )

        l1 = self.l1s[core]
        result = l1.access(address, is_store, pc)
        for victim in result.writebacks:
            self._l1_writeback(victim)
        if result.hit:
            counters.inc("l1_hits")
            return

        self._llc_demand_access(core, pc, address, is_store)

    # ------------------------------------------------------------------ #
    # LLC demand path
    # ------------------------------------------------------------------ #
    def _llc_demand_access(self, core: int, pc: int, address: int,
                           is_store: bool) -> None:
        config = self.config
        counters = self.counters
        block = block_address(address)

        self.noc.send(
            MessageType.REQUEST_WITH_PC if config.carries_pc else MessageType.REQUEST
        )

        resident = self.llc.probe(block, count_traffic=False)
        covered = resident is not None and resident.prefetched and not resident.used

        line = self.llc.access(block, is_write=is_store)
        hit = line is not None

        kind = LLCRequestKind.DEMAND_WRITE if is_store else LLCRequestKind.DEMAND_READ
        request = LLCRequest(core=core, pc=pc, block_address=block,
                             kind=kind, is_store=is_store)

        if self.agents:
            self.noc.send(MessageType.PREDICTOR_NOTIFY)
        actions = AgentActions()
        for agent in self.agents:
            actions.merge(agent.on_access(request, hit))

        if hit:
            counters.inc("llc_hits")
            if not is_store:
                counters.inc("llc_load_hits")
            if covered:
                counters.inc("covered_reads")
                if not is_store:
                    counters.inc("covered_loads")
            self.noc.send(MessageType.DATA)
        else:
            counters.inc("llc_misses")
            for agent in self.agents:
                actions.merge(agent.on_miss(request))
            self._issue_dram(block, DRAMRequestKind.DEMAND_READ, core)
            counters.inc("demand_reads")
            if is_store:
                counters.inc("store_triggered_reads")
            else:
                counters.inc("load_triggered_reads")
                counters.inc("load_demand_misses")
            victim = self.llc.fill(block, dirty=is_store, pc=pc, core=core)
            self.noc.send(MessageType.DATA)
            if victim is not None:
                self._handle_llc_eviction(victim)

        self._apply_actions(actions, core, pc)

    def _llc_demand_fast(self, core: int, pc: int, block: int,
                         is_store: bool) -> None:
        """LLC demand path for the fused flat-engine loop.

        Same event sequence as :meth:`_llc_demand_access`, with the probe and
        access fused into one call, NOC counters bumped as plain attributes,
        system counters hoisted to instance ints, and agent action bundles
        merged only when an agent actually requested traffic.
        """
        noc = self.noc
        if self._carries_pc:
            noc.n_request_with_pc += 1
        else:
            noc.n_request += 1

        # Fused LLC probe + access, wrapper inlined (one call into the flat
        # array; the wrapper's hot counters are plain attribute bumps).
        llc = self.llc
        llc._p_traffic_ops += 1
        prior = self._llc_array.demand_access(block, is_store)
        hit = prior >= 0

        actions = None
        request = None
        if self.agents:
            noc.n_predictor_notify += 1
            request = LLCRequest(core, pc, block,
                                 _LLC_DEMAND_WRITE if is_store else _LLC_DEMAND_READ,
                                 is_store)
            for agent in self._access_agents:
                bundle = agent.on_access(request, hit)
                if bundle.fetch_blocks or bundle.writeback_blocks:
                    if actions is None:
                        actions = bundle
                    else:
                        actions.merge(bundle)

        if hit:
            llc._p_demand_hits += 1
            self._h_llc_hits += 1
            if not is_store:
                self._h_llc_load_hits += 1
            if prior & (FLAG_PREFETCHED | FLAG_USED) == FLAG_PREFETCHED:
                self._h_covered_reads += 1
                if not is_store:
                    self._h_covered_loads += 1
            noc.n_data += 1
        else:
            llc._p_demand_misses += 1
            self._h_llc_misses += 1
            for agent in self._miss_agents:
                bundle = agent.on_miss(request)
                if bundle.fetch_blocks or bundle.writeback_blocks:
                    if actions is None:
                        actions = bundle
                    else:
                        actions.merge(bundle)
            # Inlined _issue_dram: stage the demand read for the batched
            # flush without a call frame.
            self._dram_blocks.append(block)
            self._dram_kinds.append(_DEMAND_READ_CODE)
            self._dram_arrivals.append(self._arrival_bus)
            self._dram_cores.append(core)
            self._h_demand_reads += 1
            if is_store:
                self._h_store_triggered_reads += 1
            else:
                self._h_load_triggered_reads += 1
                self._h_load_demand_misses += 1
            victim = llc.fill(block, dirty=is_store, pc=pc, core=core)
            noc.n_data += 1
            if victim is not None:
                self._handle_llc_eviction_fast(victim)

        if actions is not None:
            self._apply_actions_fast(actions, core, pc)

    def _l1_writeback(self, victim) -> None:
        """Forward a dirty L1 victim to the LLC."""
        self.counters.inc("l1_writebacks")
        self.noc.send(MessageType.DATA)
        evicted = self.llc.write_from_l1(victim.block_address, victim.pc, victim.core)
        if evicted is not None:
            self._handle_llc_eviction(evicted)

    def _l1_writeback_fast(self, victim) -> None:
        """Forward a dirty L1 victim to the LLC (flat-engine fast path)."""
        self._h_l1_writebacks += 1
        self.noc.n_data += 1
        evicted = self.llc.write_from_l1(victim.block_address, victim.pc, victim.core)
        if evicted is not None:
            self._handle_llc_eviction_fast(evicted)

    # ------------------------------------------------------------------ #
    # Eviction handling and agent-generated traffic
    # ------------------------------------------------------------------ #
    def _handle_llc_eviction(self, victim: EvictedLine) -> None:
        counters = self.counters
        counters.inc("llc_evictions")

        actions = AgentActions()
        for agent in self.agents:
            actions.merge(agent.on_eviction(victim))

        if victim.dirty:
            counters.inc("demand_writebacks")
            self._issue_dram(victim.block_address, DRAMRequestKind.DEMAND_WRITEBACK,
                             victim.core)
            self.noc.send(MessageType.DATA)
        if victim.prefetched and not victim.used:
            counters.inc("overfetch_evictions")

        self._apply_actions(actions, victim.core, victim.pc)

    def _handle_llc_eviction_fast(self, victim: EvictedLine) -> None:
        """Eviction handling with hoisted counters (flat-engine fast path)."""
        self._h_llc_evictions += 1

        actions = None
        for agent in self._eviction_agents:
            bundle = agent.on_eviction(victim)
            if bundle.fetch_blocks or bundle.writeback_blocks:
                if actions is None:
                    actions = bundle
                else:
                    actions.merge(bundle)

        if victim.dirty:
            self._h_demand_writebacks += 1
            self._dram_blocks.append(victim.block_address)
            self._dram_kinds.append(_DEMAND_WRITEBACK_CODE)
            self._dram_arrivals.append(self._arrival_bus)
            self._dram_cores.append(victim.core)
            self.noc.n_data += 1
        if victim.prefetched and not victim.used:
            self._h_overfetch_evictions += 1

        if actions is not None:
            self._apply_actions_fast(actions, victim.core, victim.pc)

    def _apply_actions(self, actions: AgentActions, core: int, pc: int) -> None:
        if actions.empty:
            return
        config = self.config
        counters = self.counters

        if actions.fetch_blocks:
            bulk = config.uses_bulk_streaming
            kind = DRAMRequestKind.BULK_READ if bulk else DRAMRequestKind.PREFETCH_READ
            counter = "bulk_reads" if bulk else "prefetch_reads"
            for block in actions.fetch_blocks:
                if block < 0 or self.llc.contains(block):
                    continue
                self.noc.send(MessageType.GENERATED_REQUEST)
                self._issue_dram(block, kind, core)
                counters.inc(counter)
                victim = self.llc.fill(block, prefetched=True, pc=pc, core=core)
                self.noc.send(MessageType.DATA)
                if victim is not None:
                    self._handle_llc_eviction(victim)

        if actions.writeback_blocks:
            bulk = config.uses_bulk_streaming
            kind = DRAMRequestKind.BULK_WRITEBACK if bulk else DRAMRequestKind.EAGER_WRITEBACK
            counter = "bulk_writebacks" if bulk else "eager_writebacks"
            for block in actions.writeback_blocks:
                if block < 0:
                    continue
                self.noc.send(MessageType.GENERATED_REQUEST)
                if self.llc.clean(block):
                    self._issue_dram(block, kind, core)
                    counters.inc(counter)
                    self.noc.send(MessageType.DATA)

    def _apply_actions_fast(self, actions: AgentActions, core: int, pc: int) -> None:
        """Agent-generated traffic for the fused flat-engine loop.

        Same event sequence as :meth:`_apply_actions` -- this is the bulk
        datapath the paper's mechanisms live on (one iteration per streamed
        block, several per miss under BuMP/Full-region) -- with the per-block
        overhead between the layers stripped: NOC counters bumped as plain
        attributes, traffic counters hoisted to instance ints, the LLC
        residence probe bound once per bundle, and DRAM transfers staged as
        scalars for the batched flush without an ``_issue_dram`` call frame
        per block.
        """
        if actions.empty:
            return
        noc = self.noc
        llc = self.llc
        array = self._llc_array
        bulk = self.config.uses_bulk_streaming
        dram_blocks = self._dram_blocks
        dram_kinds = self._dram_kinds
        dram_arrivals = self._dram_arrivals
        dram_cores = self._dram_cores
        arrival = self._arrival_bus

        if actions.fetch_blocks:
            contains = array.contains
            array_fill = array.fill
            if bulk:
                kind_code = DRAMRequestKind.BULK_READ.code
            else:
                kind_code = DRAMRequestKind.PREFETCH_READ.code
            fetched = 0
            for block in actions.fetch_blocks:
                if block < 0 or contains(block):
                    continue
                noc.n_generated_request += 1
                dram_blocks.append(block)
                dram_kinds.append(kind_code)
                dram_arrivals.append(arrival)
                dram_cores.append(core)
                fetched += 1
                # LastLevelCache.fill inlined (one call into the flat array;
                # the wrapper's hot counters are accumulated below / here).
                victim = array_fill(block, prefetched=True, pc=pc, core=core)
                noc.n_data += 1
                if victim is not None:
                    llc._p_evictions += 1
                    if victim.dirty:
                        llc._p_dirty_evictions += 1
                    if victim.prefetched and not victim.used:
                        llc._p_overfetched_blocks += 1
                    self._handle_llc_eviction_fast(victim)
            if fetched:
                llc._p_traffic_ops += fetched
                llc._p_prefetch_fills += fetched
                if bulk:
                    self._h_bulk_reads += fetched
                else:
                    self._h_prefetch_reads += fetched

        if actions.writeback_blocks:
            array_clean = array.clean
            if bulk:
                kind_code = DRAMRequestKind.BULK_WRITEBACK.code
            else:
                kind_code = DRAMRequestKind.EAGER_WRITEBACK.code
            cleaned = 0
            probed = 0
            for block in actions.writeback_blocks:
                if block < 0:
                    continue
                noc.n_generated_request += 1
                probed += 1
                # LastLevelCache.clean inlined (counters accumulated below).
                if array_clean(block):
                    dram_blocks.append(block)
                    dram_kinds.append(kind_code)
                    dram_arrivals.append(arrival)
                    dram_cores.append(core)
                    cleaned += 1
                    noc.n_data += 1
            if probed:
                llc._p_traffic_ops += probed
            if cleaned:
                llc._p_eager_cleaned_blocks += cleaned
                if bulk:
                    self._h_bulk_writebacks += cleaned
                else:
                    self._h_eager_writebacks += cleaned

    def _issue_dram(self, block: int, kind: DRAMRequestKind, core: int) -> None:
        """Stage one transfer for the next batched flush."""
        self._dram_blocks.append(block)
        self._dram_kinds.append(kind.code)
        self._dram_arrivals.append(self._core_cycle / self._bus_ratio)
        self._dram_cores.append(core)

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def _collect_results(self) -> SimulationResult:
        # Flush without draining, deliberately: a direct caller that skipped
        # run()'s final drain observes the queues exactly as the eager
        # threshold drains left them, on either engine.  Draining here
        # would serve what that caller expects to see still pending.
        self._flush_dram()
        self._flush_hot_counters()
        config = self.config
        counters = self.counters
        dram_stats = self.memory.aggregate_stats()
        result = SimulationResult(workload=self.workload_name, config_name=config.name)
        result.counters = counters
        result.dram = dram_stats
        result.llc = self._merged_llc_stats()
        result.noc = self.noc.stats
        result.predictor = self._predictor_stats()
        result.instructions = self._instructions

        density_report = self.profiler.report() if self.profiler is not None else None
        result.density = density_report

        accesses = dram_stats["accesses"]
        measured_hit_ratio = dram_stats["row_hits"] / accesses if accesses else 0.0
        if config.ideal_row_locality and density_report is not None:
            result.row_buffer_hit_ratio = density_report.ideal_row_hit_ratio
            result.effective_activations = accesses * (1.0 - result.row_buffer_hit_ratio)
        else:
            result.row_buffer_hit_ratio = measured_hit_ratio
            result.effective_activations = dram_stats["activations"]

        dram_elapsed = max(
            self.memory.elapsed_cycles - self._measurement_start_bus_cycle, 0.0
        )
        timing = self.timing.summarize(
            instructions=self._instructions,
            load_demand_misses=counters["load_demand_misses"],
            covered_loads=counters["covered_loads"],
            llc_load_hits=counters["llc_load_hits"],
            average_dram_latency_bus_cycles=self.memory.average_demand_read_service,
            dram_elapsed_bus_cycles=self.memory.bandwidth_bound_cycles,
        )
        result.cycles = timing.cycles
        result.throughput_ipc = timing.throughput_ipc
        result.elapsed_seconds = timing.elapsed_seconds

        dram_reads = dram_stats["reads"]
        dram_writes = dram_stats["writes"]
        useful = result.useful_accesses
        result.memory_energy = self.energy_model.memory_energy_per_access(
            activations=result.effective_activations,
            dram_reads=dram_reads,
            dram_writes=dram_writes,
            useful_accesses=useful,
        )

        elapsed_bus_cycles = max(dram_elapsed, 1.0)
        channel_utilization = self.memory.channel_utilization(elapsed_bus_cycles)
        result.energy = self.energy_model.breakdown(
            instructions=self._instructions,
            elapsed_seconds=timing.elapsed_seconds,
            aggregate_ipc=timing.throughput_ipc,
            activations=result.effective_activations,
            dram_reads=dram_reads,
            dram_writes=dram_writes,
            llc_reads=self.llc.stats["demand_hits"] + self.llc.stats["demand_misses"]
                       + self.llc.stats["probe_ops"],
            llc_writes=self.llc.stats["demand_fills"] + self.llc.stats["prefetch_fills"],
            noc_utilization=self.noc.utilization(timing.cycles),
            channel_utilization=channel_utilization,
            useful_accesses=useful,
        )
        return result

    def _merged_llc_stats(self) -> StatGroup:
        merged = StatGroup("llc")
        merged.merge(self.llc.stats)
        merged.merge(self.llc.array_stats)
        return merged

    def _predictor_stats(self) -> StatGroup:
        merged = StatGroup("predictor")
        for agent in self.agents:
            stats = getattr(agent, "stats", None)
            if stats is not None:
                merged.merge(stats)
        if self.bump is not None:
            merged.set("bump_storage_bits", self.bump.storage_bits())
        return merged
