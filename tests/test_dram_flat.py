"""Unit and property tests for the flat-array DRAM engine.

The contract of :class:`repro.dram.flat.FlatMemorySystem` is bit-identity
with the object engine (:class:`repro.dram.system.MemorySystem`) over any
request stream, for both page policies and both interleaving schemes.  The
end-to-end engine parity suite (test_dram_engine_parity.py) covers whole
simulations; the tests here drive the memory system directly so failures
localize to the engine rather than the simulator.
"""

import numpy as np
import pytest

from repro.common.params import DDR3Timing, DRAMOrganization, SystemParams
from repro.common.request import DRAMRequest, DRAMRequestKind
from repro.dram.address_mapping import (
    make_block_interleaving,
    make_region_interleaving,
)
from repro.dram.controller import PagePolicy
from repro.dram.engine import dram_engine_name, resolve_dram_engine
from repro.dram.flat import FlatMemorySystem
from repro.dram.system import MemorySystem

KINDS = list(DRAMRequestKind)


def _params():
    return SystemParams()


def _systems(mapping_factory=make_region_interleaving,
             policy=PagePolicy.OPEN, window=None):
    params = _params()
    org = params.dram_org
    timing = params.dram_timing
    mapping = mapping_factory(org, org.row_buffer_bytes)
    if window is None:
        window = org.transaction_queue_entries
    obj = MemorySystem(timing, org, mapping, policy, window=window,
                       record_completed=False)
    flat = FlatMemorySystem(timing, org, mapping, policy, window=window)
    return obj, flat


def _random_stream(n, seed=0, region_runs=True):
    """(blocks, kind codes, arrivals, cores): random and same-region runs."""
    rng = np.random.default_rng(seed)
    if region_runs:
        base = rng.integers(0, 1 << 20, (n + 3) // 4).astype(np.int64)
        blocks = (np.repeat(base, 4)[:n]
                  + np.tile(np.arange(4, dtype=np.int64), (n + 3) // 4)[:n])
    else:
        blocks = rng.integers(0, 1 << 24, n).astype(np.int64)
    blocks = blocks << 6
    kinds = rng.choice(len(KINDS), size=n,
                       p=[0.45, 0.1, 0.1, 0.25, 0.05, 0.05]).astype(np.int64)
    arrivals = np.cumsum(rng.random(n) * 1.5)
    cores = rng.integers(0, 16, n).astype(np.int64)
    return blocks, kinds, arrivals, cores


def _feed(system, stream):
    """Enqueue ``stream`` as one batch and serve all of it."""
    system.enqueue_block_batch(*stream)
    system.drain()


def _slice(stream, start, stop):
    return [column[start:stop] for column in stream]


GEOMETRIES = [
    (make_region_interleaving, PagePolicy.OPEN),
    (make_region_interleaving, PagePolicy.CLOSE),
    (make_block_interleaving, PagePolicy.OPEN),
    (make_block_interleaving, PagePolicy.CLOSE),
]


class TestBitIdentity:
    # ``window=8`` keeps the flat engine's ready buckets and demand FIFO
    # reaching behind the scheduling window, where they must be ignored.
    @pytest.mark.parametrize("window", [None, 8], ids=["org-window", "window-8"])
    @pytest.mark.parametrize("mapping_factory,policy", GEOMETRIES)
    def test_stats_identical_over_mixed_stream(self, mapping_factory, policy,
                                               window):
        obj, flat = _systems(mapping_factory, policy, window)
        stream = _random_stream(20_000, seed=3)
        _feed(obj, stream)
        _feed(flat, stream)
        assert flat.aggregate_stats().snapshot() == obj.aggregate_stats().snapshot()
        assert flat.elapsed_cycles == obj.elapsed_cycles
        assert flat.bandwidth_bound_cycles == obj.bandwidth_bound_cycles
        assert flat.traffic_by_kind() == obj.traffic_by_kind()

    def test_batch_boundaries_are_invisible(self):
        """Splitting a stream into arbitrary batches changes nothing."""
        stream = _random_stream(12_000, seed=11)
        _, one_shot = _systems()
        _feed(one_shot, stream)
        reference = one_shot.aggregate_stats().snapshot()
        for batch in (1, 7, 63, 64, 65, 4096):
            _, chunked = _systems()
            for start in range(0, len(stream[0]), batch):
                chunked.enqueue_block_batch(*_slice(stream, start, start + batch))
            chunked.drain()
            assert chunked.aggregate_stats().snapshot() == reference, batch

    def test_scalar_enqueue_matches_batch(self):
        stream = _random_stream(3_000, seed=5)
        blocks, kinds, arrivals, _ = stream
        _, batched = _systems()
        _feed(batched, stream)
        _, scalar = _systems()
        for block, kind, arrival in zip(blocks.tolist(), kinds.tolist(),
                                        arrivals.tolist()):
            scalar.enqueue(DRAMRequest(block_address=block, kind=KINDS[kind],
                                       arrival_cycle=arrival))
        scalar.drain()
        assert (scalar.aggregate_stats().snapshot()
                == batched.aggregate_stats().snapshot())

    def test_per_channel_stats_match_controllers(self):
        obj, flat = _systems()
        stream = _random_stream(8_000, seed=9)
        _feed(obj, stream)
        _feed(flat, stream)
        assert len(flat.controllers) == len(obj.controllers)
        for view, controller in zip(flat.controllers, obj.controllers):
            assert view.stats.snapshot() == controller.stats.snapshot()
            assert view.last_completion_cycle == controller.last_completion_cycle
            assert not view._completed

    def test_drain_is_idempotent_and_returns_nothing(self):
        _, flat = _systems()
        flat.enqueue_block_batch(*_random_stream(500, seed=1))
        assert flat.drain() == []
        first = flat.aggregate_stats().snapshot()
        assert flat.drain() == []
        assert flat.aggregate_stats().snapshot() == first
        assert flat.pending_count() == 0


class TestRingBuffer:
    def test_compaction_preserves_order_over_long_streams(self):
        """Streams far beyond the compaction threshold stay bit-identical."""
        obj, flat = _systems()
        stream = _random_stream(60_000, seed=21, region_runs=False)
        _feed(obj, stream)
        for start in range(0, len(stream[0]), 1000):
            flat.enqueue_block_batch(*_slice(stream, start, start + 1000))
        flat.drain()
        assert flat.aggregate_stats().snapshot() == obj.aggregate_stats().snapshot()

    def test_queue_stays_bounded_during_batches(self):
        """Eager draining keeps each channel under twice the window."""
        _, flat = _systems()
        flat.enqueue_block_batch(*_random_stream(10_000, seed=2))
        bound = 2 * flat.window * len(flat.controllers)
        assert flat.pending_count() <= bound


class TestCounters:
    def test_reset_counters_preserves_architectural_state(self):
        obj, flat = _systems()
        stream = _random_stream(6_000, seed=13)
        half = len(stream[0]) // 2
        _feed(obj, _slice(stream, 0, half))
        _feed(flat, _slice(stream, 0, half))
        for controller in obj.controllers:
            controller.reset_counters()
        for view in flat.controllers:
            view.reset_counters()
        assert flat.aggregate_stats().snapshot() == obj.aggregate_stats().snapshot()
        _feed(obj, _slice(stream, half, None))
        _feed(flat, _slice(stream, half, None))
        # Post-warmup measurements still identical: row-buffer and bank
        # timing state survived the reset on both engines.
        assert flat.aggregate_stats().snapshot() == obj.aggregate_stats().snapshot()

    def test_channel_of_matches_object_engine(self):
        obj, flat = _systems()
        blocks = _random_stream(1_000, seed=17)[0]
        for block in blocks.tolist():
            assert flat.channel_of(block) == obj.channel_of(block)


class TestEngineResolution:
    def test_default_engine_is_flat(self, monkeypatch):
        monkeypatch.delenv("REPRO_DRAM_ENGINE", raising=False)
        assert dram_engine_name() == "flat"

    def test_env_and_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_DRAM_ENGINE", "object")
        assert dram_engine_name() == "object"
        assert dram_engine_name("flat") == "flat"

    def test_unknown_engine_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown DRAM engine"):
            dram_engine_name("fast")

    def test_non_frfcfs_scheduler_falls_back_to_object(self):
        assert resolve_dram_engine("flat", scheduler="fcfs") == "object"
        assert resolve_dram_engine("flat", scheduler="frfcfs") == "flat"

    def test_oversized_organisation_falls_back_to_object(self):
        org = DRAMOrganization()
        assert resolve_dram_engine("flat", org=org) == "flat"
        # Counts of exactly 64 still pack (indices 0..63 fit 6 bits).
        boundary = DRAMOrganization(banks_per_rank=64)
        assert resolve_dram_engine("flat", org=boundary) == "flat"
        big = DRAMOrganization(banks_per_rank=128)
        assert resolve_dram_engine("flat", org=big) == "object"

    def test_flat_system_accepts_boundary_organisation(self):
        org = DRAMOrganization(banks_per_rank=64)
        mapping = make_region_interleaving(org, org.row_buffer_bytes)
        assert FlatMemorySystem(DDR3Timing(), org, mapping) is not None

    def test_flat_system_rejects_oversized_organisation(self):
        org = DRAMOrganization(banks_per_rank=128)
        mapping = make_region_interleaving(org, org.row_buffer_bytes)
        with pytest.raises(ValueError, match="packs"):
            FlatMemorySystem(DDR3Timing(), org, mapping)

    def test_flat_system_rejects_empty_window(self):
        params = _params()
        mapping = make_region_interleaving(params.dram_org,
                                           params.dram_org.row_buffer_bytes)
        with pytest.raises(ValueError, match="window"):
            FlatMemorySystem(params.dram_timing, params.dram_org, mapping,
                             window=0)
