"""The ``TraceSource`` protocol layer: adapters, ingest and feedback records.

The refactor guarantee under test: every trace shape the simulator accepted
before the protocol existed (buffers, chunk iterators, boxed access lists)
flows through :class:`~repro.trace.source.IteratorSource` bit-identically,
and an externally stored trace file round-trips through
:class:`~repro.trace.source.IngestSource` bit-for-bit -- including the
capture -> export -> ingest path out of the LLC recorder.
"""

import numpy as np
import pytest

from repro.common.request import Access, AccessType
from repro.sim.config import base_open
from repro.sim.runner import build_trace, run_trace
from repro.trace import (
    FeedbackSample,
    IngestSource,
    IteratorSource,
    LLCTraceRecorder,
    TraceBuffer,
    TraceSource,
    as_trace_source,
    resume_source,
    save_trace,
)
from repro.sim.system import ServerSystem
from repro.trace.buffer import TRACE_RECORD_DTYPE
from repro.workloads.catalog import get_workload
from repro.workloads.generator import generate_trace_buffer


def small_buffer(accesses=3000, seed=7):
    return generate_trace_buffer(get_workload("web_search"), accesses,
                                 num_cores=4, seed=seed)


def drain(source):
    chunks = []
    while True:
        chunk = source.next_chunk(None)
        if chunk is None:
            return chunks
        chunks.append(chunk)


class TestIteratorSource:
    def test_buffer_is_replayed_bit_identically(self):
        buffer = small_buffer()
        source = IteratorSource(buffer, chunk_size=512)
        replayed = TraceBuffer.concat(drain(source))
        assert replayed == buffer

    def test_chunk_iterator_input_is_passed_through(self):
        buffer = small_buffer()
        chunks = [buffer[i:i + 700] for i in range(0, len(buffer), 700)]
        source = IteratorSource(iter(chunks), chunk_size=256)
        assert TraceBuffer.concat(drain(source)) == buffer

    def test_boxed_access_list_input(self):
        accesses = [Access(core=0, pc=0x40, address=i * 64,
                           type=AccessType.LOAD, instructions=1)
                    for i in range(100)]
        source = IteratorSource(accesses, chunk_size=32)
        chunks = drain(source)
        assert sum(len(c) for c in chunks) == 100
        assert all(len(c) <= 32 for c in chunks)

    def test_exhaustion_is_sticky_and_feedback_free(self):
        source = IteratorSource(small_buffer(200), chunk_size=128)
        assert not source.wants_feedback
        drain(source)
        assert source.next_chunk(None) is None
        assert source.next_chunk(None) is None

    def test_iter_protocol_matches_next_chunk(self):
        buffer = small_buffer(1000)
        via_iter = TraceBuffer.concat(list(IteratorSource(buffer, 300)))
        via_pull = TraceBuffer.concat(drain(IteratorSource(buffer, 300)))
        assert via_iter == via_pull == buffer


class TestAsTraceSource:
    def test_wraps_plain_traces(self):
        source = as_trace_source(small_buffer(500), chunk_size=200)
        assert isinstance(source, IteratorSource)
        assert isinstance(source, TraceSource)

    def test_passes_existing_sources_through(self):
        source = IteratorSource(small_buffer(500))
        assert as_trace_source(source) is source


class TestIngestSource:
    @pytest.mark.parametrize("suffix,mmap", [
        (".npz", False), (".npy", False), (".npy", True), (".csv", False)])
    def test_round_trips_every_codec_bit_for_bit(self, tmp_path, suffix, mmap):
        buffer = small_buffer(1500)
        path = tmp_path / f"trace{suffix}"
        save_trace(buffer, path)
        source = IngestSource(path, chunk_size=444, mmap=mmap)
        assert source.total_accesses == len(buffer)
        assert TraceBuffer.concat(drain(source)) == buffer

    def test_recorder_export_replays_through_ingest(self, tmp_path):
        """The full capture -> codec -> replay path, end to end."""
        trace = build_trace("web_serving", 4_000, seed=5)
        recorder = LLCTraceRecorder()
        run_trace(trace, base_open(), warmup_fraction=0.0,
                  extra_agents=[recorder])
        path = recorder.export(tmp_path / "misses.npy")
        source = IngestSource(path, chunk_size=512)
        replayed = TraceBuffer.concat(drain(source))
        assert replayed == recorder.miss_trace_buffer()
        result = run_trace(IngestSource(path), base_open(),
                           warmup_fraction=0.0,
                           num_accesses=source.total_accesses)
        assert result.total_dram_accesses > 0

    def test_chunk_size_does_not_change_the_stream(self, tmp_path):
        buffer = small_buffer(2000)
        path = tmp_path / "trace.npz"
        save_trace(buffer, path)
        narrow = TraceBuffer.concat(drain(IngestSource(path, chunk_size=97)))
        wide = TraceBuffer.concat(drain(IngestSource(path, chunk_size=1900)))
        assert narrow == wide == buffer


class TestIngestBoundary:
    """Malformed rows fail at the boundary with the file, chunk and row."""

    def _save_npy(self, tmp_path, dtype=TRACE_RECORD_DTYPE, **overrides):
        """A 3000-row ``.npy`` trace whose row 2500 takes ``overrides``."""
        buffer = small_buffer()
        records = np.zeros(len(buffer), dtype=dtype)
        for name in TRACE_RECORD_DTYPE.names:
            records[name] = getattr(buffer, name)
        for name, value in overrides.items():
            records[name][2500] = value
        path = tmp_path / "bad.npy"
        np.save(path, records)
        return path

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("name", ["core", "instructions"])
    def test_negative_field_is_refused_at_load(self, tmp_path, name, mmap):
        path = self._save_npy(tmp_path, **{name: -1})
        with pytest.raises(ValueError, match=rf"bad\.npy, row 2500: {name} is -1"):
            IngestSource(path, mmap=mmap)

    def test_mmap_validation_allocates_no_full_size_temporary(self, tmp_path):
        import tracemalloc

        rows = 400_000
        records = np.zeros(rows, dtype=TRACE_RECORD_DTYPE)
        records["instructions"] = 1
        path = tmp_path / "big.npy"
        np.save(path, records)
        tracemalloc.start()
        try:
            IngestSource(path, mmap=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A per-column ``column < 0`` mask alone would take ``rows`` bytes.
        assert peak < rows // 2

    def test_negative_address_is_refused_before_the_unsigned_cast(self, tmp_path):
        signed = np.dtype([(name, np.int64 if name == "address"
                            else TRACE_RECORD_DTYPE[name])
                           for name in TRACE_RECORD_DTYPE.names])
        path = self._save_npy(tmp_path, dtype=signed, address=-64)
        with pytest.raises(ValueError, match=r"row 2500: address is -64"):
            IngestSource(path)

    def test_negative_core_in_npz_and_csv_is_refused(self, tmp_path):
        buffer = small_buffer(100)
        core = buffer.core.copy()
        core[7] = -3
        npz = tmp_path / "bad.npz"
        np.savez(npz, **{name: getattr(buffer, name) for name in TRACE_RECORD_DTYPE.names
                         if name != "core"}, core=core)
        with pytest.raises(ValueError, match=r"bad\.npz, row 7: core is -3"):
            IngestSource(npz)
        csv = tmp_path / "bad.csv"
        csv.write_text("0,0x40,0x1000,L,3\n0,0x40,0x1040,S,-2\n")
        with pytest.raises(ValueError, match=r"bad\.csv, row 1: instructions is -2"):
            IngestSource(csv)

    def test_core_beyond_the_system_is_refused_once_per_chunk(self, tmp_path):
        path = self._save_npy(tmp_path, core=4)
        four_cores = base_open().with_overrides(
            system=base_open().system.scaled(num_cores=4))
        message = (r"bad\.npy, chunk 2, row 452: core 4 is outside the "
                   r"simulated system's 4 cores")
        with pytest.raises(ValueError, match=message):
            ServerSystem(four_cores, workload_name="ingest").run(
                IngestSource(path, chunk_size=1024))
        # Sixteen cores have room for core 4: the same file runs.
        result = ServerSystem(base_open(), workload_name="ingest").run(
            IngestSource(path))
        assert result.counters["accesses"] == 3000

    def test_negative_core_of_an_in_memory_trace_is_refused(self):
        buffer = small_buffer(100)
        buffer.core[42] = -1
        with pytest.raises(ValueError, match=r"^chunk 0, row 42: core -1 is outside"):
            ServerSystem(base_open(), workload_name="memory").run(buffer)


class TestResumeSource:
    def test_leftover_is_emitted_first_then_delegates(self):
        buffer = small_buffer(900)
        leftover, rest = buffer[:123], buffer[123:]
        source = resume_source(leftover, IteratorSource(rest, chunk_size=400))
        chunks = drain(source)
        assert len(chunks[0]) == 123
        assert TraceBuffer.concat(chunks) == buffer

    def test_empty_leftover_returns_the_source_unwrapped(self):
        inner = IteratorSource(small_buffer(100))
        assert resume_source(None, inner) is inner
        assert resume_source(small_buffer(100)[:0], inner) is inner

    def test_feedback_appetite_is_preserved(self):
        class Hungry:
            wants_feedback = True

            def next_chunk(self, feedback):
                return None

        resumed = resume_source(small_buffer(10), Hungry())
        assert resumed.wants_feedback


class TestFeedbackSample:
    def test_mean_read_latency(self):
        sample = FeedbackSample(accesses=100, core_cycle=400.0,
                                demand_reads=20, read_latency_cycles=900.0,
                                queue_depth=3, llc_misses=25)
        assert sample.mean_read_latency == pytest.approx(45.0)

    def test_mean_read_latency_before_any_read_is_zero(self):
        sample = FeedbackSample(accesses=0, core_cycle=0.0, demand_reads=0,
                                read_latency_cycles=0.0, queue_depth=0,
                                llc_misses=0)
        assert sample.mean_read_latency == 0.0
