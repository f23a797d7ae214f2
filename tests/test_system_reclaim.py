"""Finished systems kept alive only by a reference cycle are reclaimed.

A finished :class:`ServerSystem` holds its warm caches and queues until it
is freed.  One that a closure stored on itself keeps alive waits for the
cyclic collector, which the allocation-light hot path seldom triggers, so
without help several dead systems stack up in one process.  Before a
warmup (:meth:`ServerSystem.run` with ``warmup_accesses > 0``, and
:func:`capture_warmup`) the system collects once if another finished system
is still alive; these tests run with the automatic collector disabled so
that only that collection can free anything.
"""

import gc
import tracemalloc
import weakref

import pytest

from repro.common.params import CacheParams, SystemParams
from repro.exec.campaign import result_fingerprint
from repro.sim import system as system_module
from repro.sim.config import bump_system
from repro.sim.runner import build_trace
from repro.sim.snapshot import capture_warmup
from repro.sim.system import ServerSystem
from repro.workloads.catalog import get_workload

CORES = 4
ACCESSES = 4_000
WARMUP = 2_000
CONFIG = bump_system().with_overrides(system=SystemParams().scaled(
    llc=CacheParams(size_bytes=1024 * 1024, associativity=16, hit_latency_cycles=8),
    num_cores=CORES,
))


@pytest.fixture(scope="module")
def trace():
    return build_trace(get_workload("web_search"), ACCESSES, CORES, 3)


@pytest.fixture
def no_automatic_gc():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def cyclic_system() -> ServerSystem:
    """A system that a closure stored on itself keeps alive, as a wrapped hook."""
    system = ServerSystem(CONFIG, workload_name="web_search")
    begin = system.begin_measurement

    def checked_begin() -> None:
        assert system.llc is not None
        begin()

    system.begin_measurement = checked_begin
    return system


def test_cyclic_systems_never_stack_up(trace, no_automatic_gc):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = ServerSystem(CONFIG, workload_name="web_search")
        kept.run(trace, warmup_accesses=WARMUP)
        one_system = tracemalloc.get_traced_memory()[0] - base
        del kept

        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        refs = []
        for _ in range(5):
            system = cyclic_system()
            system.run(trace, warmup_accesses=WARMUP)
            refs.append(weakref.ref(system))
            del system
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # Each warmup freed its dead predecessor; only the last one waits.
    assert [ref() is None for ref in refs] == [True] * 4 + [False]
    assert peak < 2 * one_system


def test_capture_warmup_reclaims_a_cyclic_finished_system(trace, no_automatic_gc):
    dead = cyclic_system()
    dead.run(trace, warmup_accesses=WARMUP)
    ref = weakref.ref(dead)
    del dead
    assert ref() is not None
    capture_warmup(ServerSystem(CONFIG, workload_name="web_search"), trace, WARMUP)
    assert ref() is None


def test_a_referenced_finished_system_survives_with_readable_results(
        trace, no_automatic_gc):
    held = cyclic_system()
    result = held.run(trace, warmup_accesses=WARMUP)
    fingerprint = result_fingerprint(result)
    accesses = held.counters["accesses"]
    ref = weakref.ref(held)
    for _ in range(2):
        cyclic_system().run(trace, warmup_accesses=WARMUP)
    assert ref() is held
    assert result_fingerprint(result) == fingerprint
    assert held.counters["accesses"] == accesses == ACCESSES - WARMUP
    assert held.bump.stats["rdtt_accesses"] > 0


def test_collects_only_when_another_finished_system_lives(trace, monkeypatch):
    calls = []
    monkeypatch.setattr(system_module.gc, "collect", lambda: calls.append(1))
    system_module._FINISHED.clear()
    first = ServerSystem(CONFIG, workload_name="web_search")
    first.run(trace, warmup_accesses=WARMUP)
    # Nothing else has finished, and a run without warmup never collects.
    assert calls == []
    ServerSystem(CONFIG, workload_name="web_search").run(trace)
    assert calls == []
    ServerSystem(CONFIG, workload_name="web_search").run(
        trace, warmup_accesses=WARMUP)
    assert calls == [1]
    # ``first`` survived that collection, so it triggers no further one.
    ServerSystem(CONFIG, workload_name="web_search").run(
        trace, warmup_accesses=WARMUP)
    assert calls == [1]
    assert first.counters["accesses"] == ACCESSES - WARMUP
