"""Warm-state snapshot engine: capture/restore bit-identity and plumbing.

The acceptance bar for ``repro.sim.snapshot`` is absolute: restoring a
warmup snapshot and simulating the measured tail must produce the
*identical* :class:`SimulationResult` (full fingerprint, every counter and
energy figure) as an uninterrupted run -- across the cache x DRAM engine
matrix, both DRAM page policies, any chunking of the stream, scenario
mid-phase boundaries, and across process boundaries (snapshot written by
one process, restored in another).
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.exec.campaign import result_fingerprint, run_campaign
from repro.exec.jobs import JobGrid
from repro.exec.store import ArtifactStore
from repro.scenario.catalog import get_scenario
from repro.scenario.runner import run_scenario
from repro.sim.config import named_configs
from repro.sim.runner import build_trace, run_trace, run_workload_streaming
from repro.sim.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    capture,
    capture_warmup,
    load_snapshot,
    restore,
    save_snapshot,
    snapshot_fingerprint,
)
from repro.sim.system import ServerSystem
from repro.telemetry.metrics import (
    reset_snapshot_counters,
    snapshot_cache_info,
)
from repro.trace.buffer import as_chunk_iterator
from repro.workloads.catalog import get_workload

ACCESSES = 4_000
CORES = 4
SEED = 7
WORKLOAD = "web_search"


@pytest.fixture(autouse=True)
def _clean_counters():
    reset_snapshot_counters()
    yield
    reset_snapshot_counters()


def _config(name="bump"):
    return named_configs([name])[name]


def _trace():
    return build_trace(WORKLOAD, ACCESSES, num_cores=CORES, seed=SEED)


def _cold(config, **engines):
    return run_trace(_trace(), config, workload_name=WORKLOAD,
                     warmup_fraction=0.5, **engines)


def _warm_twice(config, store, **engines):
    """One miss-and-capture run followed by one hit-and-restore run."""
    key = snapshot_fingerprint(
        get_workload(WORKLOAD), config, ACCESSES // 2,
        num_cores=CORES, seed=SEED,
        cache_engine=engines.get("cache_engine"),
        dram_engine=engines.get("dram_engine"))
    first = run_trace(_trace(), config, workload_name=WORKLOAD,
                      warmup_fraction=0.5, warmup_snapshot=store,
                      snapshot_key=key, **engines)
    second = run_trace(_trace(), config, workload_name=WORKLOAD,
                       warmup_fraction=0.5, warmup_snapshot=store,
                       snapshot_key=key, **engines)
    return first, second


class TestEngineCube:
    @pytest.mark.parametrize("cache_engine", ["flat", "dict"])
    @pytest.mark.parametrize("dram_engine", ["flat", "object"])
    def test_capture_restore_bit_identical(self, tmp_path, cache_engine,
                                           dram_engine):
        config = _config()
        engines = dict(cache_engine=cache_engine, dram_engine=dram_engine)
        cold = _cold(config, **engines)
        captured, restored = _warm_twice(config, ArtifactStore(tmp_path),
                                         **engines)
        assert result_fingerprint(cold) == result_fingerprint(captured), (
            f"{cache_engine}/{dram_engine}: capture run diverged")
        assert result_fingerprint(cold) == result_fingerprint(restored), (
            f"{cache_engine}/{dram_engine}: restored run diverged")


class TestPagePolicies:
    @pytest.mark.parametrize("system", ["base_open", "base_close"])
    def test_both_page_policies(self, tmp_path, system):
        config = _config(system)
        cold = _cold(config)
        captured, restored = _warm_twice(config, ArtifactStore(tmp_path))
        assert result_fingerprint(cold) == result_fingerprint(captured)
        assert result_fingerprint(cold) == result_fingerprint(restored)


class TestScenarios:
    SCALE = 0.01

    def test_mid_phase_warmup_boundary(self, tmp_path):
        """A warmup fraction that lands inside a scenario phase restores
        bit-identically (the boundary splits a phase, not just a chunk)."""
        scenario = get_scenario("phase-change", scale=self.SCALE)
        config = _config()
        store = ArtifactStore(tmp_path)
        cold = run_scenario(scenario, config, seed=SEED, warmup_fraction=0.4)
        captured = run_scenario(scenario, config, seed=SEED,
                                warmup_fraction=0.4, warmup_snapshot=store)
        restored = run_scenario(scenario, config, seed=SEED,
                                warmup_fraction=0.4, warmup_snapshot=store)
        assert result_fingerprint(cold) == result_fingerprint(captured)
        assert result_fingerprint(cold) == result_fingerprint(restored)

    def test_chunk_size_variation(self, tmp_path):
        """The snapshot key excludes the chunk size: a snapshot captured
        under one chunking restores into a differently chunked stream."""
        scenario = get_scenario("tenant-colocation", scale=self.SCALE)
        config = _config()
        store = ArtifactStore(tmp_path)
        cold = run_scenario(scenario, config, seed=SEED, chunk_size=4096)
        run_scenario(scenario, config, seed=SEED, chunk_size=1000,
                     warmup_snapshot=store)
        restored = run_scenario(scenario, config, seed=SEED, chunk_size=4096,
                                warmup_snapshot=store)
        assert snapshot_cache_info()["hits"] == 1
        assert result_fingerprint(cold) == result_fingerprint(restored)


class TestDirectCaptureRestore:
    def test_mid_run_capture_continues_identically(self):
        """capture()/restore() at an arbitrary warmup boundary (not aligned
        to any chunk) continues bit-identically to an uninterrupted run."""
        config = _config()
        trace = _trace()
        warmup = 1_234
        uninterrupted = run_trace(trace, config, workload_name=WORKLOAD,
                                  num_accesses=ACCESSES,
                                  warmup_fraction=warmup / ACCESSES)

        system = ServerSystem(config, workload_name=WORKLOAD)
        snapshot, leftover, chunk_iter = capture_warmup(
            system, trace, warmup)
        assert snapshot.processed == warmup

        resumed = restore(snapshot)

        def tail():
            if leftover is not None and len(leftover):
                yield leftover
            yield from chunk_iter

        result = resumed.run(tail(), warmup_accesses=0)
        assert result_fingerprint(uninterrupted) == result_fingerprint(result)

    def test_extra_agents_rejected(self):
        config = _config()
        system = ServerSystem(config, workload_name=WORKLOAD)
        system.agents = system.agents + [object()]
        with pytest.raises(ValueError, match="extra_agents"):
            capture(system, processed=0)


class TestSerialization:
    def test_file_round_trip(self, tmp_path):
        config = _config()
        system = ServerSystem(config, workload_name=WORKLOAD)
        snapshot, _, _ = capture_warmup(system, _trace(), 2_000)
        path = tmp_path / "snap.npz"
        save_snapshot(snapshot, path)
        loaded = load_snapshot(path)
        assert loaded.format_version == SNAPSHOT_FORMAT_VERSION
        assert loaded.workload_name == snapshot.workload_name
        assert loaded.processed == snapshot.processed
        assert loaded.config_key == snapshot.config_key
        assert loaded.state_blob == snapshot.state_blob
        assert sorted(loaded.arrays) == sorted(snapshot.arrays)
        for name, array in snapshot.arrays.items():
            assert (loaded.arrays[name] == array).all()
        describe = loaded.describe()
        assert describe["processed_accesses"] == 2_000
        assert describe["total_bytes"] == loaded.nbytes

    def test_snapshot_restore_via_file(self, tmp_path):
        """run_trace(snapshot=path) loads the file and runs only the tail."""
        config = _config()
        cold = _cold(config)
        system = ServerSystem(config, workload_name=WORKLOAD)
        snapshot, _, _ = capture_warmup(system, _trace(), ACCESSES // 2)
        path = tmp_path / "snap.npz"
        save_snapshot(snapshot, path)
        resumed = run_trace(_trace(), config, workload_name=WORKLOAD,
                            snapshot=str(path))
        assert result_fingerprint(cold) == result_fingerprint(resumed)

    def test_cross_process_restore(self, tmp_path):
        """A snapshot written here restores bit-identically in a fresh
        interpreter (the campaign's worker-process reuse path)."""
        config = _config()
        cold = _cold(config)
        system = ServerSystem(config, workload_name=WORKLOAD)
        snapshot, _, _ = capture_warmup(system, _trace(), ACCESSES // 2)
        path = tmp_path / "snap.npz"
        save_snapshot(snapshot, path)
        script = (
            "from repro.exec.campaign import result_fingerprint\n"
            "from repro.sim.config import named_configs\n"
            "from repro.sim.runner import build_trace, run_trace\n"
            f"config = named_configs(['bump'])['bump']\n"
            f"trace = build_trace({WORKLOAD!r}, {ACCESSES}, "
            f"num_cores={CORES}, seed={SEED})\n"
            f"result = run_trace(trace, config, workload_name={WORKLOAD!r}, "
            f"snapshot={str(path)!r})\n"
            "print(result_fingerprint(result))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == result_fingerprint(cold)


class TestValidation:
    def test_snapshot_and_warmup_snapshot_conflict(self, tmp_path):
        with pytest.raises(ValueError, match="either snapshot or"):
            run_trace(_trace(), _config(), snapshot=object(),
                      warmup_snapshot=ArtifactStore(tmp_path))

    def test_warmup_snapshot_requires_key(self, tmp_path):
        with pytest.raises(ValueError, match="snapshot_key"):
            run_trace(_trace(), _config(), warmup_fraction=0.5,
                      warmup_snapshot=ArtifactStore(tmp_path))

    def test_snapshot_extra_agents_conflict(self):
        with pytest.raises(ValueError, match="extra_agents"):
            run_trace(_trace(), _config(), snapshot=object(),
                      extra_agents=[object()])

    def test_config_mismatch_rejected(self):
        system = ServerSystem(_config(), workload_name=WORKLOAD)
        snapshot, _, _ = capture_warmup(system, _trace(), 2_000)
        with pytest.raises(ValueError, match="different system configuration"):
            run_trace(_trace(), _config("base_open"), snapshot=snapshot)

    def test_warmup_length_mismatch_rejected(self, tmp_path):
        """A stored snapshot warmed over N accesses cannot stand in for a
        run requesting a different warmup length under the same key."""
        config = _config()
        store = ArtifactStore(tmp_path)
        key = "ab" * 16
        run_trace(_trace(), config, workload_name=WORKLOAD,
                  warmup_fraction=0.5, warmup_snapshot=store,
                  snapshot_key=key)
        with pytest.raises(ValueError, match="was captured after"):
            run_trace(_trace(), config, workload_name=WORKLOAD,
                      warmup_fraction=0.25, warmup_snapshot=store,
                      snapshot_key=key)

    def test_format_version_guard(self, tmp_path):
        system = ServerSystem(_config(), workload_name=WORKLOAD)
        snapshot, _, _ = capture_warmup(system, _trace(), 2_000)
        snapshot.format_version = SNAPSHOT_FORMAT_VERSION + 1
        path = tmp_path / "future.npz"
        save_snapshot(snapshot, path)
        with pytest.raises(ValueError, match="format"):
            load_snapshot(path)

    def test_v1_snapshot_refused(self, tmp_path):
        """Older layouts are refused, not misloaded.

        v1 pickled BuMP's tables as AssociativeTables; v2 pickled the
        object DRAM engine's FR-FCFS ready-tracking state.
        """
        system = ServerSystem(_config(), workload_name=WORKLOAD)
        snapshot, _, _ = capture_warmup(system, _trace(), 2_000)
        for version in (1, 2):
            snapshot.format_version = version
            path = tmp_path / f"v{version}.npz"
            save_snapshot(snapshot, path)
            message = (rf"snapshot format v{version} is not supported by this "
                       r"build \(expected v3\): capture the warm state again")
            with pytest.raises(ValueError, match=message):
                load_snapshot(path)
            with pytest.raises(ValueError, match=message):
                restore(snapshot)

    def test_empty_warmup_rejected(self):
        system = ServerSystem(_config(), workload_name=WORKLOAD)
        with pytest.raises(ValueError):
            capture_warmup(system, _trace(), 0)


class TestWarmupLengthValidation:
    """Satellite: 'trace shorter than requested warmup' raises early."""

    def test_known_length_raises_before_simulating(self):
        """With a materialized trace the error fires before the simulator
        consumes anything (the declared length overstates the stream)."""
        config = _config()
        short = build_trace(WORKLOAD, 100, num_cores=CORES, seed=SEED)
        with pytest.raises(ValueError, match="shorter than the requested"):
            run_trace(short, config, workload_name=WORKLOAD,
                      num_accesses=1_000, warmup_fraction=0.5)

    def test_unknown_length_still_raises_at_stream_end(self):
        """Generator streams have no knowable length up front; the check
        still fires once the stream is exhausted inside the warmup."""
        config = _config()
        short = build_trace(WORKLOAD, 100, num_cores=CORES, seed=SEED)

        def chunks():
            yield from as_chunk_iterator(short)

        with pytest.raises(ValueError, match="shorter than the requested"):
            run_trace(chunks(), config, workload_name=WORKLOAD,
                      num_accesses=1_000, warmup_fraction=0.5)


class TestStore:
    def _snapshot(self):
        system = ServerSystem(_config(), workload_name=WORKLOAD)
        snapshot, _, _ = capture_warmup(system, _trace(), 2_000)
        return snapshot

    def test_round_trip_and_counters(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = "cd" * 16
        assert store.get_snapshot(digest) is None
        assert store.counters["misses"] == 1
        store.put_snapshot(digest, self._snapshot())
        loaded = store.get_snapshot(digest)
        assert loaded is not None
        assert loaded.processed == 2_000
        assert store.counters["hits"] == 1
        info = snapshot_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_corrupt_snapshot_is_removed_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = "ef" * 16
        store.put_snapshot(digest, self._snapshot())
        path = store.root / "snapshots" / f"{digest}.npz"
        path.write_bytes(b"not a zip archive")
        assert store.get_snapshot(digest) is None
        assert store.counters["corrupt"] == 1
        assert not path.exists()

    def test_stats_report_per_kind(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put_snapshot("12" * 16, self._snapshot())
        store.put_result("34" * 16, {"answer": 42})
        stats = store.stats()
        assert stats["kinds"]["snapshots"]["entries"] == 1
        assert stats["kinds"]["snapshots"]["bytes"] > 0
        assert stats["kinds"]["results"]["entries"] == 1
        assert stats["entries"] == 2

    def test_prune_covers_snapshots(self, tmp_path):
        store = ArtifactStore(tmp_path, max_entries=1)
        store.put_snapshot("56" * 16, self._snapshot())
        store.put_snapshot("78" * 16, self._snapshot())
        assert store.entry_count() == 1
        assert store.counters["evictions"] >= 1


class TestFingerprint:
    def test_sensitivity(self):
        spec = get_workload(WORKLOAD)
        config = _config()
        base = snapshot_fingerprint(spec, config, 2_000, num_cores=CORES,
                                    seed=SEED)
        assert base == snapshot_fingerprint(spec, config, 2_000,
                                            num_cores=CORES, seed=SEED)
        assert base != snapshot_fingerprint(spec, config, 2_001,
                                            num_cores=CORES, seed=SEED)
        assert base != snapshot_fingerprint(spec, config, 2_000,
                                            num_cores=CORES, seed=SEED + 1)
        assert base != snapshot_fingerprint(spec, _config("base_open"), 2_000,
                                            num_cores=CORES, seed=SEED)
        assert base != snapshot_fingerprint(spec, config, 2_000,
                                            num_cores=CORES, seed=SEED,
                                            cache_engine="dict")

    def test_config_rename_shares_snapshot(self):
        """The fingerprint keys on configuration content, not display name."""
        import dataclasses

        spec = get_workload(WORKLOAD)
        config = _config()
        renamed = dataclasses.replace(config, name="renamed")
        assert (snapshot_fingerprint(spec, config, 2_000)
                == snapshot_fingerprint(spec, renamed, 2_000))


class TestRunnerIntegration:
    def test_run_workload_streaming_warmup_snapshot(self, tmp_path):
        store = ArtifactStore(tmp_path)
        config = _config()
        cold = run_workload_streaming(WORKLOAD, config, num_accesses=ACCESSES,
                                      num_cores=CORES, seed=SEED,
                                      warmup_fraction=0.5)
        run_workload_streaming(WORKLOAD, config, num_accesses=ACCESSES,
                               num_cores=CORES, seed=SEED,
                               warmup_fraction=0.5, warmup_snapshot=store)
        restored = run_workload_streaming(WORKLOAD, config,
                                          num_accesses=ACCESSES,
                                          num_cores=CORES, seed=SEED,
                                          warmup_fraction=0.5,
                                          warmup_snapshot=store)
        info = snapshot_cache_info()
        assert info["captures"] == 1 and info["restores"] == 1
        assert result_fingerprint(cold) == result_fingerprint(restored)

    def test_telemetry_on_restored_run_matches_off(self, tmp_path):
        """Telemetry on a snapshot run stays observational: results with a
        recorder are bit-identical to results without one."""
        store = ArtifactStore(tmp_path)
        config = _config()
        key = "9a" * 16
        run_trace(_trace(), config, workload_name=WORKLOAD,
                  warmup_fraction=0.5, warmup_snapshot=store,
                  snapshot_key=key)
        plain = run_trace(_trace(), config, workload_name=WORKLOAD,
                          warmup_fraction=0.5, warmup_snapshot=store,
                          snapshot_key=key)
        recorded = run_trace(_trace(), config, workload_name=WORKLOAD,
                             warmup_fraction=0.5, warmup_snapshot=store,
                             snapshot_key=key, telemetry="full")
        assert result_fingerprint(plain) == result_fingerprint(recorded)


class TestCampaign:
    def _jobs(self):
        return JobGrid(workloads=[WORKLOAD],
                       configs=["base_open", "bump"], seeds=[SEED],
                       num_accesses=ACCESSES, num_cores=CORES,
                       warmup_fraction=0.5).expand()

    def test_warmup_snapshots_parity_serial(self, tmp_path):
        jobs = self._jobs()
        cold = run_campaign(jobs, store=None, workers=1)
        warm = run_campaign(jobs, store=ArtifactStore(tmp_path / "a"),
                            workers=1, warmup_snapshots=True)
        for left, right in zip(cold.outcomes, warm.outcomes):
            assert (result_fingerprint(left.result)
                    == result_fingerprint(right.result)), left.job.label
        assert "snapshot_cache" in warm.metrics

    def test_warmup_snapshots_parity_parallel(self, tmp_path):
        jobs = self._jobs()
        cold = run_campaign(jobs, store=None, workers=1)
        warm = run_campaign(jobs, store=ArtifactStore(tmp_path / "b"),
                            workers=2, warmup_snapshots=True)
        for left, right in zip(cold.outcomes, warm.outcomes):
            assert (result_fingerprint(left.result)
                    == result_fingerprint(right.result)), left.job.label

    def test_resumed_campaign_restores_snapshot(self, tmp_path):
        """Dropping the result artifacts but keeping the snapshots makes a
        re-run restore instead of re-warming (fork-per-query amortization)."""
        jobs = self._jobs()
        store = ArtifactStore(tmp_path)
        run_campaign(jobs, store=store, workers=1, warmup_snapshots=True)
        for path in (store.root / "results").glob("*.pkl"):
            path.unlink()
        reset_snapshot_counters()
        run_campaign(jobs, store=store, workers=1, warmup_snapshots=True)
        info = snapshot_cache_info()
        assert info["restores"] == len(jobs)
        assert info["captures"] == 0

    def test_warmup_snapshots_require_store(self):
        with pytest.raises(ValueError, match="store"):
            run_campaign(self._jobs(), store=None, warmup_snapshots=True)
