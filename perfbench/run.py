"""Repository benchmark: the BuMP simulator at the paper's warmed operating point.

Run from the repository root::

    python3 perfbench/run.py --workload paper-bump --seed 42 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` measures the same jobs untraced and then traced, and reports
the per-layer ledger (see ``perfbench/ledger.py``) plus the simulated
counts.  Every metric is printed by name with its unit, and the last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A job is one simulation or one snapshot query.  It fails if it raises or
fails a check: its measured access count, the DRAM transfer identities, a
full LLC when measurement starts, and a result fingerprint equal to the
first run of the same job (every repeat regenerates its trace, so repeats
must agree, traced or not).  Any failure makes the exit code 1.

Time metrics are host seconds; everything under ``sim.``, ``dram.``,
``llc.``, ``l1.hit_ratio`` and ``bump.`` is simulated and repeats exactly
for a seed.  Per-layer times are self times per job, averaged over the
traced jobs; a layer a workload bypasses reads 0.

Which layer metric should move which end-to-end metric: ``agent.*`` moves
``accesses_per_s`` on paper-bump, and on colocation-base only by the
stride share; ``llc.*``, ``l1.fill_s`` and ``loop.self_s`` move it on
every workload; ``dram.*`` on colocation-base (scattered demand traffic)
and paper-bump (bulk streams); ``trace.produce_s`` on those two but not on
snapshot-sweep, whose prefix is skipped (``snapshot.skip_s``).  The
``snapshot.*`` load/restore/skip times, ``assembly_s``, ``snapshot.bytes``
and ``store.hit_ratio`` move ``query_s`` on snapshot-sweep only, and
``snapshot.capture_s``/``snapshot.save_s`` its ``setup_s``.  A change meant
only for speed leaves every simulated count identical; a model change
moves ``paper_error``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

#: Environment knobs that would change what is measured.  They are removed
#: before the simulator is imported, so a shell setting cannot leak in.
PINNED_ENV = ("REPRO_TELEMETRY", "REPRO_INTERP", "REPRO_CACHE_ENGINE",
              "REPRO_DRAM_ENGINE", "REPRO_SNAPSHOT_DIR", "REPRO_ARTIFACT_DIR")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-up repetitions whose median is ``setup_s``.
SETUP_REPEATS = 3
#: Times the imports in a fresh interpreter: ``argv[1:]`` go on ``sys.path``.
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
                "start = time.perf_counter(); import repro, workloads; "
                "print(time.perf_counter() - start)")

#: Largest share of a traced job's wall time its spans may leave unexplained.
ACCOUNTING_TOLERANCE = 0.01


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pin_environment():
    """Drop the simulator's environment knobs; return the names dropped."""
    return [name for name in PINNED_ENV if os.environ.pop(name, None) is not None]


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def import_seconds():
    """Median import time of the simulator over fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
            capture_output=True, text=True, check=True)
        times.append(float(probe.stdout))
    return statistics.median(times)


def run_jobs(workload, ledger, count=None, seconds=None, min_jobs=1):
    """Run whole passes of ``workload``'s jobs.

    With ``count``, exactly that many jobs; otherwise passes until
    ``seconds`` have elapsed and at least ``min_jobs`` ran.
    Returns the jobs; a job that raised is kept with its problem recorded.
    """
    from workloads import Job

    done = []
    start = time.perf_counter()
    while True:
        for name, make in workload.jobs():
            if count is not None and len(done) == count:
                return done
            tick = time.perf_counter()
            try:
                with ledger.job():
                    job = make(ledger)
            except Exception:
                job = Job(name, 0)
                job.problems.append(traceback.format_exc())
            job.wall = time.perf_counter() - tick
            done.append(job)
        if count is None and time.perf_counter() - start >= seconds \
                and len(done) >= min_jobs:
            return done


def check_repeats(jobs, width, reference=None):
    """Every job must fingerprint like the job in its pass position."""
    for index, job in enumerate(jobs):
        ref = (reference or jobs)[index % width]
        if job.fingerprint is not None and ref.fingerprint is not None \
                and job.fingerprint != ref.fingerprint:
            job.problems.append(f"result differs from the first {job.name} run")


def simulated_counts(jobs):
    """Simulated statistics of one pass, averaged over its jobs."""
    from workloads import SIMULATED

    return {name: (sum(job.stats[name] for job in jobs) / len(jobs), unit)
            for name, (unit, _) in SIMULATED.items()}


def layer_metrics(ledger, workload, untraced_wall, traced_jobs):
    jobs = ledger.jobs
    n = len(jobs)

    def self_s(layer):
        return sum(job.self_s.get(layer, 0.0) for job in jobs) / n

    def calls(*layers):
        return sum(job.calls.get(layer, 0) for job in jobs
                   for layer in layers) / n

    batches = sum(job.calls.get("dram.enqueue", 0) for job in jobs)
    transfers = sum(job.work.get("dram.enqueue", 0) for job in jobs)
    traced_wall = sum(job.wall for job in traced_jobs)
    accounted = sum(job.accounted() for job in jobs)
    setup = ledger.setup.self_s
    return {
        "agent.bump_s": (self_s("agent.bump"), "s/job"),
        "agent.stride_s": (self_s("agent.stride"), "s/job"),
        "agent.calls": (calls("agent.bump", "agent.stride"), "calls/job"),
        "llc.s": (self_s("llc"), "s/job"),
        "llc.calls": (calls("llc"), "calls/job"),
        "l1.fill_s": (self_s("l1.fill"), "s/job"),
        "loop.self_s": (self_s("loop"), "s/job"),
        "dram.enqueue_s": (self_s("dram.enqueue"), "s/job"),
        "dram.drain_s": (self_s("dram.drain"), "s/job"),
        "dram.transfers_per_batch": (transfers / batches if batches else 0.0,
                                     "transfers/call"),
        "trace.produce_s": (self_s("trace.produce"), "s/job"),
        "snapshot.load_s": (self_s("snapshot.load"), "s/job"),
        "snapshot.restore_s": (self_s("snapshot.restore"), "s/job"),
        "snapshot.skip_s": (self_s("snapshot.skip"), "s/job"),
        "assembly_s": (self_s("assembly"), "s/job"),
        "snapshot.bytes": (workload.snapshot_bytes, "B"),
        "store.hit_ratio": (workload.store_hit_ratio(), "ratio"),
        "snapshot.capture_s": (setup.get("snapshot.capture", 0.0), "s"),
        "snapshot.save_s": (setup.get("snapshot.save", 0.0), "s"),
        "trace_overhead": (traced_wall / untraced_wall - 1.0, "ratio"),
        "ledger.unaccounted_share": (1.0 - accounted / traced_wall, "ratio"),
    }


def main(argv=None):
    args = parse_args(argv)
    cleared = pin_environment()
    if cleared:
        print(f"perfbench: ignoring {', '.join(cleared)} from the environment",
              file=sys.stderr)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import repro
    from ledger import Ledger, NullLedger
    from repro.sim.runner import clear_trace_cache, trace_cache_info
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    clear_trace_cache()
    traced = bool(args.trace)
    ledger = Ledger() if traced else NullLedger()
    # Scratch space inside the checkout (fresh snapshot stores), removed
    # by ``close``.
    work_dir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        setup_times = []
        for _ in range(1 if traced else SETUP_REPEATS):
            tick = time.perf_counter()
            workload.setup(ledger)
            setup_times.append(time.perf_counter() - tick)
        width = len(workload.jobs())
        # The end-to-end run needs enough jobs for its percentile; the
        # traced run only compares the same jobs traced and untraced.
        untraced = run_jobs(workload, NullLedger(), seconds=args.seconds,
                            min_jobs=1 if traced else workload.min_jobs)
        check_repeats(untraced, width)
        jobs = list(untraced)
        if traced:
            traced_jobs = run_jobs(workload, ledger, count=len(untraced))
            check_repeats(traced_jobs, width, reference=untraced)
            for job, record in zip(traced_jobs, ledger.jobs):
                if abs(job.wall - record.accounted()) \
                        > ACCOUNTING_TOLERANCE * job.wall:
                    job.problems.append(
                        "layer self times do not add up to the job's wall time")
            jobs += traced_jobs
    finally:
        workload.close()

    failed = sum(1 for job in jobs if job.problems)
    for job in jobs:
        for problem in job.problems:
            print(f"perfbench: {job.name} failed: {problem}", file=sys.stderr)
    cache_hits = trace_cache_info()["hits"]
    correct = failed == 0 and cache_hits == 0
    if cache_hits:
        print(f"perfbench: {cache_hits} trace-cache hits; every run must "
              "generate its traces", file=sys.stderr)

    walls = [job.wall for job in untraced]
    first_pass = untraced[:width]
    metrics = {}
    if not traced:
        metrics["accesses_per_s"] = (
            sum(job.simulated for job in untraced) / sum(walls), "1/s")
        metrics["setup_s"] = (
            import_seconds() + statistics.median(setup_times), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["query_s"] = (statistics.median(walls), "s")
        metrics["query_p90_s"] = (percentile(walls, 90), "s")
        if correct:
            metrics["paper_error"] = (workload.paper_error(first_pass), "ratio")
    else:
        metrics.update(layer_metrics(ledger, workload, sum(walls), traced_jobs))
        if correct:
            metrics.update(simulated_counts(first_pass))
        metrics["job_failure_rate"] = (failed / len(jobs), "ratio")
        metrics["trace_cache.hits"] = (cache_hits, "count")

    probe = workload.probe
    print(f"# workload {args.workload} seed {args.seed} repro {repro.__version__} "
          f"cache_engine {probe.cache_engine} dram_engine {probe.dram_engine} "
          f"interp {probe.interp} cleared_env {','.join(cleared) or '-'}")
    print(f"# {len(untraced)} jobs untraced, {len(jobs) - len(untraced)} traced; "
          f"paper reference: {workload.reference}")
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
