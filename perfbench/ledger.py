"""Per-layer span ledger, recorded from outside the simulator.

The benchmark builds every simulator object itself, so it can time each
layer at its boundary without touching the program: :meth:`Ledger.patch`
replaces an entry point of one of those objects (an instance attribute;
classes are never patched) with a wrapper that opens a span around the call.

Spans nest on one stack per process.  A span's *self time* is its duration
minus the time its child spans cover, so the self times of one job plus the
job's own self time (the run loop and the L1 probes inlined into it) add up
to the job's traced wall time.  A per-call span is folded into its job's
totals as it closes (self time, calls that crossed into the layer from
another layer, and an optional work count), which keeps memory flat however
many calls a job makes; each job's totals stay in memory until the
benchmark prints them at the end.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Layer of the job span itself: what no instrumented entry point covers.
LOOP = "loop"


class JobLedger:
    """Folded spans of one job: per-layer self time, calls and work."""

    __slots__ = ("wall", "self_s", "calls", "work")

    def __init__(self) -> None:
        self.wall = 0.0
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.work: Dict[str, int] = {}

    def accounted(self) -> float:
        """Sum of every layer's self time, the loop included."""
        return sum(self.self_s.values())


class Ledger:
    """Span stack plus the folded per-job totals of a traced run."""

    def __init__(self) -> None:
        # Open spans, innermost last: [layer, child_seconds].
        self._stack: List[list] = []
        self._job: Optional[JobLedger] = None
        self.jobs: List[JobLedger] = []
        #: Folded spans opened outside any job (set-up work).
        self.setup = JobLedger()

    def _close(self, layer: str, frame: list, duration: float,
               work: int) -> None:
        stack = self._stack
        stack.pop()
        target = self._job if self._job is not None else self.setup
        target.self_s[layer] = target.self_s.get(layer, 0.0) + duration - frame[1]
        if stack:
            stack[-1][1] += duration
        if not stack or stack[-1][0] != layer:
            target.calls[layer] = target.calls.get(layer, 0) + 1
        if work:
            target.work[layer] = target.work.get(layer, 0) + work

    @contextmanager
    def job(self):
        """Open the root span of one job; its totals land in :attr:`jobs`."""
        if self._stack:
            raise RuntimeError("jobs do not nest")
        record = JobLedger()
        self._job = record
        frame = [LOOP, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self._close(LOOP, frame, duration, 0)
            record.wall = duration
            self._job = None
            self.jobs.append(record)

    @contextmanager
    def span(self, layer: str):
        """Time one call the benchmark makes into ``layer``."""
        frame = [layer, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(layer, frame, time.perf_counter() - start, 0)

    def patch(self, obj, method: str, layer: str,
              work: Optional[Callable] = None) -> None:
        """Time every call of ``obj.method`` as a span of ``layer``.

        ``work(*args)``, when given, returns the work one call does.
        """
        fn = getattr(obj, method)
        clock = time.perf_counter
        stack = self._stack
        close = self._close

        def timed(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(layer, frame, clock() - start,
                      work(*args) if work is not None else 0)

        setattr(obj, method, timed)


class NullLedger:
    """The untraced stand-in: same interface, records nothing."""

    @contextmanager
    def job(self):
        yield

    @contextmanager
    def span(self, layer: str):
        yield

    def patch(self, obj, method: str, layer: str, work=None) -> None:
        pass
