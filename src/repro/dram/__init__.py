"""DDR3 main-memory substrate.

The paper evaluates BuMP on a two-channel DDR3-1600 memory system modelled
with DRAMSim2.  This package provides the equivalent trace-driven model:

* :mod:`repro.dram.address_mapping` -- the two physical address interleaving
  schemes the paper compares: block-level interleaving (used by the
  close-row baseline to maximise bank/channel parallelism) and region-level
  interleaving (used by the open-row baseline, SMS, VWQ and BuMP so that an
  entire 1KB region maps to a single DRAM row).
* :mod:`repro.dram.bank` -- per-bank row-buffer state and timing.
* :mod:`repro.dram.scheduler` -- FR-FCFS scheduling with open-row or
  close-row page policies over a bounded transaction window.
* :mod:`repro.dram.controller` -- one memory controller per channel: accepts
  block-granular :class:`repro.common.request.DRAMRequest` transfers, applies
  the scheduler, and records row-buffer hits, per-request latency, bus
  occupancy and the command counts the energy model consumes.
* :mod:`repro.dram.system` -- the full memory system (all channels) behind a
  single ``enqueue_block_batch``/``drain`` interface.
* :mod:`repro.dram.flat` -- the batch-vectorized flat-array engine: the same
  timing and scheduling semantics as controller + system, bit-identical
  results, NumPy state arrays and the same ``enqueue_block_batch`` intake.
* :mod:`repro.dram.engine` -- engine selection (``REPRO_DRAM_ENGINE=flat``,
  the default, or ``object``; the object engine is the reference baseline).
"""

from repro.dram.address_mapping import (
    AddressMapping,
    DRAMCoordinates,
    make_block_interleaving,
    make_region_interleaving,
)
from repro.dram.bank import Bank
from repro.dram.controller import MemoryController, PagePolicy
from repro.dram.engine import dram_engine_name, resolve_dram_engine
from repro.dram.flat import FlatMemorySystem
from repro.dram.system import MemorySystem

__all__ = [
    "AddressMapping",
    "DRAMCoordinates",
    "make_block_interleaving",
    "make_region_interleaving",
    "Bank",
    "MemoryController",
    "PagePolicy",
    "MemorySystem",
    "FlatMemorySystem",
    "dram_engine_name",
    "resolve_dram_engine",
]
