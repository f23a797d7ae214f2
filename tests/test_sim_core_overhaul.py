"""Guards for the simulation-core overhaul.

* The flat and dict cache engines must round per-access cycle increments
  identically for any core count.
* ``ServerSystem.run`` must begin measurement when the trace length equals
  the warmup interval and raise only when the trace is strictly shorter.
"""

import pytest

from repro.sim.config import base_open
from repro.sim.runner import build_trace
from repro.sim.system import ServerSystem


def test_engines_bit_identical_with_non_power_of_two_cores():
    """Cycle accumulation must round identically for any core count.

    Regression: folding ``instructions * cpi / cores`` into one precomputed
    factor rounds differently when ``cores`` is not a power of two, which
    shifted DRAM arrival cycles and broke engine parity.
    """
    from repro.common.params import SystemParams
    from repro.exec.campaign import result_fingerprint
    from repro.sim.runner import run_trace

    config = base_open(system=SystemParams().scaled(num_cores=12))
    trace = build_trace("web_search", 3_000, num_cores=12, seed=5)
    flat = run_trace(trace, config, warmup_fraction=0.4, cache_engine="flat")
    dict_engine = run_trace(trace, config, warmup_fraction=0.4,
                            cache_engine="dict")
    assert result_fingerprint(flat) == result_fingerprint(dict_engine)


# --------------------------------------------------------------------- #
# Warmup boundary
# --------------------------------------------------------------------- #
def _trace(n):
    return build_trace("web_search", n, num_cores=4, seed=3)


def test_warmup_equal_to_trace_length_begins_measurement():
    """A trace exactly as long as the warmup measures zero accesses, no error."""
    system = ServerSystem(base_open())
    result = system.run(_trace(1_000), warmup_accesses=1_000)
    assert result.counters["accesses"] == 0


def test_warmup_longer_than_trace_raises():
    system = ServerSystem(base_open())
    with pytest.raises(ValueError, match="shorter than the requested warmup"):
        system.run(_trace(999), warmup_accesses=1_000)


def test_warmup_shorter_than_trace_measures_the_tail():
    system = ServerSystem(base_open())
    result = system.run(_trace(1_000), warmup_accesses=600)
    assert result.counters["accesses"] == 400
