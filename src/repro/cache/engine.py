"""Cache engine selection.

Two interchangeable cache-array engines implement the same interface and
produce bit-identical simulation results (the parity suite asserts this for
every workload and named configuration):

``flat`` (default)
    :class:`repro.cache.flat.FlatSetAssociativeCache` -- state in
    preallocated NumPy parallel arrays, no per-line object allocation, fused
    probe/access for the simulator hot loop.

``dict``
    :class:`repro.cache.set_assoc.SetAssociativeCache` -- the original
    dict-of-CacheLine model, kept as the independent reference (and
    benchmark baseline) the flat engine is checked against.

Select globally with the ``REPRO_CACHE_ENGINE`` environment variable or per
run via the ``cache_engine`` argument of :class:`repro.sim.system.ServerSystem`
/ :func:`repro.sim.runner.run_trace`.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.common.params import CacheParams
from repro.cache.flat import FlatSetAssociativeCache
from repro.cache.replacement import ReplacementPolicy
from repro.cache.set_assoc import SetAssociativeCache

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "ENGINE_ENV_VAR",
    "cache_engine_name",
    "make_cache_array",
]

#: Environment variable consulted when no explicit engine is requested.
ENGINE_ENV_VAR = "REPRO_CACHE_ENGINE"

#: Engine used when neither the caller nor the environment picks one.
DEFAULT_ENGINE = "flat"

ENGINES = ("flat", "dict")


def cache_engine_name(override: Optional[str] = None) -> str:
    """Resolve the active cache engine name.

    Priority: explicit ``override`` argument, then the ``REPRO_CACHE_ENGINE``
    environment variable, then :data:`DEFAULT_ENGINE`.  Unknown names fail
    loudly so configuration typos cannot silently fall back.
    """
    name = override
    if name is None:
        name = os.environ.get(ENGINE_ENV_VAR, "").strip().lower() or DEFAULT_ENGINE
    name = name.lower()
    if name not in ENGINES:
        raise ValueError(
            f"unknown cache engine {name!r}; known engines: {', '.join(ENGINES)}")
    return name


def make_cache_array(params: CacheParams, name: str = "cache",
                     policy: Optional[ReplacementPolicy] = None,
                     engine: Optional[str] = None):
    """Construct a cache array under the selected engine."""
    if cache_engine_name(engine) == "dict":
        return SetAssociativeCache(params, name=name, policy=policy)
    return FlatSetAssociativeCache(params, name=name, policy=policy)
