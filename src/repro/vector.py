"""Vector-mode gate for the fluid-timing engine.

The fluid model has two implementations of its hot paths: the original
per-TB scalar bookkeeping and a vectorized path (numpy-batched grid
randomness in :mod:`repro.sim.rng_vector` plus the fused SoA slot
ledger of :class:`repro.gpu.sm_vector.VectorSM`). Both produce
bit-identical results, traces, and QoS ledgers — the differential suite
in ``tests/test_fluid_differential.py`` enforces this — so the cache
key does not depend on which path ran.

``CHIMERA_FLUID_VECTOR`` selects the path:

* unset / ``1`` / ``on``  — vectorized when numpy is importable
* ``0`` / ``off`` / ``false`` / ``no`` — always scalar (escape hatch)

Tests flip the path programmatically with :func:`set_vector_override`
instead of mutating the environment.
"""

from __future__ import annotations

from typing import Optional

from repro import settings

try:  # pragma: no cover - exercised implicitly by every import
    import numpy  # noqa: F401
    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - CI images always carry numpy
    HAVE_NUMPY = False

#: Programmatic override (tests): None defers to the environment.
_override: Optional[bool] = None


def set_vector_override(value: Optional[bool]) -> None:
    """Force the vector path on/off for this process (None: use env)."""
    global _override
    _override = value


def vector_enabled() -> bool:
    """True when the vectorized fluid path should be used."""
    if not HAVE_NUMPY:
        return False
    if _override is not None:
        return _override
    return settings.get("CHIMERA_FLUID_VECTOR")


__all__ = ["HAVE_NUMPY", "set_vector_override", "vector_enabled"]
