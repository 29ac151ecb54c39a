"""Every ``CHIMERA_*`` environment setting, declared once.

The harness, the service and the benchmarks take their tuning from
``CHIMERA_*`` environment variables, so a setting reaches forked pool
workers and detached runners without being passed along. Each variable
is declared once in :data:`SETTINGS` with its parser, default, bound
and a one-line doc, and :func:`get` is the only code that reads these
names from ``os.environ``. ``python -m repro config`` prints the
effective value and source of each one.

Rules shared by every setting:

* the value is stripped of surrounding whitespace; unset, empty and
  whitespace-only all mean the default;
* a value that does not parse, or that falls outside the setting's
  bound, raises :class:`~repro.errors.ConfigError` naming the variable
  (the CLI turns that into exit status 2).

:func:`get` reads the environment on every call, never once at import:
tests set variables after import, and forked workers see the
environment as it was when they were forked. Checks that need other
modules (the kernel-mix catalog, the QoS mode list) stay with the
caller that uses the value.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError

__all__ = ["SETTINGS", "Setting", "get", "source", "unregistered"]

PREFIX = "CHIMERA_"


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError("an integer") from None


def _float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError("a number") from None


def _text(raw: str) -> str:
    return raw


def _flag(raw: str) -> bool:
    """Any non-empty value turns a flag on."""
    return True


def _lower(raw: str) -> str:
    return raw.lower()


def _switch(raw: str) -> bool:
    """On unless the value is one of the falsey words."""
    return raw.lower() not in ("0", "off", "false", "no")


def _group(raw: str) -> Tuple[int, int]:
    """``"i/N"``: this runner is group ``i`` of ``N``."""
    match = re.fullmatch(r"(\d+)/(\d+)", raw)
    if match:
        index, total = int(match.group(1)), int(match.group(2))
        if 0 <= index < total:
            return (index, total)
    raise ValueError("'i/N' with 0 <= i < N")


def _cpus() -> int:
    return os.cpu_count() or 1


@dataclass(frozen=True)
class Setting:
    """One environment variable: how to parse it and what it means."""

    name: str
    parse: Callable[[str], Any]
    #: Value when unset or blank; a callable is called at read time.
    default: Any
    doc: str
    #: Lower bound, inclusive unless ``low_open``.
    low: Optional[float] = None
    low_open: bool = False
    #: Inclusive upper bound.
    high: Optional[float] = None

    def value(self, raw: Optional[str]) -> Any:
        """Parse a raw environment value (None: unset)."""
        raw = (raw or "").strip()
        if not raw:
            return self.default() if callable(self.default) else self.default
        try:
            value = self.parse(raw)
        except ValueError as exc:
            raise ConfigError(
                f"{self.name} must be {exc}, got {raw!r}") from exc
        if self.low is not None and (
                value <= self.low if self.low_open else value < self.low):
            raise ConfigError(
                f"{self.name} must be {self.bound_text()}, got {raw!r}")
        if self.high is not None and value > self.high:
            raise ConfigError(
                f"{self.name} must be {self.bound_text()}, got {raw!r}")
        return value

    def default_text(self) -> str:
        """The default as the README knob table shows it."""
        value = self.default
        if value is _cpus:
            return "CPU count"
        if value is None:
            return "unset"
        if isinstance(value, bool):
            return "on" if value else "off"
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return str(value)

    def bound_text(self) -> str:
        """The accepted range, or ``""`` when any parsed value goes."""
        if self.low is not None and self.high is not None:
            return f"{self.low:g} to {self.high:g}"
        if self.low is not None:
            return f"{'>' if self.low_open else '>='} {self.low:g}"
        return ""


def _declare(*settings: Setting) -> Dict[str, Setting]:
    return {s.name: s for s in settings}


#: Every setting, grouped by the layer that reads it.
SETTINGS: Dict[str, Setting] = _declare(
    # sweep runner
    Setting("CHIMERA_JOBS", _int, _cpus,
            "worker processes; 1 runs every spec in-process", low=1),
    Setting("CHIMERA_SPEC_TIMEOUT", _float, None,
            "per-spec wall-clock timeout, s; 0 disables", low=0),
    Setting("CHIMERA_MAX_RETRIES", _int, 1,
            "retries per failing or hung spec", low=0),
    Setting("CHIMERA_RETRY_BACKOFF", _float, 0.1,
            "base retry backoff, s, doubled per attempt", low=0),
    Setting("CHIMERA_KEEP_GOING", _flag, False,
            "any value: return partial results instead of raising"),
    Setting("CHIMERA_SWEEP_CHUNK", _int, 2048,
            "cache misses submitted per chunk; 0 disables chunking", low=0),
    Setting("CHIMERA_WORKER_GROUP", _group, None,
            "'i/N': run group i of N detached runners sharing the cache"),
    Setting("CHIMERA_SHARD_WAIT", _float, 600.0,
            "seconds a worker group waits for other groups' results",
            low=0),
    Setting("CHIMERA_TRACE", _text, None,
            "directory for one event trace (JSONL) per executed spec"),
    Setting("CHIMERA_TRACE_CAPACITY", _int, 500_000,
            "trace records kept per spec; the rest count as dropped",
            low=1),
    Setting("CHIMERA_CACHE_DIR", _text, ".chimera-cache",
            "result cache directory"),
    Setting("CHIMERA_NO_CACHE", _flag, False,
            "any value: disable the result cache"),
    # fault injection
    Setting("CHIMERA_FAULTS", _text, None,
            "fault-injection plan, e.g. 'fail@1,crash@0:inf' "
            "(see repro.harness.faults)"),
    Setting("CHIMERA_FAULT_HANG_S", _float, 3600.0,
            "sleep of the hang and hang-worker faults, s", low=0),
    # simulator
    Setting("CHIMERA_QOS_MODE", _lower, "off",
            "preemption QoS guard: off, warn, escalate or strict"),
    Setting("CHIMERA_QOS_SLACK", _float, 0.25,
            "guard deadline slack, fraction of the latency budget", low=0),
    Setting("CHIMERA_FLUID_VECTOR", _switch, True,
            "vectorized fluid engine; 0, off, false or no forces scalar"),
    Setting("CHIMERA_CYCLE_LOCKSTEP", _flag, False,
            "any value: cycle simulator ticks every cycle (no fast-forward)"),
    # traffic
    Setting("CHIMERA_TRAFFIC_MAX_ARRIVALS", _int, 200_000,
            "safety cap on the arrivals of one traffic stream", low=1),
    Setting("CHIMERA_TRAFFIC_MIX", _text, "table2-short",
            "kernel mix of tenants that name none"),
    Setting("CHIMERA_TRAFFIC_WINDOW_US", _float, 10_000.0,
            "sliding-window width of the SLO report, us",
            low=0, low_open=True),
    # service
    Setting("CHIMERA_SERVICE_DIR", _text, ".chimera-service",
            "daemon directory: journal, spool, results, control"),
    Setting("CHIMERA_SERVICE_CAPACITY", _int, 64,
            "admission queue bound", low=1),
    Setting("CHIMERA_SERVICE_WORKERS", _int, _cpus,
            "daemon execution slots; 1 executes in the slot thread", low=1),
    Setting("CHIMERA_HEARTBEAT", _float, 30.0,
            "seconds a silent worker may go before its job fails",
            low=0, low_open=True),
    Setting("CHIMERA_QUEUE_TTL", _float, 0.0,
            "queued jobs older than this many seconds time out; 0 disables",
            low=0),
    Setting("CHIMERA_BROWNOUT_ENTER", _float, 0.85,
            "pressure at which brownout escalates one level",
            low=0, high=1),
    Setting("CHIMERA_BROWNOUT_EXIT", _float, 0.5,
            "pressure below which brownout de-escalates; below ENTER",
            low=0, high=1),
    Setting("CHIMERA_BROWNOUT_AGE_S", _float, 30.0,
            "oldest-queued age that counts as full pressure; 0 disables",
            low=0),
    Setting("CHIMERA_BROWNOUT_DWELL_S", _float, 1.0,
            "minimum seconds between brownout level changes", low=0),
    Setting("CHIMERA_BROWNOUT_BEST_EFFORT", _int, 0,
            "priorities up to this are best-effort; below CRITICAL"),
    Setting("CHIMERA_BROWNOUT_CRITICAL", _int, 5,
            "priorities from this up are critical"),
    Setting("CHIMERA_BREAKER_K", _int, 3,
            "pool failures within the window that open the circuit",
            low=1),
    Setting("CHIMERA_BREAKER_WINDOW", _float, 30.0,
            "circuit-breaker failure-counting window, s", low=0),
    Setting("CHIMERA_BREAKER_COOLDOWN", _float, 5.0,
            "seconds the circuit stays open before a half-open probe",
            low=0),
    # benchmarks and their CI floors
    Setting("CHIMERA_BENCH_PERIODS", _int, 10,
            "1 ms periods per periodic benchmark run"),
    Setting("CHIMERA_BENCH_BUDGET", _float, 8e6,
            "instruction budget per pair benchmark"),
    Setting("CHIMERA_BENCH_SEED", _int, 12345, "benchmark root seed"),
    Setting("CHIMERA_BENCH_MAX_PAIRS", _int, 91,
            "pairs run by the all-pairs benchmark"),
    Setting("CHIMERA_BENCH_CYCLE_QUICK", _flag, False,
            "any value: shrink the cycle benchmark"),
    Setting("CHIMERA_BENCH_FLUID_QUICK", _flag, False,
            "any value: shrink the fluid benchmark"),
    Setting("CHIMERA_BENCH_TRAFFIC_QUICK", _flag, False,
            "any value: shrink the traffic benchmark"),
    Setting("CHIMERA_BENCH_DAEMON_QUICK", _flag, False,
            "any value: shrink the daemon benchmark"),
    Setting("CHIMERA_BENCH_OVERLOAD_QUICK", _flag, False,
            "any value: shrink the overload benchmark"),
    Setting("CHIMERA_CYCLE_FAIL_BELOW", _float, None,
            "fail the cycle benchmark below this fast-forward speedup"),
    Setting("CHIMERA_FLUID_FAIL_BELOW", _float, None,
            "fail fluid-bench below this vector-over-scalar speedup"),
    Setting("CHIMERA_TRAFFIC_FAIL_BELOW", _float, None,
            "fail the traffic benchmark below this SLO attainment"),
    Setting("CHIMERA_DAEMON_FAIL_BELOW", _float, None,
            "fail the daemon benchmark below this 2-worker speedup"),
    Setting("CHIMERA_OVERLOAD_FAIL_BELOW", _float, None,
            "fail the overload benchmark below this many ops/s"),
)


def get(name: str) -> Any:
    """The effective value of setting ``name`` (read at call time)."""
    return SETTINGS[name].value(os.environ.get(name))


def source(name: str) -> str:
    """``"env"`` when ``name`` is set to a non-blank value, else
    ``"default"``."""
    return "env" if os.environ.get(name, "").strip() else "default"


def unregistered() -> List[str]:
    """``CHIMERA_*`` names in the environment that no setting declares
    (typically a misspelling, which would otherwise be ignored)."""
    return sorted(k for k in os.environ
                  if k.startswith(PREFIX) and k not in SETTINGS)
