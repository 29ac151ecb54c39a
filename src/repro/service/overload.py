"""Overload control for the scheduling daemon: graceful degradation.

The admission queue's capacity bound (PR 7) stops unbounded memory
growth, but under a sustained burst it still queues jobs whose SLO
deadlines are already unmeetable, and a sick worker pool is rebuilt
forever with no escalation. This module adds the three mechanisms the
daemon composes into a graceful-degradation layer (DESIGN.md §15):

* :class:`ServiceTimeEstimator` — a rolling per-spec-shape EWMA of
  observed service times, feeding **deadline-aware admission**: a job
  whose estimated queue wait already blows its SLO budget is rejected
  at admission with reason ``"unmeetable-slo"`` and a machine-readable
  ``retry_after_s`` hint, instead of queueing doomed work.
* :class:`BrownoutController` — a daemon-level load state machine
  (``normal → shed-best-effort → shed-low-priority → critical-only``)
  driven by queue depth/age watermarks with hysteresis (distinct enter
  and exit thresholds plus a dwell time between level changes, so the
  level cannot flap tick to tick). Each level sheds and rejects a wider
  band of priority classes; every transition is journaled so a restart
  recovers the exact brownout level.
* :class:`CircuitBreaker` — around the worker pool: ``K`` pool
  failures within a window open the circuit (dispatch degrades to a
  single slot executing inline), a cooldown later one half-open probe
  is let through the pool, and a probe success restores full
  concurrency. Failures while half-open re-open the circuit and restart
  the cooldown.

The brownout watermarks, the breaker thresholds and the queue TTL
default to ``CHIMERA_*`` settings (:mod:`repro.settings`); constructor
arguments override them.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import settings
from repro.errors import ConfigError

__all__ = [
    "BROWNOUT_LEVELS",
    "BrownoutController",
    "CircuitBreaker",
    "ServiceTimeEstimator",
]

#: Brownout levels, mildest first. The index is the level number that
#: rides on every journaled ``brownout`` meta record.
BROWNOUT_LEVELS = ("normal", "shed-best-effort", "shed-low-priority",
                   "critical-only")


# ----------------------------------------------------------------------
# service-time estimation
# ----------------------------------------------------------------------


class ServiceTimeEstimator:
    """Rolling per-spec-shape EWMA of observed wall service times.

    Specs are keyed by *shape* — ``(kind, labels, policy)`` — not by
    content hash: two periodic runs of the same benchmark under the
    same policy take about as long regardless of seed, which is exactly
    the granularity admission needs. A global EWMA over every
    observation backs per-shape estimates for shapes never seen before;
    with zero observations the estimator declines to guess
    (:meth:`estimate_specs` returns ``None``) and admission stays
    permissive rather than rejecting on fiction.

    Thread-safe: slot threads observe, the tick thread estimates.
    """

    def __init__(self, alpha: float = 0.25):
        if not 0.0 < alpha <= 1.0:
            raise ConfigError("EWMA alpha must be in (0, 1]")
        self.alpha = alpha
        self._lock = threading.Lock()
        self._by_key: Dict[Tuple[Any, ...], float] = {}
        self._global: Optional[float] = None
        #: Observations folded in so far (observability).
        self.samples = 0

    @staticmethod
    def key(spec: Any) -> Tuple[Any, ...]:
        """The shape key of one RunSpec."""
        return (getattr(spec, "kind", None), getattr(spec, "label", None),
                getattr(spec, "labels", None), getattr(spec, "policy", None))

    def observe(self, spec: Any, seconds: float) -> None:
        """Fold one measured service time into the rolling estimates."""
        if seconds < 0:
            return
        key = self.key(spec)
        with self._lock:
            prior = self._by_key.get(key)
            self._by_key[key] = (seconds if prior is None else
                                 prior + self.alpha * (seconds - prior))
            self._global = (seconds if self._global is None else
                            self._global
                            + self.alpha * (seconds - self._global))
            self.samples += 1

    def estimate_spec(self, spec: Any) -> Optional[float]:
        """Estimated service seconds for one spec, or None if the
        estimator has never observed anything."""
        with self._lock:
            per_key = self._by_key.get(self.key(spec))
            return per_key if per_key is not None else self._global

    def estimate_specs(self, specs: Sequence[Any]) -> Optional[float]:
        """Estimated total service seconds of a spec batch, or None."""
        total = 0.0
        for spec in specs:
            est = self.estimate_spec(spec)
            if est is None:
                return None
            total += est
        return total

    def mean_estimate(self) -> Optional[float]:
        """The global EWMA (backs drain-time hints), or None."""
        with self._lock:
            return self._global

    def snapshot(self) -> Dict[str, Any]:
        """Beacon/status form."""
        with self._lock:
            return {"samples": self.samples,
                    "shapes": len(self._by_key),
                    "mean_s": (None if self._global is None
                               else round(self._global, 6))}


# ----------------------------------------------------------------------
# brownout load state machine
# ----------------------------------------------------------------------


class BrownoutController:
    """The daemon's load state machine with watermark hysteresis.

    Pressure is ``max(depth / capacity, oldest_age / age_full_s)``;
    while pressure sits at or above ``enter_frac`` the level escalates
    one step per ``dwell_s``, and while it sits at or below
    ``exit_frac`` it de-escalates one step per ``dwell_s``. Between the
    watermarks the level holds — that band *is* the hysteresis, and the
    dwell stops a shed (which instantly drops depth) from bouncing the
    level back down the very next tick.

    Levels gate two things, by priority class (``best_effort_max`` and
    ``critical_min`` split priorities into best-effort / low /
    critical):

    * **admission** (:meth:`admits`): level 1 rejects new best-effort
      submissions, levels 2+ reject everything below critical;
    * **shedding** (:meth:`sheds`): level 1 sheds queued best-effort
      jobs, level 2 sheds everything below critical *except* jobs with
      checkpointed work (preempted mid-job — their progress is worth
      keeping), and level 3 (``critical-only``) sheds checkpointed
      non-critical jobs too.
    """

    def __init__(self, enter_frac: Optional[float] = None,
                 exit_frac: Optional[float] = None,
                 age_full_s: Optional[float] = None,
                 dwell_s: Optional[float] = None,
                 best_effort_max: Optional[int] = None,
                 critical_min: Optional[int] = None,
                 clock: Callable[[], float] = time.monotonic):
        # Knobs left as None come from the settings registry.
        if enter_frac is None:
            enter_frac = settings.get("CHIMERA_BROWNOUT_ENTER")
        if exit_frac is None:
            exit_frac = settings.get("CHIMERA_BROWNOUT_EXIT")
        if age_full_s is None:
            age_full_s = settings.get("CHIMERA_BROWNOUT_AGE_S")
        if dwell_s is None:
            dwell_s = settings.get("CHIMERA_BROWNOUT_DWELL_S")
        if best_effort_max is None:
            best_effort_max = settings.get("CHIMERA_BROWNOUT_BEST_EFFORT")
        if critical_min is None:
            critical_min = settings.get("CHIMERA_BROWNOUT_CRITICAL")
        if not 0.0 < enter_frac <= 1.0:
            raise ConfigError("brownout enter watermark must be in (0, 1]")
        if not 0.0 <= exit_frac < enter_frac:
            raise ConfigError(
                "brownout exit watermark must be below the enter watermark")
        if dwell_s < 0 or age_full_s < 0:
            raise ConfigError("brownout dwell/age knobs must be >= 0")
        if best_effort_max >= critical_min:
            raise ConfigError(
                "CHIMERA_BROWNOUT_BEST_EFFORT must be below "
                "CHIMERA_BROWNOUT_CRITICAL")
        self.enter_frac = enter_frac
        self.exit_frac = exit_frac
        self.age_full_s = age_full_s
        self.dwell_s = dwell_s
        self.best_effort_max = best_effort_max
        self.critical_min = critical_min
        self._clock = clock
        self.level = 0
        self.pressure = 0.0
        self._last_change = clock()

    @property
    def name(self) -> str:
        """The current level's name (``normal`` .. ``critical-only``)."""
        return BROWNOUT_LEVELS[self.level]

    def restore(self, level: int) -> None:
        """Adopt a journal-recovered level without a new transition."""
        self.level = max(0, min(len(BROWNOUT_LEVELS) - 1, int(level)))
        self._last_change = self._clock()

    def observe(self, depth: int, capacity: int,
                oldest_age_s: Optional[float]) -> Optional[Tuple[int, int]]:
        """Fold one tick's load signal; returns ``(old, new)`` on a
        level change, else None."""
        pressure = depth / capacity if capacity > 0 else 0.0
        if self.age_full_s > 0 and oldest_age_s is not None:
            pressure = max(pressure, oldest_age_s / self.age_full_s)
        self.pressure = pressure
        now = self._clock()
        if now - self._last_change < self.dwell_s:
            return None
        old = self.level
        if pressure >= self.enter_frac and self.level < len(
                BROWNOUT_LEVELS) - 1:
            self.level += 1
        elif pressure <= self.exit_frac and self.level > 0:
            self.level -= 1
        else:
            return None
        self._last_change = now
        return (old, self.level)

    def admits(self, priority: int) -> bool:
        """May a new submission of this priority be admitted now?"""
        if self.level == 0:
            return True
        if self.level == 1:
            return priority > self.best_effort_max
        return priority >= self.critical_min

    def sheds(self, priority: int, protected: bool = False) -> bool:
        """Should a queued job of this priority be shed now?

        ``protected`` marks jobs with checkpointed work (preempted
        mid-job): levels 1–2 keep them, ``critical-only`` sheds them.
        """
        if self.level == 0:
            return False
        if protected and self.level < 3:
            return False
        if self.level == 1:
            return priority <= self.best_effort_max
        return priority < self.critical_min

    def snapshot(self) -> Dict[str, Any]:
        """Beacon/status form."""
        return {"level": self.level, "name": self.name,
                "pressure": round(self.pressure, 4)}


# ----------------------------------------------------------------------
# worker-pool circuit breaker
# ----------------------------------------------------------------------


class CircuitBreaker:
    """Classic three-state breaker around the daemon's worker pool.

    * **closed** — the pool serves spec execution; failures within
      ``window_s`` are counted, and the ``k``-th opens the circuit.
    * **open** — nothing reaches the pool; the daemon executes inline
      on a single slot. After ``cooldown_s`` the next
      :meth:`allow_pool` caller becomes the half-open probe.
    * **half-open** — exactly one in-flight probe; success closes the
      circuit (full concurrency restored), failure re-opens it and
      restarts the cooldown.

    Thread-safe; slot threads race on :meth:`allow_pool` and only one
    wins the probe token.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, k: Optional[int] = None,
                 window_s: Optional[float] = None,
                 cooldown_s: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        # Knobs left as None come from the settings registry.
        if k is None:
            k = settings.get("CHIMERA_BREAKER_K")
        if window_s is None:
            window_s = settings.get("CHIMERA_BREAKER_WINDOW")
        if cooldown_s is None:
            cooldown_s = settings.get("CHIMERA_BREAKER_COOLDOWN")
        if k < 1:
            raise ConfigError("breaker K must be >= 1")
        if window_s < 0 or cooldown_s < 0:
            raise ConfigError("breaker window/cooldown must be >= 0")
        self.k = k
        self.window_s = window_s
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._failures: List[float] = []
        self._state = self.CLOSED
        self._opened_at = 0.0
        self._probing = False
        #: Times the circuit has opened (observability + tests).
        self.trips = 0
        #: Half-open probes attempted.
        self.probes = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow_pool(self) -> bool:
        """May this caller submit to the pool right now?

        While open, flips to half-open once the cooldown has elapsed
        and grants the pool to exactly one caller (the probe); every
        other caller is told to execute inline.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return True
            now = self._clock()
            if self._state == self.OPEN:
                if now - self._opened_at < self.cooldown_s:
                    return False
                self._state = self.HALF_OPEN
                self._probing = True
                self.probes += 1
                return True
            # Half-open: at most one probe in flight.
            if self._probing:
                return False
            self._probing = True
            self.probes += 1
            return True

    def record_success(self) -> bool:
        """A pool submission succeeded; True if this closed the circuit."""
        with self._lock:
            self._probing = False
            if self._state == self.HALF_OPEN:
                self._state = self.CLOSED
                self._failures.clear()
                return True
            return False

    def record_failure(self) -> bool:
        """A pool submission failed; True if this opened the circuit."""
        now = self._clock()
        with self._lock:
            self._probing = False
            if self._state == self.HALF_OPEN:
                self._state = self.OPEN
                self._opened_at = now
                self.trips += 1
                return True
            if self._state == self.OPEN:
                self._opened_at = now
                return False
            self._failures.append(now)
            if self.window_s > 0:
                cutoff = now - self.window_s
                self._failures = [t for t in self._failures if t >= cutoff]
            if len(self._failures) >= self.k:
                self._state = self.OPEN
                self._opened_at = now
                self.trips += 1
                self._failures.clear()
                return True
            return False

    def failures_in_window(self) -> int:
        with self._lock:
            if self.window_s > 0:
                cutoff = self._clock() - self.window_s
                return sum(1 for t in self._failures if t >= cutoff)
            return len(self._failures)

    def snapshot(self) -> Dict[str, Any]:
        """Beacon/status form."""
        with self._lock:
            return {"state": self._state, "trips": self.trips,
                    "probes": self.probes,
                    "failures_in_window": len(self._failures)}
