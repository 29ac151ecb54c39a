"""Crash-safe scheduling daemon over the Chimera simulator.

The service layer turns the batch harness into a long-running system:

* :mod:`repro.service.state` — the job lifecycle state machine
* :mod:`repro.service.store` — the checksummed, append-only journal
  (journal-before-act durability; torn-tail repair; validated replay)
* :mod:`repro.service.admission` — bounded priority queue with
  explicit backpressure
* :mod:`repro.service.overload` — graceful degradation: deadline-aware
  admission (service-time EWMA), brownout load shedding, queue-age
  expiry, and the worker-pool circuit breaker
* :mod:`repro.service.daemon` — the tick loop: intake, dispatch,
  collaborative spec-boundary preemption, heartbeat watchdog, recovery
* :mod:`repro.service.client` — filesystem API: submit/status/cancel

See DESIGN.md §12 for the architecture and the durability contract,
§15 for overload control.
"""

from repro.service.admission import AdmissionQueue
from repro.service.client import ServiceClient
from repro.service.daemon import SchedulerDaemon, reconcile_qos
from repro.service.overload import (
    BROWNOUT_LEVELS,
    BrownoutController,
    CircuitBreaker,
    ServiceTimeEstimator,
)
from repro.service.state import Job, JobState, is_terminal, validate_transition
from repro.service.store import JobTable, JournalStore

__all__ = [
    "AdmissionQueue",
    "BROWNOUT_LEVELS",
    "BrownoutController",
    "CircuitBreaker",
    "Job",
    "JobState",
    "JobTable",
    "JournalStore",
    "SchedulerDaemon",
    "ServiceClient",
    "ServiceTimeEstimator",
    "is_terminal",
    "reconcile_qos",
    "validate_transition",
]
