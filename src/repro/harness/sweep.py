"""Declarative sweep execution: RunSpecs, a fault-tolerant runner, caching.

Every paper artifact is a sweep of independent, deterministic
simulations. A :class:`RunSpec` captures one such simulation — scenario
kind, every parameter, the seed, the machine configuration — as a
picklable value with a canonical content hash. A :class:`SweepRunner`
executes batches of RunSpecs, fanning out over a
``concurrent.futures.ProcessPoolExecutor`` when more than one worker is
configured and consulting an on-disk :class:`~repro.harness.cache.ResultCache`
so re-running a figure is a cache hit.

Parallel execution is bit-identical to serial execution: each RunSpec
builds its whole simulation (engine, RNG streams, GPU) from scratch
inside ``execute()``, so results depend only on the spec — never on
which process ran it, in which order, or after how many retries.

The runner is built to survive worker failure (DESIGN.md §7 has the
full state machine):

* every spec is submitted as its own future and its result is persisted
  to the cache *the moment it completes* — a later sibling failure can
  never discard finished work;
* a failing attempt is retried up to ``max_retries`` times with
  exponential backoff before becoming a :class:`SpecFailure`;
* a per-spec wall-clock ``timeout`` bounds hung workers: the pool is
  torn down, surviving specs are resubmitted, and the hung spec is
  retried or reported as a timeout failure;
* a broken process pool (crashed worker) is rebuilt up to
  ``max_pool_rebuilds`` times; past that the runner degrades gracefully
  to serial in-process execution (where timeouts are unenforceable but
  every remaining spec still runs);
* ``strict=True`` (default) raises :class:`~repro.errors.SweepError`
  *after* the whole batch has been driven to completion; ``strict=False``
  (keep-going) returns :class:`SpecFailure` objects in the result list.

Every knob (worker count, timeouts, retries, chunking, worker groups,
tracing, the cache) is a ``CHIMERA_*`` environment setting declared in
:mod:`repro.settings`; an explicit constructor argument overrides it.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import re
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import (
    Any,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import repro
from repro import settings
from repro.errors import ConfigError, SweepError
from repro.gpu.config import GPUConfig
from repro.harness import faults
from repro.harness.cache import ResultCache
from repro.harness.runner import (
    PairResult,
    PeriodicResult,
    SoloResult,
    run_pair,
    run_periodic,
    run_solo,
)
from repro.harness.scenario import ScenarioSpec, TrafficResult, run_traffic
from repro.sched.kernel_scheduler import SchedulerMode
from repro.sim.trace import Tracer, dump_jsonl
from repro.workloads.multiprogram import MultiprogramWorkload

logger = logging.getLogger("repro.harness.sweep")

RunResult = Union[SoloResult, PairResult, PeriodicResult, TrafficResult]

#: Spec-format version: bump when RunSpec semantics change so stale
#: cache entries from an older layout can never be replayed.
#: v2: GPUConfig gained qos_mode/qos_slack and results carry a ``qos``
#: ledger summary — v1 entries predate both.
#: v3: RunSpec gained the ``scenario`` field (traffic kind) and traffic
#: results carry an ``slo`` report.
SPEC_VERSION = 3

#: Pool rebuilds tolerated before degrading to serial execution.
DEFAULT_MAX_POOL_REBUILDS = 2


@dataclass(frozen=True)
class RunSpec:
    """One deterministic simulation, as a picklable value.

    Use the :meth:`solo`, :meth:`pair`, and :meth:`periodic`
    constructors rather than filling fields by hand.
    """

    kind: str                                  # "solo" | "pair" | "periodic"
    seed: int = 12345
    config: Optional[GPUConfig] = None
    # solo + periodic
    label: Optional[str] = None
    target_kernel_us: Optional[float] = None
    # solo + pair
    budget_insts: Optional[float] = None
    # pair
    labels: Optional[Tuple[str, ...]] = None
    policy: Optional[str] = None               # None + mode=fcfs: baseline
    mode: str = SchedulerMode.SPATIAL.value
    latency_limit_us: float = 30.0
    restart: bool = True
    workload_name: Optional[str] = None
    # periodic
    constraint_us: float = 15.0
    periods: int = 10
    # traffic
    scenario: Optional[ScenarioSpec] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def solo(cls, label: str, budget_insts: float, seed: int = 12345,
             config: Optional[GPUConfig] = None,
             target_kernel_us: Optional[float] = None) -> "RunSpec":
        """A benchmark running alone (ANTT/STP baseline)."""
        return cls(kind="solo", label=label, budget_insts=budget_insts,
                   seed=seed, config=config,
                   target_kernel_us=target_kernel_us)

    @classmethod
    def pair(cls, workload: MultiprogramWorkload, policy: Optional[str],
             mode: SchedulerMode = SchedulerMode.SPATIAL,
             seed: int = 12345, latency_limit_us: float = 30.0,
             config: Optional[GPUConfig] = None,
             target_kernel_us: Optional[float] = None) -> "RunSpec":
        """A multiprogrammed combination (``policy=None`` + FCFS mode is
        the paper's non-preemptive baseline)."""
        return cls(kind="pair", labels=tuple(workload.labels),
                   budget_insts=workload.budget_insts,
                   restart=workload.restart, policy=policy, mode=mode.value,
                   seed=seed, latency_limit_us=latency_limit_us,
                   config=config, target_kernel_us=target_kernel_us,
                   workload_name=workload.name)

    @classmethod
    def periodic(cls, label: str, policy: str, constraint_us: float = 15.0,
                 periods: int = 10, seed: int = 12345,
                 config: Optional[GPUConfig] = None,
                 target_kernel_us: Optional[float] = None) -> "RunSpec":
        """A benchmark sharing the GPU with the periodic real-time task."""
        return cls(kind="periodic", label=label, policy=policy,
                   constraint_us=constraint_us, periods=periods, seed=seed,
                   config=config, target_kernel_us=target_kernel_us)

    @classmethod
    def traffic(cls, scenario: ScenarioSpec, policy: str = "chimera",
                seed: int = 12345, latency_limit_us: float = 30.0,
                config: Optional[GPUConfig] = None,
                target_kernel_us: Optional[float] = None) -> "RunSpec":
        """An open-arrival traffic scenario replay (SLO serving)."""
        return cls(kind="traffic", scenario=scenario, policy=policy,
                   seed=seed, latency_limit_us=latency_limit_us,
                   config=config, target_kernel_us=target_kernel_us)

    # ------------------------------------------------------------------
    # hashing
    # ------------------------------------------------------------------

    def canonical(self) -> str:
        """Canonical JSON form of every result-determining field.

        ``config=None`` normalizes to the default :class:`GPUConfig`, so
        an explicit default config and an omitted one share a hash. The
        workload display name is excluded — it carries no behavior.
        """
        fields = dataclasses.asdict(self)
        fields.pop("workload_name", None)
        fields["config"] = dataclasses.asdict(self.config or GPUConfig())
        fields["spec_version"] = SPEC_VERSION
        return json.dumps(fields, sort_keys=True, default=repr)

    def cache_key(self) -> str:
        """Content hash of the spec, the config fingerprint, and the
        repro version — the on-disk cache invalidation key."""
        return ResultCache.digest(f"{repro.__version__}:{self.canonical()}")

    def describe(self) -> str:
        """Short human-readable identity for logs and failure reports."""
        if self.kind == "pair":
            name = self.workload_name or "+".join(self.labels or ())
            return f"pair[{name}] policy={self.policy or 'fcfs'}"
        if self.kind == "periodic":
            return f"periodic[{self.label}] policy={self.policy}"
        if self.kind == "traffic":
            tenants = len(self.scenario.tenants) if self.scenario else 0
            horizon = self.scenario.horizon_us if self.scenario else 0
            return (f"traffic[{tenants}t/{horizon:g}us] "
                    f"policy={self.policy}")
        return f"{self.kind}[{self.label}]"

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self, tracer: Optional[Tracer] = None) -> RunResult:
        """Run this spec's simulation from scratch and return its result.

        ``tracer`` (optional) captures the run's event trace; the spec's
        identity is stamped into the trace metadata.
        """
        if tracer is not None:
            tracer.meta.setdefault("spec", self.describe())
            tracer.meta.setdefault("spec_key", self.cache_key())
        if self.kind == "solo":
            return run_solo(self.label, self.budget_insts, seed=self.seed,
                            config=self.config,
                            target_kernel_us=self.target_kernel_us,
                            tracer=tracer)
        if self.kind == "pair":
            workload = MultiprogramWorkload(self.labels, self.budget_insts,
                                            restart=self.restart)
            return run_pair(workload, self.policy,
                            mode=SchedulerMode(self.mode), seed=self.seed,
                            latency_limit_us=self.latency_limit_us,
                            config=self.config,
                            target_kernel_us=self.target_kernel_us,
                            tracer=tracer)
        if self.kind == "periodic":
            return run_periodic(self.label, self.policy,
                                constraint_us=self.constraint_us,
                                periods=self.periods, seed=self.seed,
                                config=self.config,
                                target_kernel_us=self.target_kernel_us,
                                tracer=tracer)
        if self.kind == "traffic":
            if self.scenario is None:
                raise ConfigError("traffic spec needs a scenario")
            return run_traffic(self.scenario, policy_name=self.policy,
                               seed=self.seed, config=self.config,
                               target_kernel_us=self.target_kernel_us,
                               latency_limit_us=self.latency_limit_us,
                               tracer=tracer)
        raise ConfigError(f"unknown RunSpec kind {self.kind!r}")


@dataclass(frozen=True)
class SpecFailure:
    """A spec that failed permanently after exhausting its retries.

    In keep-going mode (``strict=False``) these appear in the result
    list at the failed spec's positions; in strict mode they ride on the
    raised :class:`~repro.errors.SweepError`.
    """

    spec: RunSpec
    kind: str        # "error" | "timeout"
    error: str
    attempts: int

    def describe(self) -> str:
        """One-line summary for failure reports."""
        return (f"{self.spec.describe()}: {self.kind} after "
                f"{self.attempts} attempt(s): {self.error}")


def format_failures(failures: Sequence[SpecFailure]) -> str:
    """Multi-line per-spec failure summary (shared by CLI and SweepError)."""
    lines = [f"{len(failures)} spec(s) failed permanently:"]
    lines.extend(f"  - {failure.describe()}" for failure in failures)
    return "\n".join(lines)


def trace_path_for(spec: RunSpec, trace_dir: str) -> str:
    """Where :func:`execute_timed` writes ``spec``'s trace under
    ``trace_dir``: a sanitized describe() plus a content-hash prefix, so
    distinct specs never collide and reruns overwrite deterministically."""
    slug = re.sub(r"[^A-Za-z0-9_.+-]+", "_", spec.describe()).strip("_")
    return os.path.join(trace_dir, f"{slug}-{spec.cache_key()[:12]}.jsonl")


def execute_timed(spec: RunSpec) -> Tuple[RunResult, float]:
    """Execute a spec, returning (result, wall seconds). Module-level so
    ProcessPoolExecutor can pickle it for workers.

    When ``CHIMERA_TRACE`` names a directory (the env var is inherited
    by pool workers), the run is captured to a per-spec JSONL trace
    there; the dump happens outside the timed region.
    """
    trace_dir = settings.get("CHIMERA_TRACE")
    tracer = (Tracer(capacity=settings.get("CHIMERA_TRACE_CAPACITY"))
              if trace_dir is not None else None)
    start = time.perf_counter()
    result = spec.execute(tracer=tracer)
    duration = time.perf_counter() - start
    if tracer is not None:
        dump_jsonl(tracer, trace_path_for(spec, trace_dir))
    return result, duration


def execute_faulted(spec: RunSpec, index: int,
                    attempt: int) -> Tuple[RunResult, float]:
    """Fault-injection-aware :func:`execute_timed`: fires any configured
    fault for (batch index, attempt) first. Module-level and picklable;
    this is what the runner actually submits to workers."""
    faults.inject_before_execute(index, attempt)
    return execute_timed(spec)


@dataclass
class SweepStats:
    """Accounting for one or more SweepRunner.run() calls."""

    jobs: int = 1
    specs: int = 0
    cache_hits: int = 0
    executed: int = 0
    retries: int = 0
    timeouts: int = 0
    failed: int = 0
    #: Results produced by other worker groups and picked up from the
    #: shared cache (zero unless CHIMERA_WORKER_GROUP splits the sweep).
    foreign: int = 0
    chunks: int = 0
    pool_rebuilds: int = 0
    degraded: bool = False
    wall_s: float = 0.0
    #: Sum of the execution times of the specs executed in this run —
    #: what running them in one process would have cost.
    serial_equiv_s: float = 0.0
    #: Recorded execution times of the specs this run skipped: cache
    #: hits and results picked up from other worker groups.
    cached_s: float = 0.0
    #: QoS guard rollup over every executed result that carried a
    #: ledger summary: budget overruns and mid-flight escalations.
    qos_violations: int = 0
    qos_escalations: int = 0
    #: SLO rollup over every executed traffic result: offered arrivals,
    #: arrivals that met their SLO, and arrivals dropped at the horizon.
    slo_arrivals: int = 0
    slo_met: int = 0
    slo_dropped: int = 0

    def merge(self, other: "SweepStats") -> None:
        """Fold another accumulator into this one."""
        self.specs += other.specs
        self.cache_hits += other.cache_hits
        self.executed += other.executed
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.failed += other.failed
        self.foreign += other.foreign
        self.chunks += other.chunks
        self.pool_rebuilds += other.pool_rebuilds
        self.degraded = self.degraded or other.degraded
        self.wall_s += other.wall_s
        self.serial_equiv_s += other.serial_equiv_s
        self.cached_s += other.cached_s
        self.qos_violations += other.qos_violations
        self.qos_escalations += other.qos_escalations
        self.slo_arrivals += other.slo_arrivals
        self.slo_met += other.slo_met
        self.slo_dropped += other.slo_dropped

    @property
    def speedup(self) -> float:
        """Serial-equivalent time of the executed specs over actual wall
        time (0 when nothing was executed)."""
        return self.serial_equiv_s / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form for the timings log."""
        return {
            "jobs": self.jobs,
            "specs": self.specs,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "failed": self.failed,
            "foreign": self.foreign,
            "chunks": self.chunks,
            "pool_rebuilds": self.pool_rebuilds,
            "degraded": self.degraded,
            "wall_s": round(self.wall_s, 4),
            "serial_equiv_s": round(self.serial_equiv_s, 4),
            "cached_s": round(self.cached_s, 4),
            "speedup": round(self.speedup, 2),
            "qos_violations": self.qos_violations,
            "qos_escalations": self.qos_escalations,
            "slo_arrivals": self.slo_arrivals,
            "slo_met": self.slo_met,
            "slo_dropped": self.slo_dropped,
        }


def group_of(key: str, total: int) -> int:
    """Deterministic worker group of a cache key: the first 8 hex
    digits of the content hash modulo the group count, so every runner
    partitions a sweep identically with no coordination."""
    return int(key[:8], 16) % total


class SweepRunner:
    """Executes batches of RunSpecs, in parallel, fault-tolerantly, and
    through the cache.

    Results come back in submission order. Identical specs in one batch
    (or across batches on the same runner) execute once: an in-memory
    memo keyed by content hash returns the *same* result object, and the
    on-disk cache replays results across processes and sessions. Each
    result is persisted the moment its future completes, so a failing
    sibling can never discard finished work.

    Failure handling (see the module docstring and DESIGN.md §7):
    per-spec ``timeout``, bounded ``max_retries`` with exponential
    backoff, pool rebuild on ``BrokenProcessPool`` with graceful
    degradation to serial execution, and ``strict``/keep-going result
    contracts.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 timeout: Optional[float] = None,
                 max_retries: Optional[int] = None,
                 retry_backoff: Optional[float] = None,
                 strict: Optional[bool] = None,
                 max_pool_rebuilds: int = DEFAULT_MAX_POOL_REBUILDS,
                 chunk_size: Optional[int] = None,
                 worker_group: Optional[Tuple[int, int]] = None,
                 shard_wait: Optional[float] = None):
        self.jobs = settings.get("CHIMERA_JOBS") if jobs is None else jobs
        if self.jobs < 1:
            raise ConfigError("SweepRunner needs at least one worker")
        self.cache = ResultCache() if cache is None else cache
        # 0 disables the timeout, from the environment or the argument.
        self.timeout = (settings.get("CHIMERA_SPEC_TIMEOUT")
                        if timeout is None else timeout) or None
        if self.timeout is not None and self.timeout < 0:
            raise ConfigError("timeout must be >= 0")
        self.max_retries = settings.get("CHIMERA_MAX_RETRIES") \
            if max_retries is None else max_retries
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        self.retry_backoff = settings.get("CHIMERA_RETRY_BACKOFF") \
            if retry_backoff is None else retry_backoff
        if self.retry_backoff < 0:
            raise ConfigError("retry_backoff must be >= 0")
        self.strict = not settings.get("CHIMERA_KEEP_GOING") \
            if strict is None else strict
        self.max_pool_rebuilds = max_pool_rebuilds
        self.chunk_size = settings.get("CHIMERA_SWEEP_CHUNK") \
            if chunk_size is None else chunk_size
        if self.chunk_size < 0:
            raise ConfigError("chunk_size must be >= 0 (0 disables)")
        self.worker_group = settings.get("CHIMERA_WORKER_GROUP") \
            if worker_group is None else worker_group
        if self.worker_group is not None:
            index, total = self.worker_group
            if total < 1 or not 0 <= index < total:
                raise ConfigError(
                    f"worker_group needs 0 <= i < N, got {self.worker_group}")
        self.shard_wait = settings.get("CHIMERA_SHARD_WAIT") \
            if shard_wait is None else shard_wait
        if self.shard_wait < 0:
            raise ConfigError("shard_wait must be >= 0")
        if self.worker_group is not None and not self.cache.enabled:
            raise ConfigError(
                "worker groups coordinate through the shared result cache; "
                "unset CHIMERA_NO_CACHE to use CHIMERA_WORKER_GROUP")
        self._memo: Dict[str, RunResult] = {}
        self._memo_duration: Dict[str, float] = {}
        #: Once True, every later batch runs serially in-process.
        self._degraded = False
        #: Stats of the most recent run() call.
        self.last_stats: Optional[SweepStats] = None
        #: Stats accumulated over this runner's lifetime.
        self.total_stats = SweepStats(jobs=self.jobs)

    def run(self, specs: Sequence[RunSpec],
            strict: Optional[bool] = None
            ) -> List[Union[RunResult, SpecFailure]]:
        """Execute every spec; returns results in submission order.

        With ``strict=True`` (the default contract) a permanently failed
        spec raises :class:`~repro.errors.SweepError` — but only after
        the whole batch has been driven to completion and every finished
        result persisted. With ``strict=False`` the result list carries
        a :class:`SpecFailure` at each failed position instead.
        """
        strict = self.strict if strict is None else strict
        specs = list(specs)
        stats = SweepStats(jobs=self.jobs, specs=len(specs))
        start = time.perf_counter()
        results: List[Optional[Union[RunResult, SpecFailure]]] = \
            [None] * len(specs)
        misses: Dict[str, List[int]] = {}
        order: List[Tuple[str, RunSpec]] = []
        for i, spec in enumerate(specs):
            key = spec.cache_key()
            hit = self._lookup(key)
            if hit is not None:
                results[i] = hit
                stats.cache_hits += 1
                stats.cached_s += self._memo_duration.get(key, 0.0)
                continue
            if key not in misses:
                order.append((key, spec))
            misses.setdefault(key, []).append(i)
        failures = self._drive_misses(order, stats)
        failed: List[SpecFailure] = []
        for (key, _), failure in zip(order, failures):
            if failure is not None:
                failed.append(failure)
                stats.failed += 1
                for i in misses[key]:
                    results[i] = failure
            else:
                result = self._memo[key]
                for i in misses[key]:
                    results[i] = result
        stats.degraded = self._degraded
        stats.wall_s = time.perf_counter() - start
        self.last_stats = stats
        self.total_stats.merge(stats)
        if failed and strict:
            raise SweepError(format_failures(failed), failures=failed)
        return results  # type: ignore[return-value]

    def _lookup(self, key: str) -> Optional[RunResult]:
        """Memo, then disk. A disk hit is promoted into the memo so the
        same key later returns the identical object."""
        if key in self._memo:
            return self._memo[key]
        entry = self.cache.get(key)
        if entry is None:
            return None
        self._memo[key] = entry.result
        self._memo_duration[key] = entry.duration_s
        return entry.result

    def _record(self, key: str, result: RunResult, duration: float,
                stats: SweepStats) -> None:
        """Persist one completed result immediately (memo + disk)."""
        self._memo[key] = result
        self._memo_duration[key] = duration
        self.cache.put(key, result, duration)
        stats.executed += 1
        stats.serial_equiv_s += duration
        qos = getattr(result, "qos", None)
        if qos:
            stats.qos_violations += int(qos.get("violations", 0))
            stats.qos_escalations += int(qos.get("escalations", 0))
        slo = getattr(result, "slo", None)
        if slo:
            stats.slo_arrivals += int(slo.get("arrivals", 0))
            stats.slo_met += int(slo.get("met", 0))
            stats.slo_dropped += int(slo.get("dropped", 0))

    def _backoff_delay(self, attempt: int) -> float:
        """Exponential backoff before retry ``attempt`` (1-based)."""
        return self.retry_backoff * (2 ** (attempt - 1))

    def _drive_misses(self, order: List[Tuple[str, RunSpec]],
                      stats: SweepStats) -> List[Optional[SpecFailure]]:
        """Run the deduplicated misses: partition by worker group, then
        feed this runner's share through the pool chunk by chunk.

        Chunking keeps per-chunk bookkeeping (futures, retry queues)
        bounded on giant sweeps and flushes results to the cache a
        chunk at a time; in-flight futures within a chunk are already
        bounded by the worker count. Returns failures aligned with
        ``order``.
        """
        failures: List[Optional[SpecFailure]] = [None] * len(order)
        if self.worker_group is not None:
            index, total = self.worker_group
            mine = [(pos, item) for pos, item in enumerate(order)
                    if group_of(item[0], total) == index]
            theirs = [(pos, item) for pos, item in enumerate(order)
                      if group_of(item[0], total) != index]
        else:
            mine = list(enumerate(order))
            theirs = []
        chunk = self.chunk_size or len(mine) or 1
        for start in range(0, len(mine), chunk):
            part = mine[start:start + chunk]
            stats.chunks += 1
            part_failures = self._execute_batch(
                [item for _, item in part], stats)
            for (pos, _), failure in zip(part, part_failures):
                failures[pos] = failure
        if theirs:
            self._await_foreign(theirs, failures, stats)
        return failures

    def _await_foreign(self,
                       theirs: List[Tuple[int, Tuple[str, RunSpec]]],
                       failures: List[Optional[SpecFailure]],
                       stats: SweepStats) -> None:
        """Wait for other worker groups' results to land in the cache.

        Detached groups coordinate only through the content-addressed
        cache: every runner partitions the key space the same way
        (:func:`group_of`), executes its share, and polls the shared
        cache for the rest. A foreign result that does not appear
        within ``shard_wait`` seconds becomes a timeout
        :class:`SpecFailure` (attempts=0 — this runner never executed
        it).
        """
        index, total = self.worker_group
        deadline = time.monotonic() + self.shard_wait
        pending = list(theirs)
        while pending:
            still_waiting = []
            for pos, (key, spec) in pending:
                if self._lookup(key) is not None:
                    stats.foreign += 1
                    stats.cached_s += self._memo_duration.get(key, 0.0)
                else:
                    still_waiting.append((pos, (key, spec)))
            pending = still_waiting
            if not pending or time.monotonic() >= deadline:
                break
            time.sleep(min(0.2, max(0.0, deadline - time.monotonic())))
        for pos, (key, spec) in pending:
            failures[pos] = SpecFailure(
                spec=spec, kind="timeout",
                error=(f"worker group {index}/{total}: foreign group "
                       f"{group_of(key, total)} did not publish "
                       f"{key[:12]}… within {self.shard_wait:.3g}s"),
                attempts=0)
            logger.warning("foreign spec %s missing from shared cache "
                           "after %.3gs", spec.describe(), self.shard_wait)

    def _execute_batch(self, items: List[Tuple[str, RunSpec]],
                       stats: SweepStats) -> List[Optional[SpecFailure]]:
        """Run the deduplicated cache misses, parallel or serial.

        Returns a list aligned with ``items``: None where the spec
        succeeded (its result is in the memo/cache), a SpecFailure where
        it failed permanently.
        """
        failures: List[Optional[SpecFailure]] = [None] * len(items)
        if not items:
            return failures
        # A single-spec batch skips the pool only when no timeout is set:
        # serial execution cannot preempt a hung spec, so an enforced
        # timeout always needs the worker process.
        single = len(items) == 1 and not self.timeout
        if self.jobs == 1 or single or self._degraded:
            self._run_serial(items, [(i, 0) for i in range(len(items))],
                             failures, stats)
        else:
            self._run_pool(items, failures, stats)
        return failures

    # ------------------------------------------------------------------
    # serial execution (jobs=1, single spec, or degraded mode)
    # ------------------------------------------------------------------

    def _run_serial(self, items: List[Tuple[str, RunSpec]],
                    entries: Sequence[Tuple[int, int]],
                    failures: List[Optional[SpecFailure]],
                    stats: SweepStats) -> None:
        """Execute (index, attempt) entries in-process with retries.

        Timeouts are unenforceable here — an in-process spec cannot be
        preempted — so hangs are the caller's risk; crash faults are
        deliberately inert in the main process (see
        :func:`repro.harness.faults.inject_before_execute`).
        """
        for index, attempt in entries:
            key, spec = items[index]
            while True:
                try:
                    result, duration = execute_faulted(spec, index, attempt)
                except Exception as exc:
                    if attempt < self.max_retries:
                        attempt += 1
                        stats.retries += 1
                        delay = self._backoff_delay(attempt)
                        if delay:
                            time.sleep(delay)
                        continue
                    failures[index] = SpecFailure(
                        spec=spec, kind="error",
                        error=f"{type(exc).__name__}: {exc}",
                        attempts=attempt + 1)
                    logger.warning("spec %s failed permanently: %s",
                                   spec.describe(), exc)
                    break
                else:
                    self._record(key, result, duration, stats)
                    break

    # ------------------------------------------------------------------
    # pool execution
    # ------------------------------------------------------------------

    def _run_pool(self, items: List[Tuple[str, RunSpec]],
                  failures: List[Optional[SpecFailure]],
                  stats: SweepStats) -> None:
        """Fan out over a process pool with per-future supervision.

        Each spec is submitted as its own future carrying a wall-clock
        deadline. Completions are recorded immediately; failed attempts
        requeue with backoff until retries run out; a hung future kills
        the pool (hung workers cannot be cancelled) and resubmits the
        survivors; a broken pool is rebuilt until ``max_pool_rebuilds``
        is exhausted, after which execution degrades to serial.
        """
        workers = min(self.jobs, len(items))
        ready: Deque[Tuple[int, int]] = deque(
            (i, 0) for i in range(len(items)))
        delayed: List[Tuple[float, int, int]] = []   # (ready_at, idx, attempt)
        inflight: Dict[Future, Tuple[int, int, Optional[float]]] = {}
        pool: Optional[ProcessPoolExecutor] = None

        def retry_or_fail(index: int, attempt: int, kind: str,
                          message: str) -> None:
            if attempt < self.max_retries:
                stats.retries += 1
                ready_at = time.monotonic() + self._backoff_delay(attempt + 1)
                delayed.append((ready_at, index, attempt + 1))
            else:
                failures[index] = SpecFailure(
                    spec=items[index][1], kind=kind, error=message,
                    attempts=attempt + 1)
                logger.warning("spec %s failed permanently (%s): %s",
                               items[index][1].describe(), kind, message)

        def abandon_pool(kill: bool) -> None:
            """Requeue all in-flight work and discard the pool."""
            nonlocal pool
            for _, (i, a, _) in sorted(inflight.items(),
                                       key=lambda kv: kv[1][0]):
                ready.append((i, a))
            inflight.clear()
            if pool is not None:
                self._shutdown_pool(pool, kill=kill)
                pool = None

        try:
            while ready or delayed or inflight:
                if self._degraded:
                    abandon_pool(kill=True)
                    leftovers = sorted(list(ready)
                                       + [(i, a) for _, i, a in delayed])
                    ready.clear()
                    delayed.clear()
                    self._run_serial(items, leftovers, failures, stats)
                    return
                now = time.monotonic()
                if delayed:
                    due = [(i, a) for ready_at, i, a in delayed
                           if ready_at <= now]
                    if due:
                        delayed = [(r, i, a) for r, i, a in delayed if r > now]
                        ready.extend(sorted(due))
                broken = False
                while ready and len(inflight) < workers:
                    index, attempt = ready.popleft()
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=workers)
                    deadline = (time.monotonic() + self.timeout
                                if self.timeout else None)
                    try:
                        fut = pool.submit(execute_faulted, items[index][1],
                                          index, attempt)
                    except BrokenExecutor:
                        ready.appendleft((index, attempt))
                        broken = True
                        break
                    inflight[fut] = (index, attempt, deadline)
                if broken:
                    self._note_pool_break(stats)
                    abandon_pool(kill=True)
                    continue
                if not inflight:
                    if delayed:
                        next_ready = min(r for r, _, _ in delayed)
                        pause = next_ready - time.monotonic()
                        if pause > 0:
                            time.sleep(pause)
                    continue
                deadlines = [d for _, _, d in inflight.values()
                             if d is not None]
                wake_at = deadlines + [r for r, _, _ in delayed]
                poll = (max(0.0, min(wake_at) - time.monotonic())
                        if wake_at else None)
                done, _ = wait(list(inflight), timeout=poll,
                               return_when=FIRST_COMPLETED)
                for fut in done:
                    index, attempt, _ = inflight.pop(fut)
                    try:
                        result, duration = fut.result()
                    except BrokenExecutor:
                        ready.append((index, attempt))
                        broken = True
                    except Exception as exc:
                        retry_or_fail(index, attempt, "error",
                                      f"{type(exc).__name__}: {exc}")
                    else:
                        self._record(items[index][0], result, duration, stats)
                if broken:
                    self._note_pool_break(stats)
                    abandon_pool(kill=True)
                    continue
                now = time.monotonic()
                expired = [fut for fut, (_, _, d) in inflight.items()
                           if d is not None and now >= d]
                if expired:
                    for fut in expired:
                        index, attempt, _ = inflight.pop(fut)
                        stats.timeouts += 1
                        logger.warning(
                            "spec %s attempt %d timed out after %.3gs; "
                            "killing worker pool",
                            items[index][1].describe(), attempt, self.timeout)
                        retry_or_fail(
                            index, attempt, "timeout",
                            f"exceeded {self.timeout:.3g}s wall-clock timeout")
                    # Hung workers cannot be cancelled individually: kill
                    # the whole pool and resubmit the innocent survivors
                    # at their current attempt. Deliberate kills do not
                    # count toward degradation.
                    abandon_pool(kill=True)
        finally:
            if pool is not None:
                pool.shutdown(wait=True)

    def _note_pool_break(self, stats: SweepStats) -> None:
        """Record one BrokenProcessPool; degrade after too many."""
        stats.pool_rebuilds += 1
        total = self.total_stats.pool_rebuilds + stats.pool_rebuilds
        if total > self.max_pool_rebuilds:
            self._degraded = True
            logger.warning(
                "process pool broke %d time(s); degrading to serial "
                "in-process execution (timeouts no longer enforced)", total)
        else:
            logger.warning(
                "process pool broke (worker died); rebuilding "
                "(%d/%d rebuilds used)", total, self.max_pool_rebuilds)

    @staticmethod
    def _shutdown_pool(pool: ProcessPoolExecutor, kill: bool) -> None:
        """Tear a pool down, terminating workers when ``kill`` is set."""
        if kill:
            processes = list((getattr(pool, "_processes", None) or {}).values())
            for proc in processes:
                try:
                    proc.terminate()
                except Exception:  # pragma: no cover - already dead
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in processes:
                proc.join(timeout=5)
        else:
            pool.shutdown(wait=True)


__all__ = [
    "RunSpec",
    "RunResult",
    "SpecFailure",
    "SweepRunner",
    "SweepStats",
    "group_of",
    "execute_faulted",
    "execute_timed",
    "format_failures",
    "trace_path_for",
]
