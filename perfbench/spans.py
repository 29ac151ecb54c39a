"""Wall-clock spans recorded around calls into the program's layers.

The benchmark never edits the program: a traced run replaces selected
public functions and methods with wrappers that time each call and
restore the originals afterwards. Every span records its name, start,
end, parent span (the innermost open span on the same thread) and a
correlation id (a job id or a spec's cache key). Spans stay in memory
and are written out once, when the run ends.

A span's self time is its duration minus the durations of its direct
children. Children nest strictly inside their parent on one thread, so
summing self time over every span of a thread gives the time covered
by that thread's root spans; the rest of the wall time is reported as
an explicit untimed remainder.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

PER_LAYER = (
    "sim.engine.events", "sim.engine.us_per_event", "sim.engine.self_ms",
    "gpu.tb_completions", "gpu.us_per_tb",
    "sim.rng.fills", "sim.rng.values", "sim.rng.ms",
    "sim.rng.small_fill_frac",
    "sched.partition.calls", "sched.partition.ms",
    "sched.launch.calls", "sched.launch.ms",
    "core.plan.calls", "core.plan.ms", "core.wasted_insts_frac",
    "spec.self_ms", "traffic.self_ms", "sweep.self_ms", "sweep.overhead_ms",
    "cache.gets", "cache.hit_ratio", "cache.get_ms", "cache.puts",
    "cache.put_ms",
    "client.submits", "client.submit_ms.p50", "client.submit_ms.p95",
    "client.gen_lag_ms.max",
    "daemon.ticks", "daemon.tick_ms", "daemon.tick_self_ms",
    "daemon.run_ms.p50", "daemon.preemptions",
    "store.appends", "store.append_ms", "store.commits", "store.commit_ms",
    "store.fsyncs",
    "admission.queue_ms", "admission.wait_ms.p50", "admission.wait_ms.p95",
    "overload.rejected", "overload.shed",
    "exec.spec_ms", "pool.overhead_ms",
    "trace.wall_ms", "trace.untimed_ms", "trace.overhead_frac",
)

#: Per-layer self times that, with ``trace.untimed_ms``, add up to
#: ``trace.wall_ms``: in-process (the benchmark's main thread) and in
#: the daemon process (its tick thread).
SELF_TIME_METRICS = {
    "inproc": ("sim.engine.self_ms", "sim.rng.ms", "sched.partition.ms",
               "sched.launch.ms", "core.plan.ms", "spec.self_ms",
               "traffic.self_ms", "sweep.self_ms", "cache.get_ms",
               "cache.put_ms"),
    "daemon": ("daemon.tick_self_ms", "store.append_ms", "store.commit_ms",
               "admission.queue_ms"),
}

LAYER_UNITS = {"calls": "count", "events": "count",
               "fills": "count", "values": "count", "gets": "count",
               "puts": "count", "submits": "count", "ticks": "count",
               "preemptions": "count", "appends": "count",
               "commits": "count", "fsyncs": "count", "rejected": "count",
               "shed": "count", "tb_completions": "count"}


def layer_unit(name: str) -> str:
    last = name.split(".")[-1]
    if last in LAYER_UNITS:
        return LAYER_UNITS[last]
    if name.startswith(("sim.engine.us_", "gpu.us_")):
        return "us"
    if last.endswith("frac") or last == "hit_ratio":
        return "ratio"
    return "ms"


# A span is a list, mutated in place: [name, start, end, parent, corr, tid].
NAME, START, END, PARENT, CORR, TID = range(6)


class Recorder:
    """Collects spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Kernels launched since the last root span ended; their
        #: completed thread-block counts are summed when it ends.
        self.kernels: List[Any] = []
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, corr: Optional[str]) -> list:
        stack = self._stack()
        span = [name, 0.0, 0.0, stack[-1] if stack else None, corr,
                threading.get_ident()]
        self.spans.append(span)
        stack.append(span)
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if not stack and self.kernels:
            self.counters["gpu.tb_completions"] += sum(
                k.stats.tbs_completed for k in self.kernels)
            self.kernels.clear()

    def span(self, name: str, corr: Optional[str] = None) -> "_SpanContext":
        """Context manager recording one span from the benchmark's own
        call site."""
        return _SpanContext(self, name, corr)

    def wrap(self, owner: Any, attr: str, name: str,
             corr: Optional[Callable[..., Optional[str]]] = None,
             pre: Optional[Callable[..., Any]] = None,
             post: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` with a timed wrapper until
        :meth:`uninstall`.

        ``corr(*args)`` names the correlation id; ``pre(*args)`` runs
        before the call and its value reaches ``post(state, result,
        *args)``, which runs after it. Both hooks run inside the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            span = recorder._open(name, corr(*args) if corr else None)
            try:
                state = pre(*args, **kwargs) if pre else None
                result = original(*args, **kwargs)
                if post:
                    post(state, result, *args, **kwargs)
                return result
            finally:
                recorder._close(span)

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``ms`` and ``self_ms``."""
        child_s: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            parent = span[PARENT]
            if parent is not None:
                child_s[id(parent)] += span[END] - span[START]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for span in self.spans:
            duration = span[END] - span[START]
            entry = out[span[NAME]]
            entry["calls"] += 1
            entry["ms"] += duration * 1000.0
            entry["self_ms"] += (duration - child_s[id(span)]) * 1000.0
        return dict(out)

    def child_ms(self, parent_name: str, child_name: str) -> float:
        """Total duration of ``child_name`` spans directly under
        ``parent_name`` spans, in ms."""
        return sum((s[END] - s[START]) * 1000.0 for s in self.spans
                   if s[NAME] == child_name and s[PARENT] is not None
                   and s[PARENT][NAME] == parent_name)

    def root_ms(self, tid: Optional[int] = None) -> float:
        """Time covered by root spans (of one thread, or all), in ms."""
        return sum((s[END] - s[START]) * 1000.0 for s in self.spans
                   if s[PARENT] is None and (tid is None or s[TID] == tid))

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                parent = span[PARENT]
                fh.write(json.dumps({
                    "name": span[NAME], "start": span[START],
                    "end": span[END],
                    "parent": None if parent is None else index[id(parent)],
                    "corr": span[CORR], "tid": span[TID]}) + "\n")


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str, corr: Optional[str]):
        self._recorder = recorder
        self._name = name
        self._corr = corr
        self._span: Optional[list] = None

    def __enter__(self) -> list:
        self._span = self._recorder._open(self._name, self._corr)
        return self._span

    def __exit__(self, *exc: Any) -> None:
        self._recorder._close(self._span)


# ----------------------------------------------------------------------
# the layer boundaries
# ----------------------------------------------------------------------


def install_sim(rec: Recorder) -> None:
    """Wrap the simulator and sweep-harness layers."""
    from repro.core.chimera import ChimeraPolicy, SingleTechniquePolicy
    from repro.harness.sweep import RunSpec, SweepRunner
    from repro.sched import kernel_scheduler
    from repro.sched.kernel_scheduler import KernelScheduler
    from repro.sim import rng as rng_mod
    from repro.sim.engine import Engine

    counters = rec.counters
    rec.wrap(SweepRunner, "run", "sweep.run")
    rec.wrap(RunSpec, "execute", "spec.execute",
             corr=lambda spec, *a: spec.cache_key())

    def engine_pre(engine, *a, **k):
        return engine.fired_events

    def engine_post(before, result, engine, *a, **k):
        counters["sim.engine.events"] += engine.fired_events - before

    rec.wrap(Engine, "run", "sim.engine", pre=engine_pre, post=engine_post)

    def rng_pre(streams, name, *args, **kwargs):
        n = kwargs["n"] if "n" in kwargs else args[-1]
        counters["sim.rng.fills"] += 1
        counters["sim.rng.values"] += n
        if n < rng_mod._VECTOR_MIN_N:
            counters["sim.rng.small_fills"] += 1

    for method in ("lognormal_batch", "beta_batch"):
        rec.wrap(rng_mod.RngStreams, method, "sim.rng", pre=rng_pre)
    # compute_partition is imported by name into the kernel scheduler.
    rec.wrap(kernel_scheduler, "compute_partition", "sched.partition")

    def launch_pre(scheduler, kernel, *a, **k):
        rec.kernels.append(kernel)

    rec.wrap(KernelScheduler, "launch_kernel", "sched.launch",
             pre=launch_pre)
    rec.wrap(KernelScheduler, "on_kernel_finished", "sched.launch")
    for policy in (ChimeraPolicy, SingleTechniquePolicy):
        rec.wrap(policy, "plan", "core.plan")
    install_cache(rec)


def install_cache(rec: Recorder) -> None:
    """Wrap the result cache (hits are counted on ``get``)."""
    from repro.harness.cache import ResultCache

    def get_post(_state, entry, *a, **k):
        if entry is not None:
            rec.counters["cache.hits"] += 1

    rec.wrap(ResultCache, "get", "cache.get", post=get_post)
    rec.wrap(ResultCache, "put", "cache.put")


def install_daemon(rec: Recorder) -> None:
    """Wrap the daemon's tick loop, journal, admission queue and cache."""
    from repro.service.admission import AdmissionQueue
    from repro.service.daemon import SchedulerDaemon
    from repro.service.store import JournalStore

    rec.wrap(SchedulerDaemon, "tick", "daemon.tick")
    rec.wrap(JournalStore, "append_transition", "store.append",
             corr=lambda store, job_id, *a, **k: job_id)
    rec.wrap(JournalStore, "append_meta", "store.append")
    rec.wrap(JournalStore, "commit", "store.commit")
    for method in ("check_capacity", "push", "pop", "top", "remove"):
        rec.wrap(AdmissionQueue, method, "admission.queue")
    install_cache(rec)
