"""Kernel scheduler: the OS-level half of the two-level scheduler.

Owns the SM-to-kernel mapping. On every scheduling event (kernel
launch, kernel completion, SM hand-over) it recomputes the partition
targets (:mod:`repro.sched.policy`) and converges the mapping toward
them: idle SMs are assigned to kernels with a deficit, and kernels over
their target are preempted through the configured preemption policy
(Chimera or a baseline). Every completed SM preemption is recorded for
the experiment harness.

Two modes:

* ``SPATIAL`` — preemptive spatial multitasking (the paper's evaluated
  system).
* ``FCFS`` — the paper's baseline: non-preemptive first-come
  first-serve, one kernel at a time owning the machine.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.chimera import PreemptionPolicy
from repro.errors import SchedulingError
from repro.gpu.config import GPUConfig
from repro.gpu.gpu import GPU
from repro.gpu.kernel import Kernel
from repro.gpu.sm import PreemptionRecord, SMState, StreamingMultiprocessor
from repro.sched.guard import PreemptionGuard
from repro.sched.policy import KernelDemand, compute_partition
from repro.sched.process import BenchmarkProcess
from repro.sched.tb_scheduler import ThreadBlockScheduler
from repro.sim.engine import Engine
from repro.sim import trace as trace_mod
from repro.sim.trace import Tracer


class SchedulerMode(enum.Enum):
    """Preemptive spatial sharing vs non-preemptive FCFS."""
    SPATIAL = "spatial"
    FCFS = "fcfs"


@dataclass
class ActiveKernel:
    """Bookkeeping for a kernel currently owning (or awaiting) SMs."""

    kernel: Kernel
    process: Optional[BenchmarkProcess] = None
    fixed_demand: Optional[int] = None
    on_finished: Optional[Callable[[Kernel], None]] = None
    on_fully_dispatched: Optional[Callable[[Kernel], None]] = None
    fully_dispatched_fired: bool = field(default=False)
    #: Share weight for priority-proportional partitioning (1.0 = even).
    weight: float = 1.0


class KernelScheduler:
    """Assigns SMs to kernels and drives preemption."""

    def __init__(self, engine: Engine, config: GPUConfig,
                 tb_scheduler: ThreadBlockScheduler,
                 policy: Optional[PreemptionPolicy],
                 mode: SchedulerMode = SchedulerMode.SPATIAL,
                 latency_limit_us: float = 30.0,
                 tracer: Optional[Tracer] = None,
                 guard: Optional[PreemptionGuard] = None):
        if mode is SchedulerMode.SPATIAL and policy is None:
            raise SchedulingError("spatial mode needs a preemption policy")
        self.engine = engine
        self.config = config
        self.tb_scheduler = tb_scheduler
        self.policy = policy
        self.mode = mode
        self.latency_limit_cycles = config.us(latency_limit_us)
        self._gpu: Optional[GPU] = None
        self._active: Dict[int, ActiveKernel] = {}
        self._processes: List[BenchmarkProcess] = []
        self._fcfs_queue: List[ActiveKernel] = []
        self._fcfs_running: Optional[ActiveKernel] = None
        self._in_repartition = False
        self._repartition_again = False
        #: All completed SM preemptions, in hand-over order.
        self.records: List[PreemptionRecord] = []
        #: Optional structured event trace.
        self.tracer = tracer
        #: Optional QoS guard supervising every in-flight preemption.
        self.guard = guard
        tb_scheduler.attach(self)

    def _trace(self, category: str, message: str, **payload) -> None:
        # Call sites guard on ``self.tracer is not None`` so payload
        # construction is free when tracing is off.
        self.tracer.emit(self.engine.now, category, message, **payload)

    @staticmethod
    def _finite(value: float) -> Optional[float]:
        """JSON-safe estimate: the cost model's conservative ``inf``
        (no statistics yet) serializes as null, not ``Infinity``."""
        return value if math.isfinite(value) else None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach_gpu(self, gpu: GPU) -> None:
        """Bind the device this scheduler manages."""
        self._gpu = gpu

    @property
    def gpu(self) -> GPU:
        """The attached device (raises before attach_gpu)."""
        if self._gpu is None:
            raise SchedulingError("kernel scheduler has no GPU attached")
        return self._gpu

    # ------------------------------------------------------------------
    # processes and launches
    # ------------------------------------------------------------------

    def add_process(self, process: BenchmarkProcess) -> None:
        """Register a benchmark process (started by start())."""
        self._processes.append(process)

    @property
    def processes(self) -> List[BenchmarkProcess]:
        """Registered processes (copy)."""
        return list(self._processes)

    def start(self) -> None:
        """Launch the first kernel of every registered process."""
        for process in self._processes:
            self._launch_next(process)

    def _launch_next(self, process: BenchmarkProcess) -> None:
        kernel = process.next_kernel()
        self.launch_kernel(kernel, process=process,
                           weight=getattr(process, "weight", 1.0))

    def launch_kernel(self, kernel: Kernel, process: Optional[BenchmarkProcess] = None,
                      fixed_demand: Optional[int] = None,
                      on_finished: Optional[Callable[[Kernel], None]] = None,
                      on_fully_dispatched: Optional[Callable[[Kernel], None]] = None,
                      weight: float = 1.0,
                      ) -> None:
        """Register a kernel launch and converge the SM mapping.

        ``weight`` sets the kernel's share in the priority-proportional
        partition (1.0 reproduces the paper's even split).
        """
        if kernel.kernel_id in self._active:
            raise SchedulingError(f"kernel {kernel.name} already active")
        kernel.launch_time = self.engine.now
        entry = ActiveKernel(kernel, process, fixed_demand, on_finished,
                             on_fully_dispatched, weight=weight)
        self._active[kernel.kernel_id] = entry
        if self.tracer is not None:
            self._trace(trace_mod.LAUNCH, kernel.name, kernel=kernel.name,
                        grid=kernel.grid_tbs, fixed_demand=fixed_demand)
        if self.mode is SchedulerMode.FCFS:
            self._fcfs_queue.append(entry)
            self._fcfs_try_start()
        else:
            self._repartition()

    def kill_kernel(self, kernel: Kernel) -> None:
        """Forcibly remove a kernel (missed-deadline task). Its resident
        blocks are dropped; SMs mid-preemption finish on their own."""
        entry = self._active.pop(kernel.kernel_id, None)
        if entry is None:
            return
        kernel.mark_finished(self.engine.now)
        if self.tracer is not None:
            self._trace(trace_mod.KILL, kernel.name, kernel=kernel.name,
                        done=kernel.stats.tbs_completed)
        if self.guard is not None:
            # SMs mid-preemption never hand over for a killed kernel, so
            # their watchdogs must die here, not fire against a future
            # occupant of the same SM.
            self.guard.on_kernel_killed(kernel)
        for sm in self.gpu.sms_of(kernel):
            if sm.is_preempting:
                continue
            sm.abort_all()
            sm.unassign()
        self.tb_scheduler.drop_kernel(kernel)
        if self.mode is SchedulerMode.FCFS:
            if self._fcfs_running is entry:
                self._fcfs_running = None
            elif entry in self._fcfs_queue:
                self._fcfs_queue.remove(entry)
            self._fcfs_try_start()
        else:
            self._repartition()

    # ------------------------------------------------------------------
    # events from the thread-block scheduler
    # ------------------------------------------------------------------

    def on_kernel_finished(self, kernel: Kernel) -> None:
        """Handle a kernel completing all of its blocks."""
        entry = self._active.pop(kernel.kernel_id, None)
        if entry is None:
            return  # already handled (e.g. killed)
        kernel.mark_finished(self.engine.now)
        if self.tracer is not None:
            self._trace(trace_mod.FINISH, kernel.name, kernel=kernel.name,
                        cycles=self.engine.now - (kernel.launch_time or 0.0))
        self.tb_scheduler.drop_kernel(kernel)
        for sm in self.gpu.sms_of(kernel):
            if not sm.is_preempting:
                sm.unassign()
        if self.mode is SchedulerMode.FCFS and self._fcfs_running is entry:
            self._fcfs_running = None
        if entry.on_finished is not None:
            entry.on_finished(kernel)
        if entry.process is not None:
            if entry.process.on_kernel_finished(kernel, self.engine.now):
                self._launch_next(entry.process)
                return  # launch already repartitioned / rescheduled
        if self.mode is SchedulerMode.FCFS:
            self._fcfs_try_start()
        else:
            self._repartition()

    def on_sm_idle(self, sm: StreamingMultiprocessor) -> None:
        """Reassign an SM the thread-block scheduler freed."""
        if self.mode is SchedulerMode.FCFS:
            return  # non-preemptive baseline leaves tail SMs idle
        self._assign_idle_sm(sm)

    def on_sm_released(self, sm: StreamingMultiprocessor,
                       record: PreemptionRecord) -> None:
        """Handle a finished preemption hand-over."""
        self.records.append(record)
        if self.tracer is not None:
            extra = {}
            if record.escalations:
                extra["escalated"] = record.escalations
            self._trace(trace_mod.RELEASE,
                        f"SM{sm.sm_id} <- {record.kernel_name}",
                        sm=sm.sm_id, kernel=record.kernel_name,
                        latency=round(record.realized_latency, 1),
                        est_latency=self._finite(record.estimated_latency),
                        est_overhead=self._finite(record.estimated_overhead),
                        **extra)
        if self.guard is not None:
            self.guard.resolve(sm, record)
        # A drained SM may have retired its kernel's last block while
        # preempting, in which case no completion reached the listener.
        for entry in list(self._active.values()):
            if entry.kernel.finished:
                self.on_kernel_finished(entry.kernel)
        self._assign_idle_sm(sm)

    def note_fully_dispatched(self, kernel: Kernel) -> None:
        """Fire the full-dispatch watch for a kernel."""
        entry = self._active.get(kernel.kernel_id)
        if entry is None or entry.fully_dispatched_fired:
            return
        entry.fully_dispatched_fired = True
        if entry.on_fully_dispatched is not None:
            entry.on_fully_dispatched(kernel)

    # ------------------------------------------------------------------
    # spatial mode: partition targets and convergence
    # ------------------------------------------------------------------

    def _needed_sms(self, kernel: Kernel) -> int:
        unfinished = kernel.grid_tbs - kernel.stats.tbs_completed
        tbs_per_sm = min(kernel.spec.tbs_per_sm, self.config.max_tbs_per_sm)
        return -(-unfinished // tbs_per_sm)  # ceil division

    def _targets(self) -> Dict[int, int]:
        demands = [
            KernelDemand(kid, self._needed_sms(entry.kernel),
                         entry.fixed_demand, weight=entry.weight)
            for kid, entry in self._active.items()
        ]
        return compute_partition(demands, self.config.num_sms)

    def _effective_counts(self) -> Dict[int, int]:
        counts = {kid: 0 for kid in self._active}
        for sm in self.gpu.sms:
            if sm.kernel is None or sm.is_preempting:
                continue
            kid = sm.kernel.kernel_id
            if kid in counts:
                counts[kid] += 1
        return counts

    def _num_preempting(self) -> int:
        return sum(1 for sm in self.gpu.sms if sm.is_preempting)

    def _repartition(self) -> None:
        if self._in_repartition:
            self._repartition_again = True
            return
        self._in_repartition = True
        try:
            while True:
                self._repartition_again = False
                self._converge()
                if not self._repartition_again:
                    break
        finally:
            self._in_repartition = False

    def _converge(self) -> None:
        targets = self._targets()
        # Step 1: hand idle SMs to kernels below target.
        for sm in self.gpu.idle_sms():
            self._place(sm, targets)
        # Step 2: preempt kernels above target, but never more SMs than
        # the outstanding deficit that in-flight hand-overs won't cover.
        counts = self._effective_counts()
        deficit = sum(max(0, targets[k] - counts[k]) for k in targets)
        want = deficit - self._num_preempting()
        if want <= 0 or self.policy is None:
            return
        surplus_kernels = sorted(
            (kid for kid in targets if counts[kid] - targets[kid] > 0),
            key=lambda kid: counts[kid] - targets[kid], reverse=True)
        for kid in surplus_kernels:
            if want <= 0:
                break
            entry = self._active.get(kid)
            if entry is None:
                continue
            candidates = [sm for sm in self.gpu.sms_of(entry.kernel)
                          if not sm.is_preempting]
            count = min(want, counts[kid] - targets[kid], len(candidates))
            if count <= 0:
                continue
            plans = self.policy.plan(candidates, count, self.latency_limit_cycles)
            for plan in plans:
                if plan.assignments:
                    if self.tracer is not None:
                        self._trace(
                            trace_mod.PREEMPT,
                            f"SM{plan.sm.sm_id} of {entry.kernel.name}",
                            sm=plan.sm.sm_id, kernel=entry.kernel.name,
                            techniques={t.value: c for t, c
                                        in plan.technique_counts().items()},
                            est_latency=self._finite(plan.latency_cycles),
                            est_overhead=self._finite(plan.overhead_insts),
                            tbs=[{"tb": tb.index, "tech": cost.technique.value,
                                  "lat": self._finite(cost.latency_cycles),
                                  "ovh": self._finite(cost.overhead_insts)}
                                 for tb, cost in sorted(
                                     plan.costs.items(),
                                     key=lambda item: item[0].index)])
                    record = plan.sm.preempt(
                        plan.assignments,
                        estimated_latency=plan.latency_cycles,
                        estimated_overhead=plan.overhead_insts)
                    if self.guard is not None:
                        self.guard.register(plan.sm, record, plan,
                                            self.latency_limit_cycles)
                else:
                    # Nothing resident: the SM frees instantly.
                    plan.sm.unassign()
                    self._assign_idle_sm(plan.sm)
                want -= 1

    def _place(self, sm: StreamingMultiprocessor, targets: Dict[int, int]) -> None:
        """Try to assign one idle SM to the neediest kernel."""
        counts = self._effective_counts()
        candidates = sorted(
            (kid for kid in targets if targets[kid] > counts[kid]),
            key=lambda kid: (
                self._active[kid].fixed_demand is None,  # real-time first
                counts[kid] - targets[kid],
            ))
        for kid in candidates:
            entry = self._active.get(kid)
            if entry is None or not self.tb_scheduler.has_work(entry.kernel):
                continue
            sm.assign(entry.kernel)
            self.tb_scheduler.fill(sm)
            if sm.resident:
                return
            sm.unassign()
        # Nobody could use it; leave idle.

    def _assign_idle_sm(self, sm: StreamingMultiprocessor) -> None:
        if sm.state is not SMState.IDLE:
            return
        if self.mode is SchedulerMode.FCFS:
            self._fcfs_fill_running(sm)
            return
        self._place(sm, self._targets())

    # ------------------------------------------------------------------
    # FCFS baseline
    # ------------------------------------------------------------------

    def _fcfs_try_start(self) -> None:
        if self._fcfs_running is not None or not self._fcfs_queue:
            return
        entry = self._fcfs_queue.pop(0)
        self._fcfs_running = entry
        kernel = entry.kernel
        grant = min(self._needed_sms(kernel), self.config.num_sms)
        for sm in self.gpu.idle_sms()[:grant]:
            sm.assign(kernel)
            self.tb_scheduler.fill(sm)

    def _fcfs_fill_running(self, sm: StreamingMultiprocessor) -> None:
        """FCFS gives a freed SM back to the running kernel if it can
        still use one; otherwise the SM idles until the next kernel."""
        entry = self._fcfs_running
        if entry is None:
            return
        if not self.tb_scheduler.has_work(entry.kernel):
            return
        sm.assign(entry.kernel)
        self.tb_scheduler.fill(sm)
        if not sm.resident:
            sm.unassign()
