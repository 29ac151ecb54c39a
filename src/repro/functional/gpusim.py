"""Cycle-level multi-SM GPU running IR kernels, with SM flushing.

Composes :class:`~repro.functional.warpsim.WarpLevelSM` instances into a
whole device: a thread-block dispatcher hands grid blocks to SMs as
slots free up, all SMs share global memory, and the idempotence monitor
watches every SM's mailbox. On top of that it implements the paper's
flush mechanism *at cycle granularity*: :meth:`CycleGPU.try_flush`
consults the monitor and, when every resident block of the SM is still
idempotent, resets the SM (all warp state dropped) and requeues its
blocks to rerun from scratch elsewhere — the hardware operation §3.4
describes, demonstrated on an instruction-accurate substrate rather
than the fluid model.

The device clock is event-driven by default: SMs stay in lockstep, but
when a cycle ends with *no* SM able to issue (every warp parked on a
memory latency or barrier), the device computes the global minimum
wake-up across all SMs' wake heaps and jumps every co-clocked SM there
at once. The jump changes nothing observable — cycle counts, issue/idle
breakdowns, block latencies, flush grant/deny decisions, trace ordering
and memory contents are bit-identical to ticking through the dead
cycles one by one. Pass ``lockstep=True`` (or set
``CHIMERA_CYCLE_LOCKSTEP``) to force the naive per-cycle loop for
differential testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from collections import deque

from repro import settings
from repro.errors import ConfigError, ExecutionError
from repro.functional.machine import GlobalMemory
from repro.functional.warpsim import SchedulerKind, WarpLevelSM
from repro.gpu.config import GPUConfig
from repro.idempotence.ir import KernelProgram
from repro.idempotence.monitor import IdempotenceMonitor
from repro.sim import trace as trace_mod
from repro.sim.trace import Tracer

MAX_CYCLES = 20_000_000

@dataclass
class CycleGPUResult:
    """Aggregates from a whole-device cycle simulation."""

    cycles: int
    blocks_completed: int
    flush_attempts: int
    flushes_granted: int
    flushes_denied: int
    blocks_requeued: int
    per_sm_instructions: List[int] = field(default_factory=list)

    @property
    def total_instructions(self) -> int:
        """Warp instructions summed over all SMs."""
        return sum(self.per_sm_instructions)


class CycleGPU:
    """A small multi-SM device clocked one cycle at a time."""

    def __init__(self, prog: KernelProgram, grid_blocks: int,
                 threads_per_block: int, num_sms: int = 4,
                 blocks_per_sm: int = 2,
                 config: Optional[GPUConfig] = None,
                 scheduler: SchedulerKind = SchedulerKind.GREEDY_THEN_OLDEST,
                 gmem: Optional[GlobalMemory] = None,
                 tracer: Optional[Tracer] = None,
                 lockstep: Optional[bool] = None):
        if grid_blocks < 1 or num_sms < 1 or blocks_per_sm < 1:
            raise ConfigError("grid, SMs and blocks/SM must be positive")
        self.prog = prog
        self.tracer = tracer
        self._finish_traced = False
        self.grid_blocks = grid_blocks
        self.threads_per_block = threads_per_block
        self.blocks_per_sm = blocks_per_sm
        self.config = config or GPUConfig()
        #: Per-cycle co-clocking instead of synchronized fast-forward.
        self.lockstep = settings.get("CHIMERA_CYCLE_LOCKSTEP") \
            if lockstep is None else lockstep
        self.gmem = gmem if gmem is not None else GlobalMemory(dict(prog.buffers))
        self.monitor = IdempotenceMonitor(num_sms)
        self.sms: List[WarpLevelSM] = [
            WarpLevelSM(prog, threads_per_block, self.config, scheduler,
                        self.gmem, self.monitor, sm_id=i,
                        fast_forward=False)
            for i in range(num_sms)
        ]
        #: Pending block ids: preempted blocks go to the front.
        self.queue: Deque[int] = deque(range(grid_blocks))
        self.completed: Dict[int, bool] = {}
        self._completed_count = 0
        self.cycle = 0
        self.flush_attempts = 0
        self.flushes_granted = 0
        self.flushes_denied = 0
        self.blocks_requeued = 0
        self._dispatched = False
        self._trace(trace_mod.LAUNCH, prog.name, kernel=prog.name,
                    grid=grid_blocks)
        for sm in self.sms:
            self._trace(trace_mod.ASSIGN, f"SM{sm.sm_id} -> {prog.name}",
                        sm=sm.sm_id, kernel=prog.name)
        self._dispatch_all()

    # ------------------------------------------------------------------

    def _trace(self, category: str, message: str, **payload) -> None:
        if self.tracer is not None:
            self.tracer.emit(float(self.cycle), category, message, **payload)

    def _resident_live(self, sm: WarpLevelSM) -> List:
        return [b for b in sm.blocks if not b.done]

    def _dispatch(self, sm: WarpLevelSM, block_id: int) -> None:
        sm.add_block(block_id)
        self._dispatched = True
        self._trace(trace_mod.DISPATCH, f"SM{sm.sm_id} <- tb{block_id}",
                    sm=sm.sm_id, kernel=self.prog.name, tb=block_id)

    def _dispatch_all(self) -> None:
        for sm in self.sms:
            self._refill(sm)

    def _retire_finished(self, sm: WarpLevelSM) -> None:
        finished = sm._just_finished
        if finished:
            for block in finished:
                if not self.completed.get(block.block_id, False):
                    self.completed[block.block_id] = True
                    self._completed_count += 1
                    self.monitor.clear_block(sm.sm_id, block.block_id)
                    self._trace(trace_mod.COMPLETE,
                                f"SM{sm.sm_id} tb{block.block_id} done",
                                sm=sm.sm_id, kernel=self.prog.name,
                                tb=block.block_id)
            finished.clear()
        if not self._finish_traced and self.done:
            self._finish_traced = True
            self._trace(trace_mod.FINISH, self.prog.name,
                        kernel=self.prog.name, cycles=float(self.cycle))

    @property
    def done(self) -> bool:
        """True when nothing is left to execute."""
        return self._completed_count >= self.grid_blocks

    # ------------------------------------------------------------------

    def step(self, cycles: int = 1) -> None:
        """Advance the device by up to ``cycles`` ticks (stopping early
        when the grid completes). All SM clocks advance in lockstep;
        unless :attr:`lockstep` is set, stretches where no SM can issue
        are jumped in one synchronized skip."""
        remaining = cycles
        sms = self.sms
        while remaining > 0:
            if self.done:
                return
            self.cycle += 1
            remaining -= 1
            self._dispatched = False
            issued = False
            for sm in sms:
                if sm.live_blocks:
                    if sm._tick():
                        issued = True
                        if sm._just_finished:
                            self._retire_finished(sm)
                            self._refill(sm)
                if self.queue and sm.live_blocks < self.blocks_per_sm:
                    self._refill(sm)
            if issued or self.lockstep or self._dispatched or remaining == 0:
                continue
            # Synchronized fast-forward: nothing issued and nothing new
            # was dispatched, so every active SM idles until its next
            # wake-up. Jump all clocks to the earliest one, capped at
            # this call's cycle budget.
            skip = self._idle_skip(remaining)
            if skip > 0:
                self.cycle += skip
                remaining -= skip
                for sm in sms:
                    if sm.live_blocks:
                        sm.cycle += skip
                        sm.idle_cycles += skip

    def _idle_skip(self, remaining: int) -> int:
        """Dead cycles that can be jumped after an all-idle tick.

        Wake-ups live in each SM's local clock; SM clocks can lag the
        device clock (an SM only ticks while it has live blocks), so
        each is converted through its own offset before taking the
        global minimum. Pending dispatcher work never extends a skip: a
        free slot with a queued block is filled the same tick it
        appears, which issues on the next tick.
        """
        target = None
        for sm in self.sms:
            if not sm.live_blocks:
                continue
            wake = sm.next_wake()
            if wake is None:  # pragma: no cover - barriers release eagerly
                return 0
            at = self.cycle + (wake - sm.cycle)
            if target is None or at < target:
                target = at
        if target is None:
            return 0
        return min(target - self.cycle - 1, remaining)

    def _refill(self, sm: WarpLevelSM) -> None:
        while self.queue and sm.live_blocks < self.blocks_per_sm:
            self._dispatch(sm, self.queue.popleft())

    def run(self, max_cycles: int = MAX_CYCLES) -> CycleGPUResult:
        """Run to completion and return the aggregate result."""
        while not self.done:
            if self.cycle >= max_cycles:
                raise ExecutionError(
                    f"{self.prog.name}: exceeded {max_cycles} cycles")
            self.step(max_cycles - self.cycle)
        return self.result()

    def result(self) -> CycleGPUResult:
        """Aggregate statistics at the current moment."""
        return CycleGPUResult(
            cycles=self.cycle,
            blocks_completed=self._completed_count,
            flush_attempts=self.flush_attempts,
            flushes_granted=self.flushes_granted,
            flushes_denied=self.flushes_denied,
            blocks_requeued=self.blocks_requeued,
            per_sm_instructions=[sm.warp_instructions for sm in self.sms],
        )

    # ------------------------------------------------------------------
    # SM flushing (paper §3.4, at cycle granularity)
    # ------------------------------------------------------------------

    def try_flush(self, sm_id: int) -> bool:
        """Attempt to flush SM ``sm_id`` right now.

        Returns True (and resets the SM) only if the mailbox monitor
        shows every resident block still idempotent; otherwise the SM is
        left untouched (the scheduler would fall back to another
        technique — that is Chimera's job, not the reset circuit's).
        Flushed blocks rerun from the beginning: they go to the *front*
        of the dispatch queue, as the paper's thread-block scheduler
        prefers preempted blocks.
        """
        if not 0 <= sm_id < len(self.sms):
            raise ConfigError(f"no SM {sm_id}")
        sm = self.sms[sm_id]
        self.flush_attempts += 1
        if not sm.live_blocks:
            self.flushes_granted += 1
            sm.blocks = []
            return True
        if not self.monitor.sm_flushable(sm_id):
            self.flushes_denied += 1
            return False
        # Reset circuit: drop all state, requeue the live blocks.
        live = sm.flush_live_blocks()
        for block in reversed(live):
            self.queue.appendleft(block.block_id)
            self.blocks_requeued += 1
            self._trace(trace_mod.FLUSH,
                        f"SM{sm_id} tb{block.block_id} flushed",
                        sm=sm_id, kernel=self.prog.name, tb=block.block_id,
                        idempotent=True)
        self.monitor.clear_sm(sm_id)
        self.flushes_granted += 1
        return True
