"""Fused-bookkeeping SM for the vectorized fluid engine.

:class:`VectorSM` is the per-SM half of the ``CHIMERA_FLUID_VECTOR``
path (the grid-level half is :mod:`repro.sim.rng_vector`). The fluid
model completes and re-dispatches ~1M thread blocks per figure6_7
sweep, and profiling shows the scalar chain spends most of its time in
Python call layering, not arithmetic: property towers
(``free_slots`` → ``max_slots`` → ``min``), per-completion method hops
(``mark_done`` → ``advance_to``, ``note_completed`` → ``note_off_sm``,
``on_tb_complete`` → ``fill`` → ``dispatch`` → ``start_running`` →
``_schedule_completion``), and an O(live) list removal per retirement.

This subclass collapses the whole hot chain — completion bookkeeping,
the scheduler's refill loop, fresh-block construction, dispatch, and
completion scheduling — into a single stack frame
(:meth:`VectorSM._complete`):

* ``mark_done``, residency removal, and the kernel's retirement
  statistics are inlined; the kernel's live-block map is keyed by TB
  index so removal is O(1).
* The refill loop runs against a slot capacity cached at ``assign()``
  and the kernel's preempted deque cached alongside it, instead of the
  property tower and a per-completion dict lookup.
* Fresh blocks are built with ``ThreadBlock.__new__`` + direct slot
  stores (the kernel's batch draws already guarantee positive
  totals/rates, so the constructor's validation is redundant), and
  their completion events with ``Event.__new__`` + a C-level
  ``partial`` callback, skipping one Python frame per scheduled and
  per fired event.

Every externally visible effect — trace events and their payloads, TB
and kernel statistics, event schedule order — is bit-identical to
:class:`~repro.gpu.sm.StreamingMultiprocessor`; the differential suite
in ``tests/test_fluid_differential.py`` enforces this. Cold paths
(preemption, escalation, context save/restore, abort, initial fill)
are inherited from the base class unchanged; listeners that are not
the thread-block scheduler fall back to the plain
``on_tb_complete`` protocol.

A note on the SoA-array design that was *not* chosen: with at most
``max_tbs_per_sm`` (8) resident blocks per SM, numpy arrays of
start/remaining instructions lose to fused scalar Python on every
measurement — per-op dispatch overhead (~1 us) dwarfs 8-element math.
Arrays win at grid scale (hundreds to thousands of elements), which is
where the numpy half of this path lives (batched per-grid instruction
count and CPI draws in ``rng_vector``).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappush
from typing import Deque, Optional

from repro.core.techniques import Technique
from repro.errors import SimulationError
from repro.gpu.kernel import Kernel
from repro.gpu.sm import SMState, StreamingMultiprocessor
from repro.gpu.threadblock import TBState, ThreadBlock
from repro.sim import trace as trace_mod
from repro.sim.engine import Event

# Module-level aliases: enum-member attribute lookups
# cost ~40ns each and the fused loop below runs ~1M times per figure
# sweep.
_PENDING = TBState.PENDING
_RUNNING = TBState.RUNNING
_SAVED = TBState.SAVED
_DONE = TBState.DONE
_PREEMPTING = SMState.PREEMPTING
_new_event = Event.__new__


class VectorSM(StreamingMultiprocessor):
    """Drop-in SM with the hot dispatch/complete chain fused."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Slot capacity under the current kernel, cached at assign()
        #: so the refill loop skips the max_slots property tower.
        self._cap = 0
        #: The kernel's preempted-block deque, cached at assign() so
        #: the refill loop skips a dict lookup per completion. None
        #: when the listener is not the thread-block scheduler (bare
        #: test listeners): those completions take the plain protocol.
        self._pq: Optional[Deque[ThreadBlock]] = None
        # Imported here, not at module scope: repro.gpu loads before
        # repro.sched during package init, so a top-level import of the
        # scheduler would be circular.
        from repro.sched.tb_scheduler import ThreadBlockScheduler
        self._sched = (self.listener
                       if isinstance(self.listener, ThreadBlockScheduler)
                       else None)

    def assign(self, kernel: Kernel) -> None:
        super().assign(kernel)
        self._cap = min(kernel.spec.tbs_per_sm, self.config.max_tbs_per_sm)
        sched = self._sched
        if sched is not None:
            # Materialize the deque eagerly (on_tb_preempted would
            # setdefault the same entry later) so the hot loop holds a
            # direct reference instead of re-fetching it per event.
            self._pq = sched._preempted.setdefault(kernel.kernel_id, deque())

    # ------------------------------------------------------------------
    # fused hot path
    # ------------------------------------------------------------------

    def _complete(self, tb: ThreadBlock) -> None:
        self._completion_events.pop(tb.index, None)
        engine = self.engine
        now = engine._now
        # Inlined mark_done: only the cycle counter survives the final
        # advance (executed_insts is overwritten with the total).
        last = tb._last_advance
        if last is not None and tb.state is _RUNNING:
            dt = now - last
            if dt < 0:
                raise SimulationError(
                    f"TB {tb.index}: time went backwards ({last} -> {now})")
            tb.executed_cycles += dt
        tb.executed_insts = total = tb.total_insts
        tb.state = _DONE
        tb.finish_time = now
        tb._last_advance = None
        resident = self.resident
        resident.remove(tb)
        kernel = tb.kernel
        # Inlined Kernel.note_completed (O(1) live-map removal).
        try:
            del kernel._live[tb.index]
        except KeyError:
            raise SimulationError(f"{tb!r} was not resident") from None
        stats = kernel.stats
        stats.tbs_completed += 1
        stats.insts_retired += total
        stats.cycles_retired += tb.executed_cycles
        stats.tb_insts_sumsq += total * total
        if total > stats.tb_insts_max:
            stats.tb_insts_max = total
        if self.state is _PREEMPTING:
            # Drained block during a preemption: identical to the base
            # class branch (cold relative to plain completion).
            if tb in self._draining:
                self._draining.remove(tb)
            self._vacated.append((now, tb.rate))
            if self._record is not None:
                self._record.tb_events.append(
                    (tb.index, Technique.DRAIN.value,
                     now - self._record.request_time))
            if self.tracer is not None:
                self._trace(trace_mod.DRAIN, f"{kernel.name}#{tb.index}",
                            kernel=kernel.name, tb=tb.index)
            self._maybe_release()
            return
        tracer = self.tracer
        if tracer is not None:
            self._trace(trace_mod.COMPLETE, f"{kernel.name}#{tb.index}",
                        kernel=kernel.name, tb=tb.index)
        pq = self._pq
        if pq is None:
            self.listener.on_tb_complete(self, tb)
            return
        # Fused ThreadBlockScheduler.on_tb_complete + fill: the hottest
        # callback in the fluid model, once per plain completion.
        sched = self._sched
        if stats.tbs_completed >= kernel.grid_tbs:
            sched.kernel_scheduler.on_kernel_finished(kernel)
            return
        cap = self._cap
        grid = kernel.grid_tbs
        totals = kernel._tb_totals
        rates = kernel._tb_rates
        live = kernel._live
        seq_counter = engine._seq
        heap = engine._queue
        events = self._completion_events
        complete = self._complete
        new_tb = ThreadBlock.__new__
        dispatched = False
        while len(resident) < cap:
            if pq:
                nxt = pq.popleft()
                if nxt.state is _SAVED:
                    # Switched block: full restore path (DMA + load).
                    self.dispatch(nxt)
                    dispatched = True
                    continue
            elif (index := kernel._next_index) < grid:
                # Inlined Kernel.make_tb + ThreadBlock.__init__.
                kernel._next_index = index + 1
                nxt = new_tb(ThreadBlock)
                nxt.kernel = kernel
                nxt.index = index
                nxt.total_insts = totals[index]
                nxt.rate = rates[index]
                nxt._nonidem_at = None  # drawn on first read
                nxt.state = _PENDING
                nxt.executed_insts = 0.0
                nxt.executed_cycles = 0.0
                nxt.flush_count = 0
                nxt._last_advance = None
                nxt.dispatch_time = None
                nxt.finish_time = None
            else:
                break
            # Inlined dispatch + start_running + completion scheduling
            # for fresh and flushed (non-SAVED) blocks. The loop holds
            # the invariants dispatch() re-validates per call: the SM
            # is RUNNING, the block belongs to this kernel, a slot is
            # free.
            resident.append(nxt)
            nidx = nxt.index
            live[nidx] = nxt
            if tracer is not None:
                self._trace(trace_mod.DISPATCH, f"{kernel.name}#{nidx}",
                            kernel=kernel.name, tb=nidx, restored=False)
            if nxt.state is _DONE:
                raise SimulationError(f"TB {nidx} already done")
            nxt.state = _RUNNING
            nxt._last_advance = now
            if nxt.dispatch_time is None:
                nxt.dispatch_time = now
            # executed_insts is 0.0 for every block on this path (fresh
            # blocks and flushed reruns; restored ones took the SAVED
            # branch), so the scalar path's max(0.0, ...) clamp is a
            # no-op here.
            delay = (nxt.total_insts - nxt.executed_insts) / nxt.rate
            # Inlined Engine.schedule: delay is non-negative by
            # construction and the completion event carries no label.
            # partial() fires C-level, saving a Python frame per
            # completion relative to a lambda.
            event = _new_event(Event)
            event.time = when = now + delay
            event.seq = seq = next(seq_counter)
            event.callback = partial(complete, nxt)
            event.label = ""
            event._cancelled = False
            event._engine = engine
            heappush(heap, (when, seq, event))
            engine._live += 1
            events[nidx] = event
            dispatched = True
        if dispatched and kernel._next_index >= grid:
            sched.kernel_scheduler.note_fully_dispatched(kernel)
        if not resident and not pq and kernel._next_index >= grid:
            # Size-bound tail: the kernel cannot use this SM any more.
            self.unassign()
            sched.kernel_scheduler.on_sm_idle(self)


__all__ = ["VectorSM"]
