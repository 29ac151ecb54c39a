"""Thread-block runtime state for the fluid-timing GPU model.

A thread block progresses as a piecewise-linear instruction count at a
fixed per-TB rate (instructions/cycle) while resident on an SM. The SM
advances resident blocks lazily whenever an event touches it, so the
model is exact without per-cycle stepping.

Each block carries the state Chimera's machinery needs:

* executed instructions and occupied cycles (the two hardware counters
  of paper §3.2),
* the progress point of its first non-idempotent instruction (set by
  the idempotence instrumentation; ``math.inf`` for blocks that stay
  idempotent forever), resolved from the kernel on first read unless
  given to the constructor, and
* saved-context bookkeeping for context switching.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.kernel import Kernel


class TBState(enum.Enum):
    """Lifecycle of a thread block."""

    PENDING = "pending"        # never dispatched, or flushed back
    RUNNING = "running"        # resident and progressing on an SM
    LOADING = "loading"        # resident, context restore DMA in flight
    FROZEN = "frozen"          # resident but halted (context save in flight)
    SAVED = "saved"            # context switched out, waiting to resume
    DONE = "done"              # finished execution


class ThreadBlock:
    """One thread block of a kernel instance."""

    __slots__ = (
        "kernel", "index", "total_insts", "rate", "_nonidem_at",
        "state", "executed_insts", "executed_cycles", "flush_count",
        "_last_advance", "dispatch_time", "finish_time",
    )

    def __init__(self, kernel: "Kernel", index: int, total_insts: float,
                 rate: float, nonidem_at: Optional[float] = None):
        if total_insts <= 0:
            raise SimulationError(f"TB {index}: total_insts must be positive")
        if rate <= 0:
            raise SimulationError(f"TB {index}: rate must be positive")
        self.kernel = kernel
        self.index = index
        self.total_insts = total_insts
        self.rate = rate
        #: Backs :attr:`nonidem_at`; None until first read.
        self._nonidem_at = nonidem_at
        self.state = TBState.PENDING
        self.executed_insts = 0.0
        self.executed_cycles = 0.0
        self.flush_count = 0
        self._last_advance: Optional[float] = None
        self.dispatch_time: Optional[float] = None
        self.finish_time: Optional[float] = None

    # ------------------------------------------------------------------
    # progress
    # ------------------------------------------------------------------

    @property
    def remaining_insts(self) -> float:
        """Instructions left to execute."""
        return max(0.0, self.total_insts - self.executed_insts)

    @property
    def remaining_cycles(self) -> float:
        """Cycles to completion at the block's progress rate."""
        return self.remaining_insts / self.rate

    @property
    def progress_fraction(self) -> float:
        """Executed fraction of the block's work."""
        return min(1.0, self.executed_insts / self.total_insts)

    @property
    def nonidem_at(self) -> float:
        """Instruction count at which the block becomes non-idempotent."""
        at = self._nonidem_at
        if at is None:
            at = self._nonidem_at = self.kernel.nonidem_point(self.index)
        return at

    @nonidem_at.setter
    def nonidem_at(self, value: float) -> None:
        self._nonidem_at = value

    @property
    def idempotent_now(self) -> bool:
        """Relaxed idempotence: true until the first non-idempotent
        instruction has executed."""
        return self.executed_insts < self.nonidem_at

    @property
    def context_bytes(self) -> int:
        """Context footprint of this block (from the spec)."""
        return self.kernel.spec.context_bytes_per_tb

    def start_running(self, now: float) -> None:
        """Begin (or resume) progressing at ``now``."""
        if self.state in (TBState.DONE,):
            raise SimulationError(f"TB {self.index} already done")
        self.state = TBState.RUNNING
        self._last_advance = now
        if self.dispatch_time is None:
            self.dispatch_time = now

    def halt(self, now: float) -> None:
        """Stop progressing (context save about to start)."""
        self.advance_to(now)
        self.state = TBState.FROZEN
        self._last_advance = None

    def advance_to(self, now: float) -> None:
        """Account progress up to ``now`` if currently running."""
        if self.state is not TBState.RUNNING or self._last_advance is None:
            return
        dt = now - self._last_advance
        if dt < 0:
            raise SimulationError(
                f"TB {self.index}: time went backwards ({self._last_advance} -> {now})")
        self.executed_insts = min(self.total_insts, self.executed_insts + dt * self.rate)
        self.executed_cycles += dt
        self._last_advance = now

    def completion_delay(self) -> float:
        """Cycles from the last advance point until completion."""
        if self.state is not TBState.RUNNING:
            raise SimulationError(f"TB {self.index} not running")
        return self.remaining_cycles

    def mark_done(self, now: float) -> None:
        """Finalize the block at its completion time."""
        self.advance_to(now)
        self.executed_insts = self.total_insts
        self.state = TBState.DONE
        self.finish_time = now
        self._last_advance = None

    # ------------------------------------------------------------------
    # preemption transitions
    # ------------------------------------------------------------------

    def flush(self, now: float) -> float:
        """Drop all progress; returns the number of discarded
        instructions. The block goes back to PENDING and will rerun
        from scratch with identical parameters (idempotent re-execution
        is deterministic)."""
        self.advance_to(now)
        if not self.idempotent_now:
            raise SimulationError(
                f"TB {self.index} flushed past its non-idempotent point")
        discarded = self.executed_insts
        self.executed_insts = 0.0
        self.executed_cycles = 0.0
        self.flush_count += 1
        self.state = TBState.PENDING
        self._last_advance = None
        self.dispatch_time = None
        return discarded

    def save_context(self, now: float) -> None:
        """Finish a context save: the block leaves the SM with progress
        intact and waits in the preempted queue."""
        if self.state is not TBState.FROZEN:
            raise SimulationError(f"TB {self.index}: save without halt")
        self.state = TBState.SAVED
        del now  # kept for signature symmetry; progress already halted

    def begin_load(self, now: float) -> None:
        """Start a context-restore DMA on a new SM."""
        if self.state is not TBState.SAVED:
            raise SimulationError(f"TB {self.index}: load without saved context")
        self.state = TBState.LOADING
        self._last_advance = None
        del now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<TB {self.kernel.name}#{self.index} {self.state.value} "
                f"{self.executed_insts:.0f}/{self.total_insts:.0f}>")
