"""Differential property tests: event-driven vs lockstep cycle engine.

The fast-forward rewrite must be *bit-identical* to per-cycle polling:
random kernel programs (ALU mixes, bounded loops, tid-dependent
divergence, barriers, atomics, MARK instrumentation) are run under

* ``CycleGPU`` lockstep vs ``CycleGPU`` fast-forward, with random
  external ``try_flush`` schedules poking the device mid-run, and
* ``WarpLevelSM`` with ``fast_forward`` on vs off,

asserting identical result aggregates, identical final global memory,
identical flush grant/deny decisions and identical mailbox-notification
order. A roofline cross-check closes the loop with ``smsim``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functional.gpusim import CycleGPU
from repro.functional.machine import GlobalMemory
from repro.functional.smsim import cross_validate
from repro.functional.warpsim import SchedulerKind, WarpLevelSM
from repro.idempotence.kernels import (
    all_sample_kernels,
    block_reduce_sum,
    compact_nonzero,
    histogram_atomic,
    vector_add,
)
from repro.idempotence.ir import Op, program

TPB = 16

SCHEDULERS = (SchedulerKind.ROUND_ROBIN, SchedulerKind.GREEDY_THEN_OLDEST)


# ----------------------------------------------------------------------
# Random-program strategy
# ----------------------------------------------------------------------

_ALU_OPS = (Op.ADD, Op.SUB, Op.MUL, Op.MIN, Op.MAX, Op.XOR, Op.AND)


@st.composite
def random_kernels(draw):
    """A random structured kernel: prologue computing a safe global
    index, then segments of ALU ops, global/shared traffic, uniform
    bounded loops, tid-parity divergence, barriers and MARKs.

    Every generated program terminates and stays in bounds: addresses
    are ``idx`` (the thread's unique global index) into buffers sized
    for the whole grid, loop bounds are immediates, and barriers are
    emitted outside divergent regions so all live warps reach them.
    """
    n = draw(st.sampled_from([32, 48, 64]))
    num_segments = draw(st.integers(min_value=1, max_value=4))
    b = (
        program("random_kernel", num_regs=16, shared_words=TPB)
        .buffer("data", n).buffer("out", n).buffer("acc", 8)
        .tid(0).ctaid(1).ntid(2)
        .alu(Op.MUL, 3, 1, 2)
        .alu(Op.ADD, 3, 3, 0)       # r3 = idx
        .movi(6, 1)                  # r6 = 1
        .emit(Op.MOV, dst=4, src0=3)
    )
    uid = 0
    for _ in range(num_segments):
        kind = draw(st.sampled_from(
            ["alu", "load", "store", "loop", "diverge", "barrier",
             "atomic", "shared", "mark"]))
        if kind == "alu":
            op = draw(st.sampled_from(_ALU_OPS))
            b = b.alu(op, 4, 4, draw(st.sampled_from([0, 3, 6])))
        elif kind == "load":
            b = b.ldg(5, "data", 3)
            b = b.alu(Op.ADD, 4, 4, 5)
        elif kind == "store":
            b = b.stg("out", 3, 4)
        elif kind == "loop":
            iters = draw(st.integers(min_value=1, max_value=4))
            label = f"loop{uid}"
            uid += 1
            b = b.movi(7, iters).label(label)
            b = b.ldg(5, "data", 3)
            b = b.alu(Op.ADD, 4, 4, 5)
            b = b.alu(Op.SUB, 7, 7, 6)
            b = b.cbra(7, label)
        elif kind == "diverge":
            # Odd tids take an extra-work path, then control reconverges.
            skip = f"skip{uid}"
            uid += 1
            b = b.movi(8, 2).alu(Op.MOD, 9, 0, 8)
            b = b.cbra(9, f"odd{uid}")
            b = b.alu(Op.ADD, 4, 4, 6)
            b = b.bra(skip)
            b = b.label(f"odd{uid}")
            b = b.ldg(5, "data", 3)
            b = b.alu(Op.XOR, 4, 4, 5)
            b = b.label(skip)
        elif kind == "barrier":
            b = b.sts(0, 4).bar().lds(5, 0)
            b = b.alu(Op.ADD, 4, 4, 5)
        elif kind == "atomic":
            b = b.movi(8, 8).alu(Op.MOD, 9, 0, 8)
            b = b.atom(10, "acc", 9, 6)
        elif kind == "shared":
            b = b.sts(0, 4).lds(5, 0)
        elif kind == "mark":
            b = b.emit(Op.MARK)
    b = b.stg("out", 3, 4).exit()
    prog = b.build()
    init = {"data": [draw(st.integers(0, 7)) for _ in range(n)]}
    return prog, n, init


def _gpu(prog, n, init, sched, lockstep, flushes=()):
    gmem = GlobalMemory(dict(prog.buffers), init=init)
    gpu = CycleGPU(prog, grid_blocks=n // TPB, threads_per_block=TPB,
                   num_sms=2, blocks_per_sm=2, scheduler=sched, gmem=gmem,
                   lockstep=lockstep)
    decisions = []
    for step_cycles, sm_id in flushes:
        gpu.step(step_cycles)
        if gpu.done:
            break
        decisions.append(gpu.try_flush(sm_id))
    if not gpu.done:
        gpu.run()
    return gpu, decisions


class TestCycleGPUDifferential:
    @settings(max_examples=30, deadline=None)
    @given(data=random_kernels(),
           sched=st.sampled_from(SCHEDULERS),
           flushes=st.lists(
               st.tuples(st.integers(min_value=1, max_value=800),
                         st.integers(min_value=0, max_value=1)),
               max_size=3))
    def test_lockstep_and_fast_forward_agree(self, data, sched, flushes):
        prog, n, init = data
        fast, fast_dec = _gpu(prog, n, init, sched, False, flushes)
        lock, lock_dec = _gpu(prog, n, init, sched, True, flushes)
        assert fast.result() == lock.result()
        assert fast.gmem == lock.gmem
        assert fast_dec == lock_dec
        assert fast.monitor.history == lock.monitor.history
        assert [s.cycle for s in fast.sms] == [s.cycle for s in lock.sms]
        assert ([s.idle_cycles for s in fast.sms]
                == [s.idle_cycles for s in lock.sms])


class TestWarpLevelSMDifferential:
    @settings(max_examples=30, deadline=None)
    @given(data=random_kernels(), sched=st.sampled_from(SCHEDULERS))
    def test_fast_forward_flag_is_invisible(self, data, sched):
        prog, n, init = data
        results = {}
        for ff in (False, True):
            gmem = GlobalMemory(dict(prog.buffers), init=init)
            sm = WarpLevelSM(prog, TPB, scheduler=sched, gmem=gmem,
                             fast_forward=ff)
            for block_id in range(n // TPB):
                sm.add_block(block_id)
            results[ff] = (sm.run(), gmem.snapshot())
        assert results[False] == results[True]

    def test_sample_kernels_agree(self):
        kernels = all_sample_kernels(n=64, threads_per_block=TPB,
                                     num_blocks=64 // TPB)
        for name, prog in kernels.items():
            for sched in SCHEDULERS:
                snaps = []
                for ff in (False, True):
                    gmem = GlobalMemory(dict(prog.buffers))
                    sm = WarpLevelSM(prog, TPB, scheduler=sched, gmem=gmem,
                                     fast_forward=ff)
                    for block_id in range(64 // TPB):
                        sm.add_block(block_id)
                    snaps.append((sm.run(), gmem.snapshot()))
                assert snaps[0] == snaps[1], (name, sched)


class TestRooflineCrossCheck:
    """The rewrite must not move the roofline agreement."""

    @pytest.mark.parametrize("make", [
        lambda: vector_add(128),
        lambda: block_reduce_sum(32, 4),
        lambda: compact_nonzero(128),
        lambda: histogram_atomic(128, 8),
    ])
    def test_clocked_still_matches_roofline(self, make):
        prog = make()
        for ff in (False, True):
            check = cross_validate(prog, 32, resident_blocks=4,
                                   fast_forward=ff)
            assert check.within(0.25, 4.0), (prog.name, ff, check.ratio)
        fast = cross_validate(prog, 32, resident_blocks=4, fast_forward=True)
        slow = cross_validate(prog, 32, resident_blocks=4, fast_forward=False)
        assert fast.clocked_cycles_per_block == slow.clocked_cycles_per_block


class TestEnvKnob:
    def test_lockstep_env_default(self, monkeypatch):
        monkeypatch.delenv("CHIMERA_CYCLE_LOCKSTEP", raising=False)
        gpu = CycleGPU(vector_add(32), 2, TPB)
        assert not gpu.lockstep
        monkeypatch.setenv("CHIMERA_CYCLE_LOCKSTEP", "1")
        gpu = CycleGPU(vector_add(32), 2, TPB)
        assert gpu.lockstep
        # Explicit argument beats the environment.
        gpu = CycleGPU(vector_add(32), 2, TPB, lockstep=False)
        assert not gpu.lockstep
