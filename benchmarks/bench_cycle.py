"""Cycle-engine benchmark regression: fast-forward vs lockstep.

Five scenarios spanning the cycle-level engine's behaviour space —
memory-bound (dependent pointer chase, 400-cycle stalls), ALU-bound
(always-ready warps, nothing to skip), barrier-heavy (tree reduction),
divergent (data-dependent branches + atomics), and flush-under-load
(external ``try_flush`` calls interleaved with ``step``) — each run
under both clock modes. Every scenario asserts **bit-identical**
results (cycles, per-SM instruction counts, flush decisions, final
global memory) between the synchronized fast-forward and the lockstep
path before recording wall-clock numbers.

Results land in machine-readable ``benchmarks/results/BENCH_cycle.json``
(wall_s, cycles/s and speedup per scenario) so the engine's performance
trajectory is tracked PR-over-PR like ``timings.json``.

Scale knobs:

* ``CHIMERA_BENCH_CYCLE_QUICK``  — shrink problem sizes for CI smoke
* ``CHIMERA_CYCLE_FAIL_BELOW``   — fail the memory-bound scenario if
  the fast path's speedup over lockstep drops below this factor
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Optional

from benchmarks.conftest import RESULTS_DIR
from repro import settings
from repro.functional.gpusim import CycleGPU
from repro.functional.machine import GlobalMemory
from repro.functional.warpsim import SchedulerKind
from repro.idempotence.analysis import analyze
from repro.idempotence.instrument import instrument
from repro.idempotence.ir import KernelProgram, Op, program
from repro.idempotence.kernels import (
    block_reduce_sum,
    compact_nonzero,
    late_writeback,
)

BENCH_PATH = RESULTS_DIR / "BENCH_cycle.json"

QUICK = settings.get("CHIMERA_BENCH_CYCLE_QUICK")

#: Threads per block everywhere (simt_width is 8 -> 2 warps/block).
TPB = 16


def pointer_chase(n: int, hops: int, unroll: int = 8) -> KernelProgram:
    """Each thread follows ``next[]`` for ``hops`` dependent loads.

    Dependent LDGs cannot overlap, so every hop is a full 400-cycle
    stall — the pure memory-bound worst case for a polling simulator.
    The chase is unrolled so stall cycles dominate loop bookkeeping.
    """
    if hops % unroll:
        raise ValueError("hops must be a multiple of unroll")
    b = (
        program("pointer_chase", num_regs=8)
        .buffer("next", n).buffer("out", n)
        .tid(0).ctaid(1).ntid(2)
        .alu(Op.MUL, 3, 1, 2)
        .alu(Op.ADD, 3, 3, 0)      # r3 = global index
        .emit(Op.MOV, dst=4, src0=3)
        .movi(5, hops // unroll)
        .movi(6, 1)
        .label("chase")
    )
    for _ in range(unroll):
        b = b.ldg(4, "next", 4)    # r4 = next[r4]
    return (
        b.alu(Op.SUB, 5, 5, 6)
        .cbra(5, "chase")
        .stg("out", 3, 4)
        .exit()
        .build()
    )


def _chase_init(n: int) -> Dict[str, list]:
    return {"next": [(i * 7 + 1) % n for i in range(n)]}


def _read_results() -> Dict[str, dict]:
    try:
        return json.loads(BENCH_PATH.read_text())
    except (FileNotFoundError, ValueError):
        return {}


def _record(name: str, entry: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    results = _read_results()
    results[name] = entry
    results["_meta"] = {"quick": QUICK, "tpb": TPB}
    BENCH_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


def _drive(gpu: CycleGPU, flush_schedule: Optional[list] = None) -> list:
    """Run ``gpu`` to completion, optionally poking try_flush along the
    way; returns the flush grant/deny decisions (part of bit-identity).
    """
    decisions = []
    if flush_schedule:
        for sm_id in flush_schedule:
            gpu.step(250)
            if gpu.done:
                break
            decisions.append(gpu.try_flush(sm_id))
    if not gpu.done:
        gpu.run()
    return decisions


def _bench(name: str, make_gpu: Callable[[bool], CycleGPU],
           flush_schedule: Optional[list] = None) -> float:
    """Time both clock modes, assert bit-identity, record, return the
    fast-over-lockstep speedup."""
    runs = {}
    for mode, lockstep in (("fast", False), ("lockstep", True)):
        gpu = make_gpu(lockstep)
        start = time.perf_counter()
        decisions = _drive(gpu, flush_schedule)
        wall = time.perf_counter() - start
        runs[mode] = {
            "result": gpu.result(),
            "memory": gpu.gmem.snapshot(),
            "decisions": decisions,
            "history": list(gpu.monitor.history),
            "wall_s": wall,
            "cycles": gpu.cycle,
        }
    fast, lock = runs["fast"], runs["lockstep"]
    assert fast["result"] == lock["result"], name
    assert fast["memory"] == lock["memory"], name
    assert fast["decisions"] == lock["decisions"], name
    assert fast["history"] == lock["history"], name
    speedup = lock["wall_s"] / max(fast["wall_s"], 1e-9)
    _record(name, {
        "cycles": fast["cycles"],
        "instructions": fast["result"].total_instructions,
        "fast_wall_s": round(fast["wall_s"], 4),
        "lockstep_wall_s": round(lock["wall_s"], 4),
        "fast_cycles_per_s": round(fast["cycles"] / max(fast["wall_s"], 1e-9)),
        "lockstep_cycles_per_s": round(
            lock["cycles"] / max(lock["wall_s"], 1e-9)),
        "speedup": round(speedup, 2),
    })
    return speedup


# ----------------------------------------------------------------------


def test_memory_bound(benchmark):
    # One warp per block (tpb == simt width): dependent loads stall the
    # whole device for ~400 cycles per hop with only four issue slots
    # per epoch — the configuration the synchronized skip targets.
    tpb = 8
    n = (16 if QUICK else 32) * tpb
    hops = 96 if QUICK else 768
    prog = pointer_chase(n, hops)
    init = _chase_init(n)

    def make(lockstep: bool) -> CycleGPU:
        gmem = GlobalMemory(dict(prog.buffers), init=init)
        return CycleGPU(prog, grid_blocks=n // tpb, threads_per_block=tpb,
                        num_sms=4, blocks_per_sm=1, gmem=gmem,
                        lockstep=lockstep)

    speedup = benchmark.pedantic(lambda: _bench("memory_bound", make),
                                 rounds=1, iterations=1)
    floor = settings.get("CHIMERA_CYCLE_FAIL_BELOW")
    if floor is not None:
        assert speedup >= floor, (
            f"memory-bound fast path only {speedup:.1f}x lockstep "
            f"(floor {floor:g}x)")


def test_alu_bound(benchmark):
    n = 8 * TPB if QUICK else 16 * TPB
    prog = late_writeback(n, loop_iters=64 if QUICK else 200)

    def make(lockstep: bool) -> CycleGPU:
        return CycleGPU(prog, grid_blocks=n // TPB, threads_per_block=TPB,
                        num_sms=4, blocks_per_sm=2, lockstep=lockstep)

    benchmark.pedantic(lambda: _bench("alu_bound", make),
                       rounds=1, iterations=1)


def test_barrier_heavy(benchmark):
    blocks = 16 if QUICK else 48
    prog = block_reduce_sum(TPB, blocks)

    def make(lockstep: bool) -> CycleGPU:
        return CycleGPU(prog, grid_blocks=blocks, threads_per_block=TPB,
                        num_sms=4, blocks_per_sm=2, lockstep=lockstep)

    benchmark.pedantic(lambda: _bench("barrier_heavy", make),
                       rounds=1, iterations=1)


def test_divergent(benchmark):
    n = 16 * TPB if QUICK else 32 * TPB
    prog = compact_nonzero(n)
    init = {"in": [i % 3 for i in range(n)]}

    def make(lockstep: bool) -> CycleGPU:
        gmem = GlobalMemory(dict(prog.buffers),
                            init={k: v for k, v in init.items()
                                  if k in prog.buffers})
        return CycleGPU(prog, grid_blocks=n // TPB, threads_per_block=TPB,
                        num_sms=4, blocks_per_sm=2,
                        scheduler=SchedulerKind.ROUND_ROBIN, gmem=gmem,
                        lockstep=lockstep)

    benchmark.pedantic(lambda: _bench("divergent", make),
                       rounds=1, iterations=1)


def test_flush_under_load(benchmark):
    n = 16 * TPB
    hops = 48 if QUICK else 192
    base = pointer_chase(n, hops)
    prog = instrument(base, analyze(base))  # MARK before the chase's STG
    init = _chase_init(n)
    # Alternate flush attempts across SMs; grants requeue whole blocks,
    # denials exercise the mailbox path. Deterministic by construction.
    schedule = [0, 1, 2, 3, 0, 2, 1, 3]

    def make(lockstep: bool) -> CycleGPU:
        gmem = GlobalMemory(dict(prog.buffers), init=init)
        return CycleGPU(prog, grid_blocks=n // TPB, threads_per_block=TPB,
                        num_sms=4, blocks_per_sm=1, gmem=gmem,
                        lockstep=lockstep)

    benchmark.pedantic(
        lambda: _bench("flush_under_load", make, flush_schedule=schedule),
        rounds=1, iterations=1)
