"""Non-idempotent points are drawn on first read, bit-identically.

A kernel reserves a window of its label's Beta sequence at construction
(:meth:`~repro.sim.rng.RngStreams.beta_window`) and a block's point is
drawn only when something reads it. These tests pin that the values are
exactly those of one eager ``beta_batch`` over every reserved window,
whatever the read order and whichever fill path runs; that unread
windows leave the stream untouched; and that a finished kernel's window
keeps no values.
"""

from __future__ import annotations

import pytest

from repro import vector as vector_mode
from repro.errors import SimulationError
from repro.gpu.kernel import Kernel
from repro.harness.runner import run_pair, run_periodic
from repro.sim import trace as T
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer
from repro.workloads.multiprogram import MultiprogramWorkload
from tests.conftest import make_spec

SEED = 31
BETA = (20.0, 1.0)
NAME = "idem:TK.0"
#: Larger than the vector gate (512), so a whole-window fill is numpy's.
G1, G2 = 600, 700


def _two_kernels():
    spec = make_spec(idempotent=False, nonidem_beta=BETA, tb_cv=0.3)
    rng = RngStreams(SEED)
    first, second = Kernel(spec, G1, rng), Kernel(spec, G2, rng)
    return ([first.make_tb() for _ in range(G1)],
            [second.make_tb() for _ in range(G2)])


def _orders(g1, g2):
    """Read orders as (kernel 0 or 1, block index) pairs."""
    backwards = [(0, i) for i in reversed(range(g1))] + \
                [(1, i) for i in reversed(range(g2))]
    interleaved = []
    for i in range(max(g1, g2)):
        if i < g2:
            interleaved.append((1, g2 - 1 - i))
        if i < g1:
            interleaved.append((0, i))
    # Small forward steps into the second window, then the first one
    # backwards: partial fills, then reads of already-drawn values.
    sparse = [(1, 3), (1, 4), (1, 50), (1, 51)] + \
             [(0, i) for i in reversed(range(g1))] + \
             [(1, i) for i in range(g2)]
    return {"reverse": backwards, "interleaved": interleaved,
            "sparse": sparse}


@pytest.fixture(params=[True, False], ids=["vector", "scalar"])
def vector(request):
    vector_mode.set_vector_override(request.param)
    yield request.param
    vector_mode.set_vector_override(None)


class TestWindowValues:
    @pytest.mark.parametrize("order", ["reverse", "interleaved", "sparse"])
    def test_reads_match_one_eager_batch(self, vector, order):
        eager = RngStreams(SEED).beta_batch(NAME, *BETA, G1 + G2)
        expected = (eager[:G1], eager[G1:])
        blocks = _two_kernels()
        for which, index in _orders(G1, G2)[order]:
            tb = blocks[which][index]
            assert tb.nonidem_at == expected[which][index] * tb.total_insts
        for which in (0, 1):
            assert blocks[which][0].kernel._nonidem_fracs.values == \
                expected[which]

    def test_unread_kernel_leaves_its_stream_untouched(self):
        spec = make_spec(idempotent=False, nonidem_beta=BETA)
        rng = RngStreams(SEED)
        kernel = Kernel(spec, G1, rng)
        for _ in range(G1):
            kernel.make_tb()
        kernel.mark_finished(0.0)
        assert rng.stream(NAME).getstate() == \
            RngStreams(SEED).stream(NAME).getstate()


class TestRelease:
    def test_finished_kernel_window_holds_no_values(self):
        blocks = _two_kernels()
        first, second = blocks[0][0].kernel, blocks[1][0].kernel
        blocks[0][10].nonidem_at  # draws positions 0..10
        first.mark_finished(0.0)
        assert first._nonidem_fracs.values is None
        with pytest.raises(SimulationError):
            blocks[0][11].nonidem_at
        # The released window's undrawn tail is still drawn, then dropped,
        # before the second window's values.
        eager = RngStreams(SEED).beta_batch(NAME, *BETA, G1 + G2)
        tb = blocks[1][5]
        assert tb.nonidem_at == eager[G1 + 5] * tb.total_insts
        assert first._nonidem_fracs.values is None
        second.mark_finished(0.0)
        assert second._nonidem_fracs.values is None


def _traced_flush_run(monkeypatch, kind):
    """A traced run under ``flush``, with every kernel it created, in
    creation order: the LUD+BP pair, or periodic BT, whose flushed
    blocks include a second execution's kernel (a window past the
    first of its label)."""
    kernels = []
    init = Kernel.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        kernels.append(self)

    monkeypatch.setattr(Kernel, "__init__", recording_init)
    tracer = Tracer(capacity=1_000_000)
    if kind == "pair":
        run_pair(MultiprogramWorkload(("LUD", "BP"), 4e6), "flush", seed=5,
                 tracer=tracer)
    else:
        run_periodic("BT", "flush", periods=3, seed=5, tracer=tracer)
    return tracer, kernels


@pytest.mark.parametrize("kind", ["pair", "periodic"])
class TestTracedRun:
    def test_flush_records_carry_the_eager_point(self, monkeypatch, kind):
        tracer, kernels = _traced_flush_run(monkeypatch, kind)
        by_name = {k.name: k for k in kernels}
        # Each label's windows lie back to back in creation order.
        starts = {}
        reserved = {}
        for k in kernels:
            if not k.spec.idempotent:
                label = k.spec.label
                starts[k.name] = reserved.get(label, 0)
                reserved[label] = starts[k.name] + k.grid_tbs
        assert len({id(k._rng) for k in kernels}) == 1
        seed = kernels[0]._rng.root_seed
        eager = {}
        flushes = [r for r in tracer.records
                   if r.category == T.FLUSH and "nonidem_at" in r.payload]
        assert flushes, "scenario no longer flushes non-idempotent blocks"
        for record in flushes:
            kernel = by_name[record.payload["kernel"]]
            label = kernel.spec.label
            if label not in eager:
                eager[label] = RngStreams(seed).beta_batch(
                    f"idem:{label}", *kernel.spec.nonidem_beta,
                    reserved[label])
            index = record.payload["tb"]
            frac = eager[label][starts[kernel.name] + index]
            assert record.payload["nonidem_at"] == \
                frac * kernel._tb_totals[index]
        if kind == "periodic":
            assert any(starts[r.payload["kernel"]] > 0 for r in flushes)

    def test_finished_kernels_release_their_windows(self, monkeypatch, kind):
        _, kernels = _traced_flush_run(monkeypatch, kind)
        finished = [k for k in kernels if k.finish_time is not None
                    and not k.spec.idempotent]
        assert finished
        for kernel in finished:
            assert kernel._nonidem_fracs.values is None
