"""Every figure driver produces checker-clean traces.

Each paper-figure driver runs at miniature scale with ``CHIMERA_TRACE``
pointed at a temp directory; every captured per-spec JSONL must load,
carry its scenario identity, and pass the :class:`TraceChecker`.
(Figure 4 is analytic — :mod:`repro.core.estimates` runs no simulation
and so has no trace to check.)
"""

from __future__ import annotations

import pytest

from repro.harness.experiments import figure6_7, figure8, figure9, figure10_11
from repro import settings
from repro.harness.sweep import SweepRunner
from repro.sim.trace import load_jsonl
from repro.sim.trace_check import TraceChecker
from repro.workloads.multiprogram import MultiprogramWorkload

PERIODS = 2
BUDGET = 1.5e6


@pytest.fixture
def traced_runner(tmp_path, monkeypatch):
    """A serial runner capturing traces into a fresh directory."""
    trace_dir = tmp_path / "traces"
    monkeypatch.setenv("CHIMERA_TRACE", str(trace_dir))
    runner = SweepRunner(jobs=1)
    runner.cache.enabled = False
    return runner, trace_dir


def check_all(trace_dir, expected_specs):
    files = sorted(trace_dir.glob("*.jsonl"))
    assert len(files) == expected_specs, (
        f"expected {expected_specs} traces, found "
        f"{[f.name for f in files]}")
    for path in files:
        tracer = load_jsonl(path)
        assert tracer.records, f"{path.name} is empty"
        assert tracer.meta.get("spec"), f"{path.name} lacks spec identity"
        assert tracer.meta.get("clock_mhz")
        report = TraceChecker().check(tracer)
        assert report.ok, f"{path.name}:\n{report.summary()}"
    return files


def test_trace_dir_comes_from_env(traced_runner):
    _, trace_dir = traced_runner
    assert settings.get("CHIMERA_TRACE") == str(trace_dir)


def test_figure6_7_traces_are_clean(traced_runner):
    runner, trace_dir = traced_runner
    sweep = figure6_7(labels=["BS"], policies=["chimera", "drain"],
                      periods=PERIODS, runner=runner)
    assert sweep.complete
    check_all(trace_dir, expected_specs=2)


def test_figure8_traces_are_clean(traced_runner):
    runner, trace_dir = traced_runner
    out = figure8(labels=["BS"], constraints_us=(10.0, 15.0),
                  periods=PERIODS, runner=runner)
    assert set(out) == {10.0, 15.0}
    check_all(trace_dir, expected_specs=2)


def test_figure9_traces_are_clean(traced_runner):
    runner, trace_dir = traced_runner
    sweep = figure9(labels=["LUD"], periods=PERIODS, runner=runner)
    assert sweep.complete
    check_all(trace_dir, expected_specs=2)  # flush-strict + flush


def test_figure10_11_traces_are_clean(traced_runner):
    runner, trace_dir = traced_runner
    workload = MultiprogramWorkload(("LUD", "BS"), budget_insts=BUDGET)
    result = figure10_11(workload, policies=["chimera"], runner=runner)
    assert result.complete
    # Two solo baselines + FCFS pair + chimera pair.
    files = check_all(trace_dir, expected_specs=4)
    names = [f.name for f in files]
    assert any("solo" in n for n in names)
    assert any("pair" in n for n in names)


def test_cache_hits_skip_trace_capture(tmp_path, monkeypatch):
    """With the cache enabled, a replayed spec executes nothing and so
    writes no trace — the documented reason --trace disables the cache."""
    trace_dir = tmp_path / "traces"
    monkeypatch.setenv("CHIMERA_TRACE", str(trace_dir))
    runner = SweepRunner(jobs=1)
    runner.cache.enabled = True
    figure6_7(labels=["BS"], policies=["chimera"], periods=PERIODS,
              runner=runner)
    first = {p.name for p in trace_dir.glob("*.jsonl")}
    assert len(first) == 1
    for path in trace_dir.glob("*.jsonl"):
        path.unlink()
    figure6_7(labels=["BS"], policies=["chimera"], periods=PERIODS,
              runner=SweepRunner(jobs=1))  # fresh runner, warm disk cache
    assert not list(trace_dir.glob("*.jsonl"))
