"""The paper's headline result: ANTT and STP improvements averaged over
*all* two-benchmark combinations (abstract / §4.4 closing: 5.5x ANTT,
12.2% STP for Chimera).

Runs FCFS + Chimera for every unordered pair of the 14 benchmarks
(91 pairs), reusing cached solo runs. LUD combinations improve the most
(many preemption requests); other combinations improve less — exactly
the paper's observation. Limit the sweep with
``CHIMERA_BENCH_MAX_PAIRS`` when iterating.
"""

from __future__ import annotations

import time

from benchmarks.conftest import BUDGET, SEED, once, record_timing, write_result
from repro import settings
from repro.harness.experiments import case_study_sweep
from repro.metrics.report import format_percent, format_table
from repro.workloads.multiprogram import all_pairs

MAX_PAIRS = settings.get("CHIMERA_BENCH_MAX_PAIRS")


def _geomean(values):
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def _run_all_pairs(runner):
    workloads = all_pairs(budget_insts=BUDGET)[:MAX_PAIRS]
    start = time.perf_counter()
    results = case_study_sweep(workloads, policies=("chimera",), seed=SEED,
                               runner=runner)
    record_timing("allpairs", time.perf_counter() - start, runner.last_stats)
    return results


def test_all_combinations_headline(benchmark, sweep_runner):
    results = once(benchmark, lambda: _run_all_pairs(sweep_runner))
    antt_improvements = [r.antt_improvement("chimera")
                         for r in results.values()]
    stp_improvements = [r.stp_improvement("chimera")
                        for r in results.values()]
    lud_antt = [r.antt_improvement("chimera")
                for name, r in results.items() if "LUD" in name]
    other_antt = [r.antt_improvement("chimera")
                  for name, r in results.items() if "LUD" not in name]

    geo = _geomean(antt_improvements)
    mean_stp = sum(stp_improvements) / len(stp_improvements)
    lines = [
        f"pairs evaluated            {len(results)}",
        f"ANTT improvement (geomean) {geo:.2f}x   (paper: 5.5x)",
        f"ANTT improvement (max)     {max(antt_improvements):.1f}x",
        f"STP improvement (mean)     {format_percent(mean_stp)}   "
        f"(paper: 12.2%)",
        f"STP improvement (min)      {format_percent(min(stp_improvements))}",
    ]
    worst = sorted(results.items(),
                   key=lambda kv: kv[1].antt_improvement("chimera"))
    rows = [[name, f"{r.antt_improvement('chimera'):.2f}x",
             format_percent(r.stp_improvement("chimera"))]
            for name, r in worst[:5] + worst[-5:]]
    table = "\n".join(lines) + "\n\n" + format_table(
        ["pair (5 worst / 5 best)", "ANTT impr", "STP impr"], rows)
    write_result("allpairs", table)

    # Headline shape: large average ANTT gain (paper 5.5x), positive
    # average STP gain (paper 12.2%), and no pair made dramatically
    # worse (the paper's Figure 11 axis also dips below zero: paying
    # preemption overhead on a long-block partner can cost throughput).
    assert geo > 2.0
    assert mean_stp > 0.0
    assert min(antt_improvements) > 0.8
    assert min(stp_improvements) > -0.25
    if lud_antt and other_antt:
        # LUD pairs generate the most preemption requests and gain the
        # most (paper §4.4's closing remark).
        assert _geomean(lud_antt) > _geomean(other_antt)
