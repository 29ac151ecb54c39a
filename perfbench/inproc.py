"""The two in-process workloads: ``figure-sweep`` and ``traffic-serve``.

Both are closed loops with one caller. The seed generates a fixed
cycle of calls into the entry point; the timed loop runs one whole
cycle and then goes on through the cycle again until ``--seconds`` have
passed, so the time measured does not depend on how many whole cycles
fit. The calls of a cycle cost about the same (balanced sweep batches;
stratified traffic replays in shuffled order), so a partial cycle
measures the same mix. Each call's simulated result is digested; the
checks are listed in :func:`run_cycles`.
"""

from __future__ import annotations

import dataclasses
import enum
import os
import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import digest

# Both cycles are many small, independently seeded calls rather than a
# few large ones: the run-to-run spread across seeds comes from the
# inputs (burst positions, per-block instruction draws), and it shrinks
# with the number of independent draws a run makes.

#: Periods of each periodic spec (Figs. 6-9).
PERIODS = 1
#: Sets of simulation seeds (one per label and per LUD pair) per cycle.
SEED_SETS = 3
#: LUD's partners in the pair specs (Figs. 10/11): fixed, so every seed
#: runs the same mix of costs.
PAIR_PARTNERS = ("BP", "HS")
#: Instruction budget of each pair spec.
PAIR_BUDGET = 15e6
#: Scenario replays per traffic-serve cycle.
TRAFFIC_REPLAYS = 64
#: Arrival window and drain window of each replay, us.
TRAFFIC_HORIZON_US = 10_000.0
TRAFFIC_DRAIN_US = 10_000.0
#: Standalone duration each traffic kernel is sized to, us.
TARGET_KERNEL_US = 150.0
#: Candidate scenario seeds drawn per traffic scenario kept; see
#: :func:`stratified_seeds`.
TRAFFIC_CANDIDATES = 8
#: Calls of each run re-executed on the scalar fluid path after timing;
#: the program guarantees that path is bit-identical to the vector one.
SCALAR_CHECKS = 3


def plain(obj: Any) -> Any:
    """A JSON-able copy of a simulation result, for digests."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(plain(k)): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def figure_sweep_inputs(seed: int) -> List[Tuple[str, list]]:
    """Batches of specs, one ``SweepRunner.run`` call each.

    Each set of simulation seeds covers every Table 2 label as a
    periodic spec and LUD paired with each fixed partner, under each of
    the four policies, split into four batches of 16 specs. Batch ``j``
    runs label ``i`` under policy ``(i + j) mod 4``, so every batch mixes
    all policies and costs about the same as the others: the median of
    the batch times does not sit between two clusters of costs.
    """
    from repro.core.chimera import POLICY_NAMES
    from repro.harness.sweep import RunSpec
    from repro.workloads.multiprogram import MultiprogramWorkload
    from repro.workloads.specs import benchmark_labels

    rng = random.Random(f"figure-sweep:{seed}")
    n = len(POLICY_NAMES)
    batches: List[Tuple[str, list]] = []
    for rep in range(SEED_SETS):
        periodic = [(label, rng.randrange(1, 2 ** 31))
                    for label in benchmark_labels()]
        pairs = [(MultiprogramWorkload(("LUD", partner), PAIR_BUDGET),
                  rng.randrange(1, 2 ** 31)) for partner in PAIR_PARTNERS]
        for j in range(n):
            specs = [RunSpec.periodic(label, POLICY_NAMES[(i + j) % n],
                                      periods=PERIODS, seed=s)
                     for i, (label, s) in enumerate(periodic)]
            specs += [RunSpec.pair(workload, POLICY_NAMES[(i + j) % n],
                                   seed=s)
                      for i, (workload, s) in enumerate(pairs)]
            batches.append((f"batch:{rep}:{j}", specs))
    rng.shuffle(batches)
    return batches


def traffic_config():
    from repro.gpu.config import GPUConfig
    return GPUConfig(num_sms=8, num_memory_partitions=2,
                     memory_bandwidth_gbps=177.4 * 8 / 30)


def traffic_tenants():
    """The three-tenant Poisson / diurnal / bursty serving mix."""
    from repro.workloads.traffic import ArrivalSpec, TenantSpec
    return (
        TenantSpec(name="web", mix="table2-short", priority=2,
                   slo_us=3_000.0,
                   arrival=ArrivalSpec(kind="poisson", rate_per_s=3_000.0)),
        TenantSpec(name="day", mix="dl-infer", priority=1, slo_us=5_000.0,
                   arrival=ArrivalSpec(kind="diurnal", rate_per_s=1_500.0,
                                       amplitude=0.8, period_us=30_000.0)),
        TenantSpec(name="batch", mix="dl-train", priority=0,
                   slo_us=10_000.0,
                   arrival=ArrivalSpec(kind="bursty", rate_per_s=1_000.0,
                                       burst_factor=6.0)),
    )


def scenario_tbs(scenario, seed: int) -> int:
    """Thread blocks the replay of ``scenario`` under ``seed`` launches:
    a replay's host time follows this count closely (correlation 0.92
    over 80 seeds of the daemon jobs' 2 ms window, against 0.73 for the
    arrival count)."""
    from repro.workloads.specs import kernel_spec
    from repro.workloads.synthetic import SyntheticKernelFactory

    factory = SyntheticKernelFactory(traffic_config(), None,
                                     target_kernel_us=TARGET_KERNEL_US)
    return sum(factory.grid_for(kernel_spec(a.kernel))
               for a in scenario.stream(seed))


def stratified_seeds(rng: random.Random, scenario, n: int) -> List[int]:
    """``n`` scenario seeds, a sample stratified by launched thread
    blocks.

    A replay's cost follows the thread blocks it launches, which vary
    by a factor of three or more between scenario seeds. So draw
    ``TRAFFIC_CANDIDATES`` candidates per seed wanted, order them by
    :func:`scenario_tbs`, and keep the middle candidate of each
    consecutive group. Every sample then holds the same quantiles of
    the cost distribution, whatever the seed of ``rng``.
    """
    candidates = [rng.randrange(1, 2 ** 31)
                  for _ in range(n * TRAFFIC_CANDIDATES)]
    ranked = sorted(range(len(candidates)),
                    key=lambda i: (scenario_tbs(scenario, candidates[i]), i))
    picks = [candidates[i] for i in
             ranked[TRAFFIC_CANDIDATES // 2::TRAFFIC_CANDIDATES]]
    rng.shuffle(picks)
    return picks


def traffic_serve_inputs(seed: int) -> List[Tuple[str, dict]]:
    """Scenario replays: the same tenant mix under ``chimera`` on 8 SMs,
    each replay with its own scenario seed (stratified by launched
    thread blocks)."""
    from repro.harness.scenario import ScenarioSpec

    rng = random.Random(f"traffic-serve:{seed}")
    scenario = ScenarioSpec(tenants=traffic_tenants(),
                            horizon_us=TRAFFIC_HORIZON_US,
                            drain_us=TRAFFIC_DRAIN_US)
    config = traffic_config()
    return [(f"replay:{sim_seed}", dict(
        scenario=scenario, policy_name="chimera", seed=sim_seed,
        config=config, target_kernel_us=TARGET_KERNEL_US))
        for sim_seed in stratified_seeds(rng, scenario, TRAFFIC_REPLAYS)]


# ----------------------------------------------------------------------
# one call into each entry point
# ----------------------------------------------------------------------


def _duration_log_cache():
    """A disabled result cache that keeps the per-spec wall times the
    sweep runner reports to it (the runner's own ``execute_timed``
    measurement), so the untraced run needs no wrapper."""
    from repro.harness.cache import ResultCache

    class DurationLog(ResultCache):
        def __init__(self) -> None:
            super().__init__(enabled=False)
            self.durations: List[float] = []

        def put(self, key: str, result: Any, duration_s: float) -> None:
            self.durations.append(duration_s)
            super().put(key, result, duration_s)

    return DurationLog()


def sweep_call(specs: list, rec) -> Dict[str, Any]:
    """One ``SweepRunner.run`` over a batch: one job, cache off."""
    from repro.harness.sweep import SweepRunner

    cache = _duration_log_cache()
    start = time.perf_counter()
    runner = SweepRunner(jobs=1, cache=cache, strict=False)
    results = runner.run(specs)
    wall = time.perf_counter() - start
    failed = sum(1 for r in results if not hasattr(r, "qos"))
    requests = violations = 0
    wasted = insts = 0.0
    for r in results:
        v = getattr(r, "violations", None)
        if v is not None:
            requests += v.requests
            violations += v.violations
            wasted += r.wasted_insts
            insts += r.wasted_insts + r.useful_insts
        elif hasattr(r, "wasted_insts"):
            wasted += sum(r.wasted_insts.values())
            insts += sum(r.wasted_insts.values()) + sum(
                r.useful_insts.values())
    return {"digest": digest([plain(r) for r in results]), "wall": wall,
            "specs": len(specs), "failed": failed,
            "spec_s": cache.durations,
            "arrivals": requests, "met": requests - violations,
            "wasted_insts": wasted, "insts": insts}


def traffic_call(kwargs: dict, rec) -> Dict[str, Any]:
    """One ``run_traffic`` replay."""
    from repro.harness.scenario import run_traffic

    start = time.perf_counter()
    if rec is None:
        result = run_traffic(**kwargs)
    else:
        with rec.span("traffic.run", corr=f"seed:{kwargs['seed']}"):
            result = run_traffic(**kwargs)
    wall = time.perf_counter() - start
    slo = result.slo
    return {"digest": digest(plain(result)), "wall": wall, "specs": 1,
            "failed": 0, "spec_s": [wall],
            "arrivals": slo["arrivals"], "met": slo["met"],
            "wasted_insts": 0.0, "insts": 0.0}


WORKLOADS: Dict[str, Tuple[Callable, Callable]] = {
    "figure-sweep": (figure_sweep_inputs, sweep_call),
    "traffic-serve": (traffic_serve_inputs, traffic_call),
}


# ----------------------------------------------------------------------
# the timed loop
# ----------------------------------------------------------------------


def run_cycles(workload: str, calls: list, seconds: float, rec=None,
               reference: Optional[List[str]] = None,
               check_seed: Optional[int] = None,
               warm_up: bool = True) -> Dict[str, Any]:
    """Run the cycle of calls once, then on until ``seconds`` have
    passed; returns raw measurements and the number of calls whose
    digest disagreed.

    Unless ``warm_up`` is false (the process is already warm), the first
    call runs once untimed before timing, so lazy imports and
    first-call costs stay outside the measurement. Every call must
    reproduce ``reference`` (the digests recorded for the seed) when
    given, and in any case the first cycle's digests. With
    ``check_seed``, a few calls chosen from it are re-executed after
    timing on the scalar fluid path and must reproduce the timed
    digests.
    """
    from repro import vector

    call = WORKLOADS[workload][1]
    warm = call(calls[0][1], None)["digest"] if warm_up else None
    first: List[Dict[str, Any]] = []
    job_s: List[float] = []
    spec_s: List[float] = []
    specs = arrivals = failed = mismatches = done = 0
    # A busy thread stays on one CPU, and on a shared host each CPU has
    # its own fast and slow stretches; moving to the next CPU before
    # every call makes one run sample all the CPUs it may use (where the
    # platform lets a process choose its CPU).
    cpus = (sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_setaffinity") else [])
    start = time.perf_counter()
    try:
        while done < len(calls) or time.perf_counter() - start < seconds:
            i = done % len(calls)
            if cpus:
                os.sched_setaffinity(0, {cpus[done % len(cpus)]})
            out = call(calls[i][1], rec)
            job_s.append(out["wall"])
            spec_s.extend(out["spec_s"])
            specs += out["specs"]
            arrivals += out["arrivals"]
            failed += out["failed"]
            if done < len(calls):
                first.append(out)
            if out["digest"] != first[i]["digest"] or (
                    reference is not None and out["digest"] != reference[i]):
                mismatches += 1
            done += 1
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)
    elapsed = time.perf_counter() - start
    mismatches += warm is not None and warm != first[0]["digest"]
    if check_seed is not None:
        picks = random.Random(f"scalar:{check_seed}").sample(
            range(len(calls)), min(SCALAR_CHECKS, len(calls)))
        vector.set_vector_override(False)
        try:
            for i in picks:
                mismatches += (call(calls[i][1], None)["digest"]
                               != first[i]["digest"])
        finally:
            vector.set_vector_override(None)
    requests = sum(o["arrivals"] for o in first)
    met = sum(o["met"] for o in first)
    insts = sum(o["insts"] for o in first)
    # Throughput counts the entry-point calls only; the loop's own
    # bookkeeping (digests) is the traced run's untimed remainder.
    return {
        "wall_s": elapsed, "calls_s": sum(job_s),
        "cycles": done / len(calls),
        "calls": len(job_s),
        "specs": specs, "failed": failed, "mismatches": mismatches,
        "job_s": job_s, "spec_s": spec_s, "arrivals": arrivals,
        "call_digests": [o["digest"] for o in first],
        "cycle_digest": digest([o["digest"] for o in first]),
        "sim_requests": requests,
        "sim_attainment": met / requests if requests else float("nan"),
        "wasted_insts_frac": (sum(o["wasted_insts"] for o in first) / insts
                              if insts else 0.0),
    }
