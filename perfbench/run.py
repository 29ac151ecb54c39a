"""The repository's benchmark: one command for the three entry points.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload figure-sweep --seed 1 --seconds 40 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists;
``BENCHMARK.json`` gates ``figure-sweep`` and ``daemon-exec``):

* ``figure-sweep``  -- paper-figure specs run serially through
  ``SweepRunner.run`` (one job, cache off);
* ``daemon-exec``   -- open-loop submissions of distinct single-spec
  jobs to a daemon process, executed in its process pool;
* ``traffic-serve`` -- the three-tenant traffic mix replayed through
  ``run_traffic`` (not gated);
* ``daemon-hits``   -- the daemon generator with cache-hit jobs (not
  gated).

``--trace 0`` measures the end-to-end metrics with no wrapper
installed. ``--trace 1`` measures the same workload untraced and then
traced, half of ``--seconds`` each, and reports the per-layer metrics
with the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
full record (host facts, every metric, checks). Each record is also
appended to ``.perfbench/records.jsonl``. The exit code is 1 when any
output check failed, or when a traced run's layer self times and
untimed remainder do not add up to its wall time.

Seeds: the default seed is 1. Seed 9001 is held back: no tuning run
uses it, so a later performance claim can be checked on it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    ROOT,
    WORK_DIR,
    host_facts,
    load_json,
    median,
    peak_rss_mb,
    percentile,
    use_source_tree,
)
from spans import PER_LAYER, SELF_TIME_METRICS, layer_unit

DEFAULT_SEED = 1
WORKLOAD_NAMES = ("figure-sweep", "traffic-serve", "daemon-hits",
                  "daemon-exec")
#: Set-up is measured this many times per run; the median is reported.
SETUP_REPEATS = 5
#: Largest |layer self times + untimed remainder - wall time| a traced
#: run may show, as a share of the wall time (float rounding only).
ACCOUNTING_TOLERANCE = 1e-9
DIGESTS = BENCH_DIR / "digests.json"

UNITS = {
    "setup_s": "s", "peak_rss_mb": "MiB", "specs_per_s": "1/s",
    "arrivals_per_s": "1/s", "job_ms.p50": "ms", "job_ms.p90": "ms",
    # In the record only; README.md says why each is not in BENCHMARK.json.
    "spec_ms.p50": "ms", "spec_ms.p90": "ms",
    "sim_violation_rate": "ratio", "sim_slo_attainment": "ratio",
    "failed_frac": "ratio",
}


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Imports and input generation, as a fresh process pays them."""
    use_source_tree()
    import inproc
    inproc.WORKLOADS[workload][0](seed)


def measure_setup(workload: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls the child with sleeps of
        # up to 50 ms, and every probe reads late by up to that much.
        subprocess.run([sys.executable, str(BENCH_DIR / "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--setup-probe"], check=True, cwd=str(ROOT))
        times.append(time.perf_counter() - t0)
    return times


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------


def inproc_metrics(raw: dict, setup: list) -> dict:
    job_ms = [s * 1000.0 for s in raw["job_s"]]
    spec_ms = [s * 1000.0 for s in raw["spec_s"]]
    attained = raw["sim_attainment"]
    attempted = raw["specs"]
    return {
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "specs_per_s": raw["specs"] / raw["calls_s"],
        "spec_ms.p50": percentile(spec_ms, 50),
        "spec_ms.p90": percentile(spec_ms, 90),
        "arrivals_per_s": raw["arrivals"] / raw["calls_s"],
        "sim_violation_rate": 1.0 - attained,
        "sim_slo_attainment": attained,
        "job_ms.p50": percentile(job_ms, 50),
        "job_ms.p90": percentile(job_ms, 90),
        "failed_frac": (raw["failed"] + raw["mismatches"]) / attempted,
    }


def run_inproc(args) -> dict:
    import inproc
    import spans

    setup = measure_setup(args.workload, args.seed)
    calls = inproc.WORKLOADS[args.workload][0](args.seed)
    recorded = load_json(DIGESTS, {}).get(args.workload, {}).get(
        str(args.seed))
    raw = inproc.run_cycles(args.workload, calls, args.measure_s,
                            reference=recorded, check_seed=args.seed)
    record = {"end_to_end": inproc_metrics(raw, setup),
              "samples": {"calls": raw["calls"], "specs": raw["specs"],
                          "cycles": raw["cycles"],
                          "sim_requests": raw["sim_requests"]},
              "setup_runs_s": setup,
              "checks": {"digest_source": ("recorded" if recorded
                                           else "first-cycle"),
                         "cycle_digest": raw["cycle_digest"],
                         "mismatches": raw["mismatches"]},
              "attempted": raw["specs"],
              "failed": raw["failed"] + raw["mismatches"]}
    if args.trace:
        rec = spans.Recorder()
        spans.install_sim(rec)
        try:
            traced = inproc.run_cycles(args.workload, calls, args.measure_s,
                                       rec=rec, reference=recorded,
                                       warm_up=False)
        finally:
            rec.uninstall()
        record["traced_end_to_end"] = inproc_metrics(traced, setup)
        record["per_layer"] = layer_metrics(
            rec, traced["wall_s"] * 1000.0,
            record["end_to_end"]["specs_per_s"] /
            record["traced_end_to_end"]["specs_per_s"] - 1.0,
            **{"core.wasted_insts_frac": traced["wasted_insts_frac"]})
        record["attempted"] += traced["specs"]
        record["failed"] += traced["failed"] + traced["mismatches"]
        record["checks"]["mismatches"] += traced["mismatches"]
        rec.dump(str(args.work / "spans.jsonl"))
    return record


# ----------------------------------------------------------------------
# per-layer metrics from spans
# ----------------------------------------------------------------------

def layer_metrics(rec, wall_ms: float, overhead_frac: float,
                  **extra) -> dict:
    """Per-layer metrics of one traced process. Self times are reported
    for every span name, so they and ``trace.untimed_ms`` add up to
    ``trace.wall_ms`` for the thread that drives the work."""
    totals = rec.totals()
    counters = rec.counters

    def t(name, key="self_ms"):
        return totals.get(name, {}).get(key, 0.0)

    events = counters.get("sim.engine.events", 0.0)
    tbs = counters.get("gpu.tb_completions", 0.0)
    fills = counters.get("sim.rng.fills", 0.0)
    gets = t("cache.get", "calls")
    out = {name: 0.0 for name in PER_LAYER}
    out.update({
        "sim.engine.events": events,
        "sim.engine.us_per_event": (t("sim.engine", "ms") * 1000.0 / events
                                    if events else 0.0),
        "sim.engine.self_ms": t("sim.engine"),
        "gpu.tb_completions": tbs,
        "gpu.us_per_tb": t("sim.engine") * 1000.0 / tbs if tbs else 0.0,
        "sim.rng.fills": fills,
        "sim.rng.values": counters.get("sim.rng.values", 0.0),
        "sim.rng.ms": t("sim.rng"),
        "sim.rng.small_fill_frac": (counters.get("sim.rng.small_fills", 0.0)
                                    / fills if fills else 0.0),
        "sched.partition.calls": t("sched.partition", "calls"),
        "sched.partition.ms": t("sched.partition"),
        "sched.launch.calls": t("sched.launch", "calls"),
        "sched.launch.ms": t("sched.launch"),
        "core.plan.calls": t("core.plan", "calls"),
        "core.plan.ms": t("core.plan"),
        "spec.self_ms": t("spec.execute"),
        "traffic.self_ms": t("traffic.run"),
        "sweep.self_ms": t("sweep.run"),
        "sweep.overhead_ms": (t("sweep.run", "ms")
                              - rec.child_ms("sweep.run", "spec.execute")),
        "cache.gets": gets,
        "cache.hit_ratio": counters.get("cache.hits", 0.0) / gets
        if gets else 0.0,
        "cache.get_ms": t("cache.get"),
        "cache.puts": t("cache.put", "calls"),
        "cache.put_ms": t("cache.put"),
        "trace.wall_ms": wall_ms,
        "trace.untimed_ms": wall_ms - rec.root_ms(),
        "trace.overhead_frac": overhead_frac,
    })
    out.update(extra)
    return out


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def contract_line(record: dict, names: list, section: str) -> dict:
    values = record[section]
    return {
        "correct": record["correct"],
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": values[name],
                           "unit": (UNITS.get(name) if section ==
                                    "end_to_end" else layer_unit(name))}
                    for name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true",
                        help="compute and store the digests of the given "
                             "seed's first cycle (in-process workloads)")
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    use_source_tree()
    spec = load_json(ROOT / "BENCHMARK.json", {})
    if args.seconds is None:
        args.seconds = float(spec.get("run_seconds", 20))
    if args.record_digests:
        return record_digests(args)

    # A traced run measures twice, untraced and then traced, within
    # the same --seconds.
    args.measure_s = args.seconds / 2 if args.trace else args.seconds
    facts = host_facts(args.seed, args.seconds, spec.get("run_seconds"))
    WORK_DIR.mkdir(exist_ok=True)
    args.work = WORK_DIR / f"run-{args.workload}-{args.seed}-{time.time_ns()}"
    args.work.mkdir()
    try:
        if args.workload in ("figure-sweep", "traffic-serve"):
            record = run_inproc(args)
        else:
            import service
            record = service.run_service(args)
    finally:
        if not args.trace:
            shutil.rmtree(args.work, ignore_errors=True)
    checks = record["checks"]
    record["correct"] = checks["mismatches"] == 0
    if args.trace:
        layers = record["per_layer"]
        kind = "daemon" if args.workload.startswith("daemon") else "inproc"
        # Self times plus the untimed remainder must make the wall time.
        checks["trace_accounting_ms"] = (
            sum(layers[m] for m in SELF_TIME_METRICS[kind])
            + layers["trace.untimed_ms"] - layers["trace.wall_ms"])
        checks["trace_accounting_ok"] = (
            abs(checks["trace_accounting_ms"])
            <= ACCOUNTING_TOLERANCE * layers["trace.wall_ms"])
        record["correct"] = record["correct"] and checks["trace_accounting_ok"]
    record.update({"workload": args.workload, "trace": args.trace,
                   "host": facts})
    end_names = [m["name"] for m in spec.get("end_to_end", [])] or \
        [n for n in UNITS if n in record["end_to_end"]]
    layer_names = [m["name"] for m in spec.get("per_layer", [])] or \
        list(PER_LAYER)
    for name, value in record["end_to_end"].items():
        print(f"{name} = {value:.6g} {UNITS[name]}")
    for name, value in record.get("per_layer", {}).items():
        print(f"{name} = {value:.6g} {layer_unit(name)}")
    line = json.dumps(record, sort_keys=True, default=str)
    with open(WORK_DIR / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    if args.trace:
        print(json.dumps(contract_line(record, layer_names, "per_layer")))
    else:
        print(json.dumps(contract_line(record, end_names, "end_to_end")))
    return 0 if record["correct"] else 1


def record_digests(args) -> int:
    import inproc

    table = load_json(DIGESTS, {})
    calls = inproc.WORKLOADS[args.workload][0](args.seed)
    raw = inproc.run_cycles(args.workload, calls, 0.0)
    table.setdefault(args.workload, {})[str(args.seed)] = raw["call_digests"]
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload} seed {args.seed}: {raw['cycle_digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
