"""The two daemon workloads: ``daemon-hits`` and ``daemon-exec``.

One generator (this process, one thread) submits single-spec jobs
through ``ServiceClient.submit`` on a seeded Poisson schedule to a
daemon running in its own process (``daemon_main.py``). The loop is
open: a job is submitted when it is due, however far behind the daemon
is, and its latency is timed from when it was due, so generator lag is
counted too. Nothing is polled while the schedule runs; completion
stamps are read from the journal after the daemon has drained and
exited. A run is a series of ``SEGMENT_S`` schedules, each served by
a fresh daemon; the metrics pool every segment's jobs, and set-up time
is the median of the segments' daemon start-ups.

Every job's spec is a small traffic scenario, so its merged result
carries an SLO report. Each completed job's merged result is checked
against the in-process summary of the same spec (the sim-vs-daemon
parity contract).
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import (
    BENCH_DIR,
    ROOT,
    median,
    nproc,
    percentile,
    quantile_summary,
)

#: daemon-hits: offered jobs/s.
HITS_RATE = 10.0
#: Distinct specs the cache-hit jobs draw from (warmed before timing).
HITS_POOL = 64
#: daemon-exec: offered jobs/s. A job executes in about 50 ms, so two
#: workers are about a fifth busy: a slow phase of a shared host does
#: not tip the queue over.
EXEC_RATE = 8.0
#: Arrival window of each job's traffic scenario, us.
JOB_HORIZON_US = 2_000.0
#: Schedule length of one segment, s. A run is a series of segments,
#: each with its own daemon on an empty service directory. Submit
#: replays the whole journal, so its cost grows with the journal: the
#: segment length, not the run length, fixes how far it grows, and a
#: longer run pools more segments of the same workload.
SEGMENT_S = 10.0
#: A generator more than this late on any submission flags the run.
LAG_FLAG_MS = 50.0


def mini_scenarios(rng: random.Random, n: int) -> list:
    """``n`` single-spec jobs: the traffic mix over a short window, with
    scenario seeds stratified by launched thread blocks, so the seed
    does not change the mix of job costs."""
    from inproc import (TARGET_KERNEL_US, stratified_seeds, traffic_config,
                        traffic_tenants)
    from repro.harness.scenario import ScenarioSpec
    from repro.harness.sweep import RunSpec

    scenario = ScenarioSpec(tenants=traffic_tenants(),
                            horizon_us=JOB_HORIZON_US, drain_us=10_000.0)
    return [RunSpec.traffic(scenario, policy="chimera", seed=seed,
                            config=traffic_config(),
                            target_kernel_us=TARGET_KERNEL_US)
            for seed in stratified_seeds(rng, scenario, n)]


def schedule(rng: random.Random, rate: float, seconds: float,
             prefix: str) -> List[Tuple[float, str]]:
    """Poisson due times (s from schedule start) with job ids: a Poisson
    process conditioned on ``rate * seconds`` arrivals, so every seed
    offers the same number of jobs."""
    count = max(1, round(rate * seconds))
    times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    return [(t, f"{prefix}-{i:05d}") for i, t in enumerate(times)]


def daemon_inputs(workload: str, seed: int, seconds: float) -> dict:
    """The offered rate, the jobs of each segment [(due_s, job_id, spec,
    priority)] and, for daemon-hits, the pool of specs whose results are
    cached."""
    rng = random.Random(f"{workload}:{seed}")
    count = max(1, round(seconds / SEGMENT_S))
    if workload == "daemon-hits":
        pool = mini_scenarios(rng, HITS_POOL)
        segments = [schedule(rng, HITS_RATE, seconds / count, f"h{k}")
                    for k in range(count)]
        jobs = sum(len(due) for due in segments)
        # Every pool spec is drawn equally often (in seeded order), so
        # the mix of cached results does not vary with the seed.
        picks = iter(rng.sample(pool * (jobs // len(pool) + 1), jobs))
        return {"pool": pool, "rate": HITS_RATE,
                "segments": [[(t, job_id, next(picks), 0)
                              for t, job_id in due] for due in segments]}
    segments = [schedule(rng, EXEC_RATE, seconds / count, f"x{k}")
                for k in range(count)]
    specs = iter(mini_scenarios(rng, sum(len(due) for due in segments)))
    return {"pool": [], "rate": EXEC_RATE,
            "segments": [[(t, job_id, next(specs), rng.choice((0, 1, 2)))
                          for t, job_id in due] for due in segments]}


# ----------------------------------------------------------------------
# one run: daemon up, schedule, daemon drained
# ----------------------------------------------------------------------


def start_daemon(svc: Path, cache: Path,
                 trace: int) -> Tuple[subprocess.Popen, Path, float]:
    """Start the daemon process; returns it with its stats path and the
    seconds until its first beacon (start-up, pool fork and warm-up)."""
    svc.mkdir(parents=True)
    done = svc.parent / f"{svc.name}.done"
    out = svc.parent / f"{svc.name}.stats.json"
    log = open(svc.parent / f"{svc.name}.log", "wb")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "daemon_main.py"), "--dir", str(svc),
         "--cache", str(cache), "--done", str(done), "--out", str(out),
         "--trace", str(trace)],
        cwd=str(ROOT), stdout=log, stderr=subprocess.STDOUT)
    log.close()
    beacon = svc / "control" / "daemon.json"
    while not beacon.exists():
        if proc.poll() is not None and not beacon.exists():
            raise RuntimeError(f"daemon exited with {proc.returncode} "
                               f"before its first beacon; see {svc}.log")
        if time.perf_counter() - t0 > 60.0:
            proc.kill()
            proc.wait()
            raise RuntimeError("daemon did not start within 60 s")
        time.sleep(0.002)
    return proc, out, time.perf_counter() - t0


def finish_daemon(proc: subprocess.Popen, svc: Path, out: Path) -> dict:
    (svc.parent / f"{svc.name}.done").touch()
    try:
        proc.wait(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("daemon did not drain within 120 s")
    if proc.returncode != 0:
        raise RuntimeError(f"daemon exited with {proc.returncode}")
    return json.loads(out.read_text())


def run_schedule(work: Path, name: str, cache: Path, jobs: list,
                 trace: int, rec) -> dict:
    """Start a daemon, submit ``jobs`` on their schedule, let it drain."""
    from repro.service.client import ServiceClient

    svc = work / name
    proc, out, setup_s = start_daemon(svc, cache, trace)
    client = ServiceClient(svc)
    lags, submit_ms, due_at = [], [], {}
    try:
        t0 = time.time() + 0.05
        for due_s, job_id, spec, priority in jobs:
            due = t0 + due_s
            wait = due - time.time()
            if wait > 0:
                time.sleep(wait)
            begin = time.time()
            if rec is None:
                client.submit([spec], priority=priority, job_id=job_id)
            else:
                with rec.span("client.submit", corr=job_id):
                    client.submit([spec], priority=priority, job_id=job_id)
            submit_ms.append((time.time() - begin) * 1000.0)
            lags.append((begin - due) * 1000.0)
            due_at[job_id] = due
    finally:
        stats = finish_daemon(proc, svc, out)
    return {"svc": svc, "setup_s": setup_s, "stats": stats, "lags": lags,
            "submit_ms": submit_ms, "due": due_at, "t0": t0,
            "jobs": {job_id: spec for _, job_id, spec, _ in jobs}}


def read_outcomes(run: dict) -> dict:
    """Journal stamps and result files of one run's jobs."""
    from repro.service.store import JournalStore

    stamps: Dict[str, Dict[str, float]] = {}
    final: Dict[str, str] = {}
    preemptions = 0
    for record in JournalStore(run["svc"]).replay():
        if record.get("type") != "transition":
            continue
        job, to = record["job"], record["to"]
        stamps.setdefault(job, {}).setdefault(to, record["t"])
        final[job] = to
        preemptions += to == "preempted"
    results = {}
    for job_id, state in final.items():
        if state == "completed":
            results[job_id] = json.loads(
                (run["svc"] / "results" / f"{job_id}.json").read_text())
    rejected = len(list((run["svc"] / "spool").glob("*.rejected.json")))
    return {"stamps": stamps, "final": final, "results": results,
            "rejected": rejected, "preemptions": preemptions}


def summary_of(result) -> Dict[str, Any]:
    """In-process summary of one spec, as the daemon merges it."""
    from repro.harness.runner import result_qos
    from repro.harness.scenario import result_slo
    from repro.metrics.qos import merge_qos_summaries
    from repro.metrics.slo import merge_slo_summaries

    merged = {"qos": merge_qos_summaries([result_qos(result)]),
              "slo": merge_slo_summaries([result_slo(result)])}
    return json.loads(json.dumps(merged, sort_keys=True))


def run_metrics(segments: List[dict], reference: Dict[str, dict]) -> dict:
    """Job outcomes pooled over a measurement's segments."""
    inf = float("inf")
    job_ms, run_ms, wait_ms = [], [], []
    jobs = completed = arrivals = met = mismatches = 0
    window = 0.0
    for run in segments:
        outcome = run["outcome"]
        last = run["t0"]
        for job_id, spec in run["jobs"].items():
            st = outcome["stamps"].get(job_id, {})
            result = outcome["results"].get(job_id)
            if "running" in st and "queued" in st:
                wait_ms.append((st["running"] - st["queued"]) * 1000.0)
            if result is None:
                job_ms.append(inf)
                continue
            done = st["completed"]
            last = max(last, done)
            job_ms.append((done - run["due"][job_id]) * 1000.0)
            run_ms.append((done - st.get("resumed", st["running"])) * 1000.0)
            expected = reference[spec.cache_key()]
            got = {"qos": result["qos"], "slo": result["slo"]}
            if got != expected:
                mismatches += 1
            arrivals += result["slo"]["arrivals"]
            met += result["slo"]["met"]
        jobs += len(run["jobs"])
        completed += len(outcome["results"])
        window += last - run["t0"]
    window = max(window, 1e-9)
    return {
        "jobs": jobs, "completed": completed,
        "not_completed": jobs - completed,
        "mismatches": mismatches, "job_ms": job_ms, "run_ms": run_ms,
        "wait_ms": wait_ms, "arrivals": arrivals, "met": met,
        "specs_per_s": completed / window, "arrivals_per_s": arrivals / window,
        "spec_durations_ms": [p["duration_s"] * 1000.0 for run in segments
                              for r in run["outcome"]["results"].values()
                              for p in r["specs"]],
    }


def merge_stats(stats: List[dict]) -> dict:
    """The segment daemons' stats files as one: peak memory is the
    largest, every other figure the sum."""
    out: Dict[str, Any] = {
        "peak_rss_mb": max(s["peak_rss_mb"] for s in stats),
        "fsyncs": sum(s["fsyncs"] for s in stats),
        "wall_ms": sum(s["wall_ms"] for s in stats)}
    if "totals" in stats[0]:
        totals: Dict[str, Dict[str, float]] = {}
        counters: Dict[str, float] = {}
        for s in stats:
            for name, entry in s["totals"].items():
                into = totals.setdefault(name, dict.fromkeys(entry, 0.0))
                for key, value in entry.items():
                    into[key] += value
            for name, value in s["counters"].items():
                counters[name] = counters.get(name, 0.0) + value
        out.update(totals=totals, counters=counters,
                   main_root_ms=sum(s["main_root_ms"] for s in stats))
    return out


def finite(value: float) -> float:
    """Latency percentiles that reach a job that never completed are
    infinite; the contract line carries a finite stand-in."""
    return value if value != float("inf") else 1e12


def run_service(args) -> dict:
    import spans
    from repro.harness.cache import ResultCache
    from repro.harness.sweep import SweepRunner

    work: Path = args.work
    inputs = daemon_inputs(args.workload, args.seed, args.measure_s)
    reference: Dict[str, dict] = {}
    hits_cache = work / "cache"
    if inputs["pool"]:
        # The cache-hit pool: executed once, untimed, into the cache.
        results = SweepRunner(jobs=1, cache=ResultCache(hits_cache)).run(
            inputs["pool"])
        for spec, result in zip(inputs["pool"], results):
            reference[spec.cache_key()] = summary_of(result)

    def measure(trace: int, tag: str) -> dict:
        rec = spans.Recorder() if trace else None
        # daemon-exec starts every measurement from an empty cache.
        cache_dir = hits_cache if inputs["pool"] else work / f"{tag}-cache"
        segments = []
        for k, jobs in enumerate(inputs["segments"]):
            run = run_schedule(work, f"{tag}-{k}", cache_dir, jobs, trace,
                               rec)
            run["outcome"] = read_outcomes(run)
            segments.append(run)
        if rec is not None:
            rec.dump(str(work / f"{tag}-client.spans.jsonl"))
        # Distinct specs: the reference runs after the daemons are gone,
        # outside every timed region, through the sweep harness.
        todo = {spec.cache_key(): spec for run in segments
                for spec in run["jobs"].values()
                if spec.cache_key() not in reference}
        if todo:
            results = SweepRunner(jobs=nproc(),
                                  cache=ResultCache(enabled=False)).run(
                list(todo.values()))
            for key, result in zip(todo, results):
                reference[key] = summary_of(result)
        return {
            "m": run_metrics(segments, reference),
            "setups": [run["setup_s"] for run in segments],
            "stats": merge_stats([run["stats"] for run in segments]),
            "lags": [x for run in segments for x in run["lags"]],
            "submit_ms": [x for run in segments for x in run["submit_ms"]],
            "rejected": sum(run["outcome"]["rejected"] for run in segments),
            "preemptions": sum(run["outcome"]["preemptions"]
                               for run in segments),
            "final": [state for run in segments
                      for state in run["outcome"]["final"].values()],
        }

    untraced = measure(0, "plain")
    record = service_record(inputs["rate"], untraced)
    if args.trace:
        traced = measure(1, "traced")
        traced_record = service_record(inputs["rate"], traced)
        record["traced_end_to_end"] = traced_record["end_to_end"]
        record["attempted"] += traced_record["attempted"]
        record["failed"] += traced_record["failed"]
        record["checks"]["mismatches"] += traced_record["checks"]["mismatches"]
        record["per_layer"] = service_layers(
            args, traced, record["end_to_end"], traced_record["end_to_end"])
    return record


def service_record(rate: float, run: dict) -> dict:
    m = run["m"]
    failed = m["not_completed"] + m["mismatches"]
    attained = m["met"] / m["arrivals"] if m["arrivals"] else 0.0
    end_to_end = {
        "setup_s": median(run["setups"]),
        "peak_rss_mb": run["stats"]["peak_rss_mb"],
        "specs_per_s": m["specs_per_s"],
        "spec_ms.p50": percentile(m["run_ms"], 50),
        "spec_ms.p90": percentile(m["run_ms"], 90),
        "arrivals_per_s": m["arrivals_per_s"],
        "sim_violation_rate": 1.0 - attained,
        "sim_slo_attainment": attained,
        "job_ms.p50": finite(percentile(m["job_ms"], 50)),
        "job_ms.p90": finite(percentile(m["job_ms"], 90)),
        "failed_frac": failed / m["jobs"],
    }
    lag_max = max(run["lags"] or [0.0])
    return {
        "end_to_end": end_to_end,
        "attempted": m["jobs"], "failed": failed,
        "samples": {"jobs": m["jobs"], "rate": rate,
                    "segments": len(run["setups"]),
                    "job_ms": quantile_summary(m["job_ms"]),
                    "rejected": run["rejected"]},
        "setup_runs_s": run["setups"],
        "checks": {"mismatches": m["mismatches"],
                   "parity": "merged daemon result == in-process summary",
                   "generator_behind": lag_max > LAG_FLAG_MS,
                   "gen_lag_ms_max": lag_max},
    }


def service_layers(args, run: dict, plain_e2e: dict,
                   traced_e2e: dict) -> dict:
    from spans import PER_LAYER

    stats, m = run["stats"], run["m"]
    totals: Dict[str, Dict[str, float]] = stats["totals"]
    counters: Dict[str, float] = stats["counters"]
    out = {name: 0.0 for name in PER_LAYER}

    def t(name, key="self_ms"):
        return totals.get(name, {}).get(key, 0.0)

    gets = t("cache.get", "calls")
    executed = args.workload == "daemon-exec"
    spec_ms = sum(m["spec_durations_ms"]) if executed else 0.0
    out.update({
        "cache.gets": gets,
        "cache.hit_ratio": counters.get("cache.hits", 0.0) / gets
        if gets else 0.0,
        "cache.get_ms": t("cache.get"),
        "cache.puts": t("cache.put", "calls"),
        "cache.put_ms": t("cache.put"),
        "client.submits": len(run["submit_ms"]),
        "client.submit_ms.p50": percentile(run["submit_ms"], 50),
        "client.submit_ms.p95": percentile(run["submit_ms"], 95),
        "client.gen_lag_ms.max": max(run["lags"] or [0.0]),
        "daemon.ticks": t("daemon.tick", "calls"),
        "daemon.tick_ms": t("daemon.tick", "ms"),
        "daemon.tick_self_ms": t("daemon.tick"),
        "daemon.run_ms.p50": percentile(m["run_ms"], 50)
        if m["run_ms"] else 0.0,
        "daemon.preemptions": run["preemptions"],
        "store.appends": t("store.append", "calls"),
        "store.append_ms": t("store.append"),
        "store.commits": t("store.commit", "calls"),
        "store.commit_ms": t("store.commit"),
        "store.fsyncs": stats["fsyncs"],
        "admission.queue_ms": t("admission.queue"),
        "admission.wait_ms.p50": percentile(m["wait_ms"], 50)
        if m["wait_ms"] else 0.0,
        "admission.wait_ms.p95": percentile(m["wait_ms"], 95)
        if m["wait_ms"] else 0.0,
        "overload.rejected": run["rejected"],
        "overload.shed": run["final"].count("shed"),
        "exec.spec_ms": spec_ms,
        "pool.overhead_ms": sum(m["run_ms"]) - spec_ms if executed else 0.0,
        # The daemon's main thread: its spans' self times plus the
        # untimed remainder (the serve loop's waits) make its wall time.
        "trace.wall_ms": stats["wall_ms"],
        "trace.untimed_ms": stats["wall_ms"] - stats["main_root_ms"],
        "trace.overhead_frac": (traced_e2e["job_ms.p50"]
                                / plain_e2e["job_ms.p50"] - 1.0),
    })
    return out
