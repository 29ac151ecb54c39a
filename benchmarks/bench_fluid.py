"""Fluid-engine benchmark regression: vectorized vs scalar path.

Two scenarios pin the ``CHIMERA_FLUID_VECTOR`` work PR-over-PR:

* ``figure6_7_end_to_end`` — the full Figure 6/7 periodic sweep run
  alternately on the scalar and the vectorized fluid path (interleaved
  min-of-N, cache and worker pool off so both paths execute
  in-process). Bit-identity of the two paths' sweep results is
  asserted on every round before any wall-clock number is recorded.
* ``sweep_throughput`` — a 10k-spec sweep driven through the sharded
  result cache with chunked submission, spec execution stubbed to a
  constant so the number measures the *harness* (hashing, dedupe,
  chunking, atomic cache writes, shard reads) rather than the
  simulator. A cold pass executes everything; a warm pass must replay
  entirely from the sharded cache.

Results land in machine-readable ``benchmarks/results/BENCH_fluid.json``
(wall seconds, specs/s and the vector-over-scalar speedup) like
``BENCH_cycle.json``.

Scale knobs:

* ``CHIMERA_BENCH_FLUID_QUICK`` — shrink both scenarios for CI smoke
  (subset of benchmarks, one period, one round, 1k specs)
* ``CHIMERA_FLUID_FAIL_BELOW``  — fail the end-to-end scenario if the
  vectorized path's speedup over scalar drops below this factor
"""

from __future__ import annotations

import json
import math

from benchmarks.conftest import RESULTS_DIR, once
from repro import settings
from repro.harness import sweep as sweep_mod
from repro.harness.cache import ResultCache
from repro.harness.experiments import fluid_vector_ab
from repro.harness.sweep import RunSpec, SweepRunner
from repro.workloads.specs import benchmark_labels

BENCH_PATH = RESULTS_DIR / "BENCH_fluid.json"

QUICK = settings.get("CHIMERA_BENCH_FLUID_QUICK")


def _read_results() -> dict:
    try:
        return json.loads(BENCH_PATH.read_text())
    except (FileNotFoundError, ValueError):
        return {}


def _record(name: str, entry: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    results = _read_results()
    results[name] = entry
    results["_meta"] = {"quick": QUICK}
    BENCH_PATH.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


def test_figure6_7_end_to_end(benchmark):
    if QUICK:
        kwargs = dict(labels=("BS", "HS", "KM"), periods=1, rounds=1)
    else:
        kwargs = dict(periods=3, rounds=3)
    ab = once(benchmark, lambda: fluid_vector_ab(seed=12345, **kwargs))
    _record("figure6_7_end_to_end", ab)
    floor = settings.get("CHIMERA_FLUID_FAIL_BELOW")
    if floor is not None:
        assert ab["speedup"] >= floor, (
            f"vectorized fluid path only {ab['speedup']:.2f}x scalar "
            f"(floor {floor}x)")


def test_sweep_throughput(benchmark, tmp_path, monkeypatch):
    n = 1_000 if QUICK else 10_000
    chunk_size = 512
    labels = benchmark_labels()
    policies = ("switch", "drain", "flush", "chimera")
    specs = []
    seed = 0
    while len(specs) < n:
        for label in labels:
            for policy in policies:
                specs.append(RunSpec.periodic(label, policy, periods=1,
                                              seed=seed))
                if len(specs) == n:
                    break
            else:
                continue
            break
        seed += 1
    # Stub the executor: this scenario times the sweep harness, not the
    # simulator (the end-to-end scenario above covers that).
    monkeypatch.setattr(
        sweep_mod, "execute_faulted",
        lambda spec, index, attempt: ({"spec": spec.describe()}, 1e-4))

    cache_dir = tmp_path / "fluid-sweep-cache"

    def drive() -> dict:
        cold = SweepRunner(jobs=1, cache=ResultCache(cache_dir),
                           chunk_size=chunk_size)
        import time
        start = time.perf_counter()
        cold.run(specs)
        cold_wall = time.perf_counter() - start
        assert cold.last_stats.executed == n
        assert cold.last_stats.chunks == math.ceil(n / chunk_size)
        warm = SweepRunner(jobs=1, cache=ResultCache(cache_dir),
                           chunk_size=chunk_size)
        start = time.perf_counter()
        warm.run(specs)
        warm_wall = time.perf_counter() - start
        assert warm.last_stats.cache_hits == n
        assert warm.last_stats.executed == 0
        return {"cold_wall_s": cold_wall, "warm_wall_s": warm_wall,
                "chunks": cold.last_stats.chunks}

    run = once(benchmark, drive)
    # Every entry must have landed in a two-hex shard subdirectory.
    assert not list(cache_dir.glob("*.pkl"))
    sharded = list(cache_dir.glob("*/*.pkl"))
    assert len(sharded) == n
    assert all(p.parent.name == p.stem[:2] for p in sharded)
    _record("sweep_throughput", {
        "specs": n,
        "chunk_size": chunk_size,
        "chunks": run["chunks"],
        "cold_wall_s": round(run["cold_wall_s"], 4),
        "warm_wall_s": round(run["warm_wall_s"], 4),
        "cold_specs_per_s": round(n / max(run["cold_wall_s"], 1e-9)),
        "warm_specs_per_s": round(n / max(run["warm_wall_s"], 1e-9)),
    })
