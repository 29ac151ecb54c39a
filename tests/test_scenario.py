"""Traffic-scenario driver and SLO-report tests.

Covers the replay path end to end: :func:`run_traffic` smoke and
determinism, the golden SLO report for a seeded diurnal scenario
(byte-stable JSON, like the golden trace), trace emission that the
TraceChecker accepts, RunSpec integration (describe / execute / store
round-trip / sweep-stats accumulation), and the ``chimera traffic``
CLI subcommand.

Regenerate the golden report after an intentional scoring change with
``PYTHONPATH=src python tests/test_scenario.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.gpu.config import GPUConfig
from repro.harness.cache import ResultCache
from repro.harness.scenario import ScenarioSpec, result_slo, run_traffic
from repro.harness.sweep import RunSpec, SweepRunner, SweepStats
from repro.metrics.slo import ArrivalOutcome, merge_slo_summaries, slo_report
from repro.service.store import spec_from_dict, spec_to_dict
from repro.sim import trace as T
from repro.sim.trace import Tracer
from repro.sim.trace_check import TraceChecker
from repro.workloads.traffic import ArrivalSpec, TenantSpec

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "golden_slo_diurnal.json")

#: A small 4-SM machine keeps these scenarios sub-second.
SMALL_CONFIG = dict(num_sms=4, num_memory_partitions=2,
                    memory_bandwidth_gbps=177.4 * 4 / 30)


def small_config() -> GPUConfig:
    return GPUConfig(**SMALL_CONFIG)


def golden_scenario() -> ScenarioSpec:
    """The pinned diurnal scenario behind the golden SLO report."""
    return ScenarioSpec(
        tenants=(
            TenantSpec(name="day", mix="table2-short", priority=1,
                       slo_us=4_000.0,
                       arrival=ArrivalSpec(kind="diurnal",
                                           rate_per_s=2_000.0,
                                           amplitude=0.8,
                                           period_us=20_000.0)),
        ),
        horizon_us=30_000.0, drain_us=10_000.0, window_us=10_000.0)


def golden_report() -> dict:
    result = run_traffic(golden_scenario(), policy_name="chimera", seed=7,
                         config=small_config(), target_kernel_us=60.0)
    return result.slo


def encode_report(report: dict) -> str:
    """Canonical JSON for golden comparison (sorted keys, 2-space)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def tiny_scenario(**overrides) -> ScenarioSpec:
    fields = dict(
        tenants=(
            TenantSpec(name="web", mix="table2-short", priority=2,
                       slo_us=3_000.0,
                       arrival=ArrivalSpec(kind="poisson",
                                           rate_per_s=2_000.0)),
            TenantSpec(name="batch", mix="table2-short", priority=0,
                       slo_us=6_000.0,
                       arrival=ArrivalSpec(kind="bursty",
                                           rate_per_s=1_000.0,
                                           burst_factor=4.0)),
        ),
        horizon_us=20_000.0, drain_us=10_000.0)
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestRunTraffic:
    def test_smoke_accounts_for_every_arrival(self):
        scenario = tiny_scenario()
        result = run_traffic(scenario, seed=3, config=small_config(),
                             target_kernel_us=60.0)
        stream = scenario.stream(3)
        assert len(result.outcomes) == len(stream)
        report = result.slo
        assert report["arrivals"] == len(stream)
        assert report["completed"] + report["dropped"] == report["arrivals"]
        assert 0.0 <= report["attainment"] <= 1.0
        assert set(report["tenants"]) == {"web", "batch"}
        assert report["horizon_us"] == scenario.total_us
        per_tenant = sum(t["arrivals"]
                         for t in report["tenants"].values())
        assert per_tenant == report["arrivals"]

    def test_arrival_events_are_scheduled_lazily(self, monkeypatch):
        """Each arrival schedules the next: the engine never holds
        O(stream) pending arrival events (or their closures) before the
        replay starts."""
        from repro.harness import runner as runner_mod

        scenario = tiny_scenario()
        stream = scenario.stream(9)
        assert len(stream) > 20
        seen = {}
        original = runner_mod.SimSystem.run

        def spy(self, *args, **kwargs):
            seen["pending"] = self.engine.pending_events
            return original(self, *args, **kwargs)

        monkeypatch.setattr(runner_mod.SimSystem, "run", spy)
        result = run_traffic(scenario, seed=9, config=small_config(),
                             target_kernel_us=60.0)
        assert len(result.outcomes) == len(stream)
        # Only the chain head plus the fixed start() machinery is
        # pending — not one event per arrival.
        assert seen["pending"] < min(10, len(stream) // 2)

    def test_replay_is_deterministic(self):
        scenario = tiny_scenario()
        first = run_traffic(scenario, seed=5, config=small_config(),
                            target_kernel_us=60.0)
        second = run_traffic(scenario, seed=5, config=small_config(),
                            target_kernel_us=60.0)
        assert first.slo == second.slo
        assert first.outcomes == second.outcomes

    def test_priority_weighting_orders_attainment(self):
        """The high-priority tenant holds a larger SM share, so under
        contention its attainment must not trail the low-priority one."""
        result = run_traffic(tiny_scenario(), seed=3,
                             config=small_config(), target_kernel_us=60.0)
        tenants = result.slo["tenants"]
        assert tenants["web"]["attainment"] \
            >= tenants["batch"]["attainment"]

    def test_overload_produces_drops(self):
        """Kernels still in flight at horizon + drain must be dropped
        and scored as misses, not silently completed. Training-style
        traffic (long kernels) on a small machine guarantees overload."""
        scenario = ScenarioSpec(
            tenants=(TenantSpec(name="train", mix="dl-train",
                                slo_us=2_000.0,
                                arrival=ArrivalSpec(kind="poisson",
                                                    rate_per_s=2_000.0)),),
            horizon_us=20_000.0, drain_us=0.0)
        result = run_traffic(scenario, seed=3, config=small_config(),
                             target_kernel_us=60.0)
        report = result.slo
        assert report["dropped"] > 0
        dropped = [o for o in result.outcomes if not o.completed]
        assert all(o.finish_us is None and not o.met for o in dropped)
        assert report["met"] + report["dropped"] <= report["arrivals"]

    def test_result_slo_accessor(self):
        result = run_traffic(golden_scenario(), seed=7,
                             config=small_config(), target_kernel_us=60.0)
        assert result_slo(result) == result.slo
        assert result_slo(object()) == {}


class TestScenarioSpecValidation:
    def test_rejects_bad_shapes(self):
        tenant = TenantSpec(name="t")
        with pytest.raises(ConfigError):
            ScenarioSpec(tenants=())
        with pytest.raises(ConfigError):
            ScenarioSpec(tenants=(tenant, tenant))
        with pytest.raises(ConfigError):
            ScenarioSpec(tenants=(tenant,), horizon_us=0.0)
        with pytest.raises(ConfigError):
            ScenarioSpec(tenants=(tenant,), drain_us=-1.0)
        with pytest.raises(ConfigError):
            ScenarioSpec(tenants=(tenant,), window_us=0.0)

    def test_rejects_horizon_above_simulation_cap(self):
        tenant = TenantSpec(name="t")
        with pytest.raises(ConfigError, match="safety cap"):
            ScenarioSpec(tenants=(tenant,), horizon_us=500_000.0,
                         drain_us=0.0)


class TestGoldenSLOReport:
    def test_golden_file_exists(self):
        assert os.path.exists(GOLDEN), (
            f"missing {GOLDEN}; regenerate with "
            f"`PYTHONPATH=src python tests/test_scenario.py`")

    def test_report_matches_golden_bytes(self):
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            golden = handle.read()
        assert encode_report(golden_report()) == golden, (
            "SLO report changed; if intentional, regenerate with "
            "`PYTHONPATH=src python tests/test_scenario.py`")

    def test_golden_is_canonical_json(self):
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            golden = handle.read()
        assert encode_report(json.loads(golden)) == golden


class TestTrafficTrace:
    def test_trace_passes_the_checker(self):
        config = small_config()
        tracer = Tracer(clock_mhz=config.clock_mhz)
        run_traffic(golden_scenario(), seed=7, config=config,
                    target_kernel_us=60.0, tracer=tracer)
        counts = tracer.counts()
        assert counts[T.ARRIVAL] > 0
        assert counts[T.SLO] == counts[T.ARRIVAL]  # one verdict each
        report = TraceChecker().check(tracer)
        assert report.ok, report.summary()

    def test_arrival_events_carry_tenant_payloads(self):
        config = small_config()
        tracer = Tracer(clock_mhz=config.clock_mhz)
        run_traffic(golden_scenario(), seed=7, config=config,
                    target_kernel_us=60.0, tracer=tracer)
        arrivals = [r for r in tracer.records if r.category == T.ARRIVAL]
        assert all(r.payload["tenant"] == "day" for r in arrivals)
        verdicts = [r for r in tracer.records if r.category == T.SLO]
        assert {r.payload["seq"] for r in verdicts} \
            == {r.payload["seq"] for r in arrivals}
        assert tracer.meta["scenario_tenants"] == ["day"]


class TestRunSpecIntegration:
    def test_describe_and_validate(self):
        spec = RunSpec.traffic(golden_scenario(), seed=7)
        assert "traffic[1t/30000us]" in spec.describe()
        assert "policy=chimera" in spec.describe()
        with pytest.raises(ConfigError):
            RunSpec(kind="traffic").execute()  # no scenario attached

    def test_execute_matches_direct_call(self):
        spec = RunSpec.traffic(golden_scenario(), seed=7,
                               config=small_config(),
                               target_kernel_us=60.0)
        via_spec = spec.execute()
        direct = run_traffic(golden_scenario(), seed=7,
                             config=small_config(), target_kernel_us=60.0)
        assert via_spec.slo == direct.slo
        assert via_spec.outcomes == direct.outcomes

    def test_store_round_trip(self):
        spec = RunSpec.traffic(tiny_scenario(), policy="drain", seed=9,
                               target_kernel_us=60.0)
        rebuilt = spec_from_dict(spec_to_dict(spec))
        assert rebuilt.scenario == spec.scenario
        assert rebuilt.canonical() == spec.canonical()

    def test_window_setting_is_part_of_the_cache_key(self, monkeypatch,
                                                     tmp_path):
        """A scenario without a window takes CHIMERA_TRAFFIC_WINDOW_US;
        the width must reach the cache key, or a cache hit would replay
        a report computed under another width."""
        cache = ResultCache(tmp_path / "cache")

        def run(width):
            monkeypatch.setenv("CHIMERA_TRAFFIC_WINDOW_US", width)
            spec = RunSpec.traffic(tiny_scenario(), seed=3,
                                   config=small_config(),
                                   target_kernel_us=60.0)
            result = SweepRunner(jobs=1, cache=cache).run([spec])[0]
            return spec.cache_key(), result.slo["sliding"]["width_us"]

        wide_key, wide = run("10000")
        narrow_key, narrow = run("1000")
        assert wide_key != narrow_key
        assert (wide, narrow) == (10_000.0, 1_000.0)

    def test_sweep_stats_accumulate_slo_counters(self):
        spec = RunSpec.traffic(golden_scenario(), seed=7,
                               config=small_config(),
                               target_kernel_us=60.0)
        runner = SweepRunner(jobs=1)
        result = runner.run([spec])[0]
        stats = runner.last_stats
        assert stats.slo_arrivals == result.slo["arrivals"]
        assert stats.slo_met == result.slo["met"]
        assert stats.slo_dropped == result.slo["dropped"]
        merged = SweepStats()
        merged.merge(stats)
        assert merged.slo_arrivals == stats.slo_arrivals
        assert merged.as_dict()["slo_met"] == stats.slo_met


class TestSLOReportUnits:
    def outcome(self, seq, t_us, finish_us, slo_us=100.0, tenant="t"):
        return ArrivalOutcome(seq=seq, tenant=tenant, kernel="BS.0",
                              priority=0, t_us=t_us, slo_us=slo_us,
                              isolated_us=10.0, finish_us=finish_us)

    def test_attainment_counts_drops_as_misses(self):
        outcomes = [self.outcome(0, 0.0, 50.0),     # met
                    self.outcome(1, 0.0, 500.0),    # late
                    self.outcome(2, 0.0, None)]     # dropped
        report = slo_report(outcomes, [], 1000.0, window_us=500.0)
        assert report["met"] == 1
        assert report["dropped"] == 1
        assert report["attainment"] == pytest.approx(1 / 3, abs=1e-4)
        # goodput counts only SLO-met completions
        assert report["goodput_per_s"] == pytest.approx(1 / 1e-3)

    def test_windowed_antt_clamps_at_one(self):
        outcomes = [self.outcome(0, 0.0, 5.0)]  # faster than isolated
        report = slo_report(outcomes, [], 1000.0, window_us=1000.0)
        window = report["sliding"]["windows"][0]
        assert window["antt"] == 1.0
        assert window["completed"] == 1
        empty = slo_report([], [], 1000.0, window_us=500.0)
        assert all(w["antt"] is None
                   for w in empty["sliding"]["windows"])

    def test_outcome_validation(self):
        with pytest.raises(ConfigError):
            self.outcome(0, 100.0, 50.0)  # finishes before arrival
        with pytest.raises(ConfigError):
            ArrivalOutcome(seq=0, tenant="t", kernel="BS.0", priority=0,
                           t_us=0.0, slo_us=1.0, isolated_us=0.0)
        with pytest.raises(ConfigError):
            slo_report([], [], 0.0)

    def test_merge_slo_summaries(self):
        a = slo_report([self.outcome(0, 0.0, 50.0)], [2.0], 1000.0,
                       window_us=500.0)
        b = slo_report([self.outcome(0, 0.0, None)], [], 1000.0,
                       window_us=500.0)
        merged = merge_slo_summaries([a, {}, b])
        assert merged["specs"] == 2
        assert merged["arrivals"] == 2
        assert merged["met"] == 1
        assert merged["dropped"] == 1
        assert merged["attainment"] == 0.5
        assert merged["latency_us"]["samples"] == 1
        assert merged["preemption_us"]["samples"] == 1
        assert merge_slo_summaries([]) == {}
        assert merge_slo_summaries([{}, {}]) == {}


class TestTrafficCLI:
    def run_cli(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    ARGS = ("traffic", "--horizon-us", "20000", "--drain-us", "10000",
            "--target-kernel-us", "60", "--seed", "3",
            "--tenant", "web:poisson:2000:table2-short:2:3000",
            "--tenant", "batch:bursty:1000:table2-short:0:6000")

    def test_table_output(self, capsys):
        code, out = self.run_cli(capsys, *self.ARGS)
        assert code == 0
        assert "web" in out and "batch" in out
        assert "attainment" in out
        assert "goodput" in out

    def test_json_and_report_file(self, capsys, tmp_path):
        report_path = tmp_path / "slo.json"
        code, out = self.run_cli(capsys, *self.ARGS, "--json",
                                 "--report", str(report_path))
        assert code == 0
        printed = json.loads(out)
        on_disk = json.loads(report_path.read_text())
        assert printed == on_disk
        assert printed["arrivals"] > 0

    def test_fail_below_gate(self, capsys):
        code, _ = self.run_cli(capsys, *self.ARGS, "--fail-below", "1.1")
        assert code == 1
        code, _ = self.run_cli(capsys, *self.ARGS, "--fail-below", "0.0")
        assert code == 0

    def test_rejects_malformed_tenant(self, capsys):
        # ConfigError surfaces as the uniform usage exit code 2.
        assert main(["traffic", "--tenant", "bad:weekly:100"]) == 2
        assert main(["traffic", "--tenant", "noparts"]) == 2
        capsys.readouterr()


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write(encode_report(golden_report()))
    print(f"wrote {GOLDEN}")
