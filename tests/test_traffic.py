"""Traffic-generator tests: determinism, statistical conformance, merging.

Three layers of evidence that the open-arrival generators are what they
claim to be:

* **Determinism properties** (Hypothesis): the same ``(tenants, seed,
  horizon)`` encodes to a byte-identical stream; per-tenant substreams
  are independent of which other tenants share the scenario; merged
  streams are time-sorted and tenant-complete.
* **Statistical conformance** (fixed seeds): interarrival times pass a
  Kolmogorov-Smirnov test against the nominal distribution — raw
  exponential for Poisson, Exp(1) after time-rescaling through the
  closed-form integrated rate for the diurnal process — and the bursty
  MMPP degenerates to Poisson at ``burst_factor=1`` while showing
  over-dispersion above it.
* **Catalog and knob validation**: kernel mixes reference only Table-2
  labels, inverse-CDF sampling covers the support, and the
  ``CHIMERA_TRAFFIC_*`` environment knobs parse and fail loudly.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.workloads.specs import MIXES, kernel_spec, mix, mix_names
from repro.workloads.traffic import (
    Arrival,
    ArrivalSpec,
    TenantSpec,
    arrival_times,
    build_stream,
    decode_stream,
    encode_stream,
    exponential_cdf,
    index_of_dispersion,
    ks_statistic,
    ks_threshold,
    merge_streams,
    tenant_stream,
)

# Each example builds full streams; keep the search small but real.
TRAFFIC_SETTINGS = settings(max_examples=25, deadline=None)

arrival_specs = st.one_of(
    st.builds(ArrivalSpec, kind=st.just("poisson"),
              rate_per_s=st.floats(200.0, 20_000.0)),
    st.builds(ArrivalSpec, kind=st.just("diurnal"),
              rate_per_s=st.floats(200.0, 20_000.0),
              amplitude=st.floats(0.0, 0.95),
              period_us=st.floats(5_000.0, 80_000.0)),
    st.builds(ArrivalSpec, kind=st.just("bursty"),
              rate_per_s=st.floats(200.0, 20_000.0),
              burst_factor=st.floats(1.0, 12.0),
              burst_fraction=st.floats(0.05, 0.5),
              dwell_us=st.floats(500.0, 10_000.0)),
)

tenant_sets = st.lists(
    st.builds(TenantSpec,
              name=st.sampled_from(["alpha", "beta", "gamma", "delta"]),
              arrival=arrival_specs,
              mix=st.sampled_from(sorted(MIXES)),
              priority=st.integers(0, 5),
              slo_us=st.floats(500.0, 20_000.0)),
    min_size=1, max_size=3, unique_by=lambda t: t.name)


class TestDeterminism:
    @TRAFFIC_SETTINGS
    @given(tenants=tenant_sets, seed=st.integers(0, 2**32 - 1))
    def test_same_seed_byte_identical_stream(self, tenants, seed):
        first = encode_stream(build_stream(tenants, seed, 50_000.0))
        second = encode_stream(build_stream(tenants, seed, 50_000.0))
        assert first == second

    @TRAFFIC_SETTINGS
    @given(tenants=tenant_sets, seed=st.integers(0, 2**32 - 1))
    def test_round_trip_through_jsonl(self, tenants, seed):
        stream = build_stream(tenants, seed, 50_000.0)
        assert decode_stream(encode_stream(stream)) == stream

    @TRAFFIC_SETTINGS
    @given(tenants=tenant_sets, seed=st.integers(0, 2**32 - 1))
    def test_tenant_substream_independent_of_cohort(self, tenants, seed):
        """A tenant's own arrivals must not depend on who else is in the
        scenario — per-tenant RNG streams are derived, not shared."""
        merged = build_stream(tenants, seed, 50_000.0)
        for tenant in tenants:
            alone = tenant_stream(tenant, seed, 50_000.0)
            shared = [a for a in merged if a.tenant == tenant.name]
            assert [(a.t_us, a.kernel) for a in alone] \
                == [(a.t_us, a.kernel) for a in shared]

    def test_different_seeds_differ(self):
        tenant = TenantSpec(name="t", arrival=ArrivalSpec(rate_per_s=5000))
        a = encode_stream(build_stream([tenant], 1, 100_000.0))
        b = encode_stream(build_stream([tenant], 2, 100_000.0))
        assert a != b

    def test_time_and_mix_streams_are_decoupled(self):
        """Changing the kernel mix must not move any arrival time."""
        base = TenantSpec(name="t", mix="table2-short",
                          arrival=ArrivalSpec(rate_per_s=5000))
        other = TenantSpec(name="t", mix="dl-train",
                           arrival=ArrivalSpec(rate_per_s=5000))
        times_a = [a.t_us for a in tenant_stream(base, 9, 100_000.0)]
        times_b = [a.t_us for a in tenant_stream(other, 9, 100_000.0)]
        assert times_a == times_b


class TestMerge:
    @TRAFFIC_SETTINGS
    @given(tenants=tenant_sets, seed=st.integers(0, 2**32 - 1))
    def test_merged_stream_sorted_and_tenant_complete(self, tenants, seed):
        merged = build_stream(tenants, seed, 50_000.0)
        times = [a.t_us for a in merged]
        assert times == sorted(times)
        assert [a.seq for a in merged] == list(range(len(merged)))
        for tenant in tenants:
            expected = tenant_stream(tenant, seed, 50_000.0)
            got = [a for a in merged if a.tenant == tenant.name]
            assert len(got) == len(expected)

    def test_merge_tie_break_is_total(self):
        a = [Arrival(0, 5.0, "a", 0, "BS.0", 100.0)]
        b = [Arrival(0, 5.0, "b", 0, "BS.0", 100.0)]
        merged = merge_streams([b, a])
        assert [x.tenant for x in merged] == ["a", "b"]
        assert [x.seq for x in merged] == [0, 1]

    def test_duplicate_tenants_rejected(self):
        tenant = TenantSpec(name="dup")
        with pytest.raises(ConfigError, match="duplicate"):
            build_stream([tenant, tenant], 1, 1000.0)

    def test_empty_tenant_set_rejected(self):
        with pytest.raises(ConfigError, match="at least one tenant"):
            build_stream([], 1, 1000.0)


class TestConformance:
    """KS tests at fixed seeds (alpha=0.01, asymptotic critical value).

    Seeds are pinned: the generators are deterministic, so these are
    regression tests of the sampling code, not flaky statistics.
    """

    HORIZON_US = 1_000_000.0

    def _interarrivals(self, spec: ArrivalSpec, seed: int):
        import random
        times = arrival_times(spec, random.Random(seed), self.HORIZON_US)
        assert len(times) > 500, "need a real sample for KS"
        return [b - a for a, b in zip([0.0] + times[:-1], times)], times

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_poisson_interarrivals_exponential(self, seed):
        spec = ArrivalSpec(kind="poisson", rate_per_s=2000.0)
        gaps, _ = self._interarrivals(spec, seed)
        d = ks_statistic(gaps, exponential_cdf(spec.rate_per_us))
        assert d < ks_threshold(len(gaps), alpha=0.01)

    @pytest.mark.parametrize("seed", [3, 11, 99])
    def test_diurnal_rescaled_arrivals_unit_exponential(self, seed):
        """Time-rescaling theorem: mapping arrival times through the
        integrated rate turns the inhomogeneous process into unit-rate
        Poisson, so the rescaled gaps must be Exp(1)."""
        spec = ArrivalSpec(kind="diurnal", rate_per_s=2000.0,
                           amplitude=0.8, period_us=40_000.0)
        _, times = self._interarrivals(spec, seed)
        rescaled = [spec.diurnal_integrated_rate(t) for t in times]
        gaps = [b - a for a, b in zip([0.0] + rescaled[:-1], rescaled)]
        d = ks_statistic(gaps, exponential_cdf(1.0))
        assert d < ks_threshold(len(gaps), alpha=0.01)

    @pytest.mark.parametrize("seed", [5, 23])
    def test_bursty_degenerates_to_poisson_at_factor_one(self, seed):
        """With burst_factor=1 both MMPP states share one rate, so the
        process must be exactly Poisson (memorylessness makes the dwell
        boundaries invisible)."""
        spec = ArrivalSpec(kind="bursty", rate_per_s=2000.0,
                           burst_factor=1.0, burst_fraction=0.2,
                           dwell_us=3_000.0)
        gaps, _ = self._interarrivals(spec, seed)
        d = ks_statistic(gaps, exponential_cdf(spec.rate_per_us))
        assert d < ks_threshold(len(gaps), alpha=0.01)

    @pytest.mark.parametrize("seed", [5, 23])
    def test_bursty_overdispersed_above_factor_one(self, seed):
        spec = ArrivalSpec(kind="bursty", rate_per_s=2000.0,
                           burst_factor=8.0, burst_fraction=0.1,
                           dwell_us=3_000.0)
        import random
        times = arrival_times(spec, random.Random(seed), self.HORIZON_US)
        iod = index_of_dispersion(times, self.HORIZON_US, 10_000.0)
        assert iod > 1.5, f"MMPP should be over-dispersed, got {iod:.2f}"
        poisson = arrival_times(ArrivalSpec(kind="poisson",
                                            rate_per_s=2000.0),
                                random.Random(seed), self.HORIZON_US)
        iod_poisson = index_of_dispersion(poisson, self.HORIZON_US,
                                          10_000.0)
        assert iod_poisson < iod

    def test_bursty_long_run_rate_matches_nominal(self):
        import random
        spec = ArrivalSpec(kind="bursty", rate_per_s=2000.0,
                           burst_factor=6.0, burst_fraction=0.15,
                           dwell_us=2_000.0)
        times = arrival_times(spec, random.Random(17), 4_000_000.0)
        rate = len(times) / 4.0  # arrivals per second over 4 s
        assert rate == pytest.approx(2000.0, rel=0.08)

    def test_diurnal_integrated_rate_matches_numeric_integral(self):
        spec = ArrivalSpec(kind="diurnal", rate_per_s=3000.0,
                           amplitude=0.6, period_us=25_000.0)
        t, steps = 37_000.0, 40_000
        dt = t / steps
        numeric = sum(spec.diurnal_rate_at((i + 0.5) * dt) * dt
                      for i in range(steps))
        assert spec.diurnal_integrated_rate(t) \
            == pytest.approx(numeric, rel=1e-6)


class TestKernelMixes:
    def test_all_mixes_reference_real_kernels(self):
        for name in mix_names():
            for label, weight in mix(name).kernels:
                kernel_spec(label)  # raises on unknown labels
                assert weight > 0

    def test_inverse_cdf_sampling_covers_support(self):
        m = mix("dl-infer")
        labels = {m.sample(i / 1000.0) for i in range(1000)}
        assert labels == {label for label, _ in m.kernels}

    def test_sample_rejects_out_of_range(self):
        with pytest.raises(ConfigError):
            mix("dl-infer").sample(1.0)
        with pytest.raises(ConfigError):
            mix("dl-infer").sample(-0.1)

    def test_unknown_mix_lists_known_names(self):
        with pytest.raises(ConfigError, match="table2-uniform"):
            mix("nope")

    def test_table2_split_covers_catalog(self):
        short = {label for label, _ in mix("table2-short").kernels}
        long = {label for label, _ in mix("table2-long").kernels}
        assert short and long and not (short & long)


class TestSpecsAndKnobs:
    def test_invalid_arrival_specs_rejected(self):
        with pytest.raises(ConfigError):
            ArrivalSpec(kind="weekly")
        with pytest.raises(ConfigError):
            ArrivalSpec(rate_per_s=0.0)
        with pytest.raises(ConfigError):
            ArrivalSpec(kind="diurnal", amplitude=1.0)
        with pytest.raises(ConfigError):
            ArrivalSpec(kind="bursty", burst_factor=0.5)
        with pytest.raises(ConfigError):
            ArrivalSpec(kind="bursty", burst_fraction=1.0)

    def test_invalid_tenant_specs_rejected(self):
        with pytest.raises(ConfigError):
            TenantSpec(name="")
        with pytest.raises(ConfigError):
            TenantSpec(name="a/b")
        with pytest.raises(ConfigError):
            TenantSpec(name="ok", mix="nope")
        with pytest.raises(ConfigError):
            TenantSpec(name="ok", slo_us=0.0)

    def test_arrival_cap_enforced(self):
        tenant = TenantSpec(name="hot",
                            arrival=ArrivalSpec(rate_per_s=20_000.0))
        with pytest.raises(ConfigError, match="safety cap"):
            build_stream([tenant], 1, 100_000.0, cap=50)

    def test_max_arrivals_knob(self, monkeypatch):
        tenant = TenantSpec(name="hot",
                            arrival=ArrivalSpec(rate_per_s=20_000.0))
        monkeypatch.setenv("CHIMERA_TRAFFIC_MAX_ARRIVALS", "50")
        with pytest.raises(ConfigError, match="safety cap"):
            build_stream([tenant], 1, 100_000.0)
        monkeypatch.setenv("CHIMERA_TRAFFIC_MAX_ARRIVALS", "0")
        with pytest.raises(ConfigError,
                           match="CHIMERA_TRAFFIC_MAX_ARRIVALS"):
            build_stream([tenant], 1, 100_000.0)

    def test_mix_knob(self, monkeypatch):
        monkeypatch.setenv("CHIMERA_TRAFFIC_MIX", "dl-train")
        tenant = TenantSpec(name="t")
        # Resolved at construction, so the mix is part of the cache key.
        monkeypatch.setenv("CHIMERA_TRAFFIC_MIX", "table2-long")
        assert tenant.mix == tenant.kernel_mix().name == "dl-train"
        monkeypatch.setenv("CHIMERA_TRAFFIC_MIX", "nope")
        with pytest.raises(ConfigError, match="CHIMERA_TRAFFIC_MIX"):
            TenantSpec(name="t")

    def test_window_knob(self, monkeypatch):
        from repro.harness.scenario import ScenarioSpec
        tenants = (TenantSpec(name="t"),)
        monkeypatch.setenv("CHIMERA_TRAFFIC_WINDOW_US", "2500")
        assert ScenarioSpec(tenants=tenants).window_us == 2500.0
        monkeypatch.setenv("CHIMERA_TRAFFIC_WINDOW_US", "-1")
        with pytest.raises(ConfigError, match="CHIMERA_TRAFFIC_WINDOW_US"):
            ScenarioSpec(tenants=tenants)

    def test_ks_helpers_validate(self):
        with pytest.raises(ConfigError):
            ks_statistic([], exponential_cdf(1.0))
        with pytest.raises(ConfigError):
            ks_threshold(10, alpha=0.2)
        with pytest.raises(ConfigError):
            exponential_cdf(0.0)
        assert ks_threshold(100) == pytest.approx(1.628 / math.sqrt(100))
