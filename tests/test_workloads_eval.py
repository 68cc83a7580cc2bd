"""Tests for workload generators, the remote client, energy model, tables,
and the cross-system KV harness."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.eval import EnergyModel, format_table, run_kv_workload
from repro.sim import RngPool
from repro.workloads import (
    constant_gaps,
    keyed_stream,
    lognormal_gaps,
    pareto_gaps,
    poisson_gaps,
    video_chunks,
    zipf_keys,
)


class TestGenerators:
    def rng(self):
        return RngPool(seed=5).stream("g")

    def test_constant_gaps_rate(self):
        gaps = constant_gaps(rate_per_kcycle=2.0, count=10)
        assert gaps == [500] * 10

    def test_poisson_gaps_mean(self):
        gaps = poisson_gaps(self.rng(), rate_per_kcycle=1.0, count=5000)
        assert np.mean(gaps) == pytest.approx(1000, rel=0.1)
        assert min(gaps) >= 1

    def test_poisson_deterministic_per_seed(self):
        a = poisson_gaps(RngPool(seed=5).stream("g"), 1.0, 100)
        b = poisson_gaps(RngPool(seed=5).stream("g"), 1.0, 100)
        assert a == b

    def test_zipf_keys_skewed(self):
        keys = zipf_keys(self.rng(), 10_000, universe=1000)
        counts = np.bincount(keys, minlength=1000)
        # the hottest key dominates the median key
        assert counts.max() > 50 * max(1, int(np.median(counts)))

    def test_video_chunks_shape(self):
        chunks = video_chunks(self.rng(), 50)
        assert all(c["frames"] == 30 for c in chunks)
        assert all(c["bytes"] >= 10_000 for c in chunks)
        assert [c["seq"] for c in chunks] == list(range(50))

    def test_rate_validation(self):
        with pytest.raises(ConfigError):
            constant_gaps(0, 5)
        with pytest.raises(ConfigError):
            poisson_gaps(self.rng(), -1, 5)
        with pytest.raises(ConfigError):
            zipf_keys(self.rng(), 5, skew=1.0)

    def test_lognormal_gaps_empirical_mean(self):
        # mu is solved from sigma so the long-run rate is the contract:
        # whatever the tail weight, the mean gap stays 1000 / rate
        for sigma in (0.5, 1.0, 2.0):
            gaps = lognormal_gaps(self.rng(), rate_per_kcycle=1.0,
                                  count=40_000, sigma=sigma)
            assert np.mean(gaps) == pytest.approx(1000, rel=0.1)
            assert min(gaps) >= 1

    def test_lognormal_heavier_tail_with_sigma(self):
        tame = lognormal_gaps(self.rng(), 1.0, 40_000, sigma=0.5)
        wild = lognormal_gaps(self.rng(), 1.0, 40_000, sigma=2.0)
        assert np.percentile(wild, 99.9) > 5 * np.percentile(tame, 99.9)

    def test_pareto_gaps_empirical_mean(self):
        # alpha=2.5 has finite variance, so the sample mean converges
        # fast enough for a tight check
        gaps = pareto_gaps(self.rng(), rate_per_kcycle=2.0, count=40_000,
                           alpha=2.5)
        assert np.mean(gaps) == pytest.approx(500, rel=0.1)
        assert min(gaps) >= 1

    def test_pareto_needs_finite_mean(self):
        with pytest.raises(ConfigError):
            pareto_gaps(self.rng(), 1.0, 10, alpha=1.0)
        with pytest.raises(ConfigError):
            lognormal_gaps(self.rng(), 1.0, 10, sigma=0)

    def test_zipf_universe_bound(self):
        keys = zipf_keys(self.rng(), 5_000, universe=17)
        assert min(keys) >= 0 and max(keys) < 17

    def test_zipf_seeded_independent_of_arrivals(self):
        # drawing arrivals from the same seed must not perturb the key
        # sequence: keys come from their own keyed stream
        keys_alone = zipf_keys(keyed_stream(7, "zipf", "tenant-a"), 500,
                               universe=100)
        pool = RngPool(seed=7)
        poisson_gaps(pool.stream("gaps"), 1.0, 500)
        keys_after = zipf_keys(keyed_stream(7, "zipf", "tenant-a"), 500,
                               universe=100)
        assert keys_alone == keys_after

    def test_zipf_two_tenants_same_seed_uncorrelated(self):
        a = zipf_keys(keyed_stream(7, "zipf", "tenant-a"), 2_000,
                      universe=1_000)
        b = zipf_keys(keyed_stream(7, "zipf", "tenant-b"), 2_000,
                      universe=1_000)
        assert a != b
        # positionwise collisions should look like chance for a zipf
        # draw (hot keys collide often; identical streams would be 100%)
        same = sum(1 for x, y in zip(a, b) if x == y)
        assert same < len(a) * 0.5

    def test_keyed_stream_independence(self):
        a = keyed_stream(3, "x").random(100)
        b = keyed_stream(3, "y").random(100)
        c = keyed_stream(3, "x").random(100)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)


class TestEnergyModel:
    def test_cpu_dominates_hosted_shape(self):
        hosted = EnergyModel()
        hosted.add_cpu_cycles(100_000)
        hosted.add_fpga_cycles(10_000)
        hosted.add_pcie_bytes(1_000_000)
        direct = EnergyModel()
        direct.add_fpga_cycles(10_000)
        direct.add_noc_flit_hops(50_000)
        assert hosted.breakdown.total_nj > 5 * direct.breakdown.total_nj
        assert hosted.breakdown.cpu_nj > hosted.breakdown.fpga_nj

    def test_per_request_normalization(self):
        model = EnergyModel()
        model.add_fpga_cycles(1_000_000)
        assert model.breakdown.per_request_uj(1000) == pytest.approx(12.0)
        assert model.breakdown.per_request_uj(0) == 0.0

    def test_breakdown_dict_keys(self):
        model = EnergyModel()
        model.add_nic_frames(10)
        d = model.breakdown.as_dict()
        assert set(d) == {"cpu_nj", "fpga_nj", "noc_nj", "pcie_nj",
                          "dram_nj", "nic_nj", "total_nj"}


class TestTables:
    def test_format_table_alignment(self):
        out = format_table(["name", "value"], [["a", 1], ["bb", 22.5]])
        lines = out.split("\n")
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # all same width

    def test_format_value_kinds(self):
        from repro.eval import format_value

        assert format_value(1234567) == "1,234,567"
        assert format_value(0.5) == "0.500"
        assert format_value(1e-9) == "1.00e-09"
        assert format_value("x") == "x"
        assert format_value(True) == "True"


class TestKvHarness:
    @pytest.fixture(scope="class")
    def results(self):
        return {
            kind: run_kv_workload(kind, n_requests=40, warmup_keys=8)
            for kind in ("apiary", "hosted", "hosted_bypass", "bare")
        }

    def test_all_requests_complete(self, results):
        for kind, r in results.items():
            assert r["completed"] == 40, kind
            assert r["timeouts"] == 0, kind

    def test_direct_attach_beats_hosted_on_latency(self, results):
        """The D1 headline shape."""
        assert results["apiary"]["latency"]["p50"] < results["hosted"]["latency"]["p50"]
        assert results["apiary"]["latency"]["p50"] < results["hosted_bypass"]["latency"]["p50"]

    def test_apiary_overhead_over_bare_is_small(self, results):
        """Apiary's interposition costs a few percent, not a multiple."""
        apiary = results["apiary"]["latency"]["p50"]
        bare = results["bare"]["latency"]["p50"]
        assert apiary < bare * 1.25

    def test_hosted_burns_cpu_direct_does_not(self, results):
        """The D3 CPU-overhead shape."""
        assert results["hosted"]["cpu_cycles_per_request"] > 500
        assert results["apiary"]["cpu_cycles_per_request"] == 0
        assert results["bare"]["cpu_cycles_per_request"] == 0

    def test_hosted_energy_dominated_by_cpu(self, results):
        hosted = results["hosted"]["energy_breakdown"]
        assert hosted["cpu_nj"] > hosted["fpga_nj"]
        assert (results["hosted"]["energy_uj_per_request"]
                > 3 * results["apiary"]["energy_uj_per_request"])

    def test_bypass_cheaper_than_kernel_stack(self, results):
        assert (results["hosted_bypass"]["cpu_cycles_per_request"]
                < results["hosted"]["cpu_cycles_per_request"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            run_kv_workload("mainframe")
