"""Unit tests for the analytical performance model (paper §V)."""

import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.config import Configuration
from repro.bench.profiles import cost_profile
from repro.model.orderstats import expected_order_statistic, quorum_delay
from repro.model.predictions import AnalyticalModel
from repro.plugins import RegistryError
from repro.model.queuing import md1_waiting_time, utilization
from repro.quorum.quorum import quorum_size
from repro.types import sizes

#: E[X_(k)] of n = N - 1 standard normals at the quorum index k =
#: quorum_size(N) - 1, as N: (Monte-Carlo mean, its standard error).  Each is
#: 1 000 000 samples of ``sorted(rng.gauss(0, 1) for _ in range(n))[k - 1]``
#: with ``rng = random.Random(N)``; SE = sample stddev / sqrt(1 000 000).
QUORUM_ORDER_STATISTIC_MC = {
    4: (0.0005060158460966238, 0.0006695108351950933),
    8: (0.3532013301957226, 0.00046855206932991194),
    16: (0.3352985772831468, 0.00032536469473088916),
    32: (0.41252387807144125, 0.00023055714388306605),
    64: (0.40751588109482606, 0.0001623573248529775),
    100: (0.41594680840287107, 0.00012974106873361375),
}


def monte_carlo_order_statistic(k, n, mean, stddev, samples, seed):
    """Sample mean of the k-th smallest of n Normal(mean, stddev) draws."""
    rng = random.Random(seed)
    total = 0.0
    for _ in range(samples):
        total += sorted(rng.gauss(mean, stddev) for _ in range(n))[k - 1]
    return total / samples


class TestOrderStatistics:
    def test_median_of_standard_normal_is_zero(self):
        # For an odd sample, the middle order statistic of a symmetric
        # distribution has expectation equal to the mean.
        assert expected_order_statistic(3, 5, mean=0.0, stddev=1.0) == pytest.approx(0.0, abs=1e-6)

    def test_minimum_is_below_mean_and_maximum_above(self):
        low = expected_order_statistic(1, 5, mean=10.0, stddev=2.0)
        high = expected_order_statistic(5, 5, mean=10.0, stddev=2.0)
        assert low < 10.0 < high

    def test_monotone_in_k(self):
        values = [expected_order_statistic(k, 7, 0.0, 1.0) for k in range(1, 8)]
        assert values == sorted(values)

    def test_zero_stddev_returns_mean(self):
        assert expected_order_statistic(2, 4, mean=3.0, stddev=0.0) == 3.0

    def test_matches_known_value_for_max_of_two(self):
        # E[max of two standard normals] = 1/sqrt(pi).
        expected = 1.0 / math.sqrt(math.pi)
        assert expected_order_statistic(2, 2, 0.0, 1.0) == pytest.approx(expected, rel=1e-4)

    def test_matches_monte_carlo(self):
        exact = expected_order_statistic(4, 6, mean=5.0, stddev=1.5)
        estimate = monte_carlo_order_statistic(4, 6, mean=5.0, stddev=1.5, samples=40000, seed=7)
        assert exact == pytest.approx(estimate, abs=0.05)

    @pytest.mark.parametrize("num_nodes", sorted(QUORUM_ORDER_STATISTIC_MC))
    def test_quorum_order_statistic_within_four_se_of_monte_carlo(self, num_nodes):
        estimate, se = QUORUM_ORDER_STATISTIC_MC[num_nodes]
        exact = expected_order_statistic(quorum_size(num_nodes) - 1, num_nodes - 1)
        assert abs(exact - estimate) <= 4 * se

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            expected_order_statistic(0, 5)
        with pytest.raises(ValueError):
            expected_order_statistic(6, 5)

    def test_quorum_delay_grows_with_cluster_size(self):
        small = quorum_delay(4, rtt_mean=1e-3, rtt_stddev=2e-4)
        large = quorum_delay(32, rtt_mean=1e-3, rtt_stddev=2e-4)
        assert large > small > 0

    def test_quorum_delay_single_node(self):
        assert quorum_delay(1, 1e-3, 1e-4) == 0.0

    @pytest.mark.parametrize("num_nodes,peers", [(3, 2), (6, 4), (9, 6)])
    def test_quorum_delay_waits_for_the_simulators_quorum(self, num_nodes, peers):
        # A certificate needs quorum_size(N) votes: the leader's own and peers'.
        assert peers == quorum_size(num_nodes) - 1
        expected = expected_order_statistic(peers, num_nodes - 1, 1e-3, 2e-4)
        assert quorum_delay(num_nodes, 1e-3, 2e-4) == expected


class TestQueueing:
    def test_utilization(self):
        assert utilization(5.0, 10.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            utilization(1.0, 0.0)
        with pytest.raises(ValueError):
            utilization(-1.0, 1.0)

    def test_waiting_time_increases_with_load(self):
        light = md1_waiting_time(1.0, 10.0)
        heavy = md1_waiting_time(9.0, 10.0)
        assert heavy > light > 0

    def test_waiting_time_zero_load(self):
        assert md1_waiting_time(0.0, 10.0) == 0.0

    def test_saturation_returns_infinity(self):
        assert md1_waiting_time(10.0, 10.0) == float("inf")
        assert md1_waiting_time(12.0, 10.0) == float("inf")

    def test_md1_matches_formula(self):
        # rho = 0.5, u = 10: w = 0.5 / (2*10*0.5) = 0.05.
        assert md1_waiting_time(5.0, 10.0) == pytest.approx(0.05)


def model(protocol="hotstuff", **overrides):
    return AnalyticalModel(Configuration(protocol=protocol, **overrides))


class TestAnalyticalModel:
    def test_commit_time_multipliers(self):
        hs = model("hotstuff")
        two_chain = model("2chainhs")
        streamlet = model("streamlet")
        assert hs.commit_time() == pytest.approx(2 * hs.service_time())
        assert two_chain.commit_time() == pytest.approx(two_chain.service_time())
        assert streamlet.commit_time() == pytest.approx(streamlet.service_time())

    def test_protocol_is_the_registered_name(self):
        assert model("2chainhs").protocol == "2chainhs"
        for spelling in ("HS", "2CHS", "SL"):
            with pytest.raises(RegistryError):
                model(spelling)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            model("pbft")

    def test_hotstuff_latency_exceeds_two_chain(self):
        assert model("hotstuff").latency(100.0) > model("2chainhs").latency(100.0)

    def test_streamlet_service_time_exceeds_hotstuff(self):
        # Vote broadcasting and echoing add CPU work per view.
        assert model("streamlet").service_time() > model("hotstuff").service_time()

    def test_latency_increases_with_load(self):
        hs = model("hotstuff")
        low = hs.latency(0.1 * hs.saturation_rate())
        high = hs.latency(0.9 * hs.saturation_rate())
        assert high > low

    def test_latency_is_infinite_beyond_saturation(self):
        hs = model("hotstuff")
        assert hs.latency(1.1 * hs.saturation_rate()) == float("inf")

    def test_saturation_grows_with_block_size(self):
        small = model("hotstuff", block_size=100).saturation_rate()
        large = model("hotstuff", block_size=400).saturation_rate()
        assert large > small

    def test_block_size_gain_has_diminishing_returns(self):
        s100 = model("hotstuff", block_size=100).saturation_rate()
        s400 = model("hotstuff", block_size=400).saturation_rate()
        s800 = model("hotstuff", block_size=800).saturation_rate()
        assert (s400 / s100) > (s800 / s400)

    def test_payload_increases_nic_time(self):
        light = model("hotstuff", payload_size=0)
        heavy = model("hotstuff", payload_size=1024)
        assert heavy.nic_time() > light.nic_time()
        assert heavy.latency(0.0) > light.latency(0.0)

    def test_extra_network_delay_raises_latency(self):
        near = model("hotstuff")
        far = model("hotstuff", extra_delay_mean=5e-3)
        assert far.latency(0.0) > near.latency(0.0) + 5e-3

    def test_scaling_with_cluster_size(self):
        small = model("hotstuff", num_nodes=4)
        large = model("hotstuff", num_nodes=32)
        assert large.service_time() > small.service_time()

    def test_latency_rises_between_two_rates(self):
        hs = model("hotstuff")
        assert hs.latency(0.2 * hs.saturation_rate()) < hs.latency(0.6 * hs.saturation_rate())

    def test_reads_the_configuration(self):
        config = Configuration(num_nodes=8, block_size=100, payload_size=128, cost_profile="fast")
        m = AnalyticalModel(config)
        assert m.config is config
        assert m.costs == cost_profile("fast")
        assert m.block_bytes() == sizes.block_size(100, 128, quorum_size(8))
        assert m.block_arrival_rate(800.0) == 1.0
        assert m.rtt_mean == 2.0 * config.base_delay_mean
        # The simulator's own default machine, not a second set of defaults.
        assert AnalyticalModel(Configuration()).costs == cost_profile("standard")

    def test_adds_extra_delay_stddev_only_with_extra_delay(self):
        with_extra = Configuration(
            base_delay_stddev=3e-4, extra_delay_mean=5e-3, extra_delay_stddev=4e-4
        )
        assert AnalyticalModel(with_extra).rtt_stddev == pytest.approx(math.sqrt(2.0) * 5e-4)
        # The simulator draws no extra delay at zero mean, whatever its stddev.
        without = with_extra.replace(extra_delay_mean=0.0)
        assert AnalyticalModel(without).rtt_stddev == math.sqrt(2.0) * 3e-4

    def test_cost_profile_moves_saturation(self):
        # One Configuration field picks the machine; nothing else restates it.
        standard, fast = model("hotstuff"), model("hotstuff", cost_profile="fast")
        assert fast.service_time() < standard.service_time()
        assert fast.saturation_rate() > standard.saturation_rate()

    def test_summary_contains_all_terms(self):
        summary = model("hotstuff").summary()
        assert set(summary) >= {"t_nic", "t_q", "t_s", "t_commit", "t_l", "saturation_tps"}


class TestTraitsNotNames:
    """The model reads ``commit_lag()``, ``echo_messages`` and
    ``votes_broadcast`` off the registered class; for the five built-ins
    that must give exactly the per-name tables it replaced."""

    @pytest.mark.parametrize(
        "protocol,lag",
        [("hotstuff", 2), ("2chainhs", 1), ("streamlet", 1), ("fasthotstuff", 1), ("lbft", 1)],
    )
    def test_commit_time_is_commit_lag_service_times(self, protocol, lag):
        m = model(protocol)
        assert m.commit_time() / m.service_time() == lag

    @pytest.mark.parametrize("protocol", ["hotstuff", "2chainhs", "streamlet", "fasthotstuff", "lbft"])
    @pytest.mark.parametrize("num_nodes", [4, 7, 16])
    def test_echo_overhead_takes_the_same_branch(self, protocol, num_nodes):
        m = model(protocol, num_nodes=num_nodes)
        n, costs = num_nodes, m.costs
        # Streamlet broadcast and echoed, LBFT only broadcast its votes.
        if protocol == "streamlet":
            expected = ((n - 1) + (n - 1) * (n - 2)) * costs.vote_verify_cost() + (
                n - 2
            ) * costs.proposal_verify_cost(m.config.block_size)
        elif protocol == "lbft":
            expected = (n - 1) * costs.vote_verify_cost()
        else:
            expected = 0.0
        assert m._echo_overhead_per_view() == expected


def test_model_runs_without_numpy_or_scipy():
    """The model is the standard library alone: with numpy and scipy made
    unimportable it still imports and predicts."""
    code = (
        "import sys; sys.modules.update(numpy=None, scipy=None); "
        "from repro.bench.config import Configuration; "
        "from repro.model import AnalyticalModel; "
        "print(AnalyticalModel(Configuration()).latency(100.0) > 0)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert (done.returncode, done.stdout.strip()) == (0, "True"), done.stderr
