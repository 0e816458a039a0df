"""Property-based tests for the scheduler, mempool, quorum, and model components."""

from hypothesis import given, settings, strategies as st

from repro.crypto.keys import KeyRegistry
from repro.mempool.mempool import Mempool
from repro.model.orderstats import expected_order_statistic
from repro.model.queuing import md1_waiting_time
from repro.quorum.quorum import QuorumTracker, max_faulty, quorum_size
from repro.sim.events import EventScheduler
from repro.types.transaction import Transaction

from helpers import build_certified_chain, make_vote


class TestSchedulerProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sched = EventScheduler()
        fired = []
        for delay in delays:
            sched.call_after(delay, lambda: fired.append(sched.now))
        sched.run_until_idle()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        delays=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30),
        horizon=st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_horizon_splits_events_exactly(self, delays, horizon):
        sched = EventScheduler()
        fired = []
        for delay in delays:
            sched.call_after(delay, lambda d=delay: fired.append(d))
        sched.run_until(horizon)
        assert sorted(fired) == sorted(d for d in delays if d <= horizon)


class TestMempoolProperties:
    @given(
        batch_sizes=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=10),
        num_txs=st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_batches_preserve_fifo_order_and_never_duplicate(self, batch_sizes, num_txs):
        pool = Mempool(capacity=1000)
        txs = [Transaction.create("c0", i, 0.0, key=f"k{i}") for i in range(num_txs)]
        for tx in txs:
            pool.add(tx)
        drained = []
        for size in batch_sizes:
            drained.extend(pool.next_batch(size))
        drained_ids = [t.txid for t in drained]
        assert drained_ids == [t.txid for t in txs[: len(drained_ids)]]
        assert len(set(drained_ids)) == len(drained_ids)

    @given(num_txs=st.integers(min_value=1, max_value=40), requeue_at=st.integers(min_value=1, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_requeue_then_drain_loses_nothing(self, num_txs, requeue_at):
        pool = Mempool(capacity=1000)
        txs = [Transaction.create("c0", i, 0.0, key=f"k{i}") for i in range(num_txs)]
        for tx in txs:
            pool.add(tx)
        taken = pool.next_batch(min(requeue_at, num_txs))
        pool.requeue_front(taken)
        drained = pool.next_batch(num_txs)
        assert {t.txid for t in drained} == {t.txid for t in txs}


class TestQuorumProperties:
    @given(num_nodes=st.integers(min_value=1, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_quorum_intersection_contains_an_honest_node(self, num_nodes):
        # Two quorums of size 2f+1 out of n >= 3f+1 nodes overlap in at least
        # f+1 nodes, hence contain at least one honest node.
        f = max_faulty(num_nodes)
        q = quorum_size(num_nodes)
        overlap = 2 * q - num_nodes
        assert overlap >= f + 1 or f == 0  # f == 0 clusters tolerate no faults

    @given(
        voters=st.lists(st.sampled_from([f"r{i}" for i in range(8)]), min_size=0, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_qc_forms_iff_distinct_voters_reach_threshold(self, voters):
        registry = KeyRegistry()
        forest, blocks = build_certified_chain([1], num_nodes=8)
        tracker = QuorumTracker(8, registry)
        qc = None
        for voter in voters:
            result = tracker.add_and_certify(make_vote(registry, voter, blocks[0]))
            if result is not None:
                qc = result
        distinct = len(set(voters))
        if distinct >= quorum_size(8):
            assert qc is not None
            assert len(qc.signers) >= quorum_size(8)
        else:
            assert qc is None


class TestModelProperties:
    @given(
        k=st.integers(min_value=1, max_value=10),
        n=st.integers(min_value=1, max_value=10),
        mean=st.floats(min_value=-5.0, max_value=5.0),
        stddev=st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_order_statistic_is_monotone_and_scales(self, k, n, mean, stddev):
        if k > n:
            return
        value = expected_order_statistic(k, n, mean, stddev)
        if k < n:
            assert value <= expected_order_statistic(k + 1, n, mean, stddev) + 1e-9
        if stddev == 0:
            assert value == mean

    @given(
        rho=st.floats(min_value=0.01, max_value=0.95),
        service_rate=st.floats(min_value=0.1, max_value=1000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_md1_waiting_time_is_nonnegative_and_increasing_in_load(self, rho, service_rate):
        arrival = rho * service_rate
        waiting = md1_waiting_time(arrival, service_rate)
        assert waiting >= 0
        heavier = md1_waiting_time(min(arrival * 1.02, service_rate * 0.99), service_rate)
        assert heavier >= waiting - 1e-12
