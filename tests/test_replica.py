"""Unit and small-cluster tests for the replica event loop."""

from types import SimpleNamespace

import pytest

from repro.bench.config import Configuration
from repro.bench.metrics import MetricsCollector
from repro.bench.runner import build_cluster, run_cluster
from repro.core.byzantine import ForkingReplica, SilentReplica, make_replica
from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import verify
from repro.election.election import HashBasedElection, RoundRobinElection
from repro.network.delays import FixedDelay
from repro.network.network import Network
from repro.quorum import quorum
from repro.sim.events import EventScheduler
from repro.sim.random import RandomStreams
from repro.types.messages import ClientReply, ClientRequest
from repro.types.sizes import client_reply_size, client_request_size
from repro.types.transaction import Transaction

from helpers import make_transaction


def build_mini_cluster(
    num_nodes=4,
    protocol="hotstuff",
    byzantine=(),
    strategy="silence",
    view_timeout=0.05,
    block_size=10,
    election_kind="round-robin",
):
    """A tiny in-process cluster for focused replica tests.

    Fault-injection tests use hash-based (per-view random) election: with
    strict round-robin and four nodes, a permanently silent replica always
    occupies the same rotation slot, which starves HotStuff's
    consecutive-view three-chain — randomized election (the paper's "leader
    chosen at random") avoids that pathological alignment.
    """
    scheduler = EventScheduler()
    streams = RandomStreams(seed=42)
    network = Network(scheduler, streams, base_delay=FixedDelay(0.0005))
    registry = KeyRegistry()
    config = Configuration(
        protocol=protocol, num_nodes=num_nodes, block_size=block_size, view_timeout=view_timeout
    )
    node_ids = config.node_ids()
    if election_kind == "hash":
        election = HashBasedElection(node_ids, seed=7)
    else:
        election = RoundRobinElection(node_ids)
    replicas = {}
    for node_id in node_ids:
        kind = strategy if node_id in byzantine else ""
        replicas[node_id] = make_replica(
            kind, node_id, scheduler, network, election, registry, config
        )
    return scheduler, network, replicas


def collect_events(replica):
    """A metrics collector subscribed to ``replica``'s event stream."""
    collector = MetricsCollector()
    replica.events.subscribe(collector.on_event, collector.mask)
    return collector


def submit_transactions(scheduler, network, replica_id, count, sender="c0"):
    """Register a throwaway client endpoint and push transactions directly."""
    if sender not in network.endpoints():
        network.register(sender, lambda m: None)
    txs = []
    for _ in range(count):
        tx = make_transaction(sender, scheduler.now)
        txs.append(tx)
        network.send(
            sender,
            replica_id,
            ClientRequest(sender=sender, size_bytes=client_request_size(0), transaction=tx),
        )
    return txs


class TestHappyPath:
    def test_cluster_commits_submitted_transactions(self):
        scheduler, network, replicas = build_mini_cluster()
        for replica in replicas.values():
            replica.start()
        txs = submit_transactions(scheduler, network, "r0", 5)
        scheduler.run_until(1.0)
        observer = replicas["r0"]
        committed = set(observer.forest.committed_transactions())
        assert {tx.txid for tx in txs} <= committed

    def test_views_advance_without_timeouts_in_happy_path(self):
        scheduler, network, replicas = build_mini_cluster(view_timeout=1.0)
        for replica in replicas.values():
            replica.start()
        scheduler.run_until(0.5)
        for replica in replicas.values():
            assert replica.pacemaker.stats.local_timeouts == 0
            assert replica.current_view > 50

    def test_commit_events_carry_the_commit_view(self):
        # The block-interval metric reads the view a commit becomes visible
        # in off the commit event: three views after the proposal in
        # fault-free chained HotStuff (paper §V).
        scheduler, network, replicas = build_mini_cluster(view_timeout=1.0)
        collector = collect_events(replicas["r0"])
        for replica in replicas.values():
            replica.start()
        scheduler.run_until(0.2)
        records = collector.committed_blocks
        assert len(records) == replicas["r0"].forest.committed_height
        assert {r.commit_view - r.proposal_view for r in records} == {3}

    def test_all_replicas_commit_the_same_chain(self):
        scheduler, network, replicas = build_mini_cluster()
        for replica in replicas.values():
            replica.start()
        submit_transactions(scheduler, network, "r1", 8)
        scheduler.run_until(1.0)
        heights = [r.forest.committed_height for r in replicas.values()]
        reference = replicas["r0"].forest.consistency_hash(min(heights))
        for replica in replicas.values():
            assert replica.forest.consistency_hash(min(heights)) == reference

    def test_committed_transactions_are_executed(self):
        scheduler, network, replicas = build_mini_cluster()
        for replica in replicas.values():
            replica.start()
        submit_transactions(scheduler, network, "r0", 3)
        scheduler.run_until(1.0)
        assert replicas["r2"].kvstore.operations_applied >= 3

    def test_leader_proposes_only_in_its_views(self):
        scheduler, network, replicas = build_mini_cluster(view_timeout=1.0)
        for replica in replicas.values():
            replica.start()
        scheduler.run_until(0.2)
        # With round-robin rotation and no faults, every replica proposes
        # roughly the same number of times.
        counts = [r.stats.proposals_sent for r in replicas.values()]
        assert min(counts) > 0
        assert max(counts) - min(counts) <= 2

    def test_client_request_rejected_when_mempool_full(self):
        scheduler, network, replicas = build_mini_cluster()
        replicas["r0"].mempool.capacity = 5
        # Do not start the replicas: nothing drains the mempool.
        replies = []
        network.register("c9", replies.append)
        for _ in range(8):
            tx = make_transaction("c9")
            network.send(
                "c9",
                "r0",
                ClientRequest(sender="c9", size_bytes=client_request_size(0), transaction=tx),
            )
        scheduler.run_until(0.5)
        rejected = [r for r in replies if r.status == "rejected"]
        assert len(rejected) == 3
        assert replicas["r0"].stats.client_rejections == 3


class TestCrashAndTimeouts:
    def test_crashed_replica_stops_participating(self):
        scheduler, network, replicas = build_mini_cluster()
        for replica in replicas.values():
            replica.start()
        scheduler.run_until(0.1)
        replicas["r3"].crash()
        before = replicas["r3"].stats.proposals_sent
        scheduler.run_until(0.5)
        assert replicas["r3"].stats.proposals_sent == before
        assert network.is_crashed("r3")

    def test_cluster_survives_one_crash(self):
        scheduler, network, replicas = build_mini_cluster(view_timeout=0.02, election_kind="hash")
        for replica in replicas.values():
            replica.start()
        scheduler.run_until(0.1)
        replicas["r3"].crash()
        height_at_crash = replicas["r0"].forest.committed_height
        scheduler.run_until(1.0)
        assert replicas["r0"].forest.committed_height > height_at_crash
        assert replicas["r0"].pacemaker.stats.view_changes_on_tc > 0

    def test_two_crashes_out_of_four_block_progress(self):
        scheduler, network, replicas = build_mini_cluster(view_timeout=0.02, election_kind="hash")
        for replica in replicas.values():
            replica.start()
        scheduler.run_until(0.1)
        replicas["r2"].crash()
        replicas["r3"].crash()
        height_at_crash = replicas["r0"].forest.committed_height
        scheduler.run_until(0.6)
        # With only 2 of 4 replicas alive no quorum (3) can form.
        assert replicas["r0"].forest.committed_height <= height_at_crash + 1


class TestOwnMessages:
    @pytest.mark.parametrize("protocol", ["hotstuff", "streamlet"])
    def test_own_votes_and_timeouts_count_unverified(self, monkeypatch, protocol):
        # With r3 down every QC and TC needs all three live replicas, so
        # progress shows that each counted its own copy; the spy shows that
        # none verified one.
        checked = []

        def spy(owned, signature):
            checked.append((owned.owner, signature.signer))
            return verify(owned.registry, signature)

        monkeypatch.setattr(quorum, "verify", spy)
        scheduler, network, replicas = build_mini_cluster(
            protocol=protocol, view_timeout=0.02, election_kind="hash")
        for replica in replicas.values():
            owned = SimpleNamespace(owner=replica.node_id, registry=replica.registry)
            replica.quorum.registry = replica.timeouts.registry = owned
            replica.start()
        replicas["r3"].crash()
        scheduler.run_until(1.0)
        observer = replicas["r0"]
        assert observer.forest.committed_height > 5
        assert observer.pacemaker.stats.view_changes_on_tc > 0
        assert checked and all(owner != signer for owner, signer in checked)


class TestByzantineReplicas:
    def test_silent_replica_never_proposes(self):
        scheduler, network, replicas = build_mini_cluster(byzantine={"r3"}, strategy="silence")
        for replica in replicas.values():
            replica.start()
        scheduler.run_until(0.5)
        assert isinstance(replicas["r3"], SilentReplica)
        assert replicas["r3"].stats.proposals_sent == 0
        assert replicas["r3"].views_silenced > 0

    def test_silence_attack_forces_timeouts_but_not_stall(self):
        scheduler, network, replicas = build_mini_cluster(
            byzantine={"r3"}, strategy="silence", election_kind="hash"
        )
        for replica in replicas.values():
            replica.start()
        scheduler.run_until(1.0)
        observer = replicas["r0"]
        assert observer.pacemaker.stats.view_changes_on_tc > 0
        assert observer.forest.committed_height > 5

    def test_forking_replica_creates_forks_in_hotstuff(self):
        scheduler, network, replicas = build_mini_cluster(byzantine={"r3"}, strategy="forking")
        collector = collect_events(replicas["r0"])
        for replica in replicas.values():
            replica.start()
        scheduler.run_until(1.0)
        assert isinstance(replicas["r3"], ForkingReplica)
        assert replicas["r3"].forks_attempted > 0
        assert collector.blocks_forked

    def test_forking_is_harmless_in_streamlet(self):
        scheduler, network, replicas = build_mini_cluster(
            protocol="streamlet", byzantine={"r3"}, strategy="forking"
        )
        collector = collect_events(replicas["r0"])
        for replica in replicas.values():
            replica.start()
        scheduler.run_until(0.5)
        assert replicas["r3"].forks_attempted == 0
        assert collector.blocks_added
        assert collector.blocks_forked == []

    def test_no_safety_violations_under_either_attack(self):
        for strategy in ("forking", "silence"):
            scheduler, network, replicas = build_mini_cluster(byzantine={"r3"}, strategy=strategy)
            for replica in replicas.values():
                replica.start()
            scheduler.run_until(1.0)
            for replica in replicas.values():
                assert replica.stats.safety_violations == 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            build_mini_cluster(byzantine={"r3"}, strategy="equivocation")


class TestSettings:
    def test_replica_reads_its_settings_off_the_configuration(self):
        _, _, replicas = build_mini_cluster(num_nodes=7, block_size=3, view_timeout=0.7)
        replica = replicas["r2"]
        assert replica.config.block_size == 3
        assert replica.peers == replica.config.node_ids() == [f"r{i}" for i in range(7)]
        assert replica.mempool.capacity == replica.config.mempool_capacity
        assert replica.pacemaker.view_timeout == 0.7

    def test_is_leader_uses_election(self):
        scheduler, network, replicas = build_mini_cluster()
        assert replicas["r1"].is_leader(1)
        assert not replicas["r0"].is_leader(1)

    def test_block_size_limits_batch(self):
        scheduler, network, replicas = build_mini_cluster(block_size=2, view_timeout=1.0)
        for replica in replicas.values():
            replica.start()
        submit_transactions(scheduler, network, "r1", 10)
        scheduler.run_until(0.5)
        observer = replicas["r0"]
        sizes = [
            v.block.num_transactions
            for v in observer.forest._vertices.values()
            if not v.block.is_genesis
        ]
        assert max(sizes) <= 2


def record_replies(network):
    """Every ``ClientReply`` the fabric is asked to carry, in send order, as
    ``(replica, client, sequences, status)``."""
    replies = []
    send = network.send

    def spy(src, dst, message):
        if isinstance(message, ClientReply):
            assert message.size_bytes == client_reply_size(len(message.sequences))
            replies.append((src, dst, message.sequences, message.status))
        send(src, dst, message)

    network.send = spy
    return replies


def request(network, replica_id, transaction):
    network.send(transaction.client_id, replica_id, ClientRequest(
        sender=transaction.client_id, size_bytes=client_request_size(0),
        transaction=transaction))


class TestCommitPathPerBlock:
    def test_one_reply_per_client_and_block_with_its_sequences_in_block_order(self):
        """r0 receives most requests of two clients (whole blocks are its
        own), r1 a few (some of a block), r2 one that r0 also got, r3 none:
        per committed block, each sends one ``committed`` reply to each
        client it received a request of, listing that client's sequences in
        the order the block lists them."""
        scheduler, network, replicas = build_mini_cluster(block_size=10, view_timeout=1.0)
        replies = record_replies(network)
        for client in ("c0", "c1"):
            network.register(client, lambda m: None)
        txs = [Transaction.create(f"c{i % 2}", i // 2, created_at=0.0, key=f"k{i}")
               for i in range(40)]
        received = {"r0": txs[:30], "r1": txs[30:], "r2": [txs[3]], "r3": []}
        for replica in replicas.values():
            replica.start()
        for replica_id, batch in received.items():
            for transaction in batch:
                request(network, replica_id, transaction)
        scheduler.run_until(1.0)
        for replica_id, replica in replicas.items():
            mine = {tx.txid for tx in received[replica_id]}
            expected = []
            for block_id in replica.forest.committed_chain:
                by_client = {}
                for transaction in replica.forest.get_block(block_id).transactions:
                    if transaction.txid in mine:
                        mine.discard(transaction.txid)
                        by_client.setdefault(transaction.client_id, []).append(
                            transaction.sequence)
                expected += [(replica_id, client, tuple(sequences), "committed")
                             for client, sequences in by_client.items()]
            assert not mine, "a request was never committed: lengthen the run"
            assert [reply for reply in replies if reply[0] == replica_id] == expected
        # 41 requests received, far fewer replies: a block answers each
        # client once.
        assert sum(len(sequences) for _, _, sequences, _ in replies) == 41
        assert len(replies) < 15
        assert {client for _, client, _, _ in replies} == {"c0", "c1"}

    def test_a_transaction_committed_again_is_not_replied_to_twice(self):
        scheduler, network, replicas = build_mini_cluster(block_size=10, view_timeout=1.0)
        replies = record_replies(network)
        network.register("c0", lambda m: None)
        for replica in replicas.values():
            replica.start()
        tx = make_transaction()
        request(network, "r1", tx)
        scheduler.run_until(0.3)
        once = [("r1", "c0", (tx.sequence,), "committed")]
        assert replies == once
        # Its client asks r1 again, and r1 batches it once more, as a
        # Byzantine leader may: r1 meets it at admission and, holding it, in
        # a later block.
        request(network, "r1", tx)
        replicas["r1"].mempool.add(tx)
        scheduler.run_until(0.6)
        assert replicas["r1"].forest.committed_transactions().count(tx.txid) >= 2
        assert replies == once

    def test_rejected_and_already_applied_answers_carry_one_sequence(self):
        scheduler, network, replicas = build_mini_cluster(block_size=10, view_timeout=1.0)
        replies = record_replies(network)
        network.register("c0", lambda m: None)
        for replica in replicas.values():
            replica.start()
        done = make_transaction()
        request(network, "r1", done)
        scheduler.run_until(0.3)
        odd = make_transaction(operation="frob")
        request(network, "r2", odd)
        # A retry to a replica that never received the request: it has
        # applied the transaction, so it answers at admission.
        request(network, "r3", done)
        scheduler.run_until(0.31)
        assert replies == [("r1", "c0", (done.sequence,), "committed"),
                           ("r2", "c0", (odd.sequence,), "rejected"),
                           ("r3", "c0", (done.sequence,), "committed")]


class TestReplyRouting:
    """A replica answers at commit the transactions its mempool held."""

    def test_refused_requests_hold_no_route_and_evict_no_live_one(self):
        """A full mempool, a duplicate of the admitted transaction and a
        retry of an applied one are each answered on arrival and leave the
        mempool holding only the admitted transaction, whose commit is still
        answered."""
        scheduler, network, replicas = build_mini_cluster(block_size=10, view_timeout=1.0)
        replies = record_replies(network)
        for client in ("c0", "c1"):
            network.register(client, lambda m: None)
        r1 = replicas["r1"]
        r1.mempool.capacity = 1
        live = make_transaction("c0")
        request(network, "r1", live)
        request(network, "r1", live)
        refused = [make_transaction("c1") for _ in range(50)]
        for transaction in refused:
            request(network, "r1", transaction)
        scheduler.run_until(0.1)
        assert r1.stats.client_rejections == len(refused) + 1
        assert [reply for reply in replies if reply[1] == "c0"] == [
            ("r1", "c0", (live.sequence,), "rejected")]
        assert r1.mempool.snapshot_ids() == [live.txid]
        assert not any(transaction.txid in r1.mempool for transaction in refused)
        for replica in replicas.values():
            replica.start()
        scheduler.run_until(1.0)
        assert ("r1", "c0", (live.sequence,), "committed") in replies
        assert live.txid not in r1.mempool
        # The applied transaction's retry is refused at admission too.
        request(network, "r2", live)
        scheduler.run_until(1.01)
        assert replies[-1] == ("r2", "c0", (live.sequence,), "committed")
        assert live.txid not in replicas["r2"].mempool

    def test_a_forked_block_is_requeued_and_answered_only_where_it_was_admitted(self):
        """A forking leader orphans honest blocks: each of their transactions
        goes back to the front of the mempool of the replica that admitted
        it, at no other replica, and is answered once, by that replica, when
        it commits later."""
        scheduler, network, replicas = build_mini_cluster(
            byzantine={"r3"}, strategy="forking", block_size=2, election_kind="hash")
        replies = record_replies(network)
        requeued = {replica_id: [] for replica_id in replicas}
        for replica_id, replica in replicas.items():
            def requeue_front(transactions, _requeue=replica.mempool.requeue_front,
                              _log=requeued[replica_id]):
                transactions = list(transactions)
                _log.extend(tx.txid for tx in transactions)
                return _requeue(transactions)
            replica.mempool.requeue_front = requeue_front
        admitted = {}
        for replica_id in ("r0", "r1", "r2"):
            for transaction in submit_transactions(scheduler, network, replica_id, 20):
                admitted[transaction.txid] = (replica_id, transaction)
        for replica in replicas.values():
            replica.start()
        scheduler.run_until(0.5)
        assert replicas["r3"].forks_attempted > 0
        assert requeued["r3"] == []
        assert any(requeued.values()), "no forked block carried a transaction"
        for replica_id, txids in requeued.items():
            assert all(admitted[txid][0] == replica_id for txid in txids)
        committed = set(replicas["r0"].forest.committed_transactions())
        assert set(admitted) <= committed
        expected = sorted((replica_id, tx.client_id, tx.sequence)
                          for replica_id, tx in admitted.values())
        answered = sorted((replica, client, sequence)
                          for replica, client, sequences, status in replies
                          for sequence in sequences if status == "committed")
        assert answered == expected

    @pytest.mark.parametrize("settings", [
        dict(num_clients=1, concurrency=100, mempool_capacity=10),
        dict(num_clients=2, concurrency=10, byzantine_nodes=1, strategy="forking",
             election="hash"),
    ], ids=["refusals", "forking"])
    def test_each_admitted_commit_is_answered_once_to_its_client(self, settings):
        """End to end: every transaction on its admitting replica's committed
        chain is answered exactly once, by that replica, to its client, and
        no client request times out (a dropped reply would)."""
        cluster = build_cluster(Configuration(
            block_size=10, cost_profile="fast", view_timeout=0.05, request_timeout=0.1,
            runtime=0.2, warmup=0.0, cooldown=0.1, **settings))
        admitted = {}
        for replica_id, replica in cluster.replicas.items():
            def add(transaction, _add=replica.mempool.add, _replica_id=replica_id):
                if not _add(transaction):
                    return False
                admitted[transaction.txid] = (_replica_id, transaction)
                return True
            replica.mempool.add = add
        replies = record_replies(cluster.network)
        run_cluster(cluster)
        rejections = sum(r.stats.client_rejections for r in cluster.replicas.values())
        if "mempool_capacity" in settings:
            assert rejections > 100
        else:
            assert any(getattr(r, "forks_attempted", 0) for r in cluster.replicas.values())
        expected = []
        for replica_id, replica in cluster.replicas.items():
            chain = set(replica.forest.committed_transactions())
            expected += [(replica_id, tx.client_id, tx.sequence)
                         for admitted_by, tx in admitted.values()
                         if admitted_by == replica_id and tx.txid in chain]
        answered = [(replica, client, sequence)
                    for replica, client, sequences, status in replies
                    for sequence in sequences if status == "committed"]
        assert len(expected) > 200
        assert sorted(answered) == sorted(expected)
        assert sum(client.requests_timed_out for client in cluster.clients) == 0


class TestUnknownOperation:
    """Nothing else validates ``Transaction.operation``: the codec only knows
    it is a string."""

    def test_refused_at_admission(self):
        scheduler, network, replicas = build_mini_cluster()
        replies = record_replies(network)
        network.register("c0", lambda m: None)
        for replica in replicas.values():
            replica.start()
        odd = make_transaction(operation="frob")
        request(network, "r1", odd)
        accepted = submit_transactions(scheduler, network, "r1", 3)
        scheduler.run_until(0.5)
        assert replies[0] == ("r1", "c0", (odd.sequence,), "rejected")
        assert replicas["r1"].stats.client_rejections == 1
        committed = replicas["r0"].forest.committed_transactions()
        assert odd.txid not in committed
        assert {tx.txid for tx in accepted} <= set(committed)
        assert all(r.kvstore.operations_invalid == 0 for r in replicas.values())

    def test_in_a_block_it_is_a_counted_no_op_on_every_replica(self):
        scheduler, network, replicas = build_mini_cluster()
        for replica in replicas.values():
            replica.start()
        # A Byzantine leader batches what it likes: straight into its mempool.
        odd = make_transaction(operation="frob", key="a")
        replicas["r1"].mempool.add(make_transaction(key="a", value="1"))
        replicas["r1"].mempool.add(odd)
        submit_transactions(scheduler, network, "r2", 4)
        scheduler.run_until(0.5)  # raised ValueError out of _commit before
        assert odd.txid in replicas["r0"].forest.committed_transactions()
        states = [replica.kvstore.snapshot() for replica in replicas.values()]
        assert all(state == states[0] for state in states)
        assert states[0].operations_applied == 5
        assert [r.kvstore.operations_invalid for r in replicas.values()] == [1, 1, 1, 1]
        assert all(not r.kvstore.transaction_applied(odd) for r in replicas.values())
        assert all(r.kvstore.get("a") == "1" for r in replicas.values())
        assert all(r.stats.safety_violations == 0 for r in replicas.values())

    def test_a_configured_run_survives_the_request(self):
        cluster = build_cluster(Configuration(
            block_size=20, concurrency=5, num_clients=1, cost_profile="fast",
            view_timeout=0.05, runtime=0.5, warmup=0.1, cooldown=0.1))
        odd = make_transaction(operation="frob")
        cluster.network.send("c0", "r1", ClientRequest(sender="c0", size_bytes=100, transaction=odd))
        result = run_cluster(cluster)
        assert result.consistent
        assert result.metrics.committed_transactions > 0
        assert cluster.replicas["r1"].stats.client_rejections == 1
        stores = [replica.kvstore for replica in cluster.honest_replicas()]
        assert len({store.operations_applied for store in stores}) == 1
        assert len({store.snapshot().dedup for store in stores}) == 1
