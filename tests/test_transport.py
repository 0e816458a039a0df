"""Transport seam tests: codec, real signing, loopback deployment clusters.

Covers the deployment runtime end to end:

* both backends structurally conform to the :mod:`repro.transport.base`
  seam protocols (and the simulation conforms *without importing* the
  transport package — pinned by an AST import-isolation test);
* the wire codec round-trips every message kind;
* Ed25519 key pairs sign and verify through the registry and reject
  tampering through :class:`~repro.quorum.quorum.QuorumTracker` (the
  primitive itself is covered by ``test_ed25519.py``);
* a real asyncio loopback cluster reaches consensus, survives a
  crash-and-recover (state sync over actual TCP), and emits the same record
  schema as the discrete-event model from one shared ``Configuration``.
"""

from __future__ import annotations

import ast
import asyncio
from pathlib import Path

import pytest

from helpers import make_vote
from repro.bench.config import Configuration
from repro.bench.runner import build_cluster, run_experiment
from repro.crypto import ed25519
from repro.crypto.keys import Ed25519KeyPair, KeyPair, KeyRegistry, available_schemes
from repro.crypto.signatures import Signature, sign, verify
from repro.executor.kvstore import DedupState, KVSnapshot
from repro.checkpoint.messages import SnapshotRequest, SnapshotResponse
from repro.checkpoint.snapshot import Checkpoint
from repro.forest.forest import BlockForest
from repro.network.network import Network
from repro.quorum.quorum import QuorumTracker
from repro.sim.events import EventScheduler
from repro.sim.random import RandomStreams
from repro.sync.messages import BlockRequest, BlockResponse
from repro.transport.base import Clock, TimerHandle, Transport
from repro.transport.clock import AsyncioClock
from repro.transport.codec import (
    CodecError,
    MAX_FRAME_BYTES,
    decode_message,
    encode_message,
    frame,
    read_frame,
)
from repro.transport.asyncio_net import AsyncioTransport
from repro.transport.runtime import DeploymentRunner
from repro.types.block import make_block
from repro.types.certificates import (
    QuorumCertificate,
    Timeout,
    TimeoutCertificate,
    Vote,
    vote_digest,
)
from repro.types.messages import (
    UNASSIGNED_MESSAGE_ID,
    ClientReply,
    ClientRequest,
    ProposalMessage,
    TimeoutCertificateMessage,
    TimeoutMessage,
    VoteMessage,
)
from repro.types.transaction import Transaction

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


# --------------------------------------------------------------------------
# seam conformance


class TestSeamConformance:
    def test_event_scheduler_is_a_clock(self):
        scheduler = EventScheduler()
        assert isinstance(scheduler, Clock)
        assert isinstance(scheduler.call_after(1.0, lambda: None), TimerHandle)

    def test_simulated_network_is_a_transport(self):
        network = Network(EventScheduler(), RandomStreams(seed=1))
        assert isinstance(network, Transport)

    def test_asyncio_backends_conform(self):
        async def scenario():
            clock = AsyncioClock()
            assert isinstance(clock, Clock)
            assert isinstance(clock.call_after(10.0, lambda: None), TimerHandle)
            assert isinstance(AsyncioTransport(), Transport)

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# wire codec


def _sample_objects():
    """One of everything: a signed chain fragment plus client traffic."""
    registry = KeyRegistry()
    forest = BlockForest()
    tx = Transaction.create(client_id="c0", created_at=1.25, payload_size=16)
    qc0 = QuorumCertificate(
        block_id=forest.genesis.block_id, view=0,
        signers=frozenset({"r0", "r1", "r2"}),
        signatures=(sign(registry.register("r0"), "aa"), sign(registry.register("r1"), "aa")),
    )
    block = make_block(view=1, parent=forest.genesis, qc=qc0, proposer="r0",
                       transactions=(tx,))
    vote = make_vote(registry, "r1", block)
    timeout = Timeout(voter="r2", view=3, high_qc_view=1,
                      signature=sign(registry.register("r2"), "bb"))
    tc = TimeoutCertificate(view=3, signers=frozenset({"r0", "r2"}),
                            signatures=(timeout.signature,), high_qc_view=1)
    snapshot = KVSnapshot(
        items=(("k1", "v1"), ("k2", "v2")),
        dedup=DedupState(sessions=(("c0", 4, (7, 9)),), extras=("c1:2",)),
        operations_applied=11,
    )
    checkpoint = Checkpoint(height=1, block=block, qc=qc0,
                            committed_ids=(block.block_id,), state=snapshot,
                            taken_at=2.5)
    return tx, block, vote, qc0, timeout, tc, checkpoint


def _round_trip(message):
    decoded = decode_message(encode_message(message))
    assert decoded == message
    assert decoded.sender == message.sender
    assert decoded.size_bytes == message.size_bytes
    return decoded


class TestCodec:
    def setup_method(self):
        (self.tx, self.block, self.vote, self.qc,
         self.timeout, self.tc, self.checkpoint) = _sample_objects()

    def test_proposal_round_trip(self):
        decoded = _round_trip(ProposalMessage(sender="r0", size_bytes=900,
                                              block=self.block, view=1,
                                              forwarded_by="r1"))
        assert decoded.block.qc.signers == self.qc.signers
        assert decoded.block.transactions[0].txid == self.tx.txid

    def test_vote_round_trip(self):
        decoded = _round_trip(VoteMessage(sender="r1", size_bytes=120, vote=self.vote))
        assert decoded.vote.signature.tag == self.vote.signature.tag

    def test_timeout_round_trip(self):
        _round_trip(TimeoutMessage(sender="r2", size_bytes=130, timeout=self.timeout))

    def test_tc_round_trip(self):
        _round_trip(TimeoutCertificateMessage(sender="r0", size_bytes=260, tc=self.tc))

    def test_client_request_round_trip(self):
        _round_trip(ClientRequest(sender="c0", size_bytes=140, transaction=self.tx))

    def test_client_reply_round_trip(self):
        _round_trip(ClientReply(sender="r0", size_bytes=48, txid=self.tx.txid,
                                committed_at=2.0, replica="r0", status="committed"))

    def test_block_request_round_trip(self):
        _round_trip(BlockRequest(sender="r3", size_bytes=96,
                                 target_block_id=self.block.block_id,
                                 known_block_id=self.block.parent_id, known_height=0))

    def test_block_response_round_trip(self):
        decoded = _round_trip(BlockResponse(sender="r0", size_bytes=1000,
                                            blocks=(self.block,),
                                            target_id=self.block.block_id,
                                            tip_qc=self.qc))
        assert decoded.blocks[0] == self.block

    def test_snapshot_request_round_trip(self):
        _round_trip(SnapshotRequest(sender="r3", size_bytes=32, known_height=0))

    def test_snapshot_response_round_trip(self):
        decoded = _round_trip(SnapshotResponse(sender="r0", size_bytes=4000,
                                               checkpoint=self.checkpoint,
                                               responder_height=1))
        assert decoded.checkpoint.state == self.checkpoint.state

    def test_snapshot_response_without_checkpoint(self):
        _round_trip(SnapshotResponse(sender="r0", size_bytes=40,
                                     checkpoint=None, responder_height=0))

    def test_decode_returns_an_unstamped_message(self):
        # Ids never travel the wire: the receiving runtime stamps decoded
        # messages from its own counter.
        message = SnapshotRequest(sender="r3", size_bytes=32, known_height=0)
        message.message_id = 7
        decoded = decode_message(encode_message(message))
        assert decoded.message_id == UNASSIGNED_MESSAGE_ID

    def test_unknown_kind_raises(self):
        with pytest.raises(CodecError):
            decode_message(b'{"kind": "Telegram", "sender": "x", "size_bytes": 1, "body": {}}')

    def test_malformed_json_raises(self):
        with pytest.raises(CodecError):
            decode_message(b"\xff not json")

    def test_truncated_body_raises(self):
        with pytest.raises(CodecError):
            decode_message(b'{"kind": "VoteMessage", "sender": "x", "size_bytes": 1, "body": {}}')

    def test_oversized_frame_rejected(self):
        with pytest.raises(CodecError):
            frame(b"x" * (MAX_FRAME_BYTES + 1))

    def test_frame_round_trip_over_stream(self):
        first = encode_message(SnapshotRequest(sender="a", size_bytes=32, known_height=3))
        second = encode_message(ClientReply(sender="b", size_bytes=48, txid="t",
                                            committed_at=1.0, replica="r0",
                                            status="committed"))

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(frame(first) + frame(second))
            reader.feed_eof()
            assert await read_frame(reader) == first
            assert await read_frame(reader) == second
            assert await read_frame(reader) is None  # clean EOF at boundary

        asyncio.run(scenario())

    def test_read_frame_rejects_truncation(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(frame(b"hello world")[:-3])
            reader.feed_eof()
            with pytest.raises(CodecError):
                await read_frame(reader)

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# real signatures


class TestSigningSchemes:
    def test_both_schemes_registered(self):
        assert available_schemes() == ["ed25519", "hmac"]

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            KeyRegistry(scheme="rot13")

    def test_registry_scheme_selects_keypair_class(self):
        assert isinstance(KeyRegistry(scheme="hmac").register("r0"), KeyPair)
        assert isinstance(KeyRegistry(scheme="ed25519").register("r0"), Ed25519KeyPair)

    def test_ed25519_generation_is_deterministic(self):
        a = Ed25519KeyPair.generate("r0", deployment_seed=7)
        b = Ed25519KeyPair.generate("r0", deployment_seed=7)
        assert a.secret == b.secret
        assert a.public_key == b.public_key
        assert Ed25519KeyPair.generate("r1", deployment_seed=7).secret != a.secret

    def test_sign_verify_through_registry(self):
        registry = KeyRegistry(scheme="ed25519")
        keypair = registry.register("r0")
        signature = sign(keypair, "deadbeef")
        assert len(signature.tag) == ed25519.SIGNATURE_SIZE
        assert verify(registry, signature)

    def test_forged_tag_fails(self):
        registry = KeyRegistry(scheme="ed25519")
        signature = sign(registry.register("r0"), "deadbeef")
        forged = Signature(signer="r0", digest="deadbeef",
                           tag=b"\x00" * ed25519.SIGNATURE_SIZE)
        assert not verify(registry, forged)

    def test_quorum_tracker_rejects_tampered_vote(self):
        registry = KeyRegistry(scheme="ed25519")
        forest = BlockForest()
        block = make_block(view=1, parent=forest.genesis, qc=None, proposer="r0", transactions=())
        tracker = QuorumTracker(num_nodes=4, registry=registry)
        good = make_vote(registry, "r1", block)
        assert tracker.voted(good)
        # A Byzantine peer flips one bit of a signature in flight.
        bad_sig = Signature(signer="r2", digest=vote_digest(block.block_id, block.view),
                            tag=bytes([good.signature.tag[0] ^ 1]) + good.signature.tag[1:])
        tampered = Vote(voter="r2", block_id=block.block_id, view=block.view,
                        signature=bad_sig)
        registry.register("r2")
        assert not tracker.voted(tampered)
        assert tracker.invalid_votes == 1
        assert tracker.vote_count(block.view, block.block_id) == 1

    def test_quorum_tracker_rejects_replayed_signature(self):
        # r2 replays r1's (valid) signature under its own name.
        registry = KeyRegistry(scheme="ed25519")
        forest = BlockForest()
        block = make_block(view=1, parent=forest.genesis, qc=None, proposer="r0", transactions=())
        tracker = QuorumTracker(num_nodes=4, registry=registry)
        good = make_vote(registry, "r1", block)
        registry.register("r2")
        stolen = Vote(voter="r2", block_id=block.block_id, view=block.view,
                      signature=good.signature)
        assert not tracker.voted(stolen)
        assert tracker.invalid_votes == 1


# --------------------------------------------------------------------------
# asyncio clock


class TestAsyncioClock:
    def test_now_and_timers(self):
        async def scenario():
            clock = AsyncioClock()
            assert clock.now >= 0.0
            fired = []
            handle = clock.call_after(0.01, fired.append, "a")
            cancelled = clock.call_after(5.0, fired.append, "never")
            assert handle.pending and cancelled.pending
            cancelled.cancel()
            assert not cancelled.pending
            await asyncio.sleep(0.05)
            assert fired == ["a"]
            assert not handle.pending
            assert clock.processed_events == 1

        asyncio.run(scenario())

    def test_negative_delay_clamps_to_now(self):
        async def scenario():
            clock = AsyncioClock()
            fired = []
            clock.call_after(-1.0, fired.append, "x")
            clock.call_at(clock.now - 5.0, fired.append, "y")
            await asyncio.sleep(0.02)
            assert sorted(fired) == ["x", "y"]

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# asyncio transport (unit level)


class TestAsyncioTransport:
    @staticmethod
    def _reply(txid: str) -> ClientReply:
        return ClientReply(sender="a", size_bytes=48, txid=txid, committed_at=1.0,
                           replica="a", status="committed")

    @staticmethod
    async def _settle(predicate, timeout=5.0):
        deadline = asyncio.get_running_loop().time() + timeout
        while not predicate():
            if asyncio.get_running_loop().time() > deadline:
                raise AssertionError("condition not reached before timeout")
            await asyncio.sleep(0.02)

    def test_register_validation(self):
        transport = AsyncioTransport()
        transport.register("a", lambda m: None)
        with pytest.raises(ValueError):
            transport.register("a", lambda m: None)

    def test_send_to_unknown_endpoint_raises(self):
        transport = AsyncioTransport()
        transport.register("a", lambda m: None)
        with pytest.raises(KeyError):
            transport.send("a", "ghost", self._reply("t"))

    def test_delivery_and_crash_recover(self):
        async def scenario():
            transport = AsyncioTransport()
            received = {"a": [], "b": []}
            transport.register("a", received["a"].append)
            transport.register("b", received["b"].append)
            await transport.start()

            transport.send("a", "b", self._reply("t1"))
            await self._settle(lambda: len(received["b"]) == 1)
            assert received["b"][0].txid == "t1"
            assert transport.stats.messages_delivered == 1
            assert transport.stats.per_type_counts["ClientReply"] == 1

            # Loopback still lands on the inbox queue.
            transport.send("a", "a", self._reply("self"))
            await self._settle(lambda: len(received["a"]) == 1)

            # Crashed destinations silently drop traffic.
            transport.crash("b")
            assert transport.is_crashed("b")
            assert transport.address_of("b") is None
            transport.send("a", "b", self._reply("lost"))
            assert transport.stats.messages_dropped >= 1

            # Recovery rebinds on a fresh port and delivery resumes.
            transport.recover("b")
            await self._settle(lambda: transport.address_of("b") is not None)
            transport.send("a", "b", self._reply("t2"))
            await self._settle(lambda: len(received["b"]) == 2)
            assert received["b"][1].txid == "t2"
            assert "lost" not in [m.txid for m in received["b"]]

            await transport.stop()

        asyncio.run(scenario())

    def test_broadcast_matches_network_semantics(self):
        async def scenario():
            transport = AsyncioTransport()
            received = {name: [] for name in ("a", "b", "c")}
            for name in received:
                transport.register(name, received[name].append)
            await transport.start()
            transport.broadcast("a", ["b", "c"], self._reply("x"))
            await self._settle(lambda: len(received["b"]) == 1 and len(received["c"]) == 1)
            assert received["a"] == []  # include_self defaults off
            transport.broadcast("a", ["b"], self._reply("y"), include_self=True)
            await self._settle(lambda: len(received["a"]) == 1)
            await transport.stop()

        asyncio.run(scenario())

    def test_handler_errors_are_surfaced_not_lost(self):
        async def scenario():
            transport = AsyncioTransport()
            transport.register("a", lambda m: None)

            def explode(message):
                raise RuntimeError("boom")

            transport.register("b", explode)
            await transport.start()
            transport.send("a", "b", self._reply("t"))
            await self._settle(lambda: len(transport.errors) == 1)
            assert "boom" in repr(transport.errors[0])
            await transport.stop()

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# import isolation: the protocol stack must not know the transport exists


#: Packages that make up the protocol stack run unmodified in both modes.
PROTOCOL_STACK_DIRS = (
    "protocols", "core", "pacemaker", "quorum", "forest",
    "sync", "checkpoint", "client", "executor", "election", "mempool",
)


def _imports_of(path: Path):
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


class TestImportIsolation:
    def test_protocol_stack_never_imports_the_transport(self):
        offenders = []
        for directory in PROTOCOL_STACK_DIRS:
            for path in sorted((SRC_ROOT / directory).rglob("*.py")):
                for module in _imports_of(path):
                    if module == "repro.transport" or module.startswith("repro.transport."):
                        offenders.append(f"{path.relative_to(SRC_ROOT)} imports {module}")
        assert not offenders, (
            "the deployment backend must plug in through the seam alone:\n  "
            + "\n  ".join(offenders)
        )

    def test_transport_package_exists_where_expected(self):
        # Guards the walk above against silently checking nothing.
        assert (SRC_ROOT / "transport" / "base.py").exists()
        assert all((SRC_ROOT / d).is_dir() for d in PROTOCOL_STACK_DIRS)


# --------------------------------------------------------------------------
# loopback deployment clusters (slow: real sockets, real signatures)


def _deploy_config(**overrides) -> Configuration:
    base = dict(
        num_nodes=4,
        block_size=50,
        mempool_capacity=2000,
        num_clients=2,
        concurrency=8,
        view_timeout=1.0,
        request_timeout=2.0,
        warmup=0.3,
        runtime=2.0,
        cooldown=0.2,
        mode="deploy",
        seed=3,
    )
    base.update(overrides)
    return Configuration(**base)


class TestDeployment:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Configuration(mode="hologram").validate()
        with pytest.raises(ValueError):
            Configuration(signing="rot13").validate()

    def test_signing_auto_resolution(self):
        assert Configuration(mode="model").resolved_signing() == "hmac"
        assert Configuration(mode="model", signing="ed25519").resolved_signing() == "ed25519"
        assert _deploy_config().resolved_signing() == "ed25519"
        assert _deploy_config(signing="hmac").resolved_signing() == "hmac"

    def test_build_cluster_refuses_deploy_mode(self):
        with pytest.raises(ValueError):
            build_cluster(_deploy_config())

    def test_loopback_cluster_reaches_consensus(self):
        """One Configuration, both modes: same schema, zero protocol edits."""
        config = _deploy_config()
        deployed = run_experiment(config)
        assert deployed.consistent
        assert deployed.metrics.committed_transactions > 0
        assert deployed.highest_view > 1
        assert deployed.metrics.wall_clock_seconds > 0
        assert deployed.metrics.events_per_second > 0

        modeled = run_experiment(config.replace(mode="model"))
        assert modeled.consistent
        assert modeled.metrics.committed_transactions > 0
        # Identical record schema lets fig8 plot the two side by side.
        assert set(deployed.metrics.to_dict()) == set(modeled.metrics.to_dict())
        assert deployed.timeline and modeled.timeline

    def test_crashed_replica_recovers_over_the_wire(self):
        """A replica that crashes mid-run catches back up via real sync."""

        async def until(condition, what, deadline=30.0):
            # Poll instead of sleeping a fixed time: early exit on a fast host,
            # room on a slow one.
            give_up = asyncio.get_running_loop().time() + deadline
            while not condition():
                assert asyncio.get_running_loop().time() < give_up, f"timed out waiting for {what}"
                await asyncio.sleep(0.02)

        async def scenario():
            # Hash election: under round-robin one crashed replica takes every
            # fourth view, so chained HotStuff never sees three consecutive
            # certified views and commits nothing while it is down.  The
            # clients keep sending until the runner is stopped.
            runner = DeploymentRunner(_deploy_config(
                runtime=120.0, seed=11, election="hash", view_timeout=0.3))
            await runner.start()
            try:
                victim = runner.replicas["r3"]
                observer = runner.replicas[runner.observer_id]
                await until(lambda: observer.forest.committed_height > 0, "a first commit")
                victim.crash()
                assert runner.transport.is_crashed("r3")
                # Messages in flight at the crash still commit a block or two,
                # on the victim as well: ask for more than those.
                height_down = victim.forest.committed_height + 5
                await until(lambda: observer.forest.committed_height > height_down,
                            "commits while r3 is down")
                victim.recover()
                await until(lambda: victim.forest.committed_height > height_down
                            and runner.transport.stats.reconnects > 0,
                            "r3 to reconnect and catch up")
            finally:
                await runner.stop()
            runner.raise_handler_errors()
            return runner

        runner = asyncio.run(scenario())
        assert runner.consistency_check()
