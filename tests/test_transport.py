"""Transport seam tests: codec, real signing, loopback deployment clusters.

Covers the deployment runtime end to end:

* both backends structurally conform to the :mod:`repro.transport.base`
  seam protocols (and the simulation conforms *without importing* the
  transport package — pinned by an AST import-isolation test);
* the wire codec round-trips every message kind, and the frame splitter
  recovers the same payloads from any chunking of the byte stream;
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
import dataclasses
import dis
import functools
import gc
import importlib
import inspect
import json
import os
import pkgutil
import signal
import struct
import threading
import time
import typing
import warnings
from pathlib import Path
from types import CodeType, SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import repro
from helpers import make_vote
from repro.bench.config import Configuration
from repro.bench.profiles import cost_profile
from repro.bench.runner import build_cluster, run_experiment
from repro.client.client import ClientBase
from repro.crypto import ed25519
from repro.crypto.keys import Ed25519KeyPair, KeyPair, KeyRegistry, available_schemes
from repro.crypto.signatures import Signature, sign, verify
from repro.executor.kvstore import DedupState, KVSnapshot
from repro.checkpoint.messages import SnapshotResponse
from repro.checkpoint.snapshot import Checkpoint
from repro.core.replica import Replica
from repro.forest.forest import BlockForest
from repro.network.network import Network
from repro.obs import trace as obs_trace
from repro.obs.trace import Tracer, tracing
from repro.quorum.quorum import QuorumTracker
from repro.sim.events import EventScheduler
from repro.sim.random import RandomStreams
from repro.sim.resources import FifoServer
from repro.sync.messages import BlockRequest, BlockResponse
from repro.transport.base import Clock, TimerHandle, Transport
from repro.transport.clock import AsyncioClock
from repro.transport import asyncio_net, codec
from repro.transport.codec import (
    CodecError,
    FrameSplitter,
    MAX_FRAME_BYTES,
    decode_message,
    encode_message,
    frame,
)
from repro.transport.asyncio_net import AsyncioTransport
from repro.transport.runtime import DeploymentError, DeploymentRunner, HostCpu
from repro.types.block import make_block
from repro.types.certificates import (
    QuorumCertificate,
    Timeout,
    TimeoutCertificate,
    Vote,
    vote_digest,
)
from repro.types.messages import (
    ClientReply,
    ClientRequest,
    Message,
    ProposalMessage,
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
        # The seam is what both clocks share: a handle only cancels, and no
        # method takes keyword arguments (asyncio's ``call_at`` takes none).
        def members(protocol):
            return {name for name in vars(protocol) if not name.startswith("_")}

        assert members(TimerHandle) == {"cancel"}
        assert members(Clock) == {"now", "call_after", "post_after", "post_at"}
        for clock_cls in (Clock, AsyncioClock, EventScheduler):
            for name in ("call_after", "post_after", "post_at"):
                parameters = inspect.signature(getattr(clock_cls, name)).parameters.values()
                assert inspect.Parameter.VAR_KEYWORD not in {p.kind for p in parameters}

        async def scenario():
            clock = AsyncioClock()
            assert isinstance(clock, Clock)
            handle = clock.call_after(10.0, lambda: None)
            # The loop's own handle, with no wrapper around it.
            assert type(handle) is asyncio.TimerHandle and isinstance(handle, TimerHandle)
            handle.cancel()
            assert isinstance(AsyncioTransport(), Transport)

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# wire codec


def _sample_objects():
    """One of everything: a signed chain fragment plus client traffic."""
    registry = KeyRegistry()
    forest = BlockForest()
    tx = Transaction.create(client_id="c0", sequence=0, created_at=1.25, key="k0",
                            payload_size=16)
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
        dedup=DedupState(sessions=(("c0", 4, (7, 9)),)),
        operations_applied=11,
    )
    checkpoint = Checkpoint(height=1, block=block, qc=qc0,
                            committed_ids=(block.block_id,), state=snapshot,
                            taken_at=2.5)
    return tx, block, vote, qc0, timeout, tc, checkpoint


def _golden_messages():
    """The messages of ``tests/golden/wire_frames.json``, by entry name: one
    of each kind, plus every ``None`` branch a body has (``python
    tests/test_transport.py`` rewrites both wire goldens from them)."""
    tx, block, vote, qc, timeout, _tc, checkpoint = _sample_objects()
    return {
        "ProposalMessage": ProposalMessage(sender="r0", size_bytes=900, block=block,
                                           view=1, forwarded_by="r1"),
        "VoteMessage": VoteMessage(sender="r1", size_bytes=120, vote=vote),
        "TimeoutMessage": TimeoutMessage(sender="r2", size_bytes=130, timeout=timeout),
        "ClientRequest": ClientRequest(sender="c0", size_bytes=140, transaction=tx),
        "ClientReply": ClientReply(sender="r0", size_bytes=104, sequences=(tx.sequence, 3),
                                   status="committed"),
        "BlockRequest": BlockRequest(sender="r3", size_bytes=96,
                                     target_block_id=block.block_id,
                                     known_block_id=block.parent_id, known_height=0),
        "BlockRequest(target_block_id=None)": BlockRequest(sender="r3", size_bytes=96,
                                                           target_block_id=None),
        "BlockResponse": BlockResponse(sender="r0", size_bytes=1000, blocks=(block,),
                                       target_id=block.block_id, tip_qc=qc),
        "BlockResponse(blocks=(), tip_qc=None)": BlockResponse(sender="r0", size_bytes=64,
                                                               blocks=(), tip_qc=None),
        "SnapshotResponse": SnapshotResponse(sender="r0", size_bytes=4000,
                                             checkpoint=checkpoint),
    }


GOLDEN = Path(__file__).resolve().parent / "golden"


@functools.lru_cache(maxsize=None)
def _golden_frames():
    """Entry name -> the envelope's compact JSON text: the wire format's spec."""
    return json.loads((GOLDEN / "wire_frames.json").read_text())


def _fields_of(record):
    """``(name, declared type)`` of a wire record's fields, read from its
    declaration the way the codec's docstring says (not through the codec)."""
    if record is Transaction:
        hints = typing.get_type_hints(Transaction.__init__)
        return [(name, hints[name]) for name in Transaction._fields]
    hints = typing.get_type_hints(record)
    return [(f.name, hints[f.name]) for f in dataclasses.fields(record)]


def _values_of(tp):
    """A strategy for values declared as ``tp``; every field of a record is
    drawn, so the defaults hide nothing."""
    if tp is float:
        return st.floats(allow_nan=False, allow_infinity=False)
    if tp is Transaction or dataclasses.is_dataclass(tp):
        return st.builds(tp, **{name: _values_of(hint) for name, hint in _fields_of(tp)})
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:
        return st.one_of(*(_values_of(arg) for arg in args))
    if origin is frozenset:
        return st.frozensets(_values_of(args[0]), max_size=4)
    if origin is tuple and args[-1] is Ellipsis:
        return st.lists(_values_of(args[0]), max_size=3).map(tuple)
    if origin is tuple:
        return st.tuples(*(_values_of(arg) for arg in args))
    return st.from_type(tp)  # str, int, bool, bytes, NoneType


def _is_a(value, tp):
    """Whether ``value`` has its declared type ``tp``, all the way down."""
    if tp is float:
        return type(value) in (float, int)
    if tp is Transaction or dataclasses.is_dataclass(tp):
        return type(value) is tp and all(
            _is_a(getattr(value, name), hint) for name, hint in _fields_of(tp))
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:
        return any(_is_a(value, arg) for arg in args)
    if origin is frozenset:
        return type(value) is frozenset and all(_is_a(item, args[0]) for item in value)
    if origin is tuple and args[-1] is Ellipsis:
        return type(value) is tuple and all(_is_a(item, args[0]) for item in value)
    if origin is tuple:
        return (type(value) is tuple and len(value) == len(args)
                and all(_is_a(item, arg) for item, arg in zip(value, args)))
    return type(value) is tp


def _leaves(value, path=()):
    """Paths of the JSON leaves of ``value`` (scalars, nulls, empty containers)."""
    if isinstance(value, (dict, list)) and value:
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, item in items:
            yield from _leaves(item, path + (key,))
    else:
        yield path


def _arrays(value, path=()):
    """Paths of every JSON array in ``value``, itself included."""
    if isinstance(value, list):
        yield path
        for key, item in enumerate(value):
            yield from _arrays(item, path + (key,))


def _replaced(frame_text, path, value):
    """The frame with the JSON value at ``path`` replaced, and what was there."""
    payload = json.loads(frame_text)
    holder = payload
    for key in path[:-1]:
        holder = holder[key]
    old, holder[path[-1]] = holder[path[-1]], value
    return json.dumps(payload).encode("utf-8"), old


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=5),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


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

    def test_client_request_round_trip(self):
        _round_trip(ClientRequest(sender="c0", size_bytes=140, transaction=self.tx))

    def test_client_reply_round_trip(self):
        _round_trip(ClientReply(sender="r0", size_bytes=104, sequences=(self.tx.sequence, 3),
                                status="committed"))
        _round_trip(ClientReply(sender="r0", size_bytes=88, sequences=(), status="rejected"))

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

    def test_snapshot_response_round_trip(self):
        decoded = _round_trip(SnapshotResponse(sender="r0", size_bytes=4000,
                                               checkpoint=self.checkpoint))
        assert decoded.checkpoint.state == self.checkpoint.state

    def test_unknown_kind_raises(self):
        with pytest.raises(CodecError):
            decode_message(b'["Telegram", "x", 1, []]')

    @pytest.mark.parametrize("frame_text", [
        '["SnapshotRequest","r3",32,[0]]',  # no such kind: a BlockRequest asks
        '["SnapshotResponse","r0",40,[null]]',  # every response carries a checkpoint
    ])
    def test_a_snapshot_is_only_ever_an_answer(self, frame_text):
        with pytest.raises(CodecError):
            decode_message(frame_text.encode())

    def test_malformed_json_raises(self):
        with pytest.raises(CodecError):
            decode_message(b"\xff not json")

    def test_truncated_body_raises(self):
        with pytest.raises(CodecError):
            decode_message(b'["VoteMessage", "x", 1, []]')

    def test_oversized_frame_rejected(self):
        with pytest.raises(CodecError):
            frame(b"x" * (MAX_FRAME_BYTES + 1))

    def test_non_envelope_payloads_raise_codec_error(self):
        # Frames come from outside the program: whatever valid JSON a peer
        # sends, the receive path sees a CodecError and nothing else.
        vote = _golden_frames()["VoteMessage"]
        for data in (b"[1]", b"7", b'"x"', b"null", b"{}", b"[]", b'[["VoteMessage"], "x", 1, []]',
                     b'["VoteMessage"]', b'["VoteMessage", "x", 1]',
                     b'["VoteMessage", "x", 1, [], []]',  # envelope arity, both ways
                     b'["VoteMessage", "x", 1, 3]', b'["VoteMessage", "x", 1, {}]',
                     b'["VoteMessage", "x", 1, "ab"]',  # a body that indexes but is no list
                     vote.encode() + b"]", vote.encode() + b" ", b" " + vote.encode(),
                     vote.encode() * 2):
            with pytest.raises(CodecError):
                decode_message(data)

    def test_the_keyed_form_is_gone(self):
        # One record form: a frame as it was before records became arrays
        # (captured from the parent's golden file) is malformed, not a dialect.
        keyed = (b'{"kind":"ClientReply","sender":"r0","size_bytes":48,"body":{"txid":"tx-c0-0",'
                 b'"committed_at":2.0,"replica":"r0","status":"committed"}}')
        assert json.loads(keyed)["body"]["txid"] == "tx-c0-0"
        with pytest.raises(CodecError):
            decode_message(keyed)
        with pytest.raises(CodecError):  # nor inside the new envelope
            decode_message(json.dumps(["ClientReply", "r0", 48, json.loads(keyed)["body"]]).encode())

    def test_frames_match_the_golden_file_byte_for_byte(self):
        # The wire format is these bytes, whatever the codec is derived from.
        golden = _golden_frames()
        messages = _golden_messages()
        assert list(golden) == list(messages)
        assert {type(m) for m in messages.values()} == set(codec.WIRE_KINDS)
        for name, message in messages.items():
            assert encode_message(message).decode("utf-8") == golden[name], name
            assert decode_message(golden[name].encode("utf-8")) == message, name

    def test_a_two_message_frame_matches_its_golden_bytes(self):
        # What one socket write carries: the envelopes above, comma-joined in
        # brackets, behind the payload's 4-byte big-endian length.
        spec = json.loads((GOLDEN / "wire_frame.json").read_text())
        messages = [_golden_messages()[name] for name in spec["messages"]]
        payload = spec["payload"].encode("utf-8")
        assert spec["payload"] == "[%s]" % ",".join(_golden_frames()[n] for n in spec["messages"])
        assert codec.frame_of([encode_message(m) for m in messages]) == (
            struct.pack(">I", len(payload)) + payload)
        assert [decode_message(e) for e in codec.decode_frame(payload)] == messages

    @pytest.mark.parametrize("payload", [b"{}", b"7", b"null", b'"[]"', b"\xff", b"[1,", b"[] []"])
    def test_a_frame_that_is_not_one_json_array_is_a_codec_error(self, payload):
        with pytest.raises(CodecError):
            codec.decode_frame(payload)

    @pytest.mark.parametrize("kind", codec.WIRE_KINDS, ids=lambda kind: kind.__name__)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_any_message_of_a_wire_kind_round_trips(self, kind, data):
        message = data.draw(_values_of(kind))
        wire = encode_message(message)
        assert decode_message(wire) == message
        assert wire == json.dumps(json.loads(wire), separators=(",", ":")).encode("utf-8")

    def test_every_message_kind_is_a_wire_kind_with_a_handler(self):
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):
                importlib.import_module(module.name)

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        # By name: on 3.10 dataclass(slots=True) leaves its input class
        # behind as a second subclass called the same.
        declared = {(cls.__module__, cls.__qualname__) for cls in subclasses(Message)
                    if cls.__module__.startswith("repro.")}
        assert declared == {(kind.__module__, kind.__qualname__) for kind in codec.WIRE_KINDS}
        assert len(codec.WIRE_KINDS) == len(declared) == 8
        # A ClientReply is addressed to clients, not replicas.
        assert set(Replica.DISPATCH) == set(codec.WIRE_KINDS) - {ClientReply}

    def test_a_wrong_typed_field_is_a_codec_error(self):
        # A frame that parses, names a known kind and has every field, but
        # holds the wrong thing in one: it used to decode, and raise TypeError
        # inside QuorumTracker.voted (a dead deployment) or be rejected later
        # as an invalid vote.  Paths are positions in declaration order:
        # [kind, sender, size_bytes, [vote, forwarded_by]], a vote is
        # [voter, block_id, view, signature], a signature [signer, digest, tag].
        message = _golden_messages()["VoteMessage"]
        view = ((3, 0, 2), message.vote.view)
        tag = ((3, 0, 3, 2), message.vote.signature.tag.hex())
        size_bytes = ((2,), message.size_bytes)
        for (path, field), wrong in (
            (view, [1]),
            (view, None),
            (view, True),  # a bool is not an int
            (view, 1.0),
            (tag, 7),
            (tag, "not hex"),
            (((3, 1), message.forwarded_by), 0),
            (((1,), message.sender), 3),
            (size_bytes, "120"),
            (size_bytes, True),
        ):
            wire, was = _replaced(_golden_frames()["VoteMessage"], path, wrong)
            assert was == field, path
            with pytest.raises(CodecError):
                decode_message(wire)

    def test_wrong_typed_elements_and_arity_are_codec_errors(self):
        # body = [checkpoint]; a checkpoint is
        # [height, block, qc, committed_ids, state, taken_at], a state
        # [items, dedup, operations_applied]; block[4] is its qc, qc[2] signers.
        checkpoint = (3, 0)
        for kind, path, wrong in (
            ("ProposalMessage", (3, 0, 4, 2), "r0"),  # a string iterates, too
            ("SnapshotResponse", checkpoint + (4, 0, 0), ["k1", "v1", "extra"]),
            ("SnapshotResponse", checkpoint + (3,), [1]),
            ("VoteMessage", (3, 0), "abcd"),  # a record that indexes, of the right length
        ):
            wire, _ = _replaced(_golden_frames()[kind], path, wrong)
            with pytest.raises(CodecError):
                decode_message(wire)

    def test_float_fields_accept_json_integers(self):
        wire, was = _replaced(_golden_frames()["ClientRequest"], (3, 0, 5), 1)  # created_at
        assert was == 1.25 and b'16, 1, 0]' in wire
        tx = _golden_messages()["ClientRequest"].transaction
        assert decode_message(wire).transaction == Transaction(
            tx.client_id, tx.operation, tx.key, tx.value, tx.payload_size, 1.0, tx.sequence)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_leaf_of_another_json_type_decodes_typed_or_not_at_all(self, data):
        frame_text = data.draw(st.sampled_from(sorted(_golden_frames().values())))
        path = data.draw(st.sampled_from(list(_leaves(json.loads(frame_text)))))
        _, old = _replaced(frame_text, path, None)
        new = data.draw(_JSON_VALUES.filter(lambda value: type(value) is not type(old)))
        try:
            message = decode_message(_replaced(frame_text, path, new)[0])
        except CodecError:
            return
        # Legal: null under an Optional, an integer under a float.
        assert _is_a(message, type(message)), (path, message)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_array_an_element_short_or_long_decodes_typed_or_not_at_all(self, data):
        # Records are read by position: an array of the wrong length must be
        # rejected, never read past or silently padded.  (The variable-length
        # ones — signers, signatures, transactions, blocks — may legally
        # shrink or grow by a well-typed element.)
        frame_text = data.draw(st.sampled_from(sorted(_golden_frames().values())))
        payload = json.loads(frame_text)
        path = data.draw(st.sampled_from(list(_arrays(payload))))
        holder = payload
        for key in path:
            holder = holder[key]
        if holder and data.draw(st.booleans()):
            del holder[data.draw(st.integers(0, len(holder) - 1))]
        else:
            holder.insert(data.draw(st.integers(0, len(holder))), data.draw(_JSON_VALUES))
        try:
            message = decode_message(json.dumps(payload).encode("utf-8"))
        except CodecError:
            return
        assert _is_a(message, type(message)), (path, message)

    def test_encoding_is_compact_json_dumps(self):
        # The shared encoder must produce json.dumps' bytes: frames are
        # byte-identical across the change that introduced it.
        message = ProposalMessage(sender="r0", size_bytes=900, block=self.block,
                                  view=1, forwarded_by="r1")
        wire = encode_message(message)
        assert wire == json.dumps(json.loads(wire), separators=(",", ":")).encode("utf-8")

    def test_a_transaction_travels_as_its_seven_fields(self):
        # The txid is not on the wire: the constructor the generated decoder
        # calls spells it from client_id and sequence, and nothing is stored
        # beside the slots.  A body that still carries the id is malformed.
        decoded = _round_trip(ClientRequest(sender="c0", size_bytes=140, transaction=self.tx))
        assert decoded.transaction.txid == f"tx-{self.tx.client_id}-{self.tx.sequence}"
        assert not hasattr(decoded.transaction, "__dict__")
        envelope = json.loads(_golden_frames()["ClientRequest"])
        body = envelope[3][0]
        assert len(body) == 7 and self.tx.txid not in body
        body.insert(0, self.tx.txid)
        with pytest.raises(CodecError, match="expected 7 elements, got 8"):
            decode_message(json.dumps(envelope).encode("utf-8"))

    def test_every_decoder_builds_its_record_positionally(self):
        # A keyword call costs CPython about twice a positional one, and a
        # decoder runs once per record received.  The records are those a
        # wire kind's declaration reaches, nested ones included.
        records, pending = set(), list(codec.WIRE_KINDS)
        while pending:
            record = pending.pop()
            if record.__name__ not in records:
                records.add(record.__name__)
                pending.extend(_records_declared_in(tp for _, tp in _fields_of(record)))
        assert {"Transaction", "Block", "QuorumCertificate", "Checkpoint"} < records
        for name in records:
            calls = _keyword_calls(codec._NAMESPACE[f"dec_{name}"].__code__)
            assert calls == [], f"dec_{name} calls with keywords: {calls}"
        for name, message in _golden_messages().items():
            assert decode_message(encode_message(message)) == message, name


def _records_declared_in(types):
    """The wire records named anywhere in ``types`` (inside Optional, tuple...)."""
    for tp in types:
        if tp is Transaction or dataclasses.is_dataclass(tp):
            yield tp
        else:
            yield from _records_declared_in(typing.get_args(tp))


#: The opcodes of a call with keyword arguments: 3.10, 3.11-3.12, 3.13.
_KEYWORD_CALL_OPS = {"CALL_FUNCTION_KW", "KW_NAMES", "CALL_KW"}


def _keyword_calls(code):
    """Keyword-call instructions in ``code`` and the code objects it nests."""
    found = [(code.co_name, ins.opname) for ins in dis.get_instructions(code)
             if ins.opname in _KEYWORD_CALL_OPS]
    for const in code.co_consts:
        if isinstance(const, CodeType):
            found += _keyword_calls(const)
    return found


# --------------------------------------------------------------------------
# frame splitter


def _chunks(stream: bytes, cuts):
    """``stream`` cut at the given offsets (any order, duplicates allowed)."""
    edges = [0] + sorted(min(cut, len(stream)) for cut in cuts) + [len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:]) if a < b]


class TestFrameSplitter:
    def test_frames_split_at_a_clean_boundary(self):
        first = encode_message(BlockRequest(sender="a", size_bytes=96, known_height=3))
        second = encode_message(ClientReply(sender="b", size_bytes=96, sequences=(7,),
                                            status="committed"))
        splitter = FrameSplitter()
        assert splitter.feed(frame(first) + frame(second)) == [first, second]
        assert splitter.buffered == 0  # a stream ending here ended cleanly

    def test_truncation_is_visible_mid_prefix_and_mid_frame(self):
        whole = frame(b"hello world")
        splitter = FrameSplitter()
        assert splitter.feed(whole[:2]) == [] and splitter.buffered == 2
        assert splitter.feed(whole[2:-3]) == [] and splitter.buffered == len(whole) - 3
        assert splitter.feed(whole[-3:]) == [b"hello world"] and splitter.buffered == 0

    def test_empty_payload_and_one_byte_chunks(self):
        stream = frame(b"") + frame(b"x") + frame(b"")
        splitter = FrameSplitter()
        out = [p for i in range(len(stream)) for p in splitter.feed(stream[i:i + 1])]
        assert out == [b"", b"x", b""]

    def test_oversized_prefix_raises_before_anything_is_kept(self):
        splitter = FrameSplitter()
        with pytest.raises(CodecError):
            splitter.feed(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x" * 1000)
        assert splitter.buffered == 0
        # Also when the prefix itself arrived in pieces.
        prefix = struct.pack(">I", MAX_FRAME_BYTES + 1)
        assert splitter.feed(prefix[:3]) == []
        with pytest.raises(CodecError):
            splitter.feed(prefix[3:] + b"tail")
        assert splitter.buffered == 0

    @settings(max_examples=200, deadline=None)
    @given(
        payloads=st.lists(st.binary(max_size=40), max_size=12),
        cuts=st.lists(st.integers(min_value=0, max_value=600), max_size=30),
    )
    def test_any_chunking_yields_the_same_payloads_in_order(self, payloads, cuts):
        stream = b"".join(frame(p) for p in payloads)
        splitter = FrameSplitter()
        out = [p for chunk in _chunks(stream, cuts) for p in splitter.feed(chunk)]
        assert out == payloads
        assert splitter.buffered == 0
        # The extremes: all at once, and byte by byte.
        assert FrameSplitter().feed(stream) == payloads
        bytewise = FrameSplitter()
        assert [p for i in range(len(stream))
                for p in bytewise.feed(stream[i:i + 1])] == payloads

    @settings(max_examples=200, deadline=None)
    @given(
        stream=st.binary(max_size=300),
        cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=10),
        cap=st.integers(min_value=0, max_value=64),
    )
    def test_arbitrary_input_raises_only_codec_error_and_stays_bounded(
            self, stream, cuts, cap):
        # Random bytes read as prefixes announce frames of any size: with the
        # cap lowered into their range every outcome is reachable.
        original = codec.MAX_FRAME_BYTES
        codec.MAX_FRAME_BYTES = cap
        try:
            splitter = FrameSplitter()
            for chunk in _chunks(stream, cuts):
                try:
                    for payload in splitter.feed(chunk):
                        assert len(payload) <= cap
                except CodecError:
                    assert splitter.buffered == 0
                    break
                # Never more than one incomplete frame: prefix + cap, less one.
                assert splitter.buffered < 4 + cap
        finally:
            codec.MAX_FRAME_BYTES = original

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sent_messages_come_back_equal_and_in_order(self, data):
        # send -> the link's flush (one frame per write) -> any chunking ->
        # splitter -> one parse per frame -> one decode per envelope.
        messages = data.draw(st.lists(
            st.sampled_from(codec.WIRE_KINDS).flatmap(_values_of), max_size=8))
        turns = sorted(data.draw(st.lists(st.integers(0, len(messages)), max_size=3)))
        transport = AsyncioTransport()
        for name in ("a", "b"):
            transport.register(name, lambda m: None)
        scheduled, written = [], []
        transport._loop = SimpleNamespace(call_soon=lambda fn, *args: scheduled.append((fn, args)))
        link = transport._links[("a", "b")] = asyncio_net._Link("a", "b")
        link.connection = SimpleNamespace(write=written.append, get_write_buffer_size=lambda: 0)
        for start, end in zip([0] + turns, turns + [len(messages)]):
            for message in messages[start:end]:
                transport.send("a", "b", message)
            writes, pending_bytes = len(written), link.pending_bytes
            while scheduled:
                fn, args = scheduled.pop(0)
                fn(*args)
            if len(written) > writes:  # the bound counted exactly what the flush built
                assert len(written[-1]) == 4 + pending_bytes
        assert sum(map(len, written)) == transport.stats.bytes_written
        stream = b"".join(written)
        splitter = FrameSplitter()
        cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=8))
        frames = [p for chunk in _chunks(stream, cuts) for p in splitter.feed(chunk)]
        assert len(frames) == transport.stats.socket_writes
        assert transport.stats.messages_written == len(messages)
        assert [decode_message(e) for p in frames for e in codec.decode_frame(p)] == messages


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
        assert tracker.invalid == 1
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
        assert tracker.invalid == 1


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
            assert not handle.cancelled() and not cancelled.cancelled()
            cancelled.cancel()
            assert cancelled.cancelled()
            await asyncio.sleep(0.05)
            assert fired == ["a"]
            assert not handle.cancelled()
            assert clock.processed_events == 1

        asyncio.run(scenario())

    def test_negative_delay_clamps_to_now(self):
        async def scenario():
            clock = AsyncioClock()
            fired = []
            clock.call_after(-1.0, fired.append, "x")
            clock.post_after(-1.0, fired.append, "z")
            clock.post_at(clock.now - 5.0, fired.append, "w")
            await asyncio.sleep(0.02)
            assert sorted(fired) == ["w", "x", "z"]

        asyncio.run(scenario())

    def test_zero_delay_post_inside_a_callback_runs_after_it_returns(self):
        async def scenario():
            clock = AsyncioClock()
            order = []

            def outer():
                order.append("outer:begin")
                clock.post_after(0.0, order.append, "inner")
                clock.post_after(-1.0, order.append, "inner-late")
                order.append("outer:end")

            clock.post_after(0.0, outer)
            await asyncio.sleep(0.01)
            assert order == ["outer:begin", "outer:end", "inner", "inner-late"]
            assert clock.processed_events == 3

        asyncio.run(scenario())

    def test_cancelled_timer_never_fires_and_flags_keep_their_meaning(self):
        async def scenario():
            clock = AsyncioClock()
            fired = []
            kept = clock.call_after(0.01, fired.append, "kept")
            dropped = clock.call_after(0.01, fired.append, "dropped")
            dropped.cancel()
            assert (kept.cancelled(), dropped.cancelled()) == (False, True)
            await asyncio.sleep(0.04)
            assert fired == ["kept"]
            assert (kept.cancelled(), dropped.cancelled()) == (False, True)
            kept.cancel()  # what the pacemaker does to a fired timer: nothing
            await asyncio.sleep(0.02)
            assert fired == ["kept"]
            # Only callbacks that ran are counted.
            assert clock.processed_events == 1

        asyncio.run(scenario())

    @pytest.mark.parametrize("routed", [False, True], ids=["loop-handler", "on_error"])
    def test_a_raising_callback_does_not_stall_the_entries_behind_it(self, routed):
        async def scenario():
            loop = asyncio.get_running_loop()
            reported, routed_errors = [], []
            loop.set_exception_handler(lambda _loop, context: reported.append(context))
            clock = AsyncioClock()
            if routed:  # what a deployment does: into its transport's error list
                clock.on_error = routed_errors.append
            fired = []

            def explode():
                raise RuntimeError("boom")

            deadline = clock.now + 0.01
            clock.post_at(deadline, explode)
            clock.post_at(deadline, fired.append, "behind")
            clock.post_after(0.03, fired.append, "later")
            await asyncio.sleep(0.08)
            assert fired == ["behind", "later"]
            errors = routed_errors if routed else [context["exception"] for context in reported]
            assert len(errors) == 1 and "boom" in repr(errors[0])
            if routed:
                assert reported == []

        asyncio.run(scenario())


# --------------------------------------------------------------------------
# a deployed replica's CPU


class TestHostCpu:
    def test_a_job_runs_at_once_and_the_jobs_it_submits_right_after_it(self):
        cpu = HostCpu()
        order = []

        def outer():
            order.append("outer:begin")
            cpu.submit(0.0, order.append, "first")
            cpu.submit(0.0, order.append, "second")
            order.append("outer:end")

        cpu.submit(0.0, outer)
        assert order == ["outer:begin", "outer:end", "first", "second"]

    def test_a_raising_job_reaches_its_caller_and_leaves_the_cpu_usable(self):
        cpu = HostCpu()
        ran = []

        def explode():
            cpu.submit(0.0, ran.append, "behind the error")
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            cpu.submit(0.0, explode)
        cpu.submit(0.0, ran.append, "next")
        assert ran == ["next"]


# --------------------------------------------------------------------------
# asyncio transport (unit level)


class TestAsyncioTransport:
    @staticmethod
    def _reply(tag: str) -> ClientReply:
        """A reply tagged ``tag`` in its status, a string the transport carries unread."""
        return ClientReply(sender="a", size_bytes=48, sequences=(0,), status=tag)

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
            assert received["b"][0].status == "t1"
            assert transport.stats.messages_delivered == 1
            assert transport.stats.per_type_counts["ClientReply"] == 1

            # Loopback skips the socket but still takes its turn on the loop.
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
            assert received["b"][1].status == "t2"
            assert "lost" not in [m.status for m in received["b"]]

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


    def test_a_thousand_sends_arrive_in_send_order(self):
        async def scenario():
            transport = AsyncioTransport()
            received = []
            transport.register("a", lambda m: None)
            transport.register("b", received.append)
            await transport.start()
            for i in range(1000):
                transport.send("a", "b", self._reply(f"t{i}"))
                if i % 97 == 0:
                    await asyncio.sleep(0)  # spread them over many writes
            await self._settle(lambda: len(received) == 1000)
            assert [m.status for m in received] == [f"t{i}" for i in range(1000)]
            stats = transport.stats
            assert stats.messages_written == stats.messages_delivered == 1000
            assert 1 < stats.socket_writes < 1000
            await transport.stop()

        asyncio.run(scenario())

    def test_sends_of_one_loop_turn_share_one_socket_write(self):
        async def scenario():
            transport = AsyncioTransport()
            received = []
            transport.register("a", lambda m: None)
            transport.register("b", received.append)
            await transport.start()
            transport.send("a", "b", self._reply("connect"))
            await self._settle(lambda: len(received) == 1)
            stats = transport.stats
            writes, written = stats.socket_writes, stats.bytes_written
            assert (writes, stats.messages_written) == (1, 1)

            messages = [self._reply(f"t{i}") for i in range(25)]
            for message in messages:
                transport.send("a", "b", message)
            await self._settle(lambda: len(received) == 26)
            assert stats.socket_writes == writes + 1
            assert stats.messages_written == 26
            assert stats.messages_per_write == 13.0
            # Real bytes, beside the size model's bytes_sent: one frame, the
            # array of the 25 envelopes behind one length prefix.
            envelopes = [encode_message(m) for m in messages]
            assert stats.bytes_written - written == 4 + 2 + sum(len(e) + 1 for e in envelopes) - 1
            assert stats.bytes_sent == 26 * 48
            await transport.stop()

        asyncio.run(scenario())

    def test_broadcast_encodes_once_and_is_otherwise_a_loop_of_sends(self, monkeypatch):
        encoded = []
        real_encode = asyncio_net.encode_message

        def counting_encode(message):
            encoded.append(message)
            return real_encode(message)

        monkeypatch.setattr(asyncio_net, "encode_message", counting_encode)
        names = ("a", "b", "c", "d")

        async def scenario(use_broadcast):
            transport = AsyncioTransport()
            received = {name: [] for name in names}
            for name in names:
                transport.register(name, received[name].append)
            await transport.start()
            first, second = self._reply("first"), self._reply("second")
            own = self._reply("own")
            if use_broadcast:
                transport.broadcast("a", ["b", "c", "d"], first)
                transport.broadcast("a", ["b", "a", "c", "d"], second)   # self skipped
                transport.broadcast("a", ["b"], own, include_self=True)  # self appended
            else:
                for message, targets in ((first, "bcd"), (second, "bcd"), (own, "ba")):
                    for dst in targets:
                        transport.send("a", dst, message)
            expected = {"a": 1, "b": 3, "c": 2, "d": 2}
            await self._settle(
                lambda: all(len(received[n]) == k for n, k in expected.items()))
            await transport.stop()
            stats = transport.stats
            return ({n: [m.status for m in received[n]] for n in names},
                    stats.messages_sent, stats.bytes_sent, stats.per_type_counts,
                    stats.messages_written)

        looped = asyncio.run(scenario(use_broadcast=False))
        assert len(encoded) == 7  # one per copy that crossed a socket
        encoded.clear()
        fanned_out = asyncio.run(scenario(use_broadcast=True))
        assert [m.status for m in encoded] == ["first", "second", "own"]
        assert fanned_out == looped
        assert fanned_out[0] == {"a": ["own"], "b": ["first", "second", "own"],
                                 "c": ["first", "second"], "d": ["first", "second"]}

    def test_broadcast_checks_every_target(self):
        async def scenario():
            transport = AsyncioTransport()
            transport.register("a", lambda m: None)
            transport.register("b", lambda m: None)
            await transport.start()
            with pytest.raises(KeyError):
                transport.broadcast("a", ["b", "ghost"], self._reply("t"))
            await transport.stop()

        asyncio.run(scenario())

    def test_handler_sending_to_its_own_node_is_not_reentered(self):
        async def scenario():
            transport = AsyncioTransport()
            trace = []

            def handler(message):
                trace.append(f"{message.status}:begin")
                if message.status == "outer":
                    transport.send("a", "a", self._reply("inner"))
                    transport.broadcast("a", ["b"], self._reply("fanned"), include_self=True)
                trace.append(f"{message.status}:end")

            transport.register("a", handler)
            transport.register("b", lambda m: None)
            await transport.start()
            transport.send("b", "a", self._reply("outer"))
            await self._settle(lambda: len(trace) == 6)
            assert trace == ["outer:begin", "outer:end", "inner:begin", "inner:end",
                             "fanned:begin", "fanned:end"]
            await transport.stop()

        asyncio.run(scenario())

    def test_crash_discards_pending_frames_of_both_directions(self):
        async def scenario():
            transport = AsyncioTransport()
            received = {"a": [], "b": []}
            transport.register("a", received["a"].append)
            transport.register("b", received["b"].append)
            await transport.start()
            transport.send("a", "b", self._reply("up"))
            transport.send("b", "a", self._reply("up"))
            await self._settle(lambda: received["a"] and received["b"])
            old_address = transport.address_of("b")

            # Sent and crashed in one loop turn: neither direction is flushed.
            transport.send("a", "b", self._reply("lost-ab"))
            transport.send("b", "a", self._reply("lost-ba"))
            transport.crash("b")
            assert transport.stats.messages_dropped == 2
            transport.recover("b")
            await self._settle(lambda: transport.address_of("b") is not None)
            assert transport.address_of("b") != old_address  # a fresh port

            reconnects = transport.stats.reconnects
            transport.send("a", "b", self._reply("back-ab"))
            transport.send("b", "a", self._reply("back-ba"))
            await self._settle(lambda: len(received["a"]) == 2 and len(received["b"]) == 2)
            assert [m.status for m in received["b"]] == ["up", "back-ab"]
            assert [m.status for m in received["a"]] == ["up", "back-ba"]
            # Both links were severed with the node and had to reconnect.
            assert transport.stats.reconnects == reconnects + 2
            await transport.stop()

        asyncio.run(scenario())

    def test_stop_leaves_no_pending_task_or_open_socket(self, caplog):
        async def scenario():
            transport = AsyncioTransport()
            for name in ("a", "b", "c"):
                transport.register(name, lambda m: None)
            await transport.start()
            transport.send("a", "b", self._reply("t"))
            await self._settle(lambda: transport.stats.messages_delivered == 1)
            # Stop with a listener re-bind and a connection attempt in flight
            # and frames still pending.
            transport.crash("c")
            transport.recover("c")
            transport.send("b", "a", self._reply("pending"))
            await asyncio.sleep(0)
            assert any(link.connector is not None for link in transport._links.values())
            await transport.stop()
            # Whatever is sent after stop() is dropped, not queued.
            transport.send("a", "b", self._reply("late"))
            assert not any(link.pending for link in transport._links.values())

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with caplog.at_level("ERROR", logger="asyncio"):
                asyncio.run(scenario(), debug=True)
                gc.collect()
        assert "Task was destroyed" not in caplog.text
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    @pytest.mark.parametrize("slack", [0, -1])
    def test_backlog_of_a_link_is_bounded(self, monkeypatch, slack):
        big = ClientRequest(sender="a", size_bytes=140, transaction=Transaction.create(
            "a", 0, 0.0, key="k0", value="v" * 65536))
        size = len(encode_message(big))
        # Sixteen messages make a frame payload of exactly 16 * size + 15
        # commas + 2 brackets.  With the frame cap there too, the boundary
        # is on both sides of the wire: the sender's flush builds the largest
        # frame the receiver takes, and one byte less fits one message less.
        cap = 16 * size + 15 + 2 + slack
        fits = 16 if slack == 0 else 15
        for module, name in ((asyncio_net, "MAX_LINK_BACKLOG_BYTES"),
                             (asyncio_net, "MAX_FRAME_BYTES"), (codec, "MAX_FRAME_BYTES")):
            monkeypatch.setattr(module, name, cap)

        async def scenario():
            transport = AsyncioTransport()
            received = []
            transport.register("a", lambda m: None)
            transport.register("b", received.append)
            await transport.start()
            transport.send("a", "b", self._reply("connect"))
            await self._settle(lambda: len(received) == 1)
            link = transport._links[("a", "b")]

            # Within one turn nothing is written yet: what does not fit the
            # one frame the link writes next is dropped.
            for _ in range(20):
                transport.send("a", "b", big)
            assert len(link.pending) == fits
            assert link.pending_bytes == len(codec.frame_of(link.pending)) - 4 <= cap
            assert transport.stats.messages_dropped == 20 - fits
            await self._settle(lambda: len(received) == 1 + fits)
            assert transport.stats.decode_errors == 0
            if slack:
                await transport.stop()
                return

            # A peer that stops reading: the kernel's buffers fill, then the
            # socket's write buffer, and from there on messages are dropped.
            for connection in transport._inbound["b"]:
                connection.pause_reading()
            for _ in range(400):
                transport.send("a", "b", big)
                await asyncio.sleep(0)
                assert link.pending_bytes + link.connection.get_write_buffer_size() <= cap
            dropped = transport.stats.messages_dropped
            assert dropped > 20 - fits
            for connection in transport._inbound["b"]:
                connection.resume_reading()
            sent = transport.stats.messages_sent
            await self._settle(lambda: len(received) + dropped == sent, timeout=30.0)
            await transport.stop()

        asyncio.run(scenario())

    def test_malformed_streams_are_counted_and_cut_off(self):
        async def scenario():
            transport = AsyncioTransport()
            received = []
            transport.register("b", received.append)
            await transport.start()
            stats = transport.stats
            reply = encode_message(self._reply("ok"))
            good = codec.frame_of([reply])

            # An oversized announcement: one error, connection closed at once,
            # nothing behind the prefix is waited for.
            reader, writer = await asyncio.open_connection(*transport.address_of("b"))
            writer.write(good + struct.pack(">I", MAX_FRAME_BYTES + 1) + b"junk")
            try:
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
            except ConnectionError:
                pass  # aborted: a reset is as good as an EOF
            writer.close()
            assert stats.decode_errors == 1

            # A connection lost mid-frame, and one lost mid-prefix: one each.
            for cut in (good[:-3], good + good[:2]):
                _, writer = await asyncio.open_connection(*transport.address_of("b"))
                writer.write(cut)
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            await self._settle(lambda: stats.decode_errors == 3)

            # Garbage inside a well-formed frame: counted, the stream goes on.
            # A payload that is no JSON array, or has bytes after it, costs
            # its frame; a bad envelope in an array (wrong arity, a body that
            # is no array, the keyed form of before records became arrays)
            # costs itself, and its neighbours are delivered.  One error
            # each, on one surviving connection.
            keyed = json.dumps(dict(zip(("kind", "sender", "size_bytes", "body"),
                                        json.loads(reply)))).encode("utf-8")
            not_arrays = (b"{}", b"7", b"\xff", b"[" + reply, b"[" + reply + b"]]")
            bad_envelopes = (b"[1]", reply[:-1] + b",0]", b'["ClientReply","a",1,"ab"]', keyed)
            wire = [(frame(bad), 0) for bad in not_arrays]
            wire += [(codec.frame_of([reply, bad, reply]), 2) for bad in bad_envelopes]
            _, writer = await asyncio.open_connection(*transport.address_of("b"))
            errors, delivered = stats.decode_errors, len(received)
            for bad, neighbours in wire:
                writer.write(bad + good)
                await writer.drain()
                errors, delivered = errors + 1, delivered + neighbours + 1
                await self._settle(lambda: (stats.decode_errors, len(received))
                                   == (errors, delivered))
            writer.close()
            await writer.wait_closed()
            # A clean close at a frame boundary is not an error.
            await asyncio.sleep(0.05)
            assert stats.decode_errors == 3 + len(wire) == 12
            assert [m.status for m in received] == ["ok"] * (1 + len(wire) + 2 * len(bad_envelopes))
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

    def test_sync_and_checkpoint_never_import_the_core(self):
        # The replica's dispatch table names their handlers; nothing of
        # theirs registers with the replica, so no import cycle orders them.
        offenders = [
            f"{path.relative_to(SRC_ROOT)} imports {module}"
            for directory in ("sync", "checkpoint")
            for path in sorted((SRC_ROOT / directory).rglob("*.py"))
            for module in _imports_of(path)
            if module == "repro.core" or module.startswith("repro.core.")
        ]
        assert not offenders, "\n  ".join(offenders)

    def test_transport_package_exists_where_expected(self):
        # Guards the walk above against silently checking nothing.
        assert (SRC_ROOT / "transport" / "base.py").exists()
        assert all((SRC_ROOT / d).is_dir() for d in PROTOCOL_STACK_DIRS)


# --------------------------------------------------------------------------
# what a delivered message is charged


class _RecordingCpu:
    """Stands in for a replica's CPU: records each job it is handed, runs none."""

    def __init__(self):
        self.jobs = []

    def submit(self, service_time, callback, *args):
        self.jobs.append((service_time, callback, args))


def _recording_replica(costs):
    """Replica ``r0`` of a built (not started) cluster, charging ``costs``."""
    replica = build_cluster(Configuration(num_nodes=4)).replicas["r0"]
    replica.cost_model = costs
    replica.cpu = _RecordingCpu()
    return replica


def _handled_samples():
    """One golden message per kind the dispatch table has a row for."""
    samples = {type(message): message for message in _golden_messages().values()
               if type(message) in Replica.DISPATCH}
    assert set(samples) == set(Replica.DISPATCH)
    return list(samples.values())


class TestDispatchCharges:
    def test_measured_charges_nothing_for_any_kind(self):
        replica = _recording_replica(cost_profile("measured"))
        for message in _handled_samples():
            for sender in (replica.node_id, "r9"):
                replica.deliver(dataclasses.replace(message, sender=sender))
                (charge, _, _), = replica.cpu.jobs
                assert charge == 0.0, (type(message).__name__, sender)
                replica.cpu.jobs.clear()

    @pytest.mark.parametrize("costs", [
        cost_profile("fast"), cost_profile("standard"), cost_profile("ohs"),
        cost_profile("standard").scaled(0.5),
    ], ids=["fast", "standard", "ohs", "standard x 0.5"])
    def test_simulated_profiles_keep_the_flat_charges(self, costs):
        replica = _recording_replica(costs)
        request = _golden_messages()["ClientRequest"]
        replica.deliver(request)
        assert replica.cpu.jobs.pop() == (5e-6, replica._process_client_request, (request,))
        for message in _handled_samples():
            own_copy = dataclasses.replace(message, sender=replica.node_id)
            replica.deliver(own_copy)
            (charge, _, args), = replica.cpu.jobs
            assert (charge, args) == (1e-6, (own_copy,)), type(message).__name__
            replica.cpu.jobs.clear()

    def test_a_reply_or_a_bare_message_is_ignored(self):
        replica = _recording_replica(cost_profile("standard"))
        replica.deliver(_golden_messages()["ClientReply"])
        replica.deliver(Message(sender="r1", size_bytes=1))
        assert replica.cpu.jobs == []


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


async def until(condition, what, deadline=30.0):
    # Poll instead of sleeping a fixed time: early exit on a fast host, room
    # on a slow one.
    give_up = asyncio.get_running_loop().time() + deadline
    while not condition():
        assert asyncio.get_running_loop().time() < give_up, f"timed out waiting for {what}"
        await asyncio.sleep(0.02)


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

        modeled = run_experiment(config.replace(mode="model"))
        assert modeled.consistent
        assert modeled.metrics.committed_transactions > 0
        # Identical record schema lets fig8 plot the two side by side.
        assert set(deployed.metrics.to_dict()) == set(modeled.metrics.to_dict())
        assert deployed.timeline and modeled.timeline

    def test_handler_error_fails_the_run_when_it_happens(self, monkeypatch):
        def explode(self, message):
            raise RuntimeError("boom on the first message")

        monkeypatch.setattr(Replica, "deliver", explode)

        async def scenario():
            runner = DeploymentRunner(_deploy_config(runtime=30.0, signing="hmac"))
            await runner.start()
            try:
                await runner.run()
            finally:
                await runner.stop()

        started = time.monotonic()
        with pytest.raises(DeploymentError, match="boom on the first message"):
            asyncio.run(scenario())
        # Not the 30.5 s horizon: the first raising handler ends the wait.
        assert time.monotonic() - started < 2.0

    def test_a_raising_vote_handler_fails_the_run(self, monkeypatch):
        """One replica's vote handler raises: the error reaches the transport
        through the replica's CPU, which runs the handler as its frame
        arrives, and the run fails with it instead of running out its
        horizon with that replica silently stuck."""
        process_vote = Replica._process_vote

        def process_vote_or_explode(self, message):
            if self.node_id == "r1":
                raise RuntimeError("r1 cannot count votes")
            process_vote(self, message)

        monkeypatch.setattr(Replica, "_process_vote", process_vote_or_explode)

        async def scenario():
            runner = DeploymentRunner(_deploy_config(runtime=10.0, signing="hmac"))
            await runner.start()
            try:
                with pytest.raises(DeploymentError, match="r1 cannot count votes"):
                    await runner.run()
            finally:
                await runner.stop()
            return runner

        started = time.monotonic()
        runner = asyncio.run(scenario())
        assert time.monotonic() - started < 5.0
        assert runner.transport.failed.is_set()
        assert "r1 cannot count votes" in repr(runner.transport.errors[0])

    def test_a_raising_timer_callback_fails_the_run(self, monkeypatch):
        """Work a timer starts fails as loudly as work a message starts: a
        view timeout's ``_send_timeout`` raises inside the clock's callback,
        and the run fails with it."""

        def explode(self, view):
            raise RuntimeError(f"{self.node_id} cannot build a timeout")

        monkeypatch.setattr(Replica, "_send_timeout", explode)

        async def scenario():
            runner = DeploymentRunner(_deploy_config(
                runtime=10.0, signing="hmac", view_timeout=0.2))
            await runner.start()
            runner.replicas["r3"].crash()  # the views it leads time out
            try:
                with pytest.raises(DeploymentError, match="cannot build a timeout"):
                    await runner.run()
            finally:
                await runner.stop()
            return runner

        started = time.monotonic()
        runner = asyncio.run(scenario())
        assert time.monotonic() - started < 5.0
        assert runner.transport.failed.is_set()
        assert "cannot build a timeout" in repr(runner.transport.errors[0])

    def test_a_request_naming_an_unknown_operation_is_refused_not_fatal(self):
        """The codec only knows ``operation`` is a string; the replica it
        reaches refuses it, where the executor used to raise inside ``_commit``
        on every replica and the first handler error fails a deployment."""

        async def scenario():
            runner = DeploymentRunner(_deploy_config(
                signing="hmac", warmup=0.1, runtime=0.6, cooldown=0.1))
            await runner.start()
            try:
                # A sequence the run's own c0 never reaches.
                odd = Transaction.create("c0", 10**9, created_at=0.0, key="k512",
                                         operation="frob")
                runner.transport.send(
                    "c0", "r1", ClientRequest(sender="c0", size_bytes=140, transaction=odd))
                await runner.run()
            finally:
                await runner.stop()
            return runner

        runner = asyncio.run(scenario())
        assert runner.transport.errors == []
        assert runner.transport.stats.decode_errors == 0
        assert runner.replicas["r1"].stats.client_rejections == 1
        assert runner.consistency_check()
        assert runner.replicas[runner.observer_id].forest.committed_height > 10
        assert all(r.kvstore.operations_invalid == 0 for r in runner.replicas.values())

    def test_no_loop_timer_is_armed_for_a_cpu_charge(self):
        """A deployed replica's CPU is the host's: a job runs when it is
        submitted, so with the view and request timeouts seconds away the
        clock arms no near deadline however many requests flow.  (The
        simulator's FIFO server would post each completion to the clock.)"""

        async def scenario():
            loop = asyncio.get_running_loop()
            armed_ahead = []
            call_at = loop.call_at

            def spy(when, callback, *args, **kwargs):
                if getattr(callback, "__self__", None) is runner.clock:
                    armed_ahead.append(when - loop.time())
                return call_at(when, callback, *args, **kwargs)

            loop.call_at = spy
            runner = DeploymentRunner(_deploy_config(
                signing="hmac", view_timeout=20.0, request_timeout=20.0,
                warmup=0.1, runtime=0.6, cooldown=0.1))
            await runner.start()
            try:
                await runner.run()
            finally:
                await runner.stop()
            return runner, armed_ahead

        runner, armed_ahead = asyncio.run(scenario())
        assert runner.replicas[runner.observer_id].forest.committed_height > 10
        assert armed_ahead and min(armed_ahead) >= 1e-3
        assert {type(replica.cpu) for replica in runner.replicas.values()} == {HostCpu}
        simulated = build_cluster(runner.config.replace(mode="model"))
        assert {type(replica.cpu) for replica in simulated.replicas.values()} == {FifoServer}

    def test_loop_timers_do_not_grow_with_requests_issued(self, spy_on_loop_timers):
        """A client arms one deadline however many requests it has sent, so
        the loop timers a deployment creates are view timers (one per replica
        per view, cancelled when the view ends) and a deadline per client."""

        async def scenario():
            timers = spy_on_loop_timers(asyncio.get_running_loop())
            runner = DeploymentRunner(_deploy_config(
                signing="hmac", concurrency=200, view_timeout=0.25, request_timeout=20.0,
                warmup=0.1, runtime=0.8, cooldown=0.1))
            await runner.start()
            try:
                await runner.run()
            finally:
                await runner.stop()
            return runner, len(timers)

        runner, created = asyncio.run(scenario())
        sent = sum(client.requests_sent for client in runner.clients)
        assert sum(client.requests_timed_out for client in runner.clients) == 0
        assert sent > 1000
        # The clients' deadlines are armed in the load generator's loop, which
        # reports how many timers its clock created: each client armed one.
        generated = runner.load_generator.report.timers_armed
        assert generated >= len(runner.clients) == 2
        # No request of this run is 20 s old: a timer each would be ``sent``.
        # What is created is four view timers per view, against ~30 requests.
        assert created + generated < sent / 4

    def test_a_raising_client_fails_the_run_and_leaves_no_process(self, monkeypatch):
        """The clients run in the forked load generator, which inherits the
        patch: their error comes back in its report and fails the run when
        it happens, and ``stop()`` leaves no process behind."""

        def explode(self, sent_at=None):
            raise RuntimeError("no requests today")

        monkeypatch.setattr(ClientBase, "_submit_request", explode)

        async def scenario():
            runner = DeploymentRunner(_deploy_config(runtime=30.0, signing="hmac"))
            await runner.start()
            try:
                with pytest.raises(DeploymentError, match="no requests today"):
                    await runner.run()
            finally:
                await runner.stop()
            return runner

        started = time.monotonic()
        runner = asyncio.run(scenario())
        assert time.monotonic() - started < 5.0
        assert runner.load_generator.report.error == "RuntimeError('no requests today')"
        with pytest.raises(ChildProcessError):
            os.waitpid(runner.load_generator.pid, os.WNOHANG)

    def test_a_load_generator_that_dies_fails_the_run(self):
        async def scenario():
            runner = DeploymentRunner(_deploy_config(runtime=30.0, signing="hmac"))
            await runner.start()
            try:
                await asyncio.sleep(0.2)
                os.kill(runner.load_generator.pid, signal.SIGKILL)
                with pytest.raises(DeploymentError, match="exited without a report"):
                    await runner.run()
            finally:
                await runner.stop()
            return runner

        started = time.monotonic()
        runner = asyncio.run(scenario())
        assert time.monotonic() - started < 5.0
        assert runner.load_generator.report is None and runner.clients == []
        with pytest.raises(ChildProcessError):
            os.waitpid(runner.load_generator.pid, os.WNOHANG)

    def test_a_finished_run_reaps_its_load_generator(self):
        async def scenario():
            runner = DeploymentRunner(_deploy_config(
                signing="hmac", warmup=0.1, runtime=0.3, cooldown=0.1))
            await runner.start()
            try:
                await runner.run()
            finally:
                await runner.stop()
            return runner

        runner = asyncio.run(scenario())
        runner.raise_handler_errors()
        with pytest.raises(ChildProcessError):
            os.waitpid(runner.load_generator.pid, os.WNOHANG)
        assert [c.client_id for c in runner.clients] == ["c0", "c1"]
        # Every committed reply's event was replayed onto the run's stream.
        committed = sum(c.replies_committed for c in runner.clients)
        assert len(runner.metrics.latencies) == committed > 0
        # Both processes' sockets: the replies the replicas wrote and the
        # requests the load generator wrote.
        counts = runner.transport.stats.per_type_counts
        assert counts["ClientRequest"] == sum(c.requests_sent for c in runner.clients)
        assert counts["ClientReply"] > 0

    def test_the_load_generator_is_forked_only_from_one_thread(self):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            runner = DeploymentRunner(_deploy_config(signing="hmac"))
            with pytest.raises(DeploymentError, match="2 are alive"):
                asyncio.run(runner.start())
        finally:
            release.set()
            other.join(timeout=5.0)
        assert not other.is_alive()

    def test_a_recovered_replica_serves_the_load_generator_again(self):
        """r1 crashes and comes back on a fresh port.  The parent forwards
        both address changes to the load generator, so its clients stop
        sending to the dead port and then reach r1 at the new one: r1
        answers again, and no request issued a request timeout after the
        recovery times out (without the forwarding, every request sent to r1
        would)."""
        timeout = 1.0

        async def scenario():
            runner = DeploymentRunner(_deploy_config(
                signing="hmac", election="hash", view_timeout=0.3, seed=11,
                request_timeout=timeout, warmup=0.1, runtime=120.0))
            await runner.start()
            try:
                victim = runner.replicas["r1"]
                observer = runner.replicas[runner.observer_id]
                await until(lambda: observer.forest.committed_height > 0, "a first commit")
                victim.crash()
                height_down = observer.forest.committed_height + 5
                await until(lambda: observer.forest.committed_height > height_down,
                            "commits while r1 is down")
                victim.recover()
                recovered_at = runner.clock.now
                await asyncio.sleep(4 * timeout)
            finally:
                await runner.stop()
            runner.raise_handler_errors()
            return runner, recovered_at

        with tracing(Tracer(categories=("client",))) as tracer:
            runner, recovered_at = asyncio.run(scenario())
        records = tracer.records()
        answered = [r for r in records if r.kind == "commit-reply"
                    and r.payload["replica"] == "r1" and r.t > recovered_at]
        late = [r for r in records if r.kind == "request-timeout"
                and r.t - timeout > recovered_at + timeout]
        assert answered
        assert late == []
        assert runner.consistency_check()

    def test_crashed_replica_recovers_over_the_wire(self):
        """A replica that crashes mid-run catches back up via real sync."""

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

    def test_every_wire_kind_crosses_a_real_socket(self):
        """The codec's traffic, verified instead of guessed: a steady run sends
        four kinds, a crash long enough to need a snapshot sends the snapshot,
        and a crash shorter than one checkpoint interval sends blocks."""
        interval = 20

        async def scenario():
            # A short view timeout keeps commits coming while r3, which leads
            # about one view in four, is down.
            runner = DeploymentRunner(_deploy_config(
                runtime=120.0, seed=11, election="hash", view_timeout=0.1,
                signing="hmac", checkpoint_interval=interval))
            await runner.start()
            try:
                victim = runner.replicas["r3"]
                observer = runner.replicas[runner.observer_id]
                peers = [r for name, r in runner.replicas.items() if name != "r3"]
                await until(lambda: observer.forest.committed_height > 0, "a first commit")
                victim.crash()
                # Several checkpoint intervals: the gap is crossed by snapshot.
                height_down = victim.forest.committed_height + 3 * interval
                await until(lambda: observer.forest.committed_height > height_down,
                            "commits while r3 is down")
                victim.recover()
                await until(lambda: victim.forest.committed_height > height_down,
                            "r3 to catch up")
                fetched_by_snapshot = victim.sync.stats.blocks_fetched

                # A snapshot catch-up may fetch no block at all, so a second
                # outage follows, from the moment every peer has just taken a
                # checkpoint at most one block above r3's head to the
                # observer's next commit.  No peer truncates past r3's anchor
                # again before it asks, so the gap comes back as blocks.  Both
                # steps run inside the event that makes them due: a poll sees
                # dozens of commits go by, and a commit may carry several
                # blocks after a timeout.
                outage = {}

                def on_event(t, who, category, kind, view, payload=None):
                    if "down_at" not in outage:
                        if kind == "checkpoint" and all(
                                p.forest.base_height == p.forest.committed_height
                                <= victim.forest.committed_height + 1 for p in peers):
                            outage["down_at"] = observer.forest.committed_height
                            victim.crash()
                    elif "up_at" not in outage and kind == "commit" and who == observer.node_id:
                        outage["up_at"] = observer.forest.committed_height
                        victim.recover()

                runner.events.subscribe(on_event, obs_trace.CHECKPOINT | obs_trace.COMMIT)
                await until(lambda: "up_at" in outage
                            and victim.forest.committed_height >= outage["up_at"],
                            "r3 to fetch the short gap")
            finally:
                await runner.stop()
            runner.raise_handler_errors()
            return runner, fetched_by_snapshot, outage

        runner, fetched_by_snapshot, outage = asyncio.run(scenario())
        stats = runner.transport.stats
        victim = runner.replicas["r3"]
        assert 0 < outage["up_at"] - outage["down_at"] < interval
        assert set(stats.per_type_counts) == {kind.__name__ for kind in codec.WIRE_KINDS}
        assert victim.checkpoint.stats.snapshots_installed == 1
        assert victim.sync.stats.blocks_fetched > fetched_by_snapshot
        assert stats.decode_errors == 0
        assert runner.consistency_check()

    def test_deploy_mode_fabric_is_traced(self):
        """The transport announces its drops on the same stream as the simulator's network."""

        async def scenario():
            runner = DeploymentRunner(_deploy_config(
                runtime=120.0, seed=11, signing="hmac", election="hash", view_timeout=0.3))
            await runner.start()
            try:
                observer = runner.replicas[runner.observer_id]
                await until(lambda: observer.forest.committed_height > 0, "a first commit")
                runner.replicas["r3"].crash()
                # Everything the others keep sending r3 is dropped at the door.
                height_down = observer.forest.committed_height + 3
                await until(lambda: observer.forest.committed_height > height_down,
                            "commits while r3 is down")
            finally:
                await runner.stop()
            runner.raise_handler_errors()
            return runner

        with tracing() as deployed:
            runner = asyncio.run(scenario())
        drops = [r for r in deployed.records() if (r.category, r.kind) == ("net", "drop")]
        assert any(r.replica == "r3" and r.payload["reason"] == "crashed" for r in drops)
        assert len(drops) <= runner.transport.stats.messages_dropped
        assert all(set(r.payload) in ({"reason", "message"}, {"reason", "messages"}) for r in drops)

        with tracing() as simulated:
            run_experiment(_deploy_config(mode="model", runtime=0.5))
        assert deployed.replicas() == simulated.replicas() == ["c0", "c1", "r0", "r1", "r2", "r3"]


if __name__ == "__main__":
    frames = {name: encode_message(message).decode("utf-8")
              for name, message in _golden_messages().items()}
    pair = ["VoteMessage", "ClientReply"]
    for name, document in (
        ("wire_frames.json", frames),
        ("wire_frame.json", {"messages": pair,
                             "payload": "[%s]" % ",".join(frames[n] for n in pair)}),
    ):
        (GOLDEN / name).write_text(json.dumps(document, indent=1) + "\n")
