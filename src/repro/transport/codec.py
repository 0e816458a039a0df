"""Wire codec for the deployment transport: JSON payloads, length-prefixed.

The simulation never serializes — messages are Python objects handed between
replicas, and :class:`~repro.types.sizes.SizeModel` *estimates* their wire
size for the NIC model.  The real transport has to actually put them on a
socket, so this module gives every message kind in :mod:`repro.types`,
:mod:`repro.sync`, and :mod:`repro.checkpoint` a canonical JSON encoding,
framed with a 4-byte big-endian length prefix.

JSON (rather than a binary format) keeps frames debuggable with ``nc`` and
avoids any dependency; the measured-throughput comparison against the model
is honest as long as both modes pay their own serialization costs — the model
charges the size-model estimate, the deployment pays real
encode/decode + syscalls.

Round-trip property: ``decode_message(encode_message(m))`` reconstructs an
equal message for every kind (``message_id`` excluded — it is
``compare=False`` bookkeeping and each decode mints a fresh one).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Callable, Dict, List, Optional

from repro.checkpoint.messages import SnapshotRequest, SnapshotResponse
from repro.checkpoint.snapshot import Checkpoint
from repro.crypto.signatures import Signature
from repro.executor.kvstore import DedupState, KVSnapshot
from repro.sync.messages import BlockRequest, BlockResponse
from repro.types.block import Block
from repro.types.certificates import QuorumCertificate, Timeout, TimeoutCertificate, Vote
from repro.types.messages import (
    ClientReply,
    ClientRequest,
    Message,
    ProposalMessage,
    TimeoutCertificateMessage,
    TimeoutMessage,
    VoteMessage,
)
from repro.types.transaction import Transaction

_LENGTH_PREFIX = struct.Struct(">I")

#: One compact encoder for every message (``json.dumps`` would build a fresh
#: ``JSONEncoder`` per call); its output is what ``json.dumps(payload,
#: separators=(",", ":"))`` produces, byte for byte.
_to_json = json.JSONEncoder(separators=(",", ":")).encode

#: Upper bound on a single frame; a peer announcing more is treated as
#: corrupt rather than allocated for (snapshots dominate and stay well under).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class CodecError(ValueError):
    """A payload that cannot be encoded or decoded."""


# --------------------------------------------------------------------------
# value codecs (crypto + chain types)

def _enc_signature(sig: Signature) -> Dict[str, Any]:
    return {"signer": sig.signer, "digest": sig.digest, "tag": sig.tag.hex()}


def _dec_signature(data: Dict[str, Any]) -> Signature:
    return Signature(signer=data["signer"], digest=data["digest"], tag=bytes.fromhex(data["tag"]))


def _enc_vote(vote: Vote) -> Dict[str, Any]:
    return {
        "voter": vote.voter,
        "block_id": vote.block_id,
        "view": vote.view,
        "signature": _enc_signature(vote.signature),
    }


def _dec_vote(data: Dict[str, Any]) -> Vote:
    return Vote(
        voter=data["voter"],
        block_id=data["block_id"],
        view=data["view"],
        signature=_dec_signature(data["signature"]),
    )


def _enc_qc(qc: Optional[QuorumCertificate]) -> Optional[Dict[str, Any]]:
    if qc is None:
        return None
    return {
        "block_id": qc.block_id,
        "view": qc.view,
        "signers": sorted(qc.signers),
        "signatures": [_enc_signature(sig) for sig in qc.signatures],
    }


def _dec_qc(data: Optional[Dict[str, Any]]) -> Optional[QuorumCertificate]:
    if data is None:
        return None
    return QuorumCertificate(
        block_id=data["block_id"],
        view=data["view"],
        signers=frozenset(data["signers"]),
        signatures=tuple(_dec_signature(sig) for sig in data["signatures"]),
    )


def _enc_timeout(timeout: Timeout) -> Dict[str, Any]:
    return {
        "voter": timeout.voter,
        "view": timeout.view,
        "high_qc_view": timeout.high_qc_view,
        "signature": _enc_signature(timeout.signature),
    }


def _dec_timeout(data: Dict[str, Any]) -> Timeout:
    return Timeout(
        voter=data["voter"],
        view=data["view"],
        high_qc_view=data["high_qc_view"],
        signature=_dec_signature(data["signature"]),
    )


def _enc_tc(tc: TimeoutCertificate) -> Dict[str, Any]:
    return {
        "view": tc.view,
        "signers": sorted(tc.signers),
        "signatures": [_enc_signature(sig) for sig in tc.signatures],
        "high_qc_view": tc.high_qc_view,
    }


def _dec_tc(data: Dict[str, Any]) -> TimeoutCertificate:
    return TimeoutCertificate(
        view=data["view"],
        signers=frozenset(data["signers"]),
        signatures=tuple(_dec_signature(sig) for sig in data["signatures"]),
        high_qc_view=data["high_qc_view"],
    )


def _enc_transaction(tx: Transaction) -> Dict[str, Any]:
    return {
        "txid": tx.txid,
        "client_id": tx.client_id,
        "operation": tx.operation,
        "key": tx.key,
        "value": tx.value,
        "payload_size": tx.payload_size,
        "created_at": tx.created_at,
        "sequence": tx.sequence,
    }


def _dec_transaction(data: Dict[str, Any]) -> Transaction:
    txid, client_id, sequence = data["txid"], data["client_id"], data["sequence"]
    transaction = Transaction(
        txid=txid,
        client_id=client_id,
        operation=data["operation"],
        key=data["key"],
        value=data["value"],
        payload_size=data["payload_size"],
        created_at=data["created_at"],
        sequence=sequence,
    )
    # Seed the cached_property as ``Transaction.create`` does: every decoded
    # copy is a new object, and its first lazy lookup would otherwise take
    # ``cached_property``'s locked slow path once per copy.
    transaction.__dict__["canonical_session"] = (
        (client_id, sequence) if txid == f"tx-{client_id}-{sequence}" else None
    )
    return transaction


def _enc_block(block: Block) -> Dict[str, Any]:
    return {
        "block_id": block.block_id,
        "view": block.view,
        "parent_id": block.parent_id,
        "height": block.height,
        "qc": _enc_qc(block.qc),
        "proposer": block.proposer,
        "transactions": [_enc_transaction(tx) for tx in block.transactions],
    }


def _dec_block(data: Dict[str, Any]) -> Block:
    return Block(
        block_id=data["block_id"],
        view=data["view"],
        parent_id=data["parent_id"],
        height=data["height"],
        qc=_dec_qc(data["qc"]),
        proposer=data["proposer"],
        transactions=tuple(_dec_transaction(tx) for tx in data["transactions"]),
    )


def _enc_kv_snapshot(snapshot: KVSnapshot) -> Dict[str, Any]:
    return {
        "items": [[key, value] for key, value in snapshot.items],
        "dedup": {
            "sessions": [
                [client, floor, list(pending)]
                for client, floor, pending in snapshot.dedup.sessions
            ],
            "extras": list(snapshot.dedup.extras),
        },
        "operations_applied": snapshot.operations_applied,
    }


def _dec_kv_snapshot(data: Dict[str, Any]) -> KVSnapshot:
    return KVSnapshot(
        items=tuple((key, value) for key, value in data["items"]),
        dedup=DedupState(
            sessions=tuple(
                (client, floor, tuple(pending))
                for client, floor, pending in data["dedup"]["sessions"]
            ),
            extras=tuple(data["dedup"]["extras"]),
        ),
        operations_applied=data["operations_applied"],
    )


def _enc_checkpoint(checkpoint: Optional[Checkpoint]) -> Optional[Dict[str, Any]]:
    if checkpoint is None:
        return None
    return {
        "height": checkpoint.height,
        "block": _enc_block(checkpoint.block),
        "qc": _enc_qc(checkpoint.qc),
        "committed_ids": list(checkpoint.committed_ids),
        "state": _enc_kv_snapshot(checkpoint.state),
        "taken_at": checkpoint.taken_at,
    }


def _dec_checkpoint(data: Optional[Dict[str, Any]]) -> Optional[Checkpoint]:
    if data is None:
        return None
    return Checkpoint(
        height=data["height"],
        block=_dec_block(data["block"]),
        qc=_dec_qc(data["qc"]),
        committed_ids=tuple(data["committed_ids"]),
        state=_dec_kv_snapshot(data["state"]),
        taken_at=data["taken_at"],
    )


# --------------------------------------------------------------------------
# message codecs

def _enc_proposal(msg: ProposalMessage) -> Dict[str, Any]:
    return {"block": _enc_block(msg.block), "view": msg.view, "forwarded_by": msg.forwarded_by}


def _dec_proposal(base: Dict[str, Any], body: Dict[str, Any]) -> ProposalMessage:
    return ProposalMessage(
        **base, block=_dec_block(body["block"]), view=body["view"],
        forwarded_by=body["forwarded_by"],
    )


def _enc_vote_msg(msg: VoteMessage) -> Dict[str, Any]:
    return {"vote": _enc_vote(msg.vote), "forwarded_by": msg.forwarded_by}


def _dec_vote_msg(base: Dict[str, Any], body: Dict[str, Any]) -> VoteMessage:
    return VoteMessage(**base, vote=_dec_vote(body["vote"]), forwarded_by=body["forwarded_by"])


def _enc_timeout_msg(msg: TimeoutMessage) -> Dict[str, Any]:
    return {"timeout": _enc_timeout(msg.timeout)}


def _dec_timeout_msg(base: Dict[str, Any], body: Dict[str, Any]) -> TimeoutMessage:
    return TimeoutMessage(**base, timeout=_dec_timeout(body["timeout"]))


def _enc_tc_msg(msg: TimeoutCertificateMessage) -> Dict[str, Any]:
    return {"tc": _enc_tc(msg.tc)}


def _dec_tc_msg(base: Dict[str, Any], body: Dict[str, Any]) -> TimeoutCertificateMessage:
    return TimeoutCertificateMessage(**base, tc=_dec_tc(body["tc"]))


def _enc_client_request(msg: ClientRequest) -> Dict[str, Any]:
    return {"transaction": _enc_transaction(msg.transaction)}


def _dec_client_request(base: Dict[str, Any], body: Dict[str, Any]) -> ClientRequest:
    return ClientRequest(**base, transaction=_dec_transaction(body["transaction"]))


def _enc_client_reply(msg: ClientReply) -> Dict[str, Any]:
    return {
        "txid": msg.txid,
        "committed_at": msg.committed_at,
        "replica": msg.replica,
        "status": msg.status,
    }


def _dec_client_reply(base: Dict[str, Any], body: Dict[str, Any]) -> ClientReply:
    return ClientReply(
        **base, txid=body["txid"], committed_at=body["committed_at"],
        replica=body["replica"], status=body["status"],
    )


def _enc_block_request(msg: BlockRequest) -> Dict[str, Any]:
    return {
        "target_block_id": msg.target_block_id,
        "known_block_id": msg.known_block_id,
        "known_height": msg.known_height,
    }


def _dec_block_request(base: Dict[str, Any], body: Dict[str, Any]) -> BlockRequest:
    return BlockRequest(
        **base, target_block_id=body["target_block_id"],
        known_block_id=body["known_block_id"], known_height=body["known_height"],
    )


def _enc_block_response(msg: BlockResponse) -> Dict[str, Any]:
    return {
        "blocks": [_enc_block(block) for block in msg.blocks],
        "target_id": msg.target_id,
        "tip_qc": _enc_qc(msg.tip_qc),
    }


def _dec_block_response(base: Dict[str, Any], body: Dict[str, Any]) -> BlockResponse:
    return BlockResponse(
        **base, blocks=tuple(_dec_block(block) for block in body["blocks"]),
        target_id=body["target_id"], tip_qc=_dec_qc(body["tip_qc"]),
    )


def _enc_snapshot_request(msg: SnapshotRequest) -> Dict[str, Any]:
    return {"known_height": msg.known_height}


def _dec_snapshot_request(base: Dict[str, Any], body: Dict[str, Any]) -> SnapshotRequest:
    return SnapshotRequest(**base, known_height=body["known_height"])


def _enc_snapshot_response(msg: SnapshotResponse) -> Dict[str, Any]:
    return {
        "checkpoint": _enc_checkpoint(msg.checkpoint),
        "responder_height": msg.responder_height,
    }


def _dec_snapshot_response(base: Dict[str, Any], body: Dict[str, Any]) -> SnapshotResponse:
    return SnapshotResponse(
        **base, checkpoint=_dec_checkpoint(body["checkpoint"]),
        responder_height=body["responder_height"],
    )


_ENCODERS: Dict[type, Callable[[Any], Dict[str, Any]]] = {
    ProposalMessage: _enc_proposal,
    VoteMessage: _enc_vote_msg,
    TimeoutMessage: _enc_timeout_msg,
    TimeoutCertificateMessage: _enc_tc_msg,
    ClientRequest: _enc_client_request,
    ClientReply: _enc_client_reply,
    BlockRequest: _enc_block_request,
    BlockResponse: _enc_block_response,
    SnapshotRequest: _enc_snapshot_request,
    SnapshotResponse: _enc_snapshot_response,
}

_DECODERS: Dict[str, Callable[[Dict[str, Any], Dict[str, Any]], Message]] = {
    "ProposalMessage": _dec_proposal,
    "VoteMessage": _dec_vote_msg,
    "TimeoutMessage": _dec_timeout_msg,
    "TimeoutCertificateMessage": _dec_tc_msg,
    "ClientRequest": _dec_client_request,
    "ClientReply": _dec_client_reply,
    "BlockRequest": _dec_block_request,
    "BlockResponse": _dec_block_response,
    "SnapshotRequest": _dec_snapshot_request,
    "SnapshotResponse": _dec_snapshot_response,
}


def encode_message(message: Message) -> bytes:
    """Serialize a message to its JSON wire form (unframed)."""
    encoder = _ENCODERS.get(type(message))
    if encoder is None:
        raise CodecError(f"no wire encoding for {type(message).__name__}")
    payload = {
        "kind": type(message).__name__,
        "sender": message.sender,
        "size_bytes": message.size_bytes,
        "body": encoder(message),
    }
    return _to_json(payload).encode("utf-8")


def decode_message(data: bytes) -> Message:
    """Parse one unframed JSON payload back into a message object."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"malformed frame: {exc}") from exc
    kind = payload.get("kind") if isinstance(payload, dict) else None
    decoder = _DECODERS.get(kind) if isinstance(kind, str) else None
    if decoder is None:
        raise CodecError(f"unknown message kind {kind!r}")
    try:
        base = {"sender": payload["sender"], "size_bytes": payload["size_bytes"]}
        return decoder(base, payload["body"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CodecError(f"malformed {kind} body: {exc}") from exc


def frame(payload: bytes) -> bytes:
    """Prefix an encoded payload with its 4-byte big-endian length."""
    if len(payload) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH_PREFIX.pack(len(payload)) + payload


class FrameSplitter:
    """Incremental parser of a length-prefixed byte stream.

    :meth:`feed` takes whatever chunk the socket delivered and returns every
    payload it completes, in order; a partial frame at the end of the chunk
    is held until later chunks complete it.  The held bytes never exceed one
    frame (``MAX_FRAME_BYTES`` plus its prefix) before the chunk being fed is
    added: a prefix announcing more raises :class:`CodecError` before anything
    behind it is kept.  A stream that ends while :attr:`buffered` is non-zero
    was cut mid-prefix or mid-frame.
    """

    __slots__ = ("_held", "_need")

    def __init__(self) -> None:
        self._held = bytearray()
        #: Bytes the frame at the head of ``_held`` needs before it can be
        #: parsed further, so a large frame arriving in many chunks is not
        #: re-scanned (or re-copied) once per chunk.
        self._need = 0

    @property
    def buffered(self) -> int:
        """Bytes of an incomplete frame held so far."""
        return len(self._held)

    def feed(self, chunk: bytes) -> List[bytes]:
        """Add ``chunk`` to the stream; return the payloads now complete."""
        held = self._held
        if held:
            held += chunk
            if len(held) < self._need:
                return []
            data = bytes(held)
            held.clear()
        else:
            data = chunk
        payloads: List[bytes] = []
        prefix_size = _LENGTH_PREFIX.size
        offset, end = 0, len(data)
        while True:
            need = prefix_size
            if end - offset < need:
                break
            (length,) = _LENGTH_PREFIX.unpack_from(data, offset)
            if length > MAX_FRAME_BYTES:
                raise CodecError(f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES})")
            need += length
            if end - offset < need:
                break
            payloads.append(data[offset + prefix_size:offset + need])
            offset += need
        if offset < end:
            held += memoryview(data)[offset:]
            self._need = need
        return payloads
