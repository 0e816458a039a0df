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

The field list of a wire type is its class.  A frame is the envelope
``[kind, sender, size_bytes, body]``; the body, and every value inside it,
takes the JSON form its *declared type* prescribes, one rule per type
(:func:`_forms`; docs/ARCHITECTURE.md tabulates them, and
``tests/golden/wire_frames.json`` holds one frame of every kind as text).
A record is the array of its fields in declaration order (both ends read the
order off the same class, so no name travels), compiled once, when this
module is imported, into the list display and the constructor call one would
write by hand (the way :mod:`dataclasses` builds ``__init__``): every name in
the generated source comes from a class declaration in this repository, never
from the wire.  Decoding checks every array's class and length and every
scalar against the declared type, so a parseable frame with a missing, extra
or wrong-typed field is a :class:`CodecError` here rather than a
``TypeError`` inside whichever handler first touches the field.

Round-trip property: ``decode_message(encode_message(m))`` reconstructs an
equal message for every kind (``message_id`` excluded — it is
``compare=False`` bookkeeping and each decode mints a fresh one).
"""

from __future__ import annotations

import dataclasses
import json
import struct
import typing
from typing import Any, Callable, Dict, List, Tuple

from repro.checkpoint.messages import SnapshotRequest, SnapshotResponse
from repro.sync.messages import BlockRequest, BlockResponse
from repro.types.messages import (
    ClientReply,
    ClientRequest,
    Message,
    ProposalMessage,
    TimeoutMessage,
    VoteMessage,
)
from repro.types.transaction import Transaction

#: The kinds a socket may name.  Closed and explicit: a frame's ``kind`` is
#: looked up here and nowhere else (not in ``Message.__subclasses__()``, which
#: also lists plugin kinds and, on 3.10, the pre-slots class that
#: ``dataclass(slots=True)`` leaves behind under the same name).  Deploying a
#: new kind means adding its class to this tuple; its wire form follows from
#: its declaration.
WIRE_KINDS: Tuple[type, ...] = (
    ProposalMessage,
    VoteMessage,
    TimeoutMessage,
    ClientRequest,
    ClientReply,
    BlockRequest,
    BlockResponse,
    SnapshotRequest,
    SnapshotResponse,
)

_LENGTH_PREFIX = struct.Struct(">I")

#: One compact encoder for every message (``json.dumps`` would build a fresh
#: one per call, and look for cycles that a tree built from declared types
#: cannot have); its output is ``json.dumps(payload, separators=(",", ":"))``'s.
_to_json = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
#: ``json.loads`` less its whitespace scans: (first value, where it ends).
_from_json = json.JSONDecoder().raw_decode

#: Upper bound on a single frame; a peer announcing more is treated as
#: corrupt rather than allocated for (snapshots dominate and stay well under).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class CodecError(ValueError):
    """A payload that cannot be encoded or decoded."""


# --------------------------------------------------------------------------
# type -> JSON form, read from the declarations

def _mismatch(value: Any, expected: str) -> Any:
    raise TypeError(f"expected {expected}, got {type(value).__name__}")


def _list(value: Any, length: int = -1) -> list:
    if value.__class__ is not list:
        _mismatch(value, "list")
    if length >= 0 and len(value) != length:
        raise ValueError(f"expected {length} elements, got {len(value)}")
    return value


#: What generated source can name: the two helpers above and, for every
#: record class ``C`` compiled so far, ``C`` itself, ``enc_C`` and ``dec_C``.
_NAMESPACE: Dict[str, Any] = {"_mismatch": _mismatch, "_list": _list}


def _forms(tp: Any, v: str, j: str, depth: int = 0) -> Tuple[str, str]:
    """Source of both directions of one value, from its declared type ``tp``.

    Returns ``(the JSON form of the value v, the checked value read from the
    JSON j)``.  ``v`` and ``j`` are cheap, side-effect-free expressions that
    may be evaluated more than once (a name, ``v.field``, ``d[2]``,
    ``t0[1]``); decoding binds what it reads to a per-depth temporary first,
    so a scalar leaf costs one lookup plus the class test.  Comprehension
    iterables stay free of ``:=`` (the grammar forbids it there): that is
    what :func:`_list` is for.
    """
    t, e, deeper = f"t{depth}", f"e{depth}", depth + 1
    if tp in (str, int, bool):  # exact class: JSON ``true`` is not an int
        name = tp.__name__
        return v, f"({t} if ({t} := {j}).__class__ is {name} else _mismatch({t}, {name!r}))"
    if tp is float:  # a peer may well write 2.0 as 2
        return v, (f"({t} if ({t} := {j}).__class__ is float or {t}.__class__ is int"
                   f" else _mismatch({t}, 'float'))")
    if tp is bytes:
        return f"{v}.hex()", f"bytes.fromhex({j})"
    if tp is Transaction or dataclasses.is_dataclass(tp):
        _record(tp)
        return f"enc_{tp.__name__}({v})", f"dec_{tp.__name__}({j})"
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union and len(args) == 2 and type(None) in args:  # Optional[X]
        enc, dec = _forms(args[0] if args[1] is type(None) else args[1], v, t, deeper)
        return (v if enc == v else f"(None if {v} is None else {enc})",
                f"(None if ({t} := {j}) is None else {dec})")
    if origin is frozenset and args[0] is str:
        return f"sorted({v})", f"frozenset([{_forms(str, e, e, deeper)[1]} for {e} in _list({j})])"
    if origin is tuple and args[-1] is Ellipsis:
        enc, dec = _forms(args[0], e, e, deeper)
        return (f"list({v})" if enc == e else f"[{enc} for {e} in {v}]",
                f"tuple([{dec} for {e} in _list({j})])")
    if origin is tuple:
        # Left to right: element 0 is read through the list-and-arity check,
        # so the check runs before any other element is touched.
        first = f"_list({j}, {len(args)})[0]"
        forms = [_forms(arg, f"{v}[{i}]", f"{j}[{i}]" if i else first, deeper)
                 for i, arg in enumerate(args)]
        return (f"[{', '.join(enc for enc, _ in forms)}]",
                f"({', '.join(dec for _, dec in forms)},)")
    raise TypeError(f"no wire form for a value declared as {tp!r}")


def _record(cls: type, head: Tuple[str, ...] = ()) -> Tuple[Callable, Callable]:
    """``cls``'s compiled pair: instance -> JSON array, JSON array -> instance.

    The fields are the dataclass's, in declaration order (``Transaction``
    keeps its list in ``_fields`` and its types on ``__init__``).  A message
    names its envelope fields in ``head``: they are not part of the array,
    its body, and the second function takes them as arguments after it
    (checked like any other value).
    """
    enc_name, dec_name = f"enc_{cls.__name__}", f"dec_{cls.__name__}"
    if _NAMESPACE.setdefault(cls.__name__, cls) is not cls:
        raise TypeError(f"two wire types are called {cls.__name__}")
    if enc_name not in _NAMESPACE:
        names = cls._fields if cls is Transaction else [f.name for f in dataclasses.fields(cls)]
        hints = typing.get_type_hints(cls.__init__ if cls is Transaction else cls)
        if head:  # the body is what the kind declares itself
            names = names[len(dataclasses.fields(Message)):]
        forms = [(name, *_forms(hints[name], f"v.{name}", f"d[{i}]"))
                 for i, name in enumerate(names)]
        arguments = ", ".join([_forms(hints[name], name, name)[1] for name in head]
                              + [f"{name}={dec}" for name, _, dec in forms])
        source = (f"def {enc_name}(v):\n    return [{', '.join(enc for _, enc, _ in forms)}]\n"
                  f"def {dec_name}({', '.join(('d', *head))}):\n"
                  f"    if d.__class__ is not list or len(d) != {len(names)}:"
                  f" _list(d, {len(names)})\n"
                  f"    return {cls.__name__}({arguments})\n")
        # Filed under this module's path so that profiles attribute it here.
        exec(compile(source, f"{__file__}:{cls.__name__}", "exec"), _NAMESPACE)
    return _NAMESPACE[enc_name], _NAMESPACE[dec_name]


_TO_BODY: Dict[type, Callable[[Any], List[Any]]] = {}
_FROM_BODY: Dict[str, Callable[..., Message]] = {}
for _kind in WIRE_KINDS:
    _TO_BODY[_kind], _FROM_BODY[_kind.__name__] = _record(_kind, head=("sender", "size_bytes"))


def encode_message(message: Message) -> bytes:
    """Serialize a message to its JSON wire form (unframed)."""
    to_body = _TO_BODY.get(type(message))
    if to_body is None:
        raise CodecError(f"no wire encoding for {type(message).__name__}")
    payload = [type(message).__name__, message.sender, message.size_bytes, to_body(message)]
    return _to_json(payload).encode("utf-8")


def decode_message(data: bytes) -> Message:
    """Parse one unframed JSON payload back into a message object."""
    try:
        text = data.decode("utf-8")
        payload, end = _from_json(text)
        if end != len(text):
            raise ValueError(f"{len(text) - end} characters after the JSON value")
        kind, sender, size_bytes, body = _list(payload, 4)
        from_body = _FROM_BODY.get(kind) if kind.__class__ is str else None
        if from_body is None:
            raise ValueError(f"unknown message kind {kind!r}")
        return from_body(body, sender, size_bytes)
    except (IndexError, TypeError, ValueError, AttributeError) as exc:  # incl. bad UTF-8 / JSON
        raise CodecError(f"malformed frame: {exc}") from exc


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
