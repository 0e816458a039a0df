"""Real TCP transport: framed messages over event-driven asyncio endpoints.

Implements the :class:`~repro.transport.base.Transport` seam with actual
sockets, mirroring the structure of deployed chained-BFT nodes (and SNIPPETS
snippet 1's ``flexible_bft`` replica): every endpoint owns a listening
server, and every ordered ``(src, dst)`` pair that has carried traffic owns
one outbound connection — a *link*.  Both ends are plain
:class:`asyncio.Protocol` objects; no message crosses a queue or wakes a task.

The path of one message:

* ``send`` encodes it, appends it to its link and schedules **one**
  ``call_soon(flush)`` for that link — however many messages the link
  collects before the loop gets to it.  ``broadcast`` encodes once for the
  whole fan-out.
* ``flush`` puts everything the link collected into one frame, the JSON
  array of those messages (:func:`~repro.transport.codec.frame_of`), and
  hands it to the connection in one ``transport.write`` (one ``send``
  syscall on an unclogged socket).  A message therefore waits at most until
  the end of the loop turn it was sent in.
* ``data_received`` splits the chunk into its complete frames
  (:class:`~repro.transport.codec.FrameSplitter`), parses each frame once,
  decodes each envelope in it and calls the registered handler directly —
  the same synchronous ``Replica.deliver`` dispatch the simulation uses.  A
  deployed replica's CPU is the host's (:class:`~repro.transport.runtime.HostCpu`),
  so the handler has done all its work, and any error it raised has reached
  :meth:`AsyncioTransport._deliver`, before the next envelope is decoded.

Everything runs on one event loop and handlers never await, so handler code
(the unmodified replica stack) needs no locking and runs one message at a
time, exactly like under the discrete-event scheduler: whatever a handler
sends is only appended, and a copy addressed to the sender itself is
delivered by ``call_soon``, never re-entrantly.  Messages of one link arrive
in send order; nothing is promised across links.

Back-pressure is a bound, not a wait: the frame a link would write next plus
the bytes its socket has not yet taken may not exceed
:data:`MAX_LINK_BACKLOG_BYTES`, brackets and commas included, so no flush
builds a frame above :data:`~repro.transport.codec.MAX_FRAME_BYTES`.  The
message that would is dropped and counted in ``stats.messages_dropped``, so a
peer that stops reading costs bounded memory.  The only coroutine left is
the connect/backoff/reconnect loop of a link that has messages and no
connection.

Crash/recover semantics match the simulated :class:`~repro.network.network.Network`:
crashing an endpoint closes its server and live connections and drops
pending traffic in both directions; recovery restarts the server on a
**fresh port** (the address book is updated, and peers' links re-resolve it
when they next connect), which exercises the real reconnect path instead of
pretending the old socket survived.

An endpoint served by another process is a *remote endpoint*
(:meth:`AsyncioTransport.set_remote`): an address with no handler, which
this transport sends to and never serves.  The deployment's replicas and its
load generator (:mod:`repro.transport.runtime`) see each other that way.
The owner of an endpoint learns its address changes through
:attr:`AsyncioTransport.on_address` and passes them on; a remote endpoint
without an address is treated as a local one whose listener is not up yet:
what is queued for it, and what is sent to it, is discarded as
``no-listener``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import socket
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.obs import trace as obs_trace
from repro.transport.codec import (
    MAX_FRAME_BYTES,
    CodecError,
    FrameSplitter,
    decode_frame,
    decode_message,
    encode_message,
    frame_of,
)
from repro.types.messages import Message

#: Reconnect backoff: first retry after ``_BACKOFF_FLOOR``s, doubling to cap.
_BACKOFF_FLOOR = 0.05
_BACKOFF_CAP = 1.0

#: Most bytes one link may hold unsent: the payload of the frame it would
#: write next (messages, commas and brackets) plus the socket's write buffer.
#: Equal to the frame cap, so a flush never builds a frame the peer refuses.
MAX_LINK_BACKLOG_BYTES = MAX_FRAME_BYTES


@dataclass
class TransportStats:
    """Counters kept by the transport (mirrors ``NetworkStats``)."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    reconnects: int = 0
    decode_errors: int = 0
    #: What actually went onto sockets: ``transport.write`` calls (one frame
    #: each), the messages they carried and their real size (``bytes_sent``
    #: is the size *model*, and ``messages_sent`` includes copies a node
    #: sends to itself).
    socket_writes: int = 0
    messages_written: int = 0
    bytes_written: int = 0
    per_type_counts: Dict[str, int] = field(default_factory=dict)

    def record_send(self, message: Message) -> None:
        self.messages_sent += 1
        self.bytes_sent += message.size_bytes
        name = type(message).__name__
        self.per_type_counts[name] = self.per_type_counts.get(name, 0) + 1

    @property
    def messages_per_write(self) -> float:
        """Messages carried per ``transport.write``: what coalescing bought."""
        return self.messages_written / self.socket_writes if self.socket_writes else 0.0

    def add(self, other: "TransportStats") -> None:
        """Add ``other``'s counters into these (one deployment, two processes)."""
        for f in dataclasses.fields(self):
            if f.name != "per_type_counts":
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        for name, count in other.per_type_counts.items():
            self.per_type_counts[name] = self.per_type_counts.get(name, 0) + count


class _Link:
    """The outbound half of one ``(src, dst)`` pair."""

    __slots__ = ("src", "dst", "pending", "pending_bytes", "flush_scheduled",
                 "connection", "connector")

    def __init__(self, src: str, dst: str) -> None:
        self.src = src
        self.dst = dst
        #: Encoded messages sent but not yet handed to a connection, in send
        #: order, and the size of the frame payload they make (0 when none).
        self.pending: List[bytes] = []
        self.pending_bytes = 0
        self.flush_scheduled = False
        self.connection: Optional[asyncio.Transport] = None
        #: The connect/backoff task, while the link has messages and no connection.
        self.connector: Optional[asyncio.Task] = None


class _Outbound(asyncio.Protocol):
    """Client end of a link: publishes its connection, forgets it when lost."""

    def __init__(self, link: _Link) -> None:
        self.link = link
        self.connection: Optional[asyncio.Transport] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        # Published here, not where the connector resumes: crash() and stop()
        # must be able to sever a connection the moment it exists.
        self.connection = self.link.connection = transport  # type: ignore[assignment]

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # Messages sent from now on wait for the next flush, which reconnects.
        if self.link.connection is self.connection:
            self.link.connection = None


class _Inbound(asyncio.Protocol):
    """Server end of a connection: chunk -> frames -> envelopes -> messages -> handler."""

    def __init__(self, net: "AsyncioTransport", node_id: str) -> None:
        self.net = net
        self.node_id = node_id
        self.splitter = FrameSplitter()
        self.connection: Optional[asyncio.Transport] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.connection = transport  # type: ignore[assignment]
        if self.node_id in self.net._crashed:  # accepted in the turn it crashed
            self.connection.abort()
        else:
            self.net._inbound.setdefault(self.node_id, set()).add(self.connection)

    def data_received(self, data: bytes) -> None:
        net, node_id = self.net, self.node_id
        try:
            payloads = self.splitter.feed(data)
        except CodecError:
            # An oversized announcement: the stream cannot be re-synchronised.
            net.stats.decode_errors += 1
            self.connection.abort()
            return
        for payload in payloads:
            try:
                envelopes = decode_frame(payload)
            except CodecError:
                net.stats.decode_errors += 1  # the frame is lost, the stream goes on
                continue
            for envelope in envelopes:
                try:
                    message = decode_message(envelope)
                except CodecError:
                    net.stats.decode_errors += 1
                    continue
                net._deliver(node_id, message)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.net._inbound.get(self.node_id, set()).discard(self.connection)
        if self.splitter.buffered:
            self.net.stats.decode_errors += 1  # cut mid-prefix or mid-frame


class AsyncioTransport:
    """TCP message fabric for an in-process loopback cluster.

    ``register`` is synchronous (matching the seam) and only records the
    handler; sockets come up in :meth:`start`, which binds one listener per
    registered endpoint on an OS-assigned port and publishes the address
    book.  Endpoints registered by node id, addressed by node id — the
    replica stack never sees host/port pairs.  :meth:`set_remote` adds the
    endpoints other processes serve.

    Every drop is announced on ``events`` as ``net / drop`` with its reason,
    like the simulated network's, stamped by ``clock`` (the deployment's
    :class:`AsyncioClock`); the send/flush/receive path announces nothing.
    """

    def __init__(self, host: str = "127.0.0.1",
                 events: Optional[obs_trace.EventStream] = None, clock=None) -> None:
        self.host = host
        self.stats = TransportStats()
        self.events = events if events is not None else obs_trace.EventStream()
        self._clock = clock
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        #: Every endpoint a message may name: the local ones and the remote.
        self._endpoints: Set[str] = set()
        self._addresses: Dict[str, Tuple[str, int]] = {}
        #: Called with ``(node_id, address)`` when a local endpoint's listener
        #: goes (``None``: crashed) or comes back up on a fresh port.
        self.on_address: Optional[Callable[[str, Optional[Tuple[str, int]]], None]] = None
        self._servers: Dict[str, asyncio.AbstractServer] = {}
        self._links: Dict[Tuple[str, str], _Link] = {}
        #: Accepted connections per receiving endpoint, so crashing an
        #: endpoint can sever its peers' established connections.
        self._inbound: Dict[str, Set[asyncio.Transport]] = {}
        #: Listener re-binds started by :meth:`recover`, until they finish.
        self._binders: Set[asyncio.Task] = set()
        self._crashed: Set[str] = set()
        #: The loop the sockets live on; set by :meth:`start`.
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Exceptions raised by message handlers (and, through :meth:`fail`,
        #: by whatever else the deployment routes here: the runner's clock
        #: reports its timer callbacks'); the runner re-raises these so
        #: deployment bugs fail runs instead of vanishing.  ``failed`` is set
        #: with the first one, so a runner can stop waiting when it happens.
        self.errors: List[BaseException] = []
        self.failed = asyncio.Event()

    # -- seam interface ----------------------------------------------------

    def register(self, node_id: str, handler: Callable[[Message], None]) -> None:
        """Attach an endpoint; its server socket is bound by :meth:`start`."""
        if node_id in self._handlers:
            raise ValueError(f"node {node_id!r} already registered")
        if self._loop is not None:
            raise RuntimeError("cannot register endpoints after start()")
        self._handlers[node_id] = handler
        self._endpoints.add(node_id)

    def set_remote(self, node_id: str, address: Optional[Tuple[str, int]]) -> None:
        """Record where ``node_id``, served by another process, listens now.

        ``None`` means it has no listener (it crashed): what is queued for it
        is discarded, its connections are cut, and until an address comes
        back whatever is sent to it is discarded at connect time.
        """
        if node_id in self._handlers:
            raise ValueError(f"node {node_id!r} is served here, not remotely")
        self._endpoints.add(node_id)
        if address is not None:
            self._addresses[node_id] = address
            return
        self._addresses.pop(node_id, None)
        for link in self._links.values():
            if link.dst == node_id:
                self._discard(link, "no-listener")
                self._sever(link)

    def send(self, src: str, dst: str, message: Message) -> None:
        """Put one message on its way (returns immediately)."""
        self._transmit(src, dst, message, None)

    def broadcast(
        self, src: str, targets: Iterable[str], message: Message, include_self: bool = False
    ) -> None:
        """Send to every target (optionally looping back to the sender).

        Same self-delivery semantics as the simulator's ``Network.broadcast``
        (``Replica._broadcast`` delegates to whichever backend is wired in):
        the sender only receives its own copy when ``include_self`` is set.
        Otherwise a loop of :meth:`send`, except that the message is encoded
        once for all of its copies.
        """
        targets = list(targets)
        if include_self and src not in targets:
            targets.append(src)
        data = None
        for dst in targets:
            if dst != src or include_self:
                data = self._transmit(src, dst, message, data)

    def crash(self, node_id: str) -> None:
        """Take an endpoint off the network: close sockets, drop pending messages."""
        if node_id not in self._handlers:
            raise KeyError(f"unknown node: {node_id!r}")
        if node_id in self._crashed:
            return
        self._crashed.add(node_id)
        self._addresses.pop(node_id, None)
        if self.on_address is not None:
            self.on_address(node_id, None)
        server = self._servers.pop(node_id, None)
        if server is not None:
            server.close()
        for connection in self._inbound.pop(node_id, set()):
            connection.abort()
        # Undelivered traffic dies with the node, in both directions, and
        # established connections are severed so surviving links reconnect
        # (to the fresh port) instead of writing into a dead socket, where the
        # first messages after the endpoint recovers would silently vanish.
        for link in self._links.values():
            if node_id in (link.src, link.dst):
                self._discard(link, "pending-on-crash")
                self._sever(link)

    def recover(self, node_id: str) -> None:
        """Bring a crashed endpoint back on a fresh port."""
        if node_id not in self._handlers:
            raise KeyError(f"unknown node: {node_id!r}")
        if node_id not in self._crashed:
            return
        self._crashed.discard(node_id)
        if self._loop is not None:
            binder = self._loop.create_task(self._bind(node_id), name=f"bind:{node_id}")
            self._binders.add(binder)
            binder.add_done_callback(self._binders.discard)

    def is_crashed(self, node_id: str) -> bool:
        """True while ``node_id`` is crashed."""
        return node_id in self._crashed

    # -- lifecycle ---------------------------------------------------------

    async def start(self, listeners: Optional[Dict[str, socket.socket]] = None) -> None:
        """Bind a listener for every registered endpoint.

        ``listeners`` maps endpoints to sockets already bound and listening,
        to serve on instead of binding new ones.
        """
        if self._loop is not None:
            raise RuntimeError("transport already started")
        self._loop = asyncio.get_running_loop()
        listeners = listeners or {}
        for node_id in self._handlers:
            await self._bind(node_id, listeners.get(node_id))

    async def stop(self) -> None:
        """Tear everything down; safe to call once at the end of a run."""
        tasks = list(self._binders)
        tasks += [link.connector for link in self._links.values() if link.connector is not None]
        for task in tasks:
            task.cancel()
        # Stopping is crashing every endpoint: sockets close, pending messages
        # go, and whatever a late callback still sends is dropped at the door.
        for node_id in self._handlers:
            self.crash(node_id)
        await asyncio.gather(*tasks, return_exceptions=True)
        # One turn for the aborted connections' connection_lost callbacks,
        # which are what actually closes their sockets.
        await asyncio.sleep(0)

    def release_listeners(self) -> None:
        """Close this process's copies of the listening sockets, loop untouched.

        For a process forked from the one that serves them: the loop, and the
        selector it shares with that process, stay as they are.  Without
        this a crashed endpoint's old port would keep accepting connections
        into a backlog nobody serves.
        """
        for server in self._servers.values():
            for sock in server.sockets:
                os.close(sock.fileno())

    def address_of(self, node_id: str) -> Optional[Tuple[str, int]]:
        """The (host, port) an endpoint currently listens on, if alive."""
        return self._addresses.get(node_id)

    def fail(self, exc: BaseException) -> None:
        """Record an error that must fail the run, and wake whoever waits on ``failed``."""
        self.errors.append(exc)
        self.failed.set()

    # -- internals ---------------------------------------------------------

    def _transmit(self, src: str, dst: str, message: Message,
                  data: Optional[bytes]) -> Optional[bytes]:
        """Send one copy of ``message``; ``data`` is its encoding if already built.

        Returns the encoding (built here when this copy was the first to
        need one), so a fan-out encodes its message once.
        """
        if src not in self._endpoints:
            raise KeyError(f"unknown sender: {src!r}")
        if dst not in self._endpoints:
            raise KeyError(f"unknown destination: {dst!r}")
        stats = self.stats
        if src in self._crashed or dst in self._crashed:
            self._drop(dst, "crashed", message)
            return data
        stats.record_send(message)
        if src == dst:
            # Loopback skips the socket, as the simulated network skips the
            # NIC — but still waits its turn on the loop, so a handler that
            # sends to its own node is never re-entered.
            self._loop.call_soon(self._deliver, dst, message)
            return data
        if data is None:
            data = encode_message(message)
        link = self._links.get((src, dst))
        if link is None:
            link = self._links[(src, dst)] = _Link(src, dst)
        connection = link.connection
        unsent = connection.get_write_buffer_size() if connection is not None else 0
        # The frame's payload grows by the message and a comma, or, for the
        # first message, by the message and both brackets.
        pending_bytes = (link.pending_bytes or 1) + len(data) + 1
        if pending_bytes + unsent > MAX_LINK_BACKLOG_BYTES:
            if len(data) + 2 > MAX_FRAME_BYTES:
                raise CodecError(f"a {len(data)}-byte {type(message).__name__} fits no frame")
            # The newest goes: the peer is not keeping up.
            self._drop(dst, "backlog", message)
            return data
        link.pending.append(data)
        link.pending_bytes = pending_bytes
        if not link.flush_scheduled:
            link.flush_scheduled = True
            self._loop.call_soon(self._flush, link)
        return data

    def _flush(self, link: _Link) -> None:
        """Write everything the link collected this turn as one frame."""
        link.flush_scheduled = False
        pending = link.pending
        if not pending:
            return
        connection = link.connection
        if connection is None:
            if link.connector is None or link.connector.done():
                link.connector = self._loop.create_task(
                    self._connect(link), name=f"connect:{link.src}->{link.dst}"
                )
            return
        data = frame_of(pending)
        stats = self.stats
        stats.socket_writes += 1
        stats.messages_written += len(pending)
        stats.bytes_written += len(data)
        pending.clear()
        link.pending_bytes = 0
        connection.write(data)

    def _deliver(self, node_id: str, message: Message) -> None:
        """Hand one message to ``node_id``'s handler, surfacing its errors."""
        if node_id in self._crashed:
            self._drop(node_id, "crashed-dst", message)
            return
        try:
            self._handlers[node_id](message)
        except Exception as exc:  # noqa: BLE001 - surfaced to the runner
            self.fail(exc)
        else:
            self.stats.messages_delivered += 1

    def _drop(self, dst: str, reason: str, message: Optional[Message], count: int = 1) -> None:
        """Count and announce a dropped ``message`` bound for ``dst``, or (None)
        ``count`` already-encoded messages, which no longer say what they were."""
        self.stats.messages_dropped += count
        ev = self.events
        if ev.wants & obs_trace.NET:
            what = {"messages": count} if message is None else {"message": type(message).__name__}
            ev.emit(
                self._clock.now, dst, obs_trace.NET, "drop", 0,
                {"reason": reason, **what},
            )

    def _discard(self, link: _Link, reason: str) -> None:
        if link.pending:
            self._drop(link.dst, reason, None, count=len(link.pending))
        link.pending.clear()
        link.pending_bytes = 0

    @staticmethod
    def _sever(link: _Link) -> None:
        if link.connection is not None:
            link.connection.abort()
            link.connection = None

    async def _bind(self, node_id: str, sock: Optional[socket.socket] = None) -> None:
        factory = partial(_Inbound, self, node_id)
        if sock is not None:
            server = await self._loop.create_server(factory, sock=sock)
        else:
            server = await self._loop.create_server(factory, host=self.host, port=0)
        if node_id in self._crashed or node_id in self._servers:
            server.close()  # crashed again, or crashed and recovered, while binding
            return
        self._servers[node_id] = server
        host, port = server.sockets[0].getsockname()[:2]
        self._addresses[node_id] = (host, port)
        if self.on_address is not None:
            self.on_address(node_id, (host, port))

    async def _connect(self, link: _Link) -> None:
        """Get ``link`` a connection while it has messages to send, backing off."""
        backoff = _BACKOFF_FLOOR
        while link.pending and link.connection is None:
            address = self._addresses.get(link.dst)
            if address is None:  # recovered, but its listener is not up yet
                self._discard(link, "no-listener")
                break
            try:
                await self._loop.create_connection(partial(_Outbound, link), *address)
            except OSError:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, _BACKOFF_CAP)
                continue
            if self._addresses.get(link.dst) != address or link.src in self._crashed:
                self._sever(link)  # an endpoint crashed while connecting
            else:
                self.stats.reconnects += 1
        link.connector = None
        self._flush(link)
