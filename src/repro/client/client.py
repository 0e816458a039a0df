"""Clients issuing transactions to the replicated service.

Two client models are provided, matching the two ways the paper drives load:

* :class:`ClosedLoopClient` keeps a fixed number of requests outstanding
  (Table I's ``concurrency``); the benchmark saturates the system by raising
  the concurrency level, exactly as §VI does.
* :class:`PoissonClient` issues requests as an open-loop Poisson process with
  a configurable rate, which is the arrival model assumed by the analytical
  queuing model (§V) and is used for the model-validation experiment and
  Table II.

Clients pick a uniformly random replica per request, measure latency from
submission to the committed reply, and announce it on the event stream.

Client types are an extension point: subclass :class:`ClientBase`, override
``from_config`` to pull whatever knobs you need from the
:class:`~repro.bench.config.Configuration`, and register with
:func:`register_client`; ``Configuration(client="yourkind")`` then selects
it in every runner.  The default (``client="auto"``) picks Poisson when
``arrival_rate > 0`` and closed-loop otherwise, matching the two ways the
paper drives load.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Type

from repro.network.network import Network
from repro.obs import trace as obs_trace
from repro.plugins import Registry
from repro.sim.events import EventScheduler
from repro.sim.random import RandomStreams
from repro.types.messages import ClientReply, ClientRequest, Message
from repro.types.sizes import SizeModel
from repro.types.transaction import Transaction
from repro.client.workload import WorkloadSpec

#: Backoff before re-submitting a request that was rejected by a full mempool.
REJECTION_BACKOFF = 2e-3

#: The client-type extension point.  Values are ClientBase subclasses built
#: via their ``from_config`` classmethod.
CLIENTS: Registry[Type["ClientBase"]] = Registry("client type")


def register_client(name: str, *aliases: str, override: bool = False) -> Callable:
    """Class decorator registering a ClientBase subclass as a client type."""
    return CLIENTS.register(name, *aliases, override=override)


def available_clients() -> List[str]:
    """Canonical names of the registered client types."""
    return CLIENTS.available()


class ClientBase:
    """Shared plumbing for the two client models."""

    def __init__(
        self,
        client_id: str,
        scheduler: EventScheduler,
        network: Network,
        streams: RandomStreams,
        replicas: List[str],
        workload: Optional[WorkloadSpec] = None,
        size_model: Optional[SizeModel] = None,
        events: Optional[obs_trace.EventStream] = None,
        request_timeout: float = 1.0,
    ) -> None:
        if not replicas:
            raise ValueError("client needs at least one replica to talk to")
        if request_timeout <= 0:
            raise ValueError(f"request_timeout must be positive, got {request_timeout}")
        self.client_id = client_id
        self.scheduler = scheduler
        self.network = network
        self.streams = streams
        self.replicas = list(replicas)
        self.workload = workload if workload is not None else WorkloadSpec()
        self.size_model = size_model if size_model is not None else SizeModel()
        #: The cluster's event stream: commit replies, timeouts, rejections.
        self.events = events if events is not None else obs_trace.EventStream()
        self.request_timeout = request_timeout

        # The per-client stream is fixed for the client's lifetime; cache it
        # instead of re-resolving the name on every request.
        self._rng = streams.get(f"client:{self.client_id}")
        # ``choice(seq)`` and ``randrange(n)`` each make exactly this one draw
        # (``seq[_randbelow(len(seq))]``, ``_randbelow(n)``) on CPython
        # 3.10-3.12; tests/test_client.py pins the equivalence.
        self._randbelow = self._rng._randbelow
        #: txid -> send time.  Insertion order is send order and
        #: ``request_timeout`` is one constant, so it is also deadline order:
        #: the oldest outstanding request is always the first key.
        self._outstanding: Dict[str, float] = {}
        #: Whether the one ``_expire_due`` post of this client is in flight.
        self._deadline_armed = False
        self._stop_time: Optional[float] = None
        self.requests_sent = 0
        self.replies_committed = 0
        self.replies_rejected = 0
        self.requests_timed_out = 0

        network.register(client_id, self.deliver)

    # ------------------------------------------------------------------
    # construction from a Configuration (registry hook)
    # ------------------------------------------------------------------
    @classmethod
    def from_config(
        cls,
        client_id: str,
        scheduler: EventScheduler,
        network: Network,
        streams: RandomStreams,
        replicas: List[str],
        *,
        workload: WorkloadSpec,
        size_model: SizeModel,
        events: Optional[obs_trace.EventStream],
        config,
        **extra,
    ) -> "ClientBase":
        """Build a client from a :class:`Configuration`.

        Subclasses extend ``extra`` with their own knobs (concurrency, rate);
        this is what lets the runner treat every registered client type
        uniformly.
        """
        return cls(
            client_id,
            scheduler,
            network,
            streams,
            replicas,
            workload=workload,
            size_model=size_model,
            events=events,
            request_timeout=config.request_timeout,
            **extra,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, stop_time: Optional[float] = None) -> None:
        """Begin issuing requests; subclasses define the arrival pattern."""
        self._stop_time = stop_time
        self._begin()

    def _begin(self) -> None:
        raise NotImplementedError

    def _issuing_allowed(self) -> bool:
        if self._stop_time is None:
            return True
        return self.scheduler.now < self._stop_time

    # ------------------------------------------------------------------
    # request submission and reply handling
    # ------------------------------------------------------------------
    def _submit_request(self, sent_at: Optional[float] = None) -> Optional[str]:
        """Send one request, timed (latency, timeout) from ``sent_at``.

        ``sent_at`` defaults to now; an open-loop client passes the instant
        the arrival was scheduled for, which a late wall-clock callback has
        already missed.  Callers keep it non-decreasing.
        """
        if sent_at is None:
            sent_at = self.scheduler.now
        stop = self._stop_time
        if stop is not None and sent_at >= stop:
            return None
        workload = self.workload
        randbelow = self._randbelow
        operation = workload.operation_for(self._rng.random())
        transaction = Transaction.create(
            client_id=self.client_id,
            created_at=sent_at,
            payload_size=workload.payload_size,
            operation=operation,
            key=f"k{randbelow(workload.key_space)}",
            value=f"v{self.requests_sent}",
            # Per-client sequence: txids (and thus chain hashes) are
            # deterministic across repeated runs in one process, which the
            # fuzzer's same-seed fingerprint comparison relies on.
            sequence=self.requests_sent,
        )
        replicas = self.replicas
        replica = replicas[randbelow(len(replicas))]
        request = ClientRequest(
            sender=self.client_id,
            size_bytes=self.size_model.client_request_size(transaction.payload_size),
            transaction=transaction,
        )
        self._outstanding[transaction.txid] = sent_at
        # One timeout post per client, not per request: it is armed for the
        # oldest outstanding request and moves itself on when it fires.  A
        # reply cancels nothing — it only takes its txid out of the queue.
        if not self._deadline_armed:
            self._arm_deadline(sent_at + self.request_timeout)
        self.requests_sent += 1
        self.network.send(self.client_id, replica, request)
        return transaction.txid

    def _arm_deadline(self, deadline: float) -> None:
        self._deadline_armed = True
        self.scheduler.post_at(deadline, self._expire_due, deadline)

    def _expire_due(self, armed_for: float) -> None:
        """Expire, oldest first, every request whose deadline has come.

        Each deadline is the float ``sent_at + request_timeout``; requests
        answered since the post was armed are simply no longer in the queue.
        A replacement issued by ``_on_timed_out`` joins the back while this
        runs (``_deadline_armed`` is still set) and is armed for in its turn.
        """
        # A wall clock may wake a resolution early: expire at least what this
        # post was armed for, never re-arm for the same instant and spin.
        now = self.scheduler.now
        due = now if now > armed_for else armed_for
        outstanding = self._outstanding
        timeout = self.request_timeout
        while outstanding:
            txid, sent_at = next(iter(outstanding.items()))
            deadline = sent_at + timeout
            if deadline > due:
                self._arm_deadline(deadline)
                return
            self._expire(txid)
        self._deadline_armed = False

    def _expire(self, txid: str) -> None:
        """Give up on a request that received no reply within the timeout.

        The transaction may still commit later (it is not withdrawn from the
        replicas), but the client stops waiting for it — as a real benchmark
        client with an HTTP timeout would — and the closed-loop subclass
        issues a replacement request to another randomly chosen replica.
        """
        del self._outstanding[txid]
        self.requests_timed_out += 1
        ev = self.events
        if ev.wants & obs_trace.CLIENT:
            ev.emit(
                self.scheduler.now, self.client_id, obs_trace.CLIENT,
                "request-timeout", 0, {"txid": txid},
            )
        self._on_timed_out(txid)

    def _on_timed_out(self, txid: str) -> None:
        """Hook for subclasses (closed-loop clients issue a replacement)."""

    def deliver(self, message: Message) -> None:
        """Network delivery callback for replies."""
        if message.__class__ is not ClientReply and not isinstance(message, ClientReply):
            return
        sent_at = self._outstanding.pop(message.txid, None)
        if sent_at is None:
            # Duplicate reply, or a reply for a request the client already
            # gave up on; ignore.
            return
        ev = self.events
        now = self.scheduler.now
        if message.status == "committed":
            self.replies_committed += 1
            latency = now - sent_at
            # The one always-on event announced per transaction.
            if ev.wants & obs_trace.CLIENT:
                ev.emit(
                    now, self.client_id, obs_trace.CLIENT, "commit-reply", 0,
                    {"replica": message.replica, "latency": latency},
                )
            self._on_committed(message.txid, latency)
        else:
            self.replies_rejected += 1
            if ev.wants & obs_trace.CLIENT:
                ev.emit(
                    now, self.client_id, obs_trace.CLIENT, "rejected", 0,
                    {"txid": message.txid, "replica": message.replica},
                )
            self._on_rejected(message.txid)

    def _on_committed(self, txid: str, latency: float) -> None:
        """Hook for subclasses (closed-loop clients issue the next request)."""

    def _on_rejected(self, txid: str) -> None:
        """Hook for subclasses (closed-loop clients retry after a backoff)."""


@register_client("closed-loop", "closed")
class ClosedLoopClient(ClientBase):
    """Keeps ``concurrency`` requests outstanding at all times."""

    def __init__(self, *args, concurrency: int = 10, **kwargs) -> None:
        if concurrency <= 0:
            raise ValueError(f"concurrency must be positive, got {concurrency}")
        super().__init__(*args, **kwargs)
        self.concurrency = concurrency

    @classmethod
    def from_config(cls, client_id, scheduler, network, streams, replicas, *, config, **kwargs):
        return super().from_config(
            client_id, scheduler, network, streams, replicas,
            config=config, concurrency=config.concurrency, **kwargs,
        )

    def _begin(self) -> None:
        for _ in range(self.concurrency):
            self._submit_request()

    def _on_committed(self, txid: str, latency: float) -> None:
        self._submit_request()

    def _on_rejected(self, txid: str) -> None:
        if self._issuing_allowed():
            self.scheduler.post_after(REJECTION_BACKOFF, self._submit_request)

    def _on_timed_out(self, txid: str) -> None:
        self._submit_request()


@register_client("poisson", "open-loop", "open")
class PoissonClient(ClientBase):
    """Open-loop client issuing requests as a Poisson process."""

    def __init__(self, *args, rate: float = 100.0, **kwargs) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        super().__init__(*args, **kwargs)
        self.rate = rate
        self._arrivals = self.streams.get(f"arrivals:{self.client_id}")

    @classmethod
    def from_config(cls, client_id, scheduler, network, streams, replicas, *, config, **kwargs):
        # The configured arrival rate is the total across all clients.
        return super().from_config(
            client_id, scheduler, network, streams, replicas,
            config=config, rate=config.arrival_rate / config.num_clients, **kwargs,
        )

    def _begin(self) -> None:
        self._schedule_next_arrival(self.scheduler.now)

    def _schedule_next_arrival(self, previous: float) -> None:
        """Draw the gap after the arrival intended for ``previous``.

        The schedule is a running sum of the drawn gaps, not "a gap after
        whenever the last callback ran": on a wall clock a late callback
        delays neither the arrivals behind it nor the instant its own request
        is timed from.  In the simulator ``now`` is ``previous`` bit for bit.
        The arrival that falls past the stop time is drawn, and not sent.
        """
        intended = previous + self._arrivals.expovariate(self.rate)
        self.scheduler.post_at(intended, self._arrive, intended)

    def _arrive(self, intended: float) -> None:
        if self._submit_request(intended) is not None:
            self._schedule_next_arrival(intended)
