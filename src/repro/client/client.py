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

:func:`repro.bench.runner.build_clients` picks the model from the
configuration: Poisson when ``arrival_rate > 0``, closed-loop otherwise.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.network.network import Network
from repro.obs import trace as obs_trace
from repro.sim.events import EventScheduler
from repro.sim.random import RandomStreams
from repro.types.messages import ClientReply, ClientRequest, Message
from repro.types.sizes import client_request_size
from repro.types.transaction import Transaction
from repro.client.workload import WorkloadSpec

#: Backoff before re-submitting a request that was rejected by a full mempool.
REJECTION_BACKOFF = 2e-3
#: Distinct keys a client draws from, one uniform draw per request.
KEY_SPACE = 1024

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
        #: Every request carries the workload's payload, so one size serves all.
        self._request_size = client_request_size(self.workload.payload_size)
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
        #: sequence -> send time.  Insertion order is send order and
        #: ``request_timeout`` is one constant, so it is also deadline order:
        #: the oldest outstanding request is always the first key.
        self._outstanding: Dict[int, float] = {}
        #: Whether the one ``_expire_due`` post of this client is in flight.
        self._deadline_armed = False
        self._stop_time: Optional[float] = None
        self.requests_sent = 0
        self.replies_committed = 0
        self.replies_rejected = 0
        self.requests_timed_out = 0

        network.register(client_id, self.deliver)

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
    def _submit_request(self, sent_at: Optional[float] = None) -> Optional[int]:
        """Send one request, timed (latency, timeout) from ``sent_at``; return its sequence.

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
        client_id = self.client_id
        sequence = self.requests_sent
        operation = workload.operation_for(self._rng.random())
        # Positional, in ``create``'s order (a keyword call costs about twice
        # as much).  The per-client sequence keeps txids (and thus chain
        # hashes) deterministic across repeated runs in one process, which
        # the fuzzer's same-seed fingerprint comparison relies on.
        transaction = Transaction.create(
            client_id, sequence, sent_at, f"k{randbelow(KEY_SPACE)}",
            workload.payload_size, operation, f"v{sequence}",
        )
        replicas = self.replicas
        replica = replicas[randbelow(len(replicas))]
        request = ClientRequest(client_id, self._request_size, transaction)
        self._outstanding[sequence] = sent_at
        # One timeout post per client, not per request: it is armed for the
        # oldest outstanding request and moves itself on when it fires.  A
        # reply cancels nothing — it only takes its sequences out of the queue.
        if not self._deadline_armed:
            self._arm_deadline(sent_at + self.request_timeout)
        self.requests_sent = sequence + 1
        self.network.send(client_id, replica, request)
        return sequence

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
            sequence, sent_at = next(iter(outstanding.items()))
            deadline = sent_at + timeout
            if deadline > due:
                self._arm_deadline(deadline)
                return
            self._expire(sequence)
        self._deadline_armed = False

    def _expire(self, sequence: int) -> None:
        """Give up on a request that received no reply within the timeout.

        The transaction may still commit later (it is not withdrawn from the
        replicas), but the client stops waiting for it — as a real benchmark
        client with an HTTP timeout would — and the closed-loop subclass
        issues a replacement request to another randomly chosen replica.
        """
        del self._outstanding[sequence]
        self.requests_timed_out += 1
        ev = self.events
        if ev.wants & obs_trace.CLIENT:
            ev.emit(
                self.scheduler.now, self.client_id, obs_trace.CLIENT,
                "request-timeout", 0, {"sequence": sequence},
            )
        self._on_timed_out(sequence)

    def _on_timed_out(self, sequence: int) -> None:
        """Hook for subclasses (closed-loop clients issue a replacement)."""

    def deliver(self, message: Message) -> None:
        """Network delivery callback for replies.

        A reply answers a batch of this client's sequences; each one still
        outstanding resolves on its own (latency, event, hook), in the
        reply's order.  A sequence already answered, given up on, or never
        sent is ignored.
        """
        if message.__class__ is not ClientReply and not isinstance(message, ClientReply):
            return
        outstanding = self._outstanding
        ev = self.events
        announce = ev.wants & obs_trace.CLIENT
        now = self.scheduler.now
        replica = message.sender
        committed = message.status == "committed"
        for sequence in message.sequences:
            sent_at = outstanding.pop(sequence, None)
            if sent_at is None:
                continue
            if committed:
                self.replies_committed += 1
                latency = now - sent_at
                # The one always-on event announced per transaction.
                if announce:
                    ev.emit(
                        now, self.client_id, obs_trace.CLIENT, "commit-reply", 0,
                        {"replica": replica, "latency": latency},
                    )
                self._on_committed(sequence, latency)
            else:
                self.replies_rejected += 1
                if announce:
                    ev.emit(
                        now, self.client_id, obs_trace.CLIENT, "rejected", 0,
                        {"sequence": sequence, "replica": replica},
                    )
                self._on_rejected(sequence)

    def _on_committed(self, sequence: int, latency: float) -> None:
        """Hook for subclasses (closed-loop clients issue the next request)."""

    def _on_rejected(self, sequence: int) -> None:
        """Hook for subclasses (closed-loop clients retry after a backoff)."""


class ClosedLoopClient(ClientBase):
    """Keeps ``concurrency`` requests outstanding at all times."""

    def __init__(self, *args, concurrency: int = 10, **kwargs) -> None:
        if concurrency <= 0:
            raise ValueError(f"concurrency must be positive, got {concurrency}")
        super().__init__(*args, **kwargs)
        self.concurrency = concurrency

    def _begin(self) -> None:
        for _ in range(self.concurrency):
            self._submit_request()

    def _on_committed(self, sequence: int, latency: float) -> None:
        self._submit_request()

    def _on_rejected(self, sequence: int) -> None:
        if self._issuing_allowed():
            self.scheduler.post_after(REJECTION_BACKOFF, self._submit_request)

    def _on_timed_out(self, sequence: int) -> None:
        self._submit_request()


class PoissonClient(ClientBase):
    """Open-loop client issuing requests as a Poisson process."""

    def __init__(self, *args, rate: float = 100.0, **kwargs) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        super().__init__(*args, **kwargs)
        self.rate = rate
        self._arrivals = self.streams.get(f"arrivals:{self.client_id}")

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
