"""The simulated network connecting replicas and clients.

Message path (mirroring the paper's delay decomposition)::

    sender NIC  ->  propagation delay  ->  receiver NIC  ->  deliver()

There is one pipeline.  :meth:`Network.send` and :meth:`Network.broadcast`
enter the same transmit body, which settles everything about a wire copy at
send time and posts a single arrival entry for it; the arrival reserves the
receiver's NIC and posts the delivery.  Two handle-free heap tuples per
message, whatever conditions are installed.

Every endpoint has an egress and an ingress NIC, each a serial FIFO queue
whose service time for a message is ``NIC_OVERHEAD_S + size / bandwidth``
(computed once per message, here and nowhere else).  A leader broadcasting a
proposal to N-1 peers therefore serializes N-1 copies through its egress NIC
— which is why leader bandwidth becomes the bottleneck as block size or
cluster size grows.  The queues are *analytic*: every reservation happens at
a scheduler event (the send for egress, the arrival for ingress), so a NIC is
one ``free_at`` float and a transfer completes at ``max(now, free_at) +
service`` — what a work-conserving single server driven by completion events
would produce, without a heap entry of its own.

What is evaluated when, per destination and in destination order:

* **at send** — a crashed sender or destination and any active partition
  between the two drop the copy; the base (LAN) and configured extra delay
  are drawn from the ``"network"`` stream; the copy takes the next FIFO slot
  of the sender's egress NIC; every fluctuation window active at that slot's
  *completion* time (the instant the copy leaves the NIC, known analytically)
  adds its sample; the larger slow factor of the two ends multiplies the
  propagation delay;
* **at arrival** — crashes are checked again (either end may have crashed
  while the copy was on the wire), then the ingress NIC is reserved;
* **at delivery** — a destination that crashed behind its ingress queue
  drops the message.

Fault state is consulted only while something is installed, and partitions
and windows are pruned once the earliest of their ends has passed, so a
condition that touches no message changes no timestamp and no random draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.network.delays import ZERO_DRAW, DelayModel, Draw, NoDelay, NormalDelay
from repro.network.fluctuation import FluctuationWindow
from repro.network.partition import NOBODY, Partition
from repro.obs import trace as obs_trace
from repro.sim.events import EventScheduler
from repro.sim.random import RandomStreams
from repro.types.messages import Message

DeliveryHandler = Callable[[Message], None]

DEFAULT_BANDWIDTH_BPS = 125_000_000  # 1 Gbit/s expressed in bytes per second
#: Per-message NIC service time on top of ``size / bandwidth``.
NIC_OVERHEAD_S = 2e-6

# A LAN round-trip below one millisecond, as in the paper's testbed
# ("inter-VM latency below 1ms"): one-way mean 0.25 ms, stddev 0.05 ms.
DEFAULT_LAN_DELAY = NormalDelay(mean_delay=0.25e-3, stddev=0.05e-3)

@dataclass
class NetworkStats:
    """Aggregate traffic counters for one simulation run."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    per_type_counts: Dict[str, int] = field(default_factory=dict)


class Network:
    """Connects named endpoints and moves messages between them."""

    def __init__(
        self,
        scheduler: EventScheduler,
        streams: RandomStreams,
        base_delay: Optional[DelayModel] = None,
        extra_delay: Optional[DelayModel] = None,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        local_delivery_delay: float = 5e-6,
        events: Optional[obs_trace.EventStream] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        self.scheduler = scheduler
        self.streams = streams
        self._rng = streams.get("network")
        self.base_delay = base_delay if base_delay is not None else DEFAULT_LAN_DELAY
        self.extra_delay = extra_delay if extra_delay is not None else NoDelay()
        self.bandwidth_bps = bandwidth_bps
        self.local_delivery_delay = local_delivery_delay
        self.stats = NetworkStats()
        #: The cluster's event stream: the fabric announces its drops (``net``).
        self.events = events if events is not None else obs_trace.EventStream()

        self._handlers: Dict[str, DeliveryHandler] = {}
        #: Per endpoint, the time its egress / ingress NIC finishes everything
        #: reserved so far.
        self._egress: Dict[str, float] = {}
        self._ingress: Dict[str, float] = {}
        self._slow_factor: Dict[str, float] = {}
        self._fluctuations: List[FluctuationWindow] = []
        self._partitions: List[Partition] = []
        #: The earliest end among the installed partitions and windows.
        self._next_expiry = math.inf
        self._crashed: set[str] = set()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, node_id: str, handler: DeliveryHandler) -> None:
        """Attach an endpoint; ``handler`` receives its delivered messages."""
        if node_id in self._handlers:
            raise ValueError(f"endpoint {node_id!r} is already registered")
        self._handlers[node_id] = handler
        self._egress[node_id] = self._ingress[node_id] = self.scheduler.now

    def endpoints(self) -> List[str]:
        """All registered endpoint ids."""
        return sorted(self._handlers)

    # ------------------------------------------------------------------
    # delay models: bound to the "network" stream when assigned (a
    # ``set-delay`` scenario event assigns them mid-run)
    # ------------------------------------------------------------------
    @property
    def base_delay(self) -> DelayModel:
        """The LAN's one-way propagation delay."""
        return self._base_delay

    @base_delay.setter
    def base_delay(self, model: DelayModel) -> None:
        self._base_delay = model
        self._base_draw: Draw = model.bind(self._rng)

    @property
    def extra_delay(self) -> DelayModel:
        """Configured delay added to every wire copy (Table I's ``delay``)."""
        return self._extra_delay

    @extra_delay.setter
    def extra_delay(self, model: DelayModel) -> None:
        self._extra_delay = model
        self._extra_draw: Draw = model.bind(self._rng)

    # ------------------------------------------------------------------
    # fault / condition injection
    # ------------------------------------------------------------------
    def set_slow(self, node_id: str, factor: float) -> None:
        """Multiply propagation delays to and from ``node_id`` (run-time "slow")."""
        if factor < 1.0:
            raise ValueError(f"slow factor must be >= 1, got {factor}")
        self._slow_factor[node_id] = factor

    def add_fluctuation(self, window: FluctuationWindow) -> None:
        """Install a fluctuation window (extra random delay while active)."""
        self._fluctuations.append(window)
        self._next_expiry = min(self._next_expiry, window.end)

    def add_partition(self, partition: Partition) -> None:
        """Install a partition (messages across groups are dropped)."""
        self._partitions.append(partition)
        if partition.end is not None:
            self._next_expiry = min(self._next_expiry, partition.end)

    def heal_partitions(self, now: Optional[float] = None) -> int:
        """Close every partition active at ``now`` (default: current time).

        Returns the number of partitions healed.  Healed partitions are
        pruned from the scan list (along with any that already expired), so
        subsequent sends stop consulting them.
        """
        if now is None:
            now = self.scheduler.now
        healed = 0
        for partition in self._partitions:
            if partition.active(now):
                partition.end = now
                healed += 1
        self._prune_expired(now)
        return healed

    def _prune_expired(self, now: float) -> None:
        """Drop partitions and fluctuation windows that can never act again.

        Both lists are scanned for every message sent while they are
        non-empty, so long fuzz campaigns would otherwise pay O(total fault
        history) per message.  Sends call this only once ``now`` has reached
        the earliest end, so it runs about once per expiry.
        """
        self._partitions = [p for p in self._partitions if p.end is None or now < p.end]
        self._fluctuations = [w for w in self._fluctuations if now < w.end]
        self._next_expiry = min(
            [p.end for p in self._partitions if p.end is not None]
            + [w.end for w in self._fluctuations],
            default=math.inf,
        )

    def crash(self, node_id: str) -> None:
        """Crash an endpoint: all traffic to and from it is dropped."""
        self._crashed.add(node_id)

    def recover(self, node_id: str) -> None:
        """Recover a crashed endpoint."""
        self._crashed.discard(node_id)

    def is_crashed(self, node_id: str) -> bool:
        """True if ``node_id`` has been crashed via :meth:`crash`."""
        return node_id in self._crashed

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, message: Message) -> None:
        """Send ``message`` from ``src`` to ``dst`` through NICs and the wire."""
        self._transmit(src, (dst,), message)

    def broadcast(self, src: str, targets: List[str], message: Message, include_self: bool = False) -> None:
        """Send ``message`` to every node in ``targets`` (and optionally ``src``).

        Identical to looping :meth:`send` over the same destinations —
        delivery timestamps, drops and counters — with the stamping and
        counting done once per fanout instead of once per copy.
        """
        if not include_self:
            targets = [dst for dst in targets if dst != src]
        elif src not in targets:
            targets = [*targets, src]
        self._transmit(src, targets, message)

    def _transmit(self, src: str, dsts: Sequence[str], message: Message) -> None:
        """The one send path: settle each copy for ``dsts`` now, post its arrival."""
        handlers = self._handlers
        if src not in handlers:
            raise KeyError(f"unknown sender {src!r}")
        size = message.size_bytes
        if size < 0:
            raise ValueError(f"negative message size: {size}")
        fanout = len(dsts)
        stats = self.stats
        stats.messages_sent += fanout
        stats.bytes_sent += fanout * size
        counts = stats.per_type_counts
        kind = message.__class__.__name__
        counts[kind] = counts.get(kind, 0) + fanout

        scheduler = self.scheduler
        now = scheduler.now
        crashed = self._crashed
        slow = self._slow_factor
        # Truthy iff any fault state is installed; nothing below consults it otherwise.
        conditioned = crashed or slow or self._partitions or self._fluctuations
        if conditioned:
            if now >= self._next_expiry:
                self._prune_expired(now)
            src_crashed = src in crashed
            src_slow = slow.get(src, 1.0)
            cut = NOBODY
            for partition in self._partitions:
                if partition.active(now):
                    cut = cut | partition.unreachable_from(src)
            windows = self._fluctuations
            uniform = self._rng.uniform
        # One service time per message; the arrival carries it to the ingress NIC.
        service = NIC_OVERHEAD_S + size / self.bandwidth_bps
        base_draw, base_a, base_b, base_floor = self._base_draw
        extra = self._extra_draw
        extra_draw, extra_a, extra_b, extra_floor = extra
        egress = self._egress
        free_at = egress[src]
        post_at = scheduler.post_at
        arrive = self._arrive
        for dst in dsts:
            if dst not in handlers:
                egress[src] = free_at
                raise KeyError(f"unknown destination {dst!r}")
            if conditioned:
                if src_crashed or dst in crashed:
                    self._drop(dst, message, "crashed")
                    continue
                if dst in cut:
                    self._drop(dst, message, "partitioned")
                    continue
            if dst == src:
                # Loopback skips the NICs; a replica talking to itself (e.g.
                # the leader "sending" its own vote) costs a context switch.
                scheduler.post_after(self.local_delivery_delay, self._deliver, dst, message)
                continue
            drawn = base_draw(base_a, base_b)
            delay = drawn if drawn > base_floor else base_floor
            if extra is not ZERO_DRAW:
                drawn = extra_draw(extra_a, extra_b)
                delay += drawn if drawn > extra_floor else extra_floor
            # The copies of a fanout serialize through the egress NIC.
            free_at = (free_at if free_at > now else now) + service
            if conditioned:
                for window in windows:
                    if window.start <= free_at < window.end:
                        delay += uniform(window.min_delay, window.max_delay)
                if slow:
                    factor = slow.get(dst, 1.0)
                    delay *= factor if factor > src_slow else src_slow
            post_at(free_at + delay, arrive, src, dst, message, service)
        egress[src] = free_at

    def _arrive(self, src: str, dst: str, message: Message, service: float) -> None:
        crashed = self._crashed
        if crashed and (src in crashed or dst in crashed):
            self._drop(dst, message, "crashed")
            return
        scheduler = self.scheduler
        now = scheduler.now
        free_at = self._ingress[dst]
        free_at = (free_at if free_at > now else now) + service
        self._ingress[dst] = free_at
        scheduler.post_at(free_at, self._deliver, dst, message)

    def _deliver(self, dst: str, message: Message) -> None:
        if dst in self._crashed:
            self._drop(dst, message, "crashed-dst")
            return
        self.stats.messages_delivered += 1
        self._handlers[dst](message)

    def _drop(self, dst: str, message: Message, reason: str) -> None:
        self.stats.messages_dropped += 1
        ev = self.events
        if ev.wants & obs_trace.NET:
            ev.emit(
                self.scheduler.now, dst, obs_trace.NET, "drop", 0,
                {"message": message.__class__.__name__, "reason": reason},
            )
