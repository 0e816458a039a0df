"""The simulated network connecting replicas and clients.

Message path (mirroring the paper's delay decomposition)::

    sender NIC  ->  propagation delay  ->  receiver NIC  ->  deliver()

There is one pipeline.  :meth:`Network.send` and :meth:`Network.broadcast`
enter the same transmit body, which settles everything about a wire copy at
send time and posts a single arrival entry for it; the arrival reserves the
receiver's NIC and posts the delivery.  Two handle-free heap tuples per
message, whatever conditions are installed.

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

Fault state is consulted only while something is installed, and expired
partitions and windows are pruned on the way, so a condition that touches no
message changes no timestamp and no random draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.network.delays import DelayModel, NoDelay, NormalDelay
from repro.network.fluctuation import FluctuationWindow
from repro.network.nic import DEFAULT_BANDWIDTH_BPS, NetworkInterface
from repro.network.partition import Partition
from repro.obs import trace as obs_trace
from repro.sim.events import EventScheduler
from repro.sim.random import RandomStreams
from repro.types.messages import Message

DeliveryHandler = Callable[[Message], None]

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
        self.scheduler = scheduler
        self.streams = streams
        self.base_delay = base_delay if base_delay is not None else DEFAULT_LAN_DELAY
        self.extra_delay = extra_delay if extra_delay is not None else NoDelay()
        self.bandwidth_bps = bandwidth_bps
        self.local_delivery_delay = local_delivery_delay
        self.stats = NetworkStats()
        #: The cluster's event stream: the fabric announces its drops (``net``).
        self.events = events if events is not None else obs_trace.EventStream()

        self._rng = streams.get("network")
        self._handlers: Dict[str, DeliveryHandler] = {}
        self._egress: Dict[str, NetworkInterface] = {}
        self._ingress: Dict[str, NetworkInterface] = {}
        self._slow_factor: Dict[str, float] = {}
        self._fluctuations: List[FluctuationWindow] = []
        self._partitions: List[Partition] = []
        self._crashed: set[str] = set()
        # Per-network message-id counter: ids are stamped on first send so
        # repeated runs in one process assign identical ids (no process-global
        # state leaks across runs).
        self._message_seq = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, node_id: str, handler: DeliveryHandler) -> None:
        """Attach an endpoint; ``handler`` receives its delivered messages."""
        if node_id in self._handlers:
            raise ValueError(f"endpoint {node_id!r} is already registered")
        self._handlers[node_id] = handler
        self._egress[node_id] = NetworkInterface(
            self.scheduler, name=f"{node_id}.egress", bandwidth_bps=self.bandwidth_bps
        )
        self._ingress[node_id] = NetworkInterface(
            self.scheduler, name=f"{node_id}.ingress", bandwidth_bps=self.bandwidth_bps
        )

    def endpoints(self) -> List[str]:
        """All registered endpoint ids."""
        return sorted(self._handlers)

    def egress_nic(self, node_id: str) -> NetworkInterface:
        """The egress interface of ``node_id`` (for utilization reporting)."""
        return self._egress[node_id]

    def ingress_nic(self, node_id: str) -> NetworkInterface:
        """The ingress interface of ``node_id``."""
        return self._ingress[node_id]

    # ------------------------------------------------------------------
    # fault / condition injection
    # ------------------------------------------------------------------
    def set_slow(self, node_id: str, factor: float) -> None:
        """Multiply propagation delays to and from ``node_id`` (run-time "slow")."""
        if factor < 1.0:
            raise ValueError(f"slow factor must be >= 1, got {factor}")
        self._slow_factor[node_id] = factor

    def clear_slow(self, node_id: str) -> None:
        """Remove a previously configured slow-down."""
        self._slow_factor.pop(node_id, None)

    def add_fluctuation(self, window: FluctuationWindow) -> None:
        """Install a fluctuation window (extra random delay while active)."""
        self._fluctuations.append(window)

    def add_partition(self, partition: Partition) -> None:
        """Install a partition (messages across groups are dropped)."""
        self._partitions.append(partition)

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

        Both lists are scanned for every copy sent while they are non-empty,
        so long fuzz campaigns would otherwise pay O(total fault history) per
        message.
        """
        partitions = self._partitions
        if partitions:
            live = [p for p in partitions if p.end is None or now < p.end]
            if len(live) != len(partitions):
                self._partitions = live
        fluctuations = self._fluctuations
        if fluctuations:
            live_windows = [w for w in fluctuations if now < w.end]
            if len(live_windows) != len(fluctuations):
                self._fluctuations = live_windows

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
        if message.message_id < 0:
            self._message_seq += 1
            message.message_id = self._message_seq
        fanout = len(dsts)
        size = message.size_bytes
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
            self._prune_expired(now)
        partitions = self._partitions
        windows = self._fluctuations
        rng = self._rng
        base_sample = self.base_delay.sample
        extra = self.extra_delay
        extra_sample = None if type(extra) is NoDelay else extra.sample
        reserve = self._egress[src].reserve
        post_at = scheduler.post_at
        arrive = self._arrive
        for dst in dsts:
            if dst not in handlers:
                raise KeyError(f"unknown destination {dst!r}")
            if conditioned:
                if src in crashed or dst in crashed:
                    self._drop(dst, message, "crashed")
                    continue
                if partitions and any(p.blocks(src, dst, now) for p in partitions):
                    self._drop(dst, message, "partitioned")
                    continue
            if dst == src:
                # Loopback skips the NICs; a replica talking to itself (e.g.
                # the leader "sending" its own vote) costs a context switch.
                scheduler.post_after(self.local_delivery_delay, self._deliver, dst, message)
                continue
            delay = base_sample(rng)
            if extra_sample is not None:
                delay += extra_sample(rng)
            # The copies of a fanout serialize through the egress NIC.
            completion = reserve(size)
            if conditioned:
                for window in windows:
                    if window.active(completion):
                        delay += window.sample(rng)
                if slow:
                    delay *= max(slow.get(src, 1.0), slow.get(dst, 1.0))
            post_at(completion + delay, arrive, src, dst, message)

    def _arrive(self, src: str, dst: str, message: Message) -> None:
        crashed = self._crashed
        if crashed and (src in crashed or dst in crashed):
            self._drop(dst, message, "crashed")
            return
        self.scheduler.post_at(
            self._ingress[dst].reserve(message.size_bytes), self._deliver, dst, message
        )

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
