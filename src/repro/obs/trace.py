"""Protocol events: one stream, its subscribers, and the ring-buffer tracer.

Every instrumented site in the stack announces what happened exactly once,
as ``emit(t, who, category, kind, view, payload)`` on the cluster's
:class:`EventStream`.  The run's :class:`~repro.bench.metrics.MetricsCollector`
always subscribes (``RunMetrics`` is a pure function of the stream); the
installed :class:`Tracer` subscribes when there is one and keeps the records
in per-replica ring buffers.

* **One int test per site**: ``if ev.wants & VOTE:`` — see
  :class:`EventStream`.  The collector's mask holds no per-message category,
  so votes, proposals, view entries and network drops build nothing unless a
  tracer asks for them.
* **Category bitmasks.**  Each record belongs to exactly one category bit
  (:data:`VIEW`, :data:`PROPOSAL`, ...); ``Tracer(categories=("view",
  "commit"))`` keeps only those, and :meth:`Tracer.emit` drops filtered
  categories before touching the buffers; every event of a selected
  category is a record.  Unknown bits are rejected, both at construction
  and at emit time.
* **Bounded ring buffers.**  Records live in one ``deque(maxlen=capacity)``
  per replica; a long run evicts its oldest records instead of growing.
  Aggregates (latency quantiles, throughput) are the collector's
  ``RunMetrics``, not the tracer's.

Installation is process-global and explicit: :func:`tracing` sets the
module-level :data:`ACTIVE` tracer that the cluster builders
(:func:`repro.bench.runner.build_cluster`, the deployment runner) subscribe
to the stream they create, so the tracer never lives in a
:class:`Configuration` — run ids, stored records, and resume semantics are
unchanged by tracing.  The context manager restores the previous state on
exit::

    from repro.obs import Tracer, tracing

    with tracing(Tracer(categories=("view", "commit"))) as tracer:
        result = api.run(config)
    records = tracer.records()

The event catalogue — every ``(category, kind)``, its announcer and its
consumers — is the table in ``docs/OBSERVABILITY.md``.  The export formats
(JSONL, Chrome/Perfetto, text, SVG timeline) live in :mod:`repro.obs.export`,
behind :func:`repro.obs.export.write_trace`.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

# ----------------------------------------------------------------------
# categories
# ----------------------------------------------------------------------
#: One bit per record category, in a stable declaration order (the order
#: fixes the bit values, the exported category list, and summary listings).
VIEW = 1 << 0         #: view entry (pacemaker ``_enter_view``)
PROPOSAL = 1 << 1     #: proposal broadcast / receipt
VOTE = 1 << 2         #: vote sent
QC = 1 << 3           #: quorum / timeout certificate formation
COMMIT = 1 << 4       #: chain growth: block added, committed, forked
TIMEOUT = 1 << 5      #: local timeout fired, TIMEOUT message broadcast
SYNC = 1 << 6         #: block-fetch round started / response ingested
CHECKPOINT = 1 << 7   #: checkpoint taken, snapshot fetched / installed, forest peak
FAULT = 1 << 8        #: scenario events (crash/partition/heal/...) and safety violations
NET = 1 << 9          #: fabric drops (crashed/partitioned/backlogged)
CLIENT = 1 << 10      #: client request committed / timed out / rejected

#: category bit -> canonical name, in declaration order.
CATEGORY_NAMES: Dict[int, str] = {
    VIEW: "view",
    PROPOSAL: "proposal",
    VOTE: "vote",
    QC: "qc",
    COMMIT: "commit",
    TIMEOUT: "timeout",
    SYNC: "sync",
    CHECKPOINT: "checkpoint",
    FAULT: "fault",
    NET: "net",
    CLIENT: "client",
}

#: canonical name -> category bit.
CATEGORY_BITS: Dict[str, int] = {name: bit for bit, name in CATEGORY_NAMES.items()}

#: Every defined category bit set.
ALL_CATEGORIES: int = 0
for _bit in CATEGORY_NAMES:
    ALL_CATEGORIES |= _bit
del _bit

#: Default ring-buffer capacity per replica (records).
DEFAULT_CAPACITY = 1 << 16


def category_mask(categories: Union[int, str, Iterable[str], None]) -> int:
    """Resolve a category selection to a validated bitmask.

    Accepts ``None`` (everything), an int bitmask, one category name, or an
    iterable of names.  Unknown bits and names raise ``ValueError`` — a typo
    must not silently trace nothing.
    """
    if categories is None:
        return ALL_CATEGORIES
    if isinstance(categories, int):
        unknown = categories & ~ALL_CATEGORIES
        if unknown or categories == 0:
            raise ValueError(
                f"unknown trace category bits {unknown:#x} "
                f"(defined mask is {ALL_CATEGORIES:#x})"
                if unknown
                else "category mask must select at least one category"
            )
        return categories
    if isinstance(categories, str):
        categories = (categories,)
    mask = 0
    for name in categories:
        bit = CATEGORY_BITS.get(name)
        if bit is None:
            raise ValueError(
                f"unknown trace category {name!r}; "
                f"known: {', '.join(CATEGORY_BITS)}"
            )
        mask |= bit
    if mask == 0:
        raise ValueError("category mask must select at least one category")
    return mask


class TraceRecord(NamedTuple):
    """One exported trace record (category resolved to its name)."""

    t: float
    replica: str
    category: str
    kind: str
    view: int
    payload: Optional[Dict[str, Any]]


class Tracer:
    """Collects protocol events into per-replica bounded ring buffers."""

    __slots__ = (
        "mask",
        "capacity",
        "buffers",
        "records_emitted",
        "records_evicted",
        "_seq",
    )

    def __init__(
        self,
        categories: Union[int, str, Iterable[str], None] = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"trace capacity must be positive, got {capacity}")
        self.mask = category_mask(categories)
        self.capacity = capacity
        #: replica id -> ring of ``(seq, t, category_bit, kind, view, payload)``.
        self.buffers: Dict[str, Deque[Tuple]] = {}
        self.records_emitted = 0
        self.records_evicted = 0
        # Global emission sequence: the merge key of records(). Emission
        # order is deterministic (the simulation is), so sorting by seq
        # reproduces it exactly — including ties at equal timestamps.
        self._seq = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def emit(
        self,
        t: float,
        replica: str,
        category: int,
        kind: str,
        view: int,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one event (dropped when its category is filtered out)."""
        if not (category & self.mask):
            if category & ~ALL_CATEGORIES or category == 0:
                raise ValueError(f"unknown trace category bits: {category:#x}")
            return
        if category not in CATEGORY_NAMES:
            # Inside the mask but not a single defined bit (e.g. VIEW|VOTE):
            # a record belongs to exactly one category.
            raise ValueError(f"unknown trace category bits: {category:#x}")
        buffer = self.buffers.get(replica)
        if buffer is None:
            buffer = self.buffers[replica] = deque(maxlen=self.capacity)
        elif len(buffer) == self.capacity:
            self.records_evicted += 1
        self._seq += 1
        buffer.append((self._seq, t, category, kind, view, payload))
        self.records_emitted += 1

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def records(self) -> List[TraceRecord]:
        """Every retained record, merged across replicas in emission order."""
        merged: List[Tuple] = []
        for replica, buffer in self.buffers.items():
            merged.extend(
                (seq, t, replica, category, kind, view, payload)
                for (seq, t, category, kind, view, payload) in buffer
            )
        merged.sort(key=lambda entry: entry[0])
        names = CATEGORY_NAMES
        return [
            TraceRecord(t, replica, names[category], kind, view, payload)
            for (_, t, replica, category, kind, view, payload) in merged
        ]

    def replicas(self) -> List[str]:
        """Replica ids with at least one retained record, sorted."""
        return sorted(self.buffers)

    def __len__(self) -> int:
        return sum(len(buffer) for buffer in self.buffers.values())


# ----------------------------------------------------------------------
# the event stream: what every instrumented component holds
# ----------------------------------------------------------------------
class EventStream:
    """The one instrumentation seam: each announced event, to every subscriber.

    A builder creates one per cluster and passes it, at construction, to
    the fabric, every replica (and through it the pacemaker, sync and
    checkpoint managers), every client and the cluster scenario events fire
    on.  A site announces an event with one guarded call::

        ev = self.events
        if ev.wants & COMMIT:
            ev.emit(now, node_id, COMMIT, "commit", view, {...})

    ``wants`` is the union of the subscribers' masks; a subscriber — a
    callable with :meth:`Tracer.emit`'s signature — is handed the events of
    its own mask only.  A stream nobody subscribed to (what a component
    built without one gets) wants nothing.
    """

    __slots__ = ("wants", "emit", "_subscribers")

    def __init__(self) -> None:
        self.wants = 0
        self._subscribers: List[Tuple[int, Callable]] = []
        self.emit: Callable = self._fan_out

    def subscribe(self, callback: Callable, mask: int) -> None:
        """Deliver every event whose category is in ``mask`` to ``callback``."""
        self._subscribers.append((mask, callback))
        self.wants |= mask
        # A lone subscriber is called directly: the client's per-transaction
        # commit reply pays no fan-out frame on an untraced run.
        self.emit = callback if len(self._subscribers) == 1 else self._fan_out

    def _fan_out(self, t, who, category, kind, view, payload=None) -> None:
        for mask, callback in self._subscribers:
            if category & mask:
                callback(t, who, category, kind, view, payload)


# ----------------------------------------------------------------------
# process-global installation
# ----------------------------------------------------------------------
#: The installed tracer, or ``None`` when tracing is disabled.  Cluster
#: builders subscribe it to the stream they create (:func:`open_stream`).
ACTIVE: Optional[Tracer] = None


def open_stream(collector) -> EventStream:
    """A cluster's stream: ``collector`` always hears it, :data:`ACTIVE` if installed.

    The one place that decides who hears what, shared by both builders.
    """
    stream = EventStream()
    stream.subscribe(collector.on_event, collector.mask)
    if ACTIVE is not None:
        stream.subscribe(ACTIVE.emit, ACTIVE.mask)
    return stream


@contextmanager
def tracing(
    tracer: Optional[Tracer] = None, **kwargs: Any
) -> Iterator[Tracer]:
    """Install ``tracer`` (or a fresh ``Tracer(**kwargs)``) as :data:`ACTIVE`
    and restore the previous one on exit. ::

        with tracing(categories=("view", "commit")) as tracer:
            api.run(config)
        print(len(tracer.records()))

    Clusters built inside the block pick the tracer up; an already-built one
    does not (``cluster.events.subscribe(tracer.emit, tracer.mask)`` adds a
    tracer to it explicitly).
    """
    global ACTIVE
    previous = ACTIVE
    ACTIVE = Tracer(**kwargs) if tracer is None else tracer
    try:
        yield ACTIVE
    finally:
        ACTIVE = previous
