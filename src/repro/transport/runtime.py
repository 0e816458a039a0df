"""Deployment runner: the protocol stack over real TCP, real time, real keys.

This is the "implementation" axis of the paper's fig8.  The same
:class:`~repro.core.replica.Replica` (and Byzantine strategy subclasses),
pacemaker, sync/checkpoint managers, and clients that run in the
discrete-event model are wired to an :class:`~repro.transport.clock.AsyncioClock`
and an :class:`~repro.transport.asyncio_net.AsyncioTransport` instead — zero
protocol-class changes, which ``tests/test_transport.py`` pins down by
diffing the protocol modules' imports against this package.

What changes between the modes is exactly what the paper varies:

==============  ==================================  ===================================
aspect          model                               deploy
==============  ==================================  ===================================
time            virtual event clock                 loop's monotonic clock
message fabric  modeled NIC + link delays           framed TCP streams
replica CPU     FIFO server, service times          the host's (:class:`HostCpu`)
signatures      HMAC tags, cost *modeled*           Ed25519, cost *measured*
serialization   size-model estimate                 real JSON encode/decode
load generator  simulated nodes on the event clock  one forked process on the same host
==============  ==================================  ===================================

Each is chosen at wiring, by mode: the deployment hands
:func:`~repro.bench.runner.wire` its clock and transport and then gives every
replica a :class:`HostCpu`.  What a message or a timer costs is what its code
costs, on the one thread the loop runs on, and an exception raised by either
fails the run (:meth:`DeploymentRunner.run`).

The clients are not on that thread.  As the paper's benchmark clients run
outside the replicas, :meth:`DeploymentRunner.start` forks one *load
generator* process once the replicas' listeners are bound.  It builds every
configured client (:func:`~repro.bench.runner.build_clients`) on a loop of its
own, with an :class:`~repro.transport.clock.AsyncioClock` on the parent's
epoch and a transport of its own, in which the replicas are remote endpoints
(:meth:`~repro.transport.asyncio_net.AsyncioTransport.set_remote`), as the
clients are in the parent's.  A socket pair is the control channel: the
parent forwards each change of a replica's address (crash, recovery on a
fresh port), and an end of file tells the generator to stop.  It stops then
or at the horizon, whichever is first, and sends one report — its clients'
counters, its socket counters, the loop timers it armed, and every event its
clients and transport announced — and exits.  :meth:`DeploymentRunner.stop`
replays those events onto the run's stream after the replicas' own, so the
metrics collector and any installed tracer hear every client event.

Everything else is :mod:`repro.bench.runner`'s: its :func:`~repro.bench.runner.wire`
builds the replicas, its ``consistency_check`` judges them, and
its :func:`~repro.bench.runner.summarize` produces the same
:class:`~repro.bench.runner.ExperimentResult` / ``RunMetrics`` record schema,
so campaign storage, aggregation, and the fig8 figure consume model and
deployment records side by side.
"""

from __future__ import annotations

import asyncio
import gc
import os
import pickle
import signal
import socket
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.bench import runner as bench_runner
from repro.bench.config import Configuration
from repro.bench.profiles import cost_profile
from repro.core.replica import Replica
from repro.crypto.keys import KeyRegistry
from repro.obs import trace as obs_trace
from repro.sim.random import RandomStreams
from repro.transport.asyncio_net import AsyncioTransport, TransportStats
from repro.transport.clock import AsyncioClock
from repro.transport.codec import FrameSplitter, frame

#: Events per frame of the load generator's report: ~200 kB pickled.
_EVENTS_PER_FRAME = 4096
#: Longest silence of the load generator, once told to stop, before it is
#: killed and the run failed.
_GENERATOR_TIMEOUT = 30.0


class DeploymentError(RuntimeError):
    """A deployment run failed (replica handler raised, cluster diverged)."""


class HostCpu:
    """A deployed replica's CPU: the host's, so a job runs when it is submitted.

    The simulator's :class:`~repro.sim.resources.FifoServer` holds each job
    for its modelled service time; here the work costs what it costs, and the
    service time (zero under the ``measured`` profile) is ignored.  A job
    submitted by a running job runs right after it, in the same loop turn:
    first in, first out, and never re-entrantly, as on the simulator's
    server.  A job that raises propagates to whoever submitted the first job
    of the run — a handler's error to the transport's ``_deliver``, a
    timer's to the clock's ``_fire`` — and the jobs queued behind it are
    dropped with it, so the next submit finds the queue empty and idle.
    """

    __slots__ = ("_queue", "_running")

    def __init__(self) -> None:
        self._queue: Deque[Tuple[Callable[..., Any], tuple]] = deque()
        self._running = False

    def submit(self, service_time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback(*args)`` now, or after the job that is running."""
        if self._running:
            self._queue.append((callback, args))
            return
        self._running = True
        queue = self._queue
        try:
            callback(*args)
            while queue:
                callback, args = queue.popleft()
                callback(*args)
        finally:
            self._running = False
            queue.clear()


@dataclass
class DeploymentResult(bench_runner.ExperimentResult):
    """An :class:`ExperimentResult` plus the deployment's socket counters.

    The stored record (``to_dict``) is the shared schema, unchanged; the
    counters are for whoever ran the deployment (``repro deploy`` prints
    messages per socket write from them).  They count both processes' sockets.
    """

    transport: TransportStats = field(default_factory=TransportStats)


class ClientReport(NamedTuple):
    """One client's counters, as the load generator reported them."""

    client_id: str
    requests_sent: int
    replies_committed: int
    replies_rejected: int
    requests_timed_out: int


class GeneratorReport(NamedTuple):
    """What the load generator sends back, ahead of its events."""

    #: ``repr`` of the first error raised in the generator, if any.
    error: Optional[str]
    clients: List[ClientReport]
    stats: TransportStats
    #: Loop timers its clock armed (client deadlines, arrivals, backoffs).
    timers_armed: int
    #: Events that follow the report.
    events: int


class _EventLog:
    """The load generator's subscriber: every event, pickled a frame at a time.

    A pending event is a tuple; a full batch becomes one pickle, ~50 bytes
    an event, so a long run's commit replies cost the generator little memory.
    """

    def __init__(self) -> None:
        self.batch: List[tuple] = []
        self.frames: List[bytes] = []
        self.count = 0

    def record(self, t, who, category, kind, view, payload=None) -> None:
        batch = self.batch
        batch.append((t, who, category, kind, view, payload))
        if len(batch) == _EVENTS_PER_FRAME:
            self.seal()

    def seal(self) -> None:
        """Pickle the pending batch into a frame."""
        if self.batch:
            self.frames.append(pickle.dumps(self.batch, pickle.HIGHEST_PROTOCOL))
            self.count += len(self.batch)
            self.batch = []


async def _generate(config: Configuration, host: str, epoch: float, wants: int,
                    replicas: Dict[str, Tuple[str, int]],
                    listeners: Dict[str, socket.socket],
                    channel: socket.socket) -> Tuple[GeneratorReport, List[bytes]]:
    """The load generator's run: clients on a loop of their own, to the horizon
    or to the end of the control channel, whichever is first."""
    loop = asyncio.get_running_loop()
    clock = AsyncioClock(epoch)
    events = obs_trace.EventStream()
    log = _EventLog()
    events.subscribe(log.record, wants)
    transport = AsyncioTransport(host=host, events=events, clock=clock)
    clock.on_error = transport.fail
    clients = bench_runner.build_clients(
        config, clock, transport, RandomStreams(seed=config.seed), events
    )
    for node_id, address in replicas.items():
        transport.set_remote(node_id, address)
    await transport.start(listeners)

    parent_done = asyncio.Event()
    splitter = FrameSplitter()

    def on_control() -> None:
        # Address changes of the replicas, until the parent closes its end.
        try:
            data = channel.recv(1 << 16)
        except BlockingIOError:
            return
        if not data:
            loop.remove_reader(channel.fileno())
            parent_done.set()
            return
        try:
            for payload in splitter.feed(data):
                transport.set_remote(*pickle.loads(payload))
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            transport.fail(exc)

    channel.setblocking(False)
    loop.add_reader(channel.fileno(), on_control)
    try:
        bench_runner.start_clients(config, clients)
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        transport.fail(exc)
    waits = [loop.create_task(parent_done.wait()), loop.create_task(transport.failed.wait())]
    await asyncio.wait(waits, timeout=max(0.0, config.total_duration - clock.now),
                       return_when=asyncio.FIRST_COMPLETED)
    for waiter in waits:
        waiter.cancel()
    loop.remove_reader(channel.fileno())
    await transport.stop()
    log.seal()
    report = GeneratorReport(
        error=repr(transport.errors[0]) if transport.errors else None,
        clients=[
            ClientReport(c.client_id, c.requests_sent, c.replies_committed,
                         c.replies_rejected, c.requests_timed_out)
            for c in clients
        ],
        stats=transport.stats,
        timers_armed=clock.timers_armed,
        events=log.count,
    )
    return report, log.frames


def _load_generator_main(generate: Callable[[], Any], channel: socket.socket,
                         inherited: AsyncioTransport) -> None:
    """Body of the forked process: run ``generate()``, send its report, exit.

    Never returns: the stack below is the parent's, mid-``start``.  The
    parent's loop, and the selector it shares with the parent, are not
    touched; only the parent's listening sockets are closed here.  The
    inherited heap is frozen (``gc.freeze`` before the fork), so this
    process's collections do not walk it.
    """
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent says when to stop
        inherited.release_listeners()
        try:
            report, frames = asyncio.new_event_loop().run_until_complete(generate())
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            report, frames = GeneratorReport(repr(exc), [], TransportStats(), 0, 0), []
        channel.setblocking(True)
        channel.sendall(frame(pickle.dumps(report, pickle.HIGHEST_PROTOCOL)))
        for payload in frames:
            channel.sendall(frame(payload))
        status = 0
    finally:
        os._exit(status)


class LoadGenerator:
    """The parent's end of the forked load generator.

    While the run lasts it watches the control channel, where the report
    comes when the generator reaches the horizon or fails (an end of file:
    it died); a failure fails the run then.  :meth:`end` tells it to stop,
    :meth:`collect` reads the report if it has not come and replays the
    events behind it, and :meth:`reap` waits for the process.
    """

    def __init__(self, pid: int, channel: socket.socket,
                 fail: Callable[[BaseException], None]) -> None:
        self.pid = pid
        self.channel = channel
        self.report: Optional[GeneratorReport] = None
        self._splitter = FrameSplitter()
        self._frames: Deque[bytes] = deque()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: Where the generator's failure goes, once.
        self._fail = fail
        self._failed = False

    def forward(self, node_id: str, address: Optional[Tuple[str, int]]) -> None:
        """Pass a replica's address change on (``AsyncioTransport.on_address``)."""
        try:
            self.channel.sendall(frame(pickle.dumps((node_id, address))))
        except OSError:
            pass  # the generator has stopped reading: it is gone or going

    def watch(self) -> None:
        """Fail the run as soon as the generator reports an error or dies."""
        self._loop = asyncio.get_running_loop()
        self.channel.setblocking(False)
        self._loop.add_reader(self.channel.fileno(), self._pull)

    def end(self) -> None:
        """Tell the generator to stop (an end of file on its control channel)."""
        try:
            self.channel.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # already gone; collect() says how

    def collect(self, emit: Callable[..., None]) -> None:
        """Take the generator's report and replay its events to ``emit``."""
        self._unwatch()
        self.channel.settimeout(_GENERATOR_TIMEOUT)
        replayed = 0
        try:
            while True:
                while self._frames:
                    payload = self._frames.popleft()
                    if self.report is None:
                        self._take_report(payload)
                        continue
                    for event in pickle.loads(payload):
                        emit(*event)
                        replayed += 1
                data = self.channel.recv(1 << 20)
                if not data:
                    break
                self._frames.extend(self._splitter.feed(data))
        except socket.timeout:
            os.kill(self.pid, signal.SIGKILL)
            self._report_failure(f"silent for {_GENERATOR_TIMEOUT:g} s after the run; killed")
            return
        if self.report is None:
            self._report_failure("exited without a report")
        elif self._splitter.buffered or replayed != self.report.events:
            self._report_failure(
                f"replayed {replayed} of {self.report.events} events: the report was cut short"
            )

    def reap(self) -> None:
        """Wait for the process to exit and close the channel."""
        self._unwatch()
        self.channel.close()
        _pid, status = os.waitpid(self.pid, 0)
        if os.waitstatus_to_exitcode(status) != 0:
            self._report_failure(f"exited with status {os.waitstatus_to_exitcode(status)}")

    def kill(self) -> None:
        """End the process at once (a deployment that failed to start)."""
        os.kill(self.pid, signal.SIGKILL)
        self.reap()

    # -- internals ---------------------------------------------------------

    def _pull(self) -> None:
        try:
            data = self.channel.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if data:
            self._frames.extend(self._splitter.feed(data))
            if not self._frames:
                return
            self._take_report(self._frames.popleft())
        else:
            self._report_failure("exited without a report")
        self._unwatch()  # the rest is the events, read by collect()

    def _take_report(self, payload: bytes) -> None:
        self.report = pickle.loads(payload)
        if self.report.error is not None:
            self._report_failure(self.report.error)

    def _report_failure(self, what: str) -> None:
        if not self._failed:
            self._failed = True
            self._fail(DeploymentError(f"load generator (pid {self.pid}): {what}"))

    def _unwatch(self) -> None:
        if self._loop is not None:
            self._loop.remove_reader(self.channel.fileno())
            self._loop = None


class DeploymentRunner:
    """Launches an n-replica loopback cluster and its load generator.

    Construction validates the configuration; :meth:`start` (a coroutine)
    binds sockets, forks the load generator and starts the replicas;
    :meth:`run` waits out the configured horizon on the wall clock (or the
    first error); :meth:`stop` tears down and takes in the generator's
    report.  Tests drive crash/recover through ``runner.replicas[...]``
    exactly as simulation tests do through the cluster.  After :meth:`stop`,
    ``clients`` holds one :class:`ClientReport` per client.
    """

    def __init__(self, config: Configuration, host: str = "127.0.0.1") -> None:
        if config.mode != "deploy":
            config = config.replace(mode="deploy")
        config.validate()
        self.config = config
        self.host = host
        self.clock: AsyncioClock = None  # type: ignore[assignment]
        self.transport: AsyncioTransport = None  # type: ignore[assignment]
        self.events: obs_trace.EventStream = None  # type: ignore[assignment]
        self.registry = KeyRegistry(
            deployment_seed=config.seed, scheme=config.resolved_signing()
        )
        self.replicas: Dict[str, Replica] = {}
        self.clients: List[ClientReport] = []
        self.load_generator: Optional[LoadGenerator] = None
        self.metrics = bench_runner.collector_for(config)
        self.observer_id = self.metrics.observer
        self._started = False

    honest_replicas = bench_runner.honest_replicas
    consistency_check = bench_runner.consistency_check

    async def start(self) -> None:
        """Bind the replicas, fork the load generator, start the replicas."""
        if self._started:
            raise RuntimeError("deployment already started")
        threads = threading.active_count()
        if threads != 1:
            raise DeploymentError(
                f"the load generator is forked, which needs this process to run "
                f"one thread; {threads} are alive"
            )
        self._started = True
        config = self.config
        # Same seam as the simulation builder: one stream for the fabric and
        # the replicas (timestamps come from the AsyncioClock, so deploy
        # traces use wall time since start); the clients' events join it at
        # stop().
        self.events = events = obs_trace.open_stream(self.metrics)
        self.clock = AsyncioClock()
        self.transport = AsyncioTransport(host=self.host, events=events, clock=self.clock)
        # A timer callback's error fails the run like a handler's.
        self.clock.on_error = self.transport.fail
        # Crypto/serialization cost is real wall-clock work here; charging
        # the configured model on top would double-count it.
        self.replicas = bench_runner.wire(
            config, self.clock, self.transport, self.registry, events,
            cost_profile("measured"),
        )
        for replica in self.replicas.values():
            replica.cpu = HostCpu()
        await self.transport.start()
        # The clients' listeners are bound here, before the fork, so both
        # processes know every address before either sends.
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        listeners = {
            client_id: socket.create_server((self.host, 0), family=family)
            for client_id in config.client_ids()
        }
        replica_addresses = {
            node_id: self.transport.address_of(node_id) for node_id in self.replicas
        }
        ours, theirs = socket.socketpair()
        # Neither process's collector may walk the heap they share from here:
        # touching an object's header copies its page, and a full collection
        # of everything built so far (and left over from earlier runs) stalls
        # the loop for tens of milliseconds.  stop() unfreezes it.
        gc.freeze()
        pid = os.fork()
        if pid == 0:
            ours.close()
            _load_generator_main(
                lambda: _generate(config, self.host, self.clock.epoch, events.wants,
                                  replica_addresses, listeners, theirs),
                theirs, self.transport,
            )
        theirs.close()
        self.load_generator = generator = LoadGenerator(pid, ours, self.transport.fail)
        try:
            for client_id, sock in listeners.items():
                host, port = sock.getsockname()[:2]
                self.transport.set_remote(client_id, (host, port))
                sock.close()
            self.transport.on_address = generator.forward
            generator.watch()
            for replica in self.replicas.values():
                replica.start()
        except BaseException:
            generator.kill()
            gc.unfreeze()
            raise

    async def run(self) -> None:
        """Let the cluster run for the configured horizon of wall time.

        A message handler or timer callback that raises, or a load generator
        that fails, ends the wait — and fails the run — when it happens, not
        when the horizon is up.
        """
        try:
            await asyncio.wait_for(
                self.transport.failed.wait(), timeout=self.config.total_duration
            )
        except asyncio.TimeoutError:
            pass
        self.raise_handler_errors()

    async def stop(self) -> None:
        """Stop timers, tear the transport down, take in the load generator's report.

        A generator failure found here is recorded like a handler error:
        :meth:`raise_handler_errors` raises it.
        """
        for replica in self.replicas.values():
            replica.pacemaker.stop()
        self.transport.on_address = None
        generator = self.load_generator
        running = generator is not None and generator.channel.fileno() >= 0
        if running:
            generator.end()
        await self.transport.stop()
        if not running:
            return
        try:
            generator.collect(self.events.emit)
        finally:
            generator.reap()
            gc.unfreeze()
        report = generator.report
        if report is not None:
            self.clients = list(report.clients)
            self.transport.stats.add(report.stats)

    def raise_handler_errors(self) -> None:
        """Re-raise the first exception any handler or timer callback raised."""
        if self.transport.errors:
            raise DeploymentError(
                f"{len(self.transport.errors)} handler error(s); first: "
                f"{self.transport.errors[0]!r}"
            ) from self.transport.errors[0]


async def deploy_and_run(config: Configuration, host: str = "127.0.0.1") -> DeploymentResult:
    """Coroutine running one full deployment: start, horizon, stop, result."""
    runner = DeploymentRunner(config, host=host)
    await runner.start()
    try:
        await runner.run()
    finally:
        await runner.stop()
    runner.raise_handler_errors()  # what the load generator's report said
    result = bench_runner.summarize(runner, runner.config.total_duration)
    return DeploymentResult(**vars(result), transport=runner.transport.stats)


def run_deployment(config: Configuration, host: str = "127.0.0.1") -> DeploymentResult:
    """Run one deployment experiment to completion (blocking entry point).

    ``repro.bench.runner.run_experiment`` dispatches here when
    ``config.mode == "deploy"``, so everything built on ``run_experiment``
    (campaigns, the CLI, benchmarks) gains the deployment axis for free.
    """
    return asyncio.run(deploy_and_run(config, host=host))
