"""Micro-ops: one isolated public call per layer, timed from outside.

Each op is a function returning ``(prepare, run)``: ``prepare(n)`` builds the
state for ``n`` operations untimed, ``run(state)`` performs them.  Everything
under ``repro`` is resolved by dotted name inside the op, and :func:`run_all`
catches whatever an op raises, so a renamed class costs that one number (reported
as unavailable, with the reason) and nothing else.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import heapq
import shutil
import time
from typing import Any, Callable, Dict, Tuple

from perf_child import OUT, load

#: Each op: fastest of ``repeats`` batches, every batch sized to take at least
#: ``batch_s``.  The issue asked for 5 x 0.2 s; that makes this process take 63 s
#: and a traced run 95 s, which breaks the contract's 180 s per run when the
#: host runs at half speed, so the batches are 0.1 s (35 s, 66 s).
FULL = {"repeats": 5, "batch_s": 0.1}
QUICK = {"repeats": 1, "batch_s": 0.001}

Op = Tuple[Callable[[int], Any], Callable[[Any], None]]


def _noop(*_args: Any) -> None:
    pass


def measure(op: Op, repeats: int, batch_s: float) -> float:
    """Seconds per operation: fastest of ``repeats`` batches of a calibrated size."""
    prepare, run = op

    def batch(n: int) -> float:
        state = prepare(n)
        started = time.perf_counter()
        run(state)
        return time.perf_counter() - started

    gc.collect()
    # Probe with small batches (cheap to prepare) until the clock resolves
    # them, then size the real batches from that rate.
    n, elapsed = 4, batch(4)
    while elapsed < 1e-3 and elapsed < batch_s:
        n *= 4
        elapsed = batch(n)
    n = max(n, int(n * batch_s / elapsed))
    return min(batch(n) for _ in range(repeats)) / n


# ----------------------------------------------------------------------
# shared fixtures
# ----------------------------------------------------------------------
def _transactions(n: int, client: str = "c0", start: int = 0) -> tuple:
    create = load("repro.types.transaction:Transaction.create")
    return tuple(create(client_id=client, created_at=0.0, payload_size=128,
                        key=f"k{i % 1024}", value=f"v{i}", sequence=i)
                 for i in range(start, start + n))


def _transaction_pool() -> Callable[[int], tuple]:
    """``take(n)``: the first n of one growing batch (building one costs 5x applying it)."""
    made: list = []

    def take(n: int) -> tuple:
        if len(made) < n:
            made.extend(_transactions(n - len(made), start=len(made)))
        return tuple(made[:n])
    return take


def _chain(n: int, txs_per_block: int = 0) -> list:
    genesis, genesis_qc = load("repro.types.block:make_genesis")()
    make_block = load("repro.types.block:make_block")
    qc_cls = load("repro.types.certificates:QuorumCertificate")
    blocks, parent, qc = [], genesis, genesis_qc
    for view in range(1, n + 1):
        txs = _transactions(txs_per_block, client=f"c{view}") if txs_per_block else ()
        block = make_block(view, parent, qc, "r0", txs)
        qc = qc_cls(block_id=block.block_id, view=view, signers=frozenset({"r0", "r1", "r2"}))
        blocks.append((block, qc))
        parent = block
    return blocks


def _registry(scheme: str, nodes: int = 4) -> Any:
    registry = load("repro.crypto.keys:KeyRegistry")(deployment_seed=1, scheme=scheme)
    for i in range(nodes):
        registry.register(f"r{i}")
    return registry


def _vote_message(registry: Any, view: int = 7) -> Any:
    sign = load("repro.crypto.signatures:sign")
    vote_cls = load("repro.types.certificates:Vote")
    digest = load("repro.types.certificates:vote_digest")("b" * 64, view)
    vote = vote_cls(voter="r1", block_id="b" * 64, view=view,
                    signature=sign(registry.get("r1"), digest))
    return load("repro.types.messages:VoteMessage")(sender="r1", size_bytes=105, vote=vote)


def _proposal_message() -> Any:
    block, _ = _chain(1, txs_per_block=400)[0]
    return load("repro.types.messages:ProposalMessage")(
        sender="r0", size_bytes=60_000, block=block, view=block.view)


def _network(endpoints: int) -> Tuple[Any, Any]:
    scheduler = load("repro.sim.events:EventScheduler")()
    streams = load("repro.sim.random:RandomStreams")(seed=1)
    network = load("repro.network.network:Network")(scheduler, streams)
    for i in range(endpoints):
        network.register(f"r{i}", _noop)
    return scheduler, network


# ----------------------------------------------------------------------
# the ops (name -> (factory, unit, scale from seconds))
# ----------------------------------------------------------------------
def sched_post_pop() -> Op:
    scheduler_cls = load("repro.sim.events:EventScheduler")

    def run(n: int) -> None:
        scheduler = scheduler_cls()
        post = scheduler.post_after
        for i in range(n):
            post(i * 1e-6, _noop)
        scheduler.run_until_idle()
    return (lambda n: n), run


def sched_timer_cancel() -> Op:
    scheduler_cls = load("repro.sim.events:EventScheduler")

    def run(n: int) -> None:
        scheduler = scheduler_cls()
        for _ in range(n):
            scheduler.call_after(1.0, _noop).cancel()
        scheduler.run_until_idle()
    return (lambda n: n), run


def fifo_job() -> Op:
    scheduler_cls = load("repro.sim.events:EventScheduler")
    server_cls = load("repro.sim.resources:FifoServer")

    def run(n: int) -> None:
        scheduler = scheduler_cls()
        server = server_cls(scheduler)
        for _ in range(n):
            server.submit(1e-6, _noop)
        scheduler.run_until_idle()
    return (lambda n: n), run


def network_hop(faulty: bool) -> Op:
    message_cls = load("repro.types.messages:Message")

    def prepare(n: int) -> Any:
        scheduler, network = _network(3)
        if faulty:
            # Any installed condition routes every send through the fault
            # pipeline; factor 1.0 on a bystander changes no delay.
            network.set_slow("r2", 1.0)
        return scheduler, network, [message_cls("r0", 200) for _ in range(n)]

    def run(state: Any) -> None:
        scheduler, network, messages = state
        for message in messages:
            network.send("r0", "r1", message)
        scheduler.run_until_idle()
    return prepare, run


def network_broadcast16() -> Op:
    message_cls = load("repro.types.messages:Message")

    def prepare(n: int) -> Any:
        scheduler, network = _network(16)
        return scheduler, network, [f"r{i}" for i in range(16)], [message_cls("r0", 200) for _ in range(n)]

    def run(state: Any) -> None:
        scheduler, network, targets, messages = state
        for message in messages:
            network.broadcast("r0", targets, message)
        scheduler.run_until_idle()
    return prepare, run


def quorum_vote_certify() -> Op:
    tracker_cls = load("repro.quorum.quorum:QuorumTracker")
    sign = load("repro.crypto.signatures:sign")
    vote_cls = load("repro.types.certificates:Vote")
    vote_digest = load("repro.types.certificates:vote_digest")
    registry = _registry("hmac")

    def prepare(n: int) -> Any:
        votes = []
        for view in range(n):
            block_id = f"{view:064d}"
            digest = vote_digest(block_id, view)
            votes.append([vote_cls(voter=f"r{i}", block_id=block_id, view=view,
                                   signature=sign(registry.get(f"r{i}"), digest)) for i in range(3)])
        return tracker_cls(4, registry), votes

    def run(state: Any) -> None:
        tracker, votes = state
        for quorum in votes:
            for vote in quorum:
                qc = tracker.add_and_certify(vote)
            if qc is None:
                raise RuntimeError("three of four votes formed no certificate")
    return prepare, run


def quorum_timeout_certify() -> Op:
    tracker_cls = load("repro.quorum.quorum:TimeoutTracker")
    sign = load("repro.crypto.signatures:sign")
    timeout_cls = load("repro.types.certificates:Timeout")
    timeout_digest = load("repro.types.certificates:timeout_digest")
    registry = _registry("hmac")

    def prepare(n: int) -> Any:
        timeouts = [[timeout_cls(voter=f"r{i}", view=view, high_qc_view=view - 1,
                                 signature=sign(registry.get(f"r{i}"), timeout_digest(view)))
                     for i in range(3)] for view in range(1, n + 1)]
        return tracker_cls(4, registry), timeouts

    def run(state: Any) -> None:
        tracker, timeouts = state
        for quorum in timeouts:
            for timeout in quorum:
                tc = tracker.add_and_certify(timeout)
            if tc is None:
                raise RuntimeError("three of four timeouts formed no certificate")
    return prepare, run


def forest_add_commit() -> Op:
    forest_cls = load("repro.forest.forest:BlockForest")

    def run(blocks: list) -> None:
        forest = forest_cls()
        for block, qc in blocks:
            forest.add_block(block)
            forest.record_qc(qc)
            forest.commit(block.block_id, block.view)
    return _chain, run


def forest_truncate() -> Op:
    forest_cls = load("repro.forest.forest:BlockForest")
    chain = _chain(20)

    def prepare(n: int) -> list:
        forests = []
        for _ in range(n):
            forest = forest_cls()
            for block, qc in chain:
                forest.add_block(block)
                forest.record_qc(qc)
            forest.commit(chain[-1][0].block_id, 20)
            forests.append(forest)
        return forests

    def run(forests: list) -> None:
        for forest in forests:
            forest.truncate_below(19)
    return prepare, run


def mempool_add_batch() -> Op:
    mempool_cls = load("repro.mempool.mempool:Mempool")

    def run(transactions: tuple) -> None:
        pool = mempool_cls(capacity=len(transactions) + 1)
        for transaction in transactions:
            pool.add(transaction)
        while pool.next_batch(400):
            pass
    return _transaction_pool(), run


def executor_apply() -> Op:
    store_cls = load("repro.executor.kvstore:KeyValueStore")

    def run(transactions: tuple) -> None:
        apply = store_cls().apply
        for transaction in transactions:
            apply(transaction)
    return _transaction_pool(), run


def block_build() -> Op:
    make_block = load("repro.types.block:make_block")
    genesis, genesis_qc = load("repro.types.block:make_genesis")()
    transactions = _transactions(400)

    def run(n: int) -> None:
        for view in range(1, n + 1):
            make_block(view, genesis, genesis_qc, "r0", transactions)
    return (lambda n: n), run


def digest_block() -> Op:
    digest_strings = load("repro.crypto.digest:digest_strings")
    txids = [tx.txid for tx in _transactions(400)]

    def run(n: int) -> None:
        for _ in range(n):
            digest_strings(txids)
    return (lambda n: n), run


def crypto_sign(scheme: str) -> Op:
    sign = load("repro.crypto.signatures:sign")
    keypair = _registry(scheme).get("r1")

    def run(digests: list) -> None:
        for digest in digests:
            sign(keypair, digest)
    return (lambda n: [f"{i:064x}" for i in range(n)]), run


def crypto_verify(scheme: str) -> Op:
    sign = load("repro.crypto.signatures:sign")
    verify = load("repro.crypto.signatures:verify")
    registry = _registry(scheme)

    def prepare(n: int) -> list:
        # Distinct messages: a verified-signature cache must not turn this
        # into a lookup benchmark (crypto.verify_dup_share measures that).
        return [sign(registry.get("r1"), f"{i:064x}") for i in range(n)]

    def run(signatures: list) -> None:
        for signature in signatures:
            if not verify(registry, signature):
                raise RuntimeError("a genuine signature failed to verify")
    return prepare, run


def codec(kind: str, direction: str) -> Op:
    encode = load("repro.transport.codec:encode_message")
    decode = load("repro.transport.codec:decode_message")
    message = _proposal_message() if kind == "proposal" else _vote_message(_registry("hmac"))
    payload = encode(message)

    def run(n: int) -> None:
        if direction == "encode":
            for _ in range(n):
                encode(message)
        else:
            for _ in range(n):
                decode(payload)
    return (lambda n: n), run


def loopback_frame() -> Op:
    transport_cls = load("repro.transport.asyncio_net:AsyncioTransport")
    message = _vote_message(_registry("hmac"))

    def run(n: int) -> None:
        async def ship() -> None:
            transport = transport_cls()
            received = 0
            done = asyncio.Event()

            def deliver(_message: Any) -> None:
                nonlocal received
                received += 1
                if received == n:
                    done.set()

            transport.register("a", _noop)
            transport.register("b", deliver)
            await transport.start()
            try:
                for _ in range(n):
                    transport.send("a", "b", message)
                await asyncio.wait_for(done.wait(), timeout=30)
            finally:
                await transport.stop()
        asyncio.run(ship())
    return (lambda n: n), run


def experiments_expand() -> Op:
    spec_cls = load("repro.experiments.spec:ExperimentSpec")
    grid = {"protocol": ["hotstuff", "2chainhs", "streamlet"], "block_size": [100, 200, 400, 800]}

    def run(n: int) -> None:
        for _ in range(-(-n // 12)):
            for point in spec_cls(name="micro", grid=grid).expand():
                point.run_id
    return (lambda n: n), run


def experiments_store_add() -> Op:
    store_cls = load("repro.experiments.store:ResultStore")
    root = OUT / "micro-store"

    def prepare(n: int) -> Any:
        shutil.rmtree(root, ignore_errors=True)
        records = [{"run_id": f"{i:016x}", "campaign": "micro", "metrics": {"throughput_tps": 1.0 * i},
                    "config": {"protocol": "hotstuff", "num_nodes": 4}} for i in range(n)]
        return store_cls(root), records

    def run(state: Any) -> None:
        store, records = state
        try:
            for record in records:
                store.add(record)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return prepare, run


def obs_emit() -> Op:
    tracer_cls = load("repro.obs.trace:Tracer")
    category = load("repro.obs.trace:VIEW")

    def run(n: int) -> None:
        emit = tracer_cls().emit
        for view in range(n):
            emit(0.001 * view, "r0", category, "enter", view, None)
    return (lambda n: n), run


OPS: Dict[str, Tuple[Callable[[], Op], float]] = {
    # name: (factory, multiplier from seconds to the unit in the name)
    "sim.sched_post_pop_ns": (sched_post_pop, 1e9),
    "sim.sched_timer_cancel_ns": (sched_timer_cancel, 1e9),
    "sim.fifo_job_ns": (fifo_job, 1e9),
    "network.hop_ns": (lambda: network_hop(False), 1e9),
    "network.hop_faulty_ns": (lambda: network_hop(True), 1e9),
    "network.broadcast16_ns": (network_broadcast16, 1e9),
    "quorum.vote_certify_ns": (quorum_vote_certify, 1e9),
    "quorum.timeout_certify_ns": (quorum_timeout_certify, 1e9),
    "forest.add_commit_ns": (forest_add_commit, 1e9),
    "forest.truncate_ns": (forest_truncate, 1e9),
    "mempool.add_batch_ns": (mempool_add_batch, 1e9),
    "executor.apply_ns": (executor_apply, 1e9),
    "types.block_build_ns": (block_build, 1e9),
    "crypto.digest_block_ns": (digest_block, 1e9),
    "crypto.hmac_sign_ns": (lambda: crypto_sign("hmac"), 1e9),
    "crypto.hmac_verify_ns": (lambda: crypto_verify("hmac"), 1e9),
    "crypto.ed25519_sign_us": (lambda: crypto_sign("ed25519"), 1e6),
    "crypto.ed25519_verify_us": (lambda: crypto_verify("ed25519"), 1e6),
    "transport.encode_proposal_ns": (lambda: codec("proposal", "encode"), 1e9),
    "transport.decode_proposal_ns": (lambda: codec("proposal", "decode"), 1e9),
    "transport.encode_vote_ns": (lambda: codec("vote", "encode"), 1e9),
    "transport.decode_vote_ns": (lambda: codec("vote", "decode"), 1e9),
    "transport.loopback_frame_ns": (loopback_frame, 1e9),
    "experiments.expand_ns": (experiments_expand, 1e9),
    "experiments.store_add_ns": (experiments_store_add, 1e9),
    "obs.emit_ns": (obs_emit, 1e9),
}


def trace_overhead_share(repeats: int) -> float:
    """CPU of one small fault-free run under ``api.tracing()`` over the same run without."""
    api = load("repro.api:")
    config = {"protocol": "hotstuff", "num_nodes": 4, "block_size": 400, "payload_size": 128,
              "num_clients": 2, "concurrency": 400, "mempool_capacity": 4000,
              "runtime": 0.3 * repeats, "warmup": 0.1, "cooldown": 0.1, "seed": 1}

    def cpu(traced: bool) -> float:
        best = float("inf")
        for _ in range(repeats):
            gc.collect()
            started = time.process_time()
            if traced:
                with api.tracing():
                    api.run(config)
            else:
                api.run(config)
            best = min(best, time.process_time() - started)
        return best

    return cpu(True) / cpu(False)


def calib_ops_per_s(repeats: int) -> float:
    """A fixed pure-python loop (heap push/pop + sha256): how fast this host is right now."""
    best = float("inf")
    for _ in range(repeats):
        heap: list = []
        digest = hashlib.sha256()
        started = time.perf_counter()
        for i in range(20000):
            heapq.heappush(heap, ((i * 7919) % 10007, i))
            if i & 1:
                heapq.heappop(heap)
            digest.update(b"calibration")
        best = min(best, time.perf_counter() - started)
    return 20000 / best


#: Measured by their own routines rather than through ``measure``.
EXTRAS: Dict[str, Callable[[int], float]] = {
    "obs.trace_overhead_share": trace_overhead_share,
    "host.calib_ops_per_s": calib_ops_per_s,
}
NAMES = tuple(OPS) + tuple(EXTRAS)


def run_all(quick: bool = False) -> Dict[str, Any]:
    """Every micro-op: ``{"metrics": {name: value}, "unavailable": {name: reason}}``."""
    effort = QUICK if quick else FULL
    metrics: Dict[str, float] = {}
    unavailable: Dict[str, str] = {}
    for name in NAMES:
        try:
            if name in EXTRAS:
                metrics[name] = EXTRAS[name](effort["repeats"])
            else:
                factory, scale = OPS[name]
                metrics[name] = measure(factory(), **effort) * scale
        except Exception as exc:  # noqa: BLE001 - one broken op must not cost the others
            unavailable[name] = f"{type(exc).__name__}: {exc}"
    return {"metrics": metrics, "unavailable": unavailable}
