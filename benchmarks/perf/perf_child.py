"""One repetition of one workload: inputs from a seed, a timed section, the facts.

``run.py`` spawns this in a fresh interpreter per repetition (heap carry-over
between back-to-back runs in one process costs up to 30 % deploy throughput),
so nothing here keeps state between calls.  A repetition

1. generates its inputs from the seed (:func:`inputs` — the program under test
   only ever sees these dicts),
2. does one small untimed warm-up run so lazy imports and registries are loaded,
3. ``gc.collect()``s, runs the timed section, and
4. reads every number it reports off public objects *after* the clock stopped.

The simulator is driven through ``repro.api`` only (``api.campaign`` /
``api.audit``); the finished clusters those calls would otherwise drop are read
through one class-level wrapper around ``Cluster.run`` (once per run, outside
the event loop).  Deploy mode is driven through ``DeploymentRunner`` so its
collector stays readable.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import heapq
import importlib
import json
import math
import random
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("sim_steady", "sim_faulty", "deploy_hmac", "deploy_ed25519")

#: Simulated seconds per point for each host second of timed section, sized on
#: the reference host so a sim repetition costs about as much CPU as a deploy
#: repetition costs wall (see README "Run structure").
STEADY_SIM_S_PER_HOST_S = 1.8
#: Fault cycles per protocol for each host second of timed section.
FAULTY_CYCLES_PER_HOST_S = 4.0

#: One sim_faulty fault cycle, in simulated seconds: crash r5 -> recover,
#: delay fluctuation while it catches up, isolate r4 -> heal, fluctuation
#: again, then 0.1 s quiet — a fault is live for 95 % of the cycle, never two
#: lossy faults at once (with the Byzantine replica that would leave exactly a
#: quorum, and this implementation's view synchronisation can then deadlock).
CYCLE_S = 2.0
CRASH_S, FLUCT_S, ISOLATE_S = 0.5, 0.5, 0.4
#: Open-loop rates, about a quarter of each protocol's measured n=7 capacity
#: under the forking attack (hotstuff/2chainhs ~1.8 kTx/s, streamlet ~0.6 kTx/s):
#: at these the median request already waits 0.8 s and failed_share is 0.27.
FAULTY_RATES = {"hotstuff": 400.0, "2chainhs": 400.0, "streamlet": 150.0}
STEADY_POINTS = (
    {"protocol": "hotstuff", "num_nodes": 4},
    {"protocol": "2chainhs", "num_nodes": 4},
    {"protocol": "streamlet", "num_nodes": 4},
    {"protocol": "hotstuff", "num_nodes": 16},
)


def load(dotted: str) -> Any:
    """Resolve ``"package.module:attr.attr"`` lazily (ImportError/AttributeError on a miss)."""
    module_name, _, path = dotted.partition(":")
    target = importlib.import_module(module_name)
    for part in filter(None, path.split(".")):
        target = getattr(target, part)
    return target


def dig(obj: Any, path: str, default: Any = 0) -> Any:
    """``obj.a.b.c`` with a default, so a renamed stats field costs one layer metric, not the run."""
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return default
    return obj


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def sizes(workload: str, rep_seconds: float, quick: bool) -> Dict[str, float]:
    """How much work one repetition does, from its share of ``--seconds``."""
    if workload == "sim_steady":
        return {"runtime": 0.25 if quick else STEADY_SIM_S_PER_HOST_S * rep_seconds}
    if workload == "sim_faulty":
        cycles = 1 if quick else max(1, round(FAULTY_CYCLES_PER_HOST_S * rep_seconds))
        return {"cycles": cycles}
    return {"runtime": 0.4 if quick else rep_seconds, "edge": 0.15 if quick else 0.5}


def fault_events(start: float, cycles: int) -> List[Dict[str, Any]]:
    """The sim_faulty timeline: ``cycles`` back-to-back fault cycles from ``start``."""
    majority_without_r4 = ["r0", "r1", "r2", "r3", "r5", "r6"]
    fluctuation = {"kind": "network-fluctuation", "duration": FLUCT_S,
                   "min_delay": 0.005, "max_delay": 0.05}
    events: List[Dict[str, Any]] = []
    for i in range(cycles):
        t = start + i * CYCLE_S
        events += [
            {"kind": "crash-replica", "at": t, "replica": "r5"},
            {"kind": "recover-replica", "at": t + CRASH_S, "replica": "r5"},
            {**fluctuation, "at": t + CRASH_S},
            {"kind": "partition", "at": t + CRASH_S + FLUCT_S,
             "groups": [["r4"], majority_without_r4], "duration": ISOLATE_S},
            {**fluctuation, "at": t + CRASH_S + FLUCT_S + ISOLATE_S},
        ]
    return events


def inputs(workload: str, seed: int, size: Dict[str, float]) -> Dict[str, Any]:
    """Everything the program under test receives for one repetition (plain dicts)."""
    common = {"block_size": 400, "payload_size": 128, "num_clients": 2, "seed": seed}
    if workload == "sim_steady":
        # Closed loop at saturation: 2 x 400 outstanding fill every 400-Tx block.
        base = {**common, "concurrency": 400, "cost_profile": "standard",
                "base_delay_mean": 0.25e-3, "base_delay_stddev": 0.05e-3,
                "bandwidth_bps": 125_000_000.0, "view_timeout": 0.5,
                "request_timeout": 5.0, "mempool_capacity": 4000,
                "runtime": size["runtime"], "warmup": 0.2, "cooldown": 0.5}
        return {"spec": {"name": "perf-sim-steady", "base": base,
                         "points": [dict(p) for p in STEADY_POINTS]}}
    if workload == "sim_faulty":
        # Ten view timeouts.  Measured over seeds 1-8: with 5 s, p50/p95 (1.0 s /
        # 3.4 s) differ 8 % / 7 % between seeds and 8 % of requests fail; cut at
        # 2 s the slow tail counts against failed_share instead (0.27) and
        # p50/p95 hold to 4 % / 1.5 %.
        warmup, request_timeout = 0.2, 2.0
        runtime = size["cycles"] * CYCLE_S
        base = {**common, "num_nodes": 7, "byzantine_nodes": 1, "strategy": "forking",
                "election": "hash", "checkpoint_interval": 50,
                "cost_profile": "standard", "view_timeout": 0.2,
                "request_timeout": request_timeout, "mempool_capacity": 20000,
                "runtime": runtime, "warmup": warmup,
                # Every request issued in the window resolves (reply or timeout).
                "cooldown": request_timeout + 0.2}
        scenario = {"name": "perf-fault-cycles", "events": fault_events(warmup, size["cycles"])}
        return {"cases": [
            {"config": {**base, "protocol": protocol, "arrival_rate": rate},
             "scenario": scenario}
            for protocol, rate in FAULTY_RATES.items()
        ]}
    signing = workload.rpartition("_")[2]
    return {"config": {
        **common, "mode": "deploy", "protocol": "hotstuff", "num_nodes": 4,
        "signing": signing,
        # ed25519 costs ~4 ms per signature: 2 x 10 outstanding already saturate it.
        "concurrency": 200 if signing == "hmac" else 10,
        "view_timeout": 2.0, "request_timeout": 5.0, "mempool_capacity": 4000,
        # Without checkpoints every replica keeps every block, so peak RSS would
        # just count the transactions a faster host pushed through the window.
        "checkpoint_interval": 50,
        "runtime": size["runtime"], "warmup": size["edge"], "cooldown": size["edge"],
    }}


# ----------------------------------------------------------------------
# reading a finished run
# ----------------------------------------------------------------------
def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def read_run(system: Any, config: Any) -> Dict[str, Any]:
    """Snapshot a finished cluster (simulated ``Cluster`` or ``DeploymentRunner``).

    Keeps the metrics collector (raw samples, no back-references) and plain
    counters; the replicas, forests and network can be freed.
    """
    by_id = dig(system, "replicas", {})
    replicas = list(by_id.values())
    byzantine = set(config.byzantine_ids())
    honest = [r for r in replicas if r.node_id not in byzantine]
    fingerprint = ""
    if honest:
        common = min(r.forest.committed_height for r in honest)
        fingerprint = f"{common}:{honest[0].forest.consistency_hash(common)}"
    net = getattr(system, "network", None) or getattr(system, "transport", None)
    clock = getattr(system, "scheduler", None) or getattr(system, "clock", None)
    observer = by_id.get(dig(system, "observer_id", ""))
    clients = dig(system, "clients", [])
    return {
        "protocol": config.protocol,
        "collector": system.metrics,
        "window": (config.warmup, config.warmup + config.runtime),
        "request_timeout": config.request_timeout,
        "fingerprint": fingerprint,
        "events": dig(clock, "processed_events"),
        "msgs": dig(net, "stats.messages_sent"),
        "bytes": dig(net, "stats.bytes_sent"),
        "views": dig(observer, "pacemaker.stats.highest_view"),
        "view_timeouts": sum(dig(r, "pacemaker.stats.local_timeouts") for r in honest),
        "safety_violations": sum(dig(r, "stats.safety_violations") for r in honest),
        "forest_blocks": max((len(r.forest) for r in replicas), default=0),
        "requests_sent": sum(dig(c, "requests_sent") for c in clients),
    }


def summarize_run(run: Dict[str, Any]) -> Dict[str, Any]:
    """Latency percentiles and outcome counts for requests *issued* in the window.

    Windowing by issue time (reply time minus latency) rather than reply time
    is what makes the open-loop numbers honest: a request due during an outage
    is counted with the full wait it suffered, even if the reply lands later.
    """
    collector = run["collector"]
    start, end = run["window"]
    latencies = sorted(
        lat for now, lat in collector.latencies if start <= now - lat <= end
    )
    timeouts = sum(1 for t in collector.timeouts if start <= t - run["request_timeout"] <= end)
    rejections = sum(1 for t in collector.rejections if start <= t <= end)
    commits = [b for b in collector.committed_blocks if start <= b.committed_at <= end]
    point = {k: v for k, v in run.items() if k not in ("collector", "window", "request_timeout")}
    point.update(
        tx=sum(b.num_transactions for b in commits),
        blocks=len(commits),
        commit_times=[b.committed_at for b in collector.committed_blocks],
        replies=len(latencies),
        timeouts=timeouts,
        rejections=rejections,
        p50_ms=percentile(latencies, 0.50) * 1e3 if latencies else 0.0,
        p95_ms=percentile(latencies, 0.95) * 1e3 if latencies else 0.0,
    )
    return point


class HostSpeed:
    """How fast this host runs *right now*, sampled between chunks of timed work.

    The reference host is a shared 2-core VM whose effective speed moves
    between plateaus up to 2x apart and seconds long (noisy neighbours), which
    puts a 10-25 % spread on any raw host-time figure.  A ~4 ms calibration
    slice every ~80 ms of work follows those plateaus, so host-time metrics
    are reported in *reference seconds*: measured seconds x the speed sampled
    next to them, where speed 1.0 is ``REFERENCE_RATE`` kernel iterations per
    CPU second.  The kernel must slow down the way the workload does: an
    object-heavy one (heap of tuples, dict of strings, bound methods on small
    objects over a ~10 MB working set) for the simulator and the hmac
    deployment, big-integer arithmetic for the ed25519 deployment.  Measured on
    repetitions of identical work: spread 12 % raw, 6 % with the wrong kernel,
    1.5-3 % with the matching one.
    """

    REFERENCE_RATE = {"objects": 400_000.0, "bigint": 800_000.0}
    SLICE = {"objects": 1500, "bigint": 3000}

    class _Node:
        __slots__ = ("value",)

        def __init__(self, value: int) -> None:
            self.value = value

        def bump(self, by: int) -> int:
            self.value += by
            return self.value

    def __init__(self, kind: str, clock: Callable[[], float], profiler: Any = None) -> None:
        self.kind = kind
        #: The clock the workload's own metrics run on: CPU time for a
        #: simulation, real time for a deployment — there a slice must also see
        #: the time the hypervisor takes away, which CPU time does not count
        #: (measured: in a throttled spell real throughput halved while CPU-timed
        #: slices slowed by a third).
        self.clock = clock
        #: Paused around every slice while ``profiling`` (set by :class:`Timed`).
        self.profiler = profiler
        self.profiling = False
        #: CPU the slices themselves used; not part of the timed work.
        self.cpu_s = 0.0
        self.samples: List[float] = []
        self._rng = random.Random(1)
        self._pool = [self._Node(i) for i in range(50_000)]
        self._table = {f"k{i}": i for i in range(50_000)}

    def _objects(self, n: int) -> None:
        heap: list = []
        push, pop, rng, pool, table = heapq.heappush, heapq.heappop, self._rng, self._pool, self._table
        for i in range(n):
            j = rng.randrange(50_000)
            push(heap, (rng.gauss(1.0, 0.1) + i * 1e-3, i, pool[j].bump, (j,)))
            table[f"k{j}"] = table.get(f"k{(j * 7) % 50_000}", 0) + 1
            if i & 1:
                entry = pop(heap)
                entry[2](*entry[3])

    @staticmethod
    def _bigint(n: int) -> None:
        p = 2 ** 255 - 19
        x, y = 0x1234567890ABCDEF ** 3 % p, 0x0FEDCBA987654321 ** 3 % p
        for i in range(n):
            x = (x * y + i) % p
            y = (y * y + x) % p
            x = (x * x - y) % p

    def sample(self) -> float:
        """Run one slice; return (and remember) the host speed it saw."""
        if self.profiling:
            self.profiler.disable()
        # A full collection triggered by the slice's own allocations would
        # bill the workload's heap to the calibration.
        collecting = gc.isenabled()
        gc.disable()
        n = self.SLICE[self.kind]
        cpu_started, started = time.process_time(), self.clock()
        (self._objects if self.kind == "objects" else self._bigint)(n)
        elapsed = self.clock() - started
        if collecting:
            gc.enable()
        if self.profiling:
            self.profiler.enable()
        self.cpu_s += time.process_time() - cpu_started
        speed = n / elapsed / self.REFERENCE_RATE[self.kind]
        self.samples.append(speed)
        return speed

    def settle(self) -> float:
        """Speed at the end of set-up: three slices, since nothing surrounds them."""
        return sum(self.sample() for _ in range(3)) / 3

    def mean(self) -> float:
        return sum(self.samples) / len(self.samples)


class Harvest:
    """Runs each simulation in chunks with a speed sample between them, and reads
    the finished cluster before ``api`` drops it.

    ``Cluster.run`` is called once per experiment, outside the event loop, so
    it is wrapped at class level: the horizon is reached in steps of
    ``chunk_s`` simulated seconds (``run_until`` resumes exactly, the events
    and their order are those of one call), each step's CPU time is weighted
    by the host speed sampled around it, and the cluster is snapshotted at the
    end.  CPU outside ``Cluster.run`` (build, summarise, consistency check,
    spec expansion, store) is the harness overhead reported as
    ``experiments.overhead_share``.
    """

    def __init__(self, speed: HostSpeed, chunk_s: float) -> None:
        self.speed = speed
        self.chunk_s = chunk_s
        self.runs: List[Dict[str, Any]] = []
        self.cpu_in_run = 0.0
        self.ref_in_run = 0.0
        self._cluster_cls: Any = None
        self._original: Optional[Callable] = None

    def __enter__(self) -> "Harvest":
        self._cluster_cls = load("repro.bench.runner:Cluster")
        original = self._original = self._cluster_cls.run
        harvest = self

        def run(cluster: Any, until: Optional[float] = None) -> None:
            horizon = until if until is not None else cluster.config.total_duration
            scheduler = cluster.scheduler
            before = harvest.speed.sample()
            while scheduler.now < horizon:
                step = min(horizon, scheduler.now + harvest.chunk_s)
                started = time.process_time()
                original(cluster, until=step)
                cpu = time.process_time() - started
                after = harvest.speed.sample()
                harvest.cpu_in_run += cpu
                harvest.ref_in_run += cpu * (before + after) / 2
                before = after
            harvest.runs.append(read_run(cluster, cluster.config))

        self._cluster_cls.run = run
        return self

    def __exit__(self, *exc: Any) -> None:
        self._cluster_cls.run = self._original


# ----------------------------------------------------------------------
# the timed sections
# ----------------------------------------------------------------------
class Timed:
    """CPU and wall clocks around the timed section; profiles it when ``speed`` has a profiler."""

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self.t0_mono = self.cpu_s = self.wall_s = 0.0

    def __enter__(self) -> "Timed":
        gc.collect()
        self.t0_mono = time.monotonic()
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        if self.speed.profiler is not None:
            self.speed.profiling = True
            self.speed.profiler.enable()
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.speed.profiling:
            self.speed.profiler.disable()
            self.speed.profiling = False
        self.cpu_s = time.process_time() - self._cpu
        self.wall_s = time.perf_counter() - self._wall


def digest_of(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def sim_facts(harvest: Harvest, timed: Timed) -> Dict[str, Any]:
    """Timed work of a simulator repetition in reference seconds (calibrated CPU)."""
    cpu = timed.cpu_s - harvest.speed.cpu_s
    outside = cpu - harvest.cpu_in_run
    return {"timed": timed, "runs": harvest.runs, "cpu_s": cpu, "cpu_in_run": harvest.cpu_in_run,
            "ref_s": harvest.ref_in_run + outside * harvest.speed.mean(),
            "speed": harvest.speed.mean()}


def rep_sim_steady(data: Dict[str, Any], warm: Dict[str, Any], speed: HostSpeed) -> Dict[str, Any]:
    api = load("repro.api:")
    store = OUT / f"store-{time.monotonic_ns()}"
    try:
        api.campaign(warm["spec"], workers=1, store=str(store / "warm"))
        setup_speed = speed.settle()
        with Harvest(speed, chunk_s=0.5) as harvest, Timed(speed) as timed:
            result = api.campaign(data["spec"], workers=1, store=str(store / "timed"))
    finally:
        shutil.rmtree(store, ignore_errors=True)
    errors = [
        f"{r['params']}: consistent={r['consistent']} "
        f"safety_violations={r['metrics']['safety_violations']}"
        for r in result.records
        if not r["consistent"] or r["metrics"]["safety_violations"]
    ]
    if result.executed != len(data["spec"]["points"]):
        errors.append(f"campaign executed {result.executed} runs, not every point")
    records = [[r["metrics"], r["highest_view"], r["consistent"]] for r in result.records]
    return {**sim_facts(harvest, timed), "setup_speed": setup_speed,
            "errors": errors, "records": records}


def rep_sim_faulty(data: Dict[str, Any], warm: Dict[str, Any], speed: HostSpeed) -> Dict[str, Any]:
    api = load("repro.api:")
    for case in warm["cases"]:
        api.audit(case["config"], case["scenario"])
    setup_speed = speed.settle()
    with Harvest(speed, chunk_s=CYCLE_S) as harvest, Timed(speed) as timed:
        outcomes = [api.audit(case["config"], case["scenario"]) for case in data["cases"]]
    errors = []
    for case, outcome in zip(data["cases"], outcomes):
        name = case["config"]["protocol"]
        errors += [f"{name}: {v.oracle}: {v.detail}" for v in outcome.violations]
        if not outcome.record["consistent"]:
            errors.append(f"{name}: honest replicas diverged")
    records = [[o.record["metrics"], o.record["highest_view"], o.fingerprint] for o in outcomes]
    return {**sim_facts(harvest, timed), "setup_speed": setup_speed,
            "errors": errors, "records": records}


def rep_deploy(data: Dict[str, Any], _warm: Dict[str, Any], speed: HostSpeed) -> Dict[str, Any]:
    # No separate warm-up run: the deployment's own warm-up interval (excluded
    # from the window) loads every lazy path, and a second cluster in this
    # process would leave its heap behind for the measured one.
    api = load("repro.api:")
    runner_cls = load("repro.transport.runtime:DeploymentRunner")
    config = api.load_config(data["config"])
    window = (config.warmup, config.warmup + config.runtime)
    errors: List[str] = []
    in_window: List[float] = []

    async def pace(runner: Any) -> None:
        # One slice every 100 ms on the deployment's own loop (~4 % of its CPU,
        # the same on every commit): the speed the window actually ran at.
        while True:
            await asyncio.sleep(0.1)
            sample = speed.sample()
            if window[0] <= runner.clock.now <= window[1]:
                in_window.append(sample)

    async def drive() -> Tuple[Any, Timed]:
        runner = runner_cls(config)
        await runner.start()
        pacing = asyncio.get_running_loop().create_task(pace(runner))
        try:
            with Timed(speed) as timed:
                await runner.run()
        except Exception as exc:  # noqa: BLE001 - a handler error fails the run, loudly
            errors.append(f"deployment failed: {exc!r}")
        finally:
            pacing.cancel()
            await runner.stop()
        return runner, timed

    setup_speed = speed.settle()
    runner, timed = asyncio.run(drive())
    errors += [f"handler error: {exc!r}" for exc in dig(runner, "transport.errors", [])]
    if not runner.consistency_check():
        errors.append("honest replicas diverged")
    window_speed = sum(in_window) / len(in_window) if in_window else speed.mean()
    return {"timed": timed, "runs": [read_run(runner, config)],
            "cpu_s": timed.cpu_s - speed.cpu_s, "cpu_in_run": 0.0,
            # Real seconds of measurement window, in reference seconds.
            "window_s": config.runtime,
            "ref_s": config.runtime * window_speed, "speed": window_speed,
            "setup_speed": setup_speed, "errors": errors, "records": None}


def crash_outage_ms(data: Dict[str, Any], points: List[Dict[str, Any]]) -> float:
    """Mean simulated time from each crash to the observer's next commit."""
    gaps = []
    for case, point in zip(data.get("cases", []), points):
        commits = point["commit_times"]
        for event in case["scenario"]["events"]:
            if event["kind"] == "crash-replica":
                later = [t for t in commits if t >= event["at"]]
                if later:
                    gaps.append(later[0] - event["at"])
    return 1e3 * sum(gaps) / len(gaps) if gaps else 0.0


def prepare() -> None:
    """Make ``repro`` and the sibling modules importable and the scratch directory exist."""
    for entry in (str(SRC), str(HERE)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    OUT.mkdir(exist_ok=True)


def repetition(workload: str, seed: int, rep_seconds: float, quick: bool = False,
               traced: bool = False) -> Dict[str, Any]:
    """Run one repetition in this process and return its facts as a JSON-able dict."""
    prepare()
    data = inputs(workload, seed, sizes(workload, rep_seconds, quick))
    warm = inputs(workload, seed, sizes(workload, 0.0, True))
    layers = importlib.import_module("perf_layers") if traced else None
    speed = HostSpeed("bigint" if workload == "deploy_ed25519" else "objects",
                      clock=time.process_time if workload.startswith("sim") else time.perf_counter,
                      profiler=layers.new_profiler() if traced else None)
    run_rep = {"sim_steady": rep_sim_steady, "sim_faulty": rep_sim_faulty}.get(workload, rep_deploy)
    if traced:
        with layers.CallCounters(deploy=workload.startswith("deploy")) as counters:
            out = run_rep(data, warm, speed)
    else:
        out = run_rep(data, warm, speed)

    timed: Timed = out["timed"]
    sim = workload.startswith("sim")
    points = [summarize_run(run) for run in out["runs"]]
    errors = list(out["errors"])
    errors += [f"{p['protocol']}: {p['safety_violations']} safety violation(s)"
               for p in points if p["safety_violations"]]
    errors += [f"{p['protocol']}: no committed reply in the window"
               for p in points if not p["replies"]]
    total = {k: sum(p[k] for p in points) for k in
             ("tx", "blocks", "replies", "timeouts", "rejections", "events", "msgs",
              "bytes", "view_timeouts", "requests_sent")}
    if not sim and total["timeouts"] + total["rejections"]:
        errors.append(f"{total['timeouts']} timeouts and {total['rejections']} rejections "
                      "on a fault-free loopback deployment")
    collectors = [run["collector"] for run in out["runs"]]
    answered = all(p["replies"] for p in points)
    # Simulated latency is exact; real latency is host time, so it is put in
    # reference milliseconds like every other host-time figure.
    latency_scale = 1.0 if sim else out["speed"]
    p50_ms = geomean([p["p50_ms"] for p in points]) if answered else 0.0
    p95_ms = geomean([p["p95_ms"] for p in points]) if answered else 0.0
    tx = max(total["tx"], 1)
    result: Dict[str, Any] = {
        "workload": workload, "seed": seed, "errors": errors,
        "inputs_digest": digest_of(data),
        "t0_mono": timed.t0_mono, "setup_speed": out["setup_speed"],
        "cpu_s": out["cpu_s"], "wall_s": timed.wall_s,
        "ref_s": out["ref_s"], "speed": out["speed"],
        # Their raw counterparts, in this host's own seconds as the issue defines
        # them: CPU seconds of a simulation, real seconds of a deployment's window.
        "raw_s": out["cpu_s"] if sim else out["window_s"],
        "raw_p50_ms": p50_ms, "raw_p95_ms": p95_ms,
        "tx": total["tx"], "replies": total["replies"],
        "timeouts": total["timeouts"], "rejections": total["rejections"],
        "p50_ms": latency_scale * p50_ms, "p95_ms": latency_scale * p95_ms,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": digest_of([out["records"], [p["fingerprint"] for p in points]]) if sim else "",
        "points": [{k: v for k, v in p.items() if k != "commit_times"} for p in points],
        "counts": {
            "sim.events_per_tx": total["events"] / tx,
            "network.msgs_per_tx": total["msgs"] / tx,
            "network.bytes_per_tx": total["bytes"] / tx,
            "mempool.tx_per_block": total["tx"] / max(total["blocks"], 1),
            "pacemaker.views": sum(p["views"] for p in points),
            "pacemaker.timeouts": total["view_timeouts"],
            "pacemaker.outage_ms": crash_outage_ms(data, points),
            "forest.peak_blocks": max([p["forest_blocks"] for p in points]
                                      + [dig(c, "peak_forest_blocks") for c in collectors]),
            "client.attempted": total["requests_sent"],
            "client.timeouts": total["timeouts"],
            "client.rejections": total["rejections"],
            "client.latency_samples": total["replies"],
            "experiments.points_per_s": len(points) / out["cpu_s"],
            "experiments.overhead_share": 1.0 - out["cpu_in_run"] / out["cpu_s"] if sim else 0.0,
            "transport.cpu_share": out["cpu_s"] / timed.wall_s,
            "host.speed_ratio": out["speed"],
        },
    }
    # Cluster-wide totals the collector already keeps (not windowed).
    for name, field in (("forest.forked_blocks", "blocks_forked"),
                        ("sync.rounds", "sync_rounds"),
                        ("sync.blocks_fetched", "sync_blocks_fetched"),
                        ("checkpoint.taken", "checkpoints_taken"),
                        ("checkpoint.snapshots_installed", "snapshots_installed")):
        values = [dig(c, field) for c in collectors]
        result["counts"][name] = sum(len(v) if isinstance(v, list) else v for v in values)
    if traced:
        result["profile"] = layers.attribute(speed.profiler)
        result["calls"] = counters.per_tx(tx)
    return result
