"""Seeded scenario generator: random-but-reproducible adversarial campaigns.

``generate_case(seed, index)`` draws one :class:`FuzzCase` — an ordinary
``Configuration`` plus a :class:`~repro.scenario.Scenario` fault timeline —
from ``random.Random(f"repro-fuzz:{seed}:{index}")``, so a campaign is a pure
function of ``(seed, budget)`` and the registered protocols and strategies:
the same pair regenerates byte-identical cases on any machine, any number of
times, in any process with the same registrations.  Each case is keyed by
the same :func:`~repro.experiments.spec.run_key` content hash ordinary
campaigns use, which is what makes fuzz campaigns resumable through a
:class:`~repro.experiments.store.ResultStore`.

The draws are *bounded by design* so that every generated case is one the
protocols are supposed to survive — any oracle violation is then a real bug,
not an over-aggressive schedule:

* the protocol cycles deterministically through the registered protocols
  (``PROTOCOLS.available()[index % len(...)]``, registration order), so any
  budget at least the number of protocols covers the full matrix — five
  built-ins, plus whatever the process registered;
* static Byzantine replicas plus scheduled faults never exceed ``f``
  *concurrently*: fault episodes are laid out sequentially (never
  overlapping), crash sets and partition minorities are capped at
  ``f - byzantine``, and ``set-byzantine`` conversions only fire while the
  permanent Byzantine total stays within ``f``;
* every transient fault heals inside the run (``quiet_after`` records the
  last heal), leaving a post-heal window for the conditional liveness
  oracle — cases whose window is too short, or that contain any permanent
  Byzantine replica (which can legitimately zero a chained protocol's
  throughput), are marked ineligible instead of producing false alarms;
* the quorum threshold stays at the safe default — the unsafe sub-``2f+1``
  knob exists for the negative-control test, not for the generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.bench.config import Configuration
from repro.core.byzantine import STRATEGIES
from repro.experiments.spec import DEFAULT_BUCKET, RunSpec, run_key
from repro.protocols.registry import PROTOCOLS
from repro.scenario import Scenario
from repro.scenario.events import (
    CrashReplica,
    NetworkFluctuation,
    Partition,
    RecoverReplica,
    ScenarioEvent,
    SetArrivalRate,
    SetByzantine,
)

#: Transient-fault episode kinds the generator schedules (see module doc).
EPISODE_KINDS = ("crash", "partition", "fluctuation", "set-rate", "set-byzantine")


@dataclass
class FuzzCase:
    """One generated adversarial run: config + fault timeline + metadata."""

    seed: int
    index: int
    config: Configuration
    scenario: Scenario
    #: Simulated time after which no scheduled fault remains active.
    quiet_after: float = 0.0
    #: Post-heal slack the liveness oracle grants before demanding commits.
    liveness_grace: float = 0.5
    #: Whether the conditional liveness oracle applies (the generator clears
    #: this when the post-heal window is too short; shrinking clears it too).
    liveness_eligible: bool = True

    @property
    def campaign(self) -> str:
        """Campaign name shared by every case of one fuzz seed."""
        return f"fuzz-{self.seed}"

    @property
    def run_id(self) -> str:
        """Content hash keying this case in a result store."""
        return run_key(self.config, self.scenario, DEFAULT_BUCKET)

    def params(self) -> Dict[str, Any]:
        """The record's ``params`` block: what varied, plus fuzz tags."""
        return {
            "protocol": self.config.protocol,
            "num_nodes": self.config.num_nodes,
            "byzantine_nodes": self.config.byzantine_nodes,
            "strategy": self.config.strategy,
            "_fuzz_seed": self.seed,
            "_fuzz_index": self.index,
            "_events": len(self.scenario.events),
        }

    def run_spec(self) -> RunSpec:
        """The equivalent ordinary campaign run (same payload, same hash)."""
        return RunSpec(
            campaign=self.campaign,
            index=self.index,
            repetition=0,
            params=self.params(),
            config=self.config,
            scenario=self.scenario,
            bucket=DEFAULT_BUCKET,
        )

    def with_changes(
        self,
        config: Optional[Configuration] = None,
        events: Optional[List[ScenarioEvent]] = None,
        duration: Optional[float] = None,
    ) -> "FuzzCase":
        """A variant case for shrinking: new config and/or timeline.

        Shrunken variants drop the liveness claim — removing a recovery (or
        shortening the run) legitimately changes what liveness means, and
        shrinking targets the safety oracle that already fired.
        """
        scenario = Scenario(
            name=self.scenario.name,
            events=list(self.scenario.events) if events is None else list(events),
            duration=self.scenario.duration if duration is None else duration,
        )
        return FuzzCase(
            seed=self.seed,
            index=self.index,
            config=config if config is not None else self.config,
            scenario=scenario,
            quiet_after=self.quiet_after,
            liveness_grace=self.liveness_grace,
            liveness_eligible=False,
        )

    # ------------------------------------------------------------------
    # (de)serialization — the replayable violation-artifact format
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "index": self.index,
            "config": self.config.to_dict(),
            "scenario": self.scenario.to_dict(),
            "quiet_after": self.quiet_after,
            "liveness_grace": self.liveness_grace,
            "liveness_eligible": self.liveness_eligible,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FuzzCase":
        return cls(
            seed=data.get("seed", 0),
            index=data.get("index", 0),
            config=Configuration.from_dict(data["config"]),
            scenario=Scenario.from_dict(data.get("scenario", {})),
            quiet_after=data.get("quiet_after", 0.0),
            liveness_grace=data.get("liveness_grace", 0.5),
            liveness_eligible=data.get("liveness_eligible", False),
        )


def generate_case(seed: int, index: int) -> FuzzCase:
    """Draw case ``index`` of fuzz campaign ``seed`` (pure and deterministic)."""
    rng = random.Random(f"repro-fuzz:{seed}:{index}")
    # Read from the registries at draw time, so protocols and strategies
    # registered after import are fuzzed too (and shift which case an index
    # draws).  Strategies: every registered non-honest one, for static
    # Byzantine replicas and ``set-byzantine`` conversions alike.
    protocols = PROTOCOLS.available()
    strategy_pool = [name for name in STRATEGIES.available() if name != "honest"]

    protocol = protocols[index % len(protocols)]
    num_nodes = rng.choice((4, 5, 6, 7))
    f = (num_nodes - 1) // 3
    byzantine = rng.choice((0, 0, 1, min(f, rng.randint(1, max(1, f)))))
    byzantine = min(byzantine, f)
    strategy = rng.choice(strategy_pool) if byzantine else "silence"

    view_timeout = rng.choice((0.05, 0.08, 0.1))
    block_size = rng.choice((10, 20, 50))
    open_loop = rng.random() < 0.4
    runtime = rng.choice((1.0, 1.5))

    config = Configuration(
        protocol=protocol,
        num_nodes=num_nodes,
        byzantine_nodes=byzantine,
        strategy=strategy,
        election=rng.choice(("round-robin", "hash")),
        block_size=block_size,
        mempool_capacity=10 * block_size,
        num_clients=2,
        concurrency=rng.choice((8, 16, 32)),
        arrival_rate=float(rng.choice((300, 600, 1200))) if open_loop else 0.0,
        extra_delay_mean=rng.choice((0.0, 0.0, 0.001, 0.003)),
        view_timeout=view_timeout,
        runtime=runtime,
        warmup=0.2,
        cooldown=0.4,
        seed=rng.randint(0, 2**31 - 1),
        cost_profile="fast",
    )

    events, quiet_after, byz_total = _draw_timeline(rng, config, strategy_pool)
    # Clients stop at warmup+runtime, so the post-heal commit window the
    # liveness oracle demands must fit inside the offered-load interval.
    grace = max(0.3, 4.0 * view_timeout)
    window = (config.warmup + config.runtime) - (quiet_after + grace)
    # Liveness is only demanded for benign-fault cases: a permanent Byzantine
    # replica can legitimately zero a chained protocol's throughput (e.g. a
    # silent leader in a 4-node round-robin rotation breaks HotStuff's
    # three-consecutive-views commit rule forever — the paper's Fig. 10/11
    # attack degradation).  Byzantine cases keep all the safety oracles.
    eligible = byz_total == 0 and window >= max(0.25, 3.0 * view_timeout)

    case = FuzzCase(
        seed=seed,
        index=index,
        config=config,
        scenario=Scenario(name=f"fuzz-{seed}-{index}", events=events),
        quiet_after=quiet_after,
        liveness_grace=grace,
        liveness_eligible=eligible,
    )
    case.config.validate()
    return case


def generate_cases(seed: int, budget: int, start: int = 0) -> List[FuzzCase]:
    """The first ``budget`` cases of campaign ``seed``, starting at ``start``."""
    return [generate_case(seed, index) for index in range(start, start + budget)]


def _draw_timeline(rng: random.Random, config: Configuration, strategy_pool: List[str]):
    """Sequential, non-overlapping fault episodes within the f-bound.

    Returns ``(events, quiet_after, permanent_byzantine_total)``.  Episodes
    occupy ``[warmup, warmup + 0.5 * runtime]`` so the tail of the offered
    load is a healed, quiet window the liveness oracle can demand commits in.
    """
    f = (config.num_nodes - 1) // 3
    node_ids = config.node_ids()
    byz_total = config.byzantine_nodes
    # Honest, non-observer replicas are the fault victims: r0 stays up so
    # the metrics/consistency observer always has a full view of the run.
    victims = [n for n in node_ids[1:] if n not in config.byzantine_ids()]

    events: List[ScenarioEvent] = []
    quiet_after = config.warmup
    cursor = config.warmup
    deadline = config.warmup + 0.5 * config.runtime

    for _ in range(rng.randint(0, 3)):
        start = round(cursor + rng.uniform(0.05, 0.15), 3)
        duration = round(rng.uniform(0.1, 0.25), 3)
        if start + duration > deadline:
            break
        kind = rng.choice(EPISODE_KINDS)
        transient_budget = f - byz_total  # concurrent faults still allowed

        if kind == "crash" and transient_budget >= 1:
            count = rng.randint(1, min(transient_budget, len(victims)))
            for victim in rng.sample(victims, count):
                events.append(CrashReplica(at=start, replica=victim))
                events.append(RecoverReplica(at=start + duration, replica=victim))
        elif kind == "partition" and transient_budget >= 1:
            size = rng.randint(1, min(transient_budget, len(victims)))
            minority = rng.sample(victims, size)
            majority = [n for n in node_ids if n not in minority]
            events.append(
                Partition(at=start, groups=[minority, majority], duration=duration)
            )
        elif kind == "fluctuation":
            events.append(
                NetworkFluctuation(
                    at=start,
                    duration=duration,
                    min_delay=0.001,
                    max_delay=round(0.2 * config.view_timeout, 4),
                )
            )
        elif kind == "set-rate" and config.arrival_rate > 0:
            factor = rng.choice((0.5, 1.5, 2.0))
            events.append(
                SetArrivalRate(at=start, rate=round(config.arrival_rate * factor, 1))
            )
        elif kind == "set-byzantine" and byz_total < f and victims:
            victim = rng.choice(victims)
            victims.remove(victim)  # permanently corrupted; no longer a victim
            byz_total += 1
            events.append(
                SetByzantine(
                    at=start, replica=victim, strategy=rng.choice(strategy_pool)
                )
            )
        else:
            continue  # kind not applicable under the current fault budget
        cursor = start + duration
        quiet_after = max(quiet_after, cursor)

    return events, quiet_after, byz_total
