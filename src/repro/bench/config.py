"""Experiment configuration (the simulation analogue of Table I).

A :class:`Configuration` captures everything needed to build and run one
experiment: the protocol, the cluster, the Byzantine setup, the workload, the
network conditions, and the simulation horizon.  It can be serialized to and
from a JSON-compatible dict, mirroring Bamboo's JSON configuration file.

The name-valued fields (``protocol``, ``strategy``, ``election``) are
exact registry names — any implementation registered through
:mod:`repro.plugins` is selectable here under the name it was registered
with — and :meth:`Configuration.validate` checks them (plus the n ≥ 3f+1
bound and value ranges) with errors that say what is available;
``build_cluster`` calls it before wiring anything.  Every value's class is
checked on construction, however the configuration is built.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List


class ConfigurationError(ValueError):
    """A configuration failed :meth:`Configuration.validate`."""


def _refuse(problems: List[str]) -> None:
    """Raise one :class:`ConfigurationError` listing ``problems``, if any
    (a single problem on one line)."""
    if len(problems) == 1:
        raise ConfigurationError(f"invalid configuration: {problems[0]}")
    if problems:
        raise ConfigurationError(
            "invalid configuration:\n  - " + "\n  - ".join(problems)
        )


#: The classes a field's value may have, per declared field type (``bool``
#: is not an ``int`` here, and an int is a float, stored as one).
_ACCEPTS = {"str": (str,), "int": (int,), "float": (float, int)}


@dataclass
class Configuration:
    """All knobs for one experiment run."""

    # --- protocol and cluster -----------------------------------------
    protocol: str = "hotstuff"
    num_nodes: int = 4
    #: Number of Byzantine replicas (Table I's ``byzNo``).
    byzantine_nodes: int = 0
    #: Byzantine strategy (Table I's ``strategy``): a name from the
    #: STRATEGIES registry — "silence", "forking", "equivocate",
    #: "delayed-proposal", "omission", "omission-delay" or "honest".
    strategy: str = "silence"
    #: Static leader node id; empty string means rotating leaders
    #: (Table I's ``master`` with 0 meaning rotation).
    master: str = ""
    #: Leader election kind when ``master`` is empty: a name from the
    #: ELECTIONS registry — "round-robin" (Bamboo's default rotation) or
    #: "hash" (per-view pseudo-random leaders, the "chosen at random"
    #: description of §II-A).  A fixed leader is chosen by setting
    #: ``master``, not by a kind.  The Byzantine-attack benchmarks use
    #: "hash" so that attack damage is spread uniformly over honest
    #: proposers instead of always hitting the same rotation slots.
    election: str = "round-robin"

    # --- block / mempool / workload ------------------------------------
    #: Transactions per block (Table I's ``bsize``).
    block_size: int = 400
    #: Mempool capacity (Table I's ``memsize``).
    mempool_capacity: int = 1000
    #: Transaction payload size in bytes (Table I's ``psize``).
    payload_size: int = 0
    #: Number of client processes (the paper uses 2 client VMs).
    num_clients: int = 2
    #: Outstanding requests per closed-loop client (Table I's ``concurrency``).
    concurrency: int = 10
    #: If positive, use open-loop Poisson clients with this *total* rate
    #: (transactions per second across all clients) instead of closed-loop.
    arrival_rate: float = 0.0
    #: Client-side request timeout: a closed-loop client that has not heard a
    #: reply within this many seconds gives up on the request and re-submits
    #: a fresh one to another randomly chosen replica (this is what keeps a
    #: benchmark client alive when its request landed on a silent or starved
    #: replica).
    request_timeout: float = 1.0

    # --- network --------------------------------------------------------
    #: Mean / stddev of the base one-way LAN delay (seconds).
    base_delay_mean: float = 0.25e-3
    base_delay_stddev: float = 0.05e-3
    #: Additional configured one-way delay (Table I's ``delay``), mean/stddev.
    extra_delay_mean: float = 0.0
    extra_delay_stddev: float = 0.0
    #: NIC bandwidth in bytes per second.
    bandwidth_bps: float = 125_000_000.0

    # --- quorums ---------------------------------------------------------
    #: Votes required to form a QC; 0 means the safe default
    #: ``quorum_size(n) = n - f``.  Explicit values model flexible-quorum
    #: deployments (a qc_threshold knob à la flexible_bft).  Values below
    #: 2f+1 make quorums stop intersecting in an honest replica — the fuzz
    #: harness's negative control sets 2 here to prove its agreement oracle
    #: can actually trip.
    quorum_threshold: int = 0

    # --- timing ----------------------------------------------------------
    #: Pacemaker timeout (Table I's ``timeout``), seconds.
    view_timeout: float = 0.1
    #: Extra wait a leader observes before proposing when its view started
    #: with a timeout certificate: 0 proposes as soon as 2f+1 messages are
    #: in (the responsiveness experiment's first setting), the view timeout
    #: models the second.
    propose_wait_after_tc: float = 0.0
    #: Measured portion of the run (Table I's ``runtime``), simulated seconds.
    runtime: float = 5.0
    #: Warm-up excluded from measurements, simulated seconds.
    warmup: float = 0.5
    #: Extra simulated time after the measured window to let commits drain.
    cooldown: float = 0.5

    # --- checkpointing -----------------------------------------------------
    #: Take a checkpoint (snapshot executor state, truncate the forest below
    #: it) every this many committed blocks; 0 disables checkpointing.  With
    #: it on, a long run's forest holds O(checkpoint_interval) blocks instead
    #: of O(run length), with committed metrics unchanged (see
    #: :mod:`repro.checkpoint`).  A peer asked for blocks below its
    #: checkpoint answers with a snapshot instead.
    checkpoint_interval: int = 0

    # --- simulation ------------------------------------------------------
    seed: int = 1
    #: Cost profile name ("standard", "fast", "ohs") — see bench.profiles.
    cost_profile: str = "standard"

    # --- execution mode --------------------------------------------------
    #: "model" runs the discrete-event simulation; "deploy" runs the same
    #: protocol stack over real asyncio TCP with wall-clock timers (see
    #: :mod:`repro.transport`).  One configuration can run both, which is
    #: what regenerates the paper's model-vs-implementation fig8.
    mode: str = "model"
    #: Signing scheme: "hmac" (simulated tags, crypto cost modeled),
    #: "ed25519" (real signatures, crypto cost measured), or "auto" —
    #: hmac in model mode, ed25519 in deploy mode.
    signing: str = "auto"

    def __post_init__(self) -> None:
        problems: List[str] = []
        for name, kind in _TYPES.items():
            value = getattr(self, name)
            if value.__class__ not in _ACCEPTS[kind]:
                problems.append(
                    f"{name}: expected {kind}, got {type(value).__name__} {value!r}"
                )
            elif kind == "float" and value.__class__ is int:
                # One run, one id: 1 and 1.0 must not serialise apart.
                setattr(self, name, float(value))
        _refuse(problems)
        if self.num_nodes < 1:
            problems.append(f"num_nodes: must be at least 1, got {self.num_nodes}")
        elif not 0 <= self.byzantine_nodes < self.num_nodes:
            problems.append(
                f"byzantine_nodes: must be in [0, num_nodes); got "
                f"{self.byzantine_nodes} with num_nodes {self.num_nodes}"
            )
        for name in ("block_size", "runtime"):
            if getattr(self, name) <= 0:
                problems.append(f"{name}: must be positive, got {getattr(self, name)}")
        for name in ("warmup", "cooldown"):
            if getattr(self, name) < 0:
                problems.append(f"{name}: must be non-negative, got {getattr(self, name)}")
        _refuse(problems)

    # ------------------------------------------------------------------
    # derived values
    # ------------------------------------------------------------------
    def node_ids(self) -> List[str]:
        """Replica identifiers, r0..r{n-1}."""
        return [f"r{i}" for i in range(self.num_nodes)]

    def client_ids(self) -> List[str]:
        """Client identifiers, c0..c{m-1}."""
        return [f"c{i}" for i in range(self.num_clients)]

    def resolved_signing(self) -> str:
        """The effective signing scheme once ``"auto"`` is resolved."""
        if self.signing != "auto":
            return self.signing
        return "ed25519" if self.mode == "deploy" else "hmac"

    def byzantine_ids(self) -> List[str]:
        """Ids of the Byzantine replicas (the highest-numbered ones).

        Keeping r0 honest guarantees the metrics observer is honest.
        """
        ids = self.node_ids()
        if self.byzantine_nodes == 0:
            return []
        return ids[-self.byzantine_nodes:]

    @property
    def total_duration(self) -> float:
        """Total simulated time: warmup + measured runtime + cooldown."""
        return self.warmup + self.runtime + self.cooldown

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> "Configuration":
        """Check the configuration against the registries and the BFT bound.

        Collects *all* problems and raises one :class:`ConfigurationError`
        listing them (a single problem on one line), so a bad config file is
        fixed in one round trip.
        Returns ``self`` so it can be chained (``config.validate()``).
        """
        # Imported here: config is a leaf module the registries' modules use.
        from repro.bench.profiles import available_profiles
        from repro.core.byzantine import STRATEGIES
        from repro.election.election import ELECTIONS
        from repro.protocols.registry import PROTOCOLS

        problems: List[str] = []

        def check_registry(field_name: str, value: str, registry) -> None:
            if value not in registry:
                problems.append(
                    f"{field_name}: unknown {registry.kind} {value!r}; "
                    f"available: {', '.join(registry.available())}"
                )

        check_registry("protocol", self.protocol, PROTOCOLS)
        if self.byzantine_nodes > 0:
            check_registry("strategy", self.strategy, STRATEGIES)
            quorum_bound = 3 * self.byzantine_nodes + 1
            if self.num_nodes < quorum_bound:
                problems.append(
                    f"byzantine_nodes: {self.byzantine_nodes} Byzantine replicas "
                    f"need num_nodes >= 3f+1 = {quorum_bound}, got {self.num_nodes} "
                    f"(quorums would not intersect in an honest replica)"
                )
        if self.master:
            if self.master not in self.node_ids():
                problems.append(
                    f"master: {self.master!r} is not a node id "
                    f"(expected one of r0..r{self.num_nodes - 1})"
                )
        else:
            check_registry("election", self.election, ELECTIONS)
        if self.cost_profile not in available_profiles():
            problems.append(
                f"cost_profile: unknown profile {self.cost_profile!r}; "
                f"available: {', '.join(available_profiles())}"
            )
        if self.mode not in ("model", "deploy"):
            problems.append(
                f"mode: unknown mode {self.mode!r}; expected 'model' or 'deploy'"
            )
        if self.mode == "deploy":
            # Loopback sockets are a deployment's network: it has no modelled
            # link or NIC to apply these to, and must not report a run as if
            # it had.
            for name in ("extra_delay_mean", "extra_delay_stddev", "bandwidth_bps"):
                value = getattr(self, name)
                if value != _DEFAULTS[name]:
                    problems.append(
                        f"{name}: mode='deploy' runs over loopback and cannot apply "
                        f"it; got {value!r}, only the default {_DEFAULTS[name]!r} works"
                    )
        if self.signing != "auto":
            from repro.crypto.keys import available_schemes

            if self.signing not in available_schemes():
                problems.append(
                    f"signing: unknown scheme {self.signing!r}; "
                    f"available: auto, {', '.join(available_schemes())}"
                )

        positives = [
            ("num_clients", self.num_clients),
            ("concurrency", self.concurrency),
            ("mempool_capacity", self.mempool_capacity),
            ("bandwidth_bps", self.bandwidth_bps),
            ("view_timeout", self.view_timeout),
            ("request_timeout", self.request_timeout),
        ]
        for name, value in positives:
            if value <= 0:
                problems.append(f"{name}: must be positive, got {value}")
        non_negatives = [
            ("checkpoint_interval", self.checkpoint_interval),
            ("payload_size", self.payload_size),
            ("arrival_rate", self.arrival_rate),
            ("base_delay_mean", self.base_delay_mean),
            ("base_delay_stddev", self.base_delay_stddev),
            ("extra_delay_mean", self.extra_delay_mean),
            ("extra_delay_stddev", self.extra_delay_stddev),
            ("propose_wait_after_tc", self.propose_wait_after_tc),
        ]
        for name, value in non_negatives:
            if value < 0:
                problems.append(f"{name}: must be non-negative, got {value}")
        if not 0 <= self.quorum_threshold <= self.num_nodes:
            problems.append(
                f"quorum_threshold: must be in [0, num_nodes]; got "
                f"{self.quorum_threshold} with num_nodes {self.num_nodes}"
            )
        if self.mempool_capacity > 0 and self.mempool_capacity < self.block_size:
            problems.append(
                f"mempool_capacity: {self.mempool_capacity} is smaller than "
                f"block_size {self.block_size}; no block could ever fill"
            )

        _refuse(problems)
        return self

    # ------------------------------------------------------------------
    # (de)serialization, replacement
    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "Configuration":
        """Return a copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a JSON-compatible dict (Bamboo uses a JSON file)."""
        return dataclasses.asdict(self)

    def overrides(self) -> Dict[str, Any]:
        """The fields whose values differ from ``Configuration()``'s: what a
        run sets, and all that its run id hashes."""
        return {
            name: getattr(self, name)
            for name, default in _DEFAULTS.items()
            if getattr(self, name) != default
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Configuration":
        """Build a configuration from a dict; a key that names no field is an
        error (a value of the wrong class is one on construction)."""
        unknown = sorted(set(data) - set(_TYPES))
        if unknown:
            _refuse([f"not Configuration fields: {', '.join(unknown)}"])
        return cls(**data)


#: Field name -> declared type name, in declaration order.
_TYPES = {f.name: f.type for f in dataclasses.fields(Configuration)}
#: Field name -> default value.
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(Configuration)}
