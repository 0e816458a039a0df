"""The end-to-end latency model of §V, parameterized like the simulator.

The model follows the paper's decomposition

    latency(λ) = t_L + t_s + t_commit + w_Q(λ)

with the t_CPU and t_NIC terms expanded using the same cost and size models
the simulator charges, so the model-vs-implementation comparison (Fig. 8) is
apples-to-apples: both sides describe the same "machine".  The structure of
each term follows the paper:

* ``t_L`` — client/replica round trip (a measured network parameter);
* ``t_s`` — the service time of one block: leader CPU to build the proposal,
  NIC serialization on both ends, replica CPU to validate and vote, the
  order-statistic wait t_Q for a quorum of votes, and the next leader's CPU
  to absorb that quorum;
* ``t_commit`` — the protocol's ``commit_lag()`` times t_s: how many more
  certifications the commit rule waits for after a block's own (2·t_s for a
  three-chain rule that commits the head, t_s for a two-chain rule or for
  Streamlet's, which commits the middle of three; paper §V-D);
* ``w_Q`` — M/D/1 waiting with per-replica block arrival rate λ/(n·N) and
  effective service rate 1/(N·t_s) (paper Eq. 5).

Broadcast votes (``votes_broadcast``) and message echoing (``echo_messages``)
add CPU work that is not on the critical path but does consume capacity; the
model folds it into the effective service time used for both t_s and the
queueing term, which is the "captured by measured system parameters"
treatment the paper describes.  Every protocol-specific term is read off the
registered :class:`~repro.protocols.safety.Safety` class, so a protocol
registered through ``register_protocol`` has a model too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.crypto.costs import CryptoCostModel
from repro.model.orderstats import quorum_delay
from repro.model.queuing import md1_waiting_time
from repro.protocols.registry import PROTOCOLS, protocol_class
from repro.quorum.quorum import quorum_size
from repro.types.sizes import SizeModel


@dataclass
class ModelParameters:
    """Machine and workload parameters shared with the simulator."""

    num_nodes: int = 4
    block_size: int = 400
    payload_size: int = 0
    costs: CryptoCostModel = None  # type: ignore[assignment]
    sizes: SizeModel = None  # type: ignore[assignment]
    bandwidth_bps: float = 125_000_000.0
    one_way_delay_mean: float = 0.25e-3
    one_way_delay_stddev: float = 0.05e-3
    extra_one_way_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.costs is None:
            self.costs = CryptoCostModel()
        if self.sizes is None:
            self.sizes = SizeModel()
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")

    @property
    def rtt_mean(self) -> float:
        """Mean replica-to-replica round-trip time (the paper's µ)."""
        return 2.0 * (self.one_way_delay_mean + self.extra_one_way_delay)

    @property
    def rtt_stddev(self) -> float:
        """Standard deviation of the round-trip time (the paper's σ)."""
        return math.sqrt(2.0) * self.one_way_delay_stddev

    @classmethod
    def from_configuration(cls, config, costs: Optional[CryptoCostModel] = None) -> "ModelParameters":
        """Derive parameters from a benchmark :class:`Configuration`.  Like the
        simulator, the extra hop delay's σ counts only if its mean is > 0."""
        from repro.bench.profiles import cost_profile

        stddev = config.base_delay_stddev
        if config.extra_delay_mean > 0:
            stddev = math.hypot(stddev, config.extra_delay_stddev)
        return cls(
            num_nodes=config.num_nodes,
            block_size=config.block_size,
            payload_size=config.payload_size,
            costs=costs if costs is not None else cost_profile(config.cost_profile),
            sizes=SizeModel(),
            bandwidth_bps=config.bandwidth_bps,
            one_way_delay_mean=config.base_delay_mean,
            one_way_delay_stddev=stddev,
            extra_one_way_delay=config.extra_delay_mean,
        )


class AnalyticalModel:
    """Latency/throughput predictions for one protocol and parameter set."""

    def __init__(self, protocol: str, params: ModelParameters) -> None:
        #: The registered Safety class whose traits the terms read; an
        #: unknown name raises ``RegistryError`` (a ``ValueError``).
        self.traits = protocol_class(protocol)
        self.protocol = PROTOCOLS.canonical(protocol)
        self.params = params

    # ------------------------------------------------------------------
    # building blocks
    # ------------------------------------------------------------------
    def block_bytes(self) -> int:
        """Serialized size of a full block (the paper's m)."""
        p = self.params
        signers = quorum_size(p.num_nodes)
        return p.sizes.block_size(p.block_size, p.payload_size, signers)

    def nic_time(self) -> float:
        """t_NIC for a block: sender-side serialization of the quorum's copies
        plus one receiver-side copy (the paper's 2·m/b, broadcast-aware)."""
        p = self.params
        per_copy = self.block_bytes() / p.bandwidth_bps
        quorum_index = max(1, quorum_size(p.num_nodes) - 1)
        return quorum_index * per_copy + per_copy

    def quorum_wait(self) -> float:
        """t_Q: order-statistic wait for a quorum of votes (paper §V-B2)."""
        p = self.params
        return quorum_delay(p.num_nodes, p.rtt_mean, p.rtt_stddev)

    def client_round_trip(self) -> float:
        """t_L: the client/replica round trip."""
        return self.params.rtt_mean

    def _echo_overhead_per_view(self, batch_size: Optional[int] = None) -> float:
        """Extra CPU seconds per view from vote broadcasting and echoing."""
        p = self.params
        n = p.num_nodes
        block_fill = p.block_size if batch_size is None else batch_size
        if self.traits.echo_messages:
            # Every replica verifies the other replicas' broadcast votes plus
            # one echo of each vote and each proposal it did not originate.
            extra_votes = (n - 1) + (n - 1) * (n - 2)
            extra_proposals = n - 2
            return extra_votes * p.costs.vote_verify_cost() + extra_proposals * p.costs.proposal_verify_cost(block_fill)
        if self.traits.votes_broadcast:
            return (n - 1) * p.costs.vote_verify_cost()
        return 0.0

    def service_time(self, batch_size: Optional[int] = None) -> float:
        """t_s: the time to serve (propose, replicate, certify) one block.

        ``batch_size`` defaults to the full block size (the paper's
        assumption that every block is full); latency predictions at light
        load evaluate it at the expected batch size instead, because blocks
        are only as full as the arrival rate makes them.

        Echo/broadcast overhead counts at half weight here: verifying echoed
        copies overlaps with the next view's pipeline, so only part of it
        extends the critical path (the rest is pure utilization and enters
        :meth:`effective_service_rate`).
        """
        p = self.params
        n = p.block_size if batch_size is None else max(1, min(p.block_size, batch_size))
        quorum_index = max(1, quorum_size(p.num_nodes) - 1)
        vote_transfer = 2.0 * p.sizes.vote_size() / p.bandwidth_bps
        leader_build = p.costs.proposal_build_cost(n)
        replica_validate = p.costs.proposal_verify_cost(n)
        replica_vote = p.costs.vote_build_cost()
        leader_absorb_votes = quorum_index * p.costs.vote_verify_cost()
        nic = self.nic_time() * (p.sizes.block_size(n, p.payload_size, quorum_size(p.num_nodes)) / self.block_bytes())
        return (
            leader_build
            + nic
            + replica_validate
            + replica_vote
            + vote_transfer
            + self.quorum_wait()
            + leader_absorb_votes
            + 0.5 * self._echo_overhead_per_view(n)
        )

    def expected_batch_size(self, arrival_rate: float) -> int:
        """Expected transactions per block at a given total arrival rate.

        A proposer batches whatever arrived during the previous view, so the
        fill level is the fixed point of ``n = arrival_rate · t_s(n)``,
        capped at the configured block size.
        """
        if arrival_rate <= 0:
            return 1
        n = float(self.params.block_size)
        for _ in range(8):
            n = min(self.params.block_size, max(1.0, arrival_rate * self.service_time(int(n))))
        return int(round(n))

    def commit_time(self) -> float:
        """t_commit: how long a certified block waits for the commit rule."""
        return self.traits.commit_lag() * self.service_time()

    # ------------------------------------------------------------------
    # queueing and end-to-end latency
    # ------------------------------------------------------------------
    def block_arrival_rate(self, arrival_rate: float) -> float:
        """γ: per-replica block arrival rate for a total tx arrival rate λ."""
        p = self.params
        return arrival_rate / (p.block_size * p.num_nodes)

    def effective_service_rate(self) -> float:
        """u: per-replica effective service rate (a replica leads every N views).

        The full echo/broadcast overhead counts here: it keeps the CPU busy
        and therefore bounds how fast views can be served back to back.
        """
        busy_view_time = self.service_time() + 0.5 * self._echo_overhead_per_view()
        return 1.0 / (self.params.num_nodes * busy_view_time)

    def waiting_time(self, arrival_rate: float) -> float:
        """w_Q(λ): average queueing delay before a transaction's block is served."""
        if arrival_rate <= 0:
            return 0.0
        return md1_waiting_time(self.block_arrival_rate(arrival_rate), self.effective_service_rate())

    def saturation_rate(self) -> float:
        """The transaction arrival rate at which the queue saturates (ρ = 1)."""
        return self.params.block_size / self.service_time()

    def latency(self, arrival_rate: float = 0.0) -> float:
        """End-to-end latency prediction for a total arrival rate λ (Tx/s).

        The service and commit terms are evaluated at the expected block fill
        for this arrival rate: at light load blocks are small and views are
        correspondingly short.
        """
        waiting = self.waiting_time(arrival_rate)
        if waiting == float("inf"):
            return float("inf")
        fill = self.expected_batch_size(arrival_rate) if arrival_rate > 0 else 1
        effective_ts = self.service_time(fill)
        commit = self.traits.commit_lag() * effective_ts
        return self.client_round_trip() + effective_ts + commit + waiting

    def predict_curve(self, arrival_rates: Iterable[float]) -> List[Tuple[float, float]]:
        """(throughput, latency) pairs for the model line of Fig. 8."""
        curve = []
        for rate in arrival_rates:
            curve.append((float(rate), self.latency(float(rate))))
        return curve

    def summary(self) -> dict:
        """The model's building blocks, for reports and debugging."""
        return {
            "protocol": self.protocol,
            "block_bytes": self.block_bytes(),
            "t_nic": self.nic_time(),
            "t_q": self.quorum_wait(),
            "t_s": self.service_time(),
            "t_commit": self.commit_time(),
            "t_l": self.client_round_trip(),
            "saturation_tps": self.saturation_rate(),
        }
