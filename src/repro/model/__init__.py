"""Analytical performance model (paper §V).

The model estimates the latency of a transaction as

    latency = t_L + t_s + t_commit + w_Q

where ``t_L`` is the client round-trip, ``t_s`` the service time of the block
carrying the transaction, ``t_commit`` the time until the commit rule is met
(protocol dependent: 2·t_s for HotStuff, t_s for two-chain HotStuff and
Streamlet), and ``w_Q`` the M/D/1 waiting time induced by the transaction
arrival rate.  ``AnalyticalModel(config)`` reads the same
:class:`~repro.bench.config.Configuration` a simulated run takes; it is used
to cross-validate the simulator (Fig. 8) and to give back-of-the-envelope
forecasts.
"""

from repro.model.orderstats import expected_order_statistic, quorum_delay
from repro.model.predictions import AnalyticalModel
from repro.model.queuing import md1_waiting_time, utilization

__all__ = [
    "AnalyticalModel",
    "expected_order_statistic",
    "md1_waiting_time",
    "quorum_delay",
    "utilization",
]
