"""Queueing building blocks: the M/D/1 waiting time of the paper's model."""

from __future__ import annotations


def utilization(arrival_rate: float, service_rate: float) -> float:
    """ρ = γ / u for a single-server queue."""
    if service_rate <= 0:
        raise ValueError("service rate must be positive")
    if arrival_rate < 0:
        raise ValueError("arrival rate must be non-negative")
    return arrival_rate / service_rate


def md1_waiting_time(arrival_rate: float, service_rate: float) -> float:
    """Average waiting time of an M/D/1 queue: w_Q = ρ / (2u(1-ρ)).

    Returns ``inf`` at or beyond saturation (ρ ≥ 1), which the caller can use
    to detect that a requested arrival rate exceeds the protocol's capacity.
    """
    rho = utilization(arrival_rate, service_rate)
    if rho >= 1.0:
        return float("inf")
    return rho / (2.0 * service_rate * (1.0 - rho))
