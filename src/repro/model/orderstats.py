"""Order statistics of normal samples: the quorum-collection delay t_Q.

A leader needs votes from a quorum of 2f+1 replicas.  It already holds its
own vote, so it must wait for the (2N/3 - 1)-th fastest of the N-1 remaining
replicas' responses, each of which takes a normally distributed round trip.
The expected value of that order statistic is t_Q (paper §V-B2).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import integrate, stats


def expected_order_statistic(k: int, n: int, mean: float = 0.0, stddev: float = 1.0) -> float:
    """E[X_(k)] — the k-th smallest of n i.i.d. Normal(mean, stddev) samples.

    Uses the standard integral representation

        E[X_(k)] = n * C(n-1, k-1) * ∫ x φ(x) Φ(x)^(k-1) (1-Φ(x))^(n-k) dx

    evaluated numerically.  ``k`` is 1-indexed (k=1 is the minimum).
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if stddev < 0:
        raise ValueError("stddev must be non-negative")
    if stddev == 0:
        return mean

    def integrand(x: float) -> float:
        phi = stats.norm.pdf(x)
        cdf = stats.norm.cdf(x)
        return x * phi * cdf ** (k - 1) * (1.0 - cdf) ** (n - k)

    coefficient = n * _binomial(n - 1, k - 1)
    value, _err = integrate.quad(integrand, -10.0, 10.0, limit=200)
    return mean + stddev * coefficient * value


def expected_order_statistic_mc(
    k: int, n: int, mean: float = 0.0, stddev: float = 1.0, samples: int = 20000, seed: int = 7
) -> float:
    """Monte-Carlo estimate of the same order statistic (cross-check)."""
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    draws = rng.normal(mean, stddev, size=(samples, n))
    draws.sort(axis=1)
    return float(draws[:, k - 1].mean())


@lru_cache(maxsize=1024)
def quorum_delay(num_nodes: int, rtt_mean: float, rtt_stddev: float) -> float:
    """t_Q: expected time for a leader to gather a quorum of votes.

    The quorum needs ``2N/3`` votes; the leader's own vote is free, so the
    delay is the (2N/3 - 1)-th order statistic of the other N-1 replicas'
    round-trip times (paper §V-B2).  A pure function of its arguments, so
    each distinct triple pays for its quadrature once per process: a fig. 8
    table asks for one triple per cluster size, hundreds of times.
    """
    if num_nodes < 2:
        return 0.0
    needed = int(np.ceil(2 * num_nodes / 3)) - 1
    needed = max(1, min(needed, num_nodes - 1))
    return expected_order_statistic(needed, num_nodes - 1, rtt_mean, rtt_stddev)


def _binomial(n: int, k: int) -> float:
    from math import comb

    return float(comb(n, k))
