"""Order statistics of normal samples: the quorum-collection delay t_Q.

A leader needs votes from a quorum of ``quorum_size(N)`` replicas.  It
already holds its own vote, so it must wait for the (quorum_size(N) - 1)-th
fastest of the N-1 remaining replicas' responses, each of which takes a
normally distributed round trip.  The expected value of that order statistic
is t_Q (paper §V-B2).
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.quorum.quorum import quorum_size

#: Composite Simpson subintervals on [-10, 10] (step 0.005).  Ten times as
#: many move E[X_(k)] by less than 1e-13 for n up to 100.
_PANELS = 4000
_LIMIT = 10.0


def expected_order_statistic(k: int, n: int, mean: float = 0.0, stddev: float = 1.0) -> float:
    """E[X_(k)] — the k-th smallest of n i.i.d. Normal(mean, stddev) samples.

    Uses the standard integral representation

        E[X_(k)] = n * C(n-1, k-1) * ∫ x φ(x) Φ(x)^(k-1) (1-Φ(x))^(n-k) dx

    evaluated by the composite Simpson rule on [-10, 10].  Both tails are
    ``0.5 * erfc(∓x / √2)``, so neither loses precision to cancellation.
    ``k`` is 1-indexed (k=1 is the minimum).
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if stddev < 0:
        raise ValueError("stddev must be non-negative")
    if stddev == 0:
        return mean

    def integrand(x: float) -> float:
        below = 0.5 * math.erfc(-x / math.sqrt(2.0))
        above = 0.5 * math.erfc(x / math.sqrt(2.0))
        return x * math.exp(-0.5 * x * x) * below ** (k - 1) * above ** (n - k)

    h = 2.0 * _LIMIT / _PANELS
    total = integrand(-_LIMIT) + integrand(_LIMIT)
    for i in range(1, _PANELS):
        total += (4.0 if i % 2 else 2.0) * integrand(-_LIMIT + i * h)
    coefficient = n * math.comb(n - 1, k - 1) / math.sqrt(2.0 * math.pi)
    return mean + stddev * coefficient * total * h / 3.0


@lru_cache(maxsize=1024)
def quorum_delay(num_nodes: int, rtt_mean: float, rtt_stddev: float) -> float:
    """t_Q: expected time for a leader to gather a quorum of votes.

    The certificate needs ``quorum_size(N)`` votes; the leader's own vote is
    free, so the delay is the (quorum_size(N) - 1)-th order statistic of the
    other N-1 replicas' round-trip times (paper §V-B2).  A pure function of
    its arguments, so each distinct triple pays for its quadrature once per
    process: a fig. 8 table asks for one triple per cluster size, hundreds of
    times.
    """
    if num_nodes < 2:
        return 0.0
    return expected_order_statistic(quorum_size(num_nodes) - 1, num_nodes - 1, rtt_mean, rtt_stddev)
