"""Run-time network fluctuation windows (paper §VI-D).

During the responsiveness experiment the paper manually injects 10 seconds of
network fluctuation in which inter-node delays vary between 10 and 100 ms.
A :class:`FluctuationWindow` describes such an interval; the network adds the
sampled extra delay to every copy that leaves its sender's NIC while the
window is active.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass
class FluctuationWindow:
    """An interval of extra, highly variable network delay."""

    start: float
    end: float
    min_delay: float
    max_delay: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("window end precedes start")
        if self.min_delay < 0 or self.max_delay < self.min_delay:
            raise ValueError("invalid delay range")

    def active(self, now: float) -> bool:
        """True if the window covers simulated time ``now``."""
        return self.start <= now < self.end

    def sample(self, rng: random.Random) -> float:
        """Extra one-way delay to add while the window is active."""
        return rng.uniform(self.min_delay, self.max_delay)
