"""Run-time network fluctuation windows (paper §VI-D).

During the responsiveness experiment the paper manually injects 10 seconds of
network fluctuation in which inter-node delays vary between 10 and 100 ms.
A :class:`FluctuationWindow` describes such an interval; the network adds a
``uniform(min_delay, max_delay)`` draw to every copy that leaves its sender's
NIC in ``[start, end)``.
"""

from __future__ import annotations

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
