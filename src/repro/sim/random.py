"""Named, independently seeded random streams.

A simulation draws randomness for several unrelated purposes: network
propagation delays, client arrival processes, leader election, payload
contents.  Using one shared generator couples these — adding a client would
perturb network delays and break reproducibility of comparisons.  Instead,
each purpose gets its own :class:`random.Random` derived deterministically
from a master seed and a stream name.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


class RandomStreams:
    """Factory of named deterministic random generators.

    >>> streams = RandomStreams(seed=7)
    >>> a = streams.get("network")
    >>> b = streams.get("clients")
    >>> a is streams.get("network")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return the generator for ``name``, creating it on first use."""
        if name not in self._streams:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
            stream_seed = int.from_bytes(digest[:8], "big")
            self._streams[name] = random.Random(stream_seed)
        return self._streams[name]

    def normal(self, name: str, mean: float, stddev: float, floor: float = 0.0) -> float:
        """Draw a normal sample from stream ``name``, clipped at ``floor``.

        Network delays must never be negative; the paper's model uses a
        normal RTT whose mean is far enough from zero that clipping is rare.
        """
        value = self.get(name).gauss(mean, stddev)
        if value < floor:
            return floor
        return value

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw a uniform sample from stream ``name``."""
        return self.get(name).uniform(low, high)

    def choice(self, name: str, options):
        """Pick a uniformly random element of ``options``."""
        return self.get(name).choice(options)

    def randint(self, name: str, low: int, high: int) -> int:
        """Draw a uniform integer in ``[low, high]`` from stream ``name``."""
        return self.get(name).randint(low, high)
