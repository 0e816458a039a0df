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
