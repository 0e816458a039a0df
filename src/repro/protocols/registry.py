"""Protocol registry: the extension point for chained-BFT protocols.

A protocol is a :class:`Safety` subclass declaring its traits, registered
with the :func:`register_protocol` decorator::

    from repro.protocols.hotstuff import HotStuffSafety
    from repro.protocols.registry import register_protocol

    @register_protocol("4chainhs")
    class FourChainSafety(HotStuffSafety):
        protocol_name = "4chainhs"
        commit_rule_depth = 4

After that, ``Configuration(protocol="4chainhs")`` works everywhere — the
runner, the facade, the benchmarks — and the analytical model, the fuzz
generator's protocol cycle and the forking attack read its traits off the
class found here, with no other wiring.  The five built-in protocols are
registered in their own modules, which ``repro.protocols`` imports before
this one, so ``PROTOCOLS.available()`` lists them in that import order.
"""

from __future__ import annotations

from typing import Callable, Type

from repro.forest.forest import BlockForest
from repro.plugins import Registry
from repro.protocols.safety import Safety

#: The protocol extension point.  Values are ``Safety`` subclasses
#: instantiated with the replica's :class:`BlockForest`.
PROTOCOLS: Registry[Type[Safety]] = Registry("protocol")


def register_protocol(name: str) -> Callable:
    """Class decorator registering a :class:`Safety` subclass as a protocol."""
    return PROTOCOLS.register(name)


def protocol_class(name: str) -> Type[Safety]:
    """The registered class of protocol ``name``."""
    return PROTOCOLS.get(name)


def make_safety(name: str, forest: BlockForest) -> Safety:
    """Instantiate the Safety module for protocol ``name``."""
    return protocol_class(name)(forest)
