"""Protocol registry: the extension point for chained-BFT protocols.

A protocol is a :class:`Safety` subclass declaring its traits, registered
with the :func:`register_protocol` decorator::

    from repro.protocols.hotstuff import HotStuffSafety
    from repro.protocols.registry import register_protocol

    @register_protocol("4chainhs", "4chs")
    class FourChainSafety(HotStuffSafety):
        protocol_name = "4chainhs"
        commit_rule_depth = 4

After that, ``Configuration(protocol="4chainhs")`` works everywhere — the
runner, the facade, the benchmarks — and the analytical model, the fuzz
generator's protocol cycle and the forking attack read its traits off the
class found here, with no other wiring.  The five built-in protocols are
registered in their own modules and loaded lazily on first lookup;
:func:`available_protocols` is derived from the registry contents (in
registration order) rather than a hand-maintained list.
"""

from __future__ import annotations

from typing import Callable, List, Type

from repro.forest.forest import BlockForest
from repro.plugins import Registry, lazy_import
from repro.protocols.safety import Safety

#: The protocol extension point.  Values are ``Safety`` subclasses
#: instantiated with the replica's :class:`BlockForest`.
PROTOCOLS: Registry[Type[Safety]] = Registry("protocol")

_ensure_builtin = lazy_import(
    [
        "repro.protocols.hotstuff",
        "repro.protocols.twochain",
        "repro.protocols.streamlet",
        "repro.protocols.fasthotstuff",
        "repro.protocols.lbft",
    ]
)


def register_protocol(name: str, *aliases: str, override: bool = False) -> Callable:
    """Class decorator registering a :class:`Safety` subclass as a protocol."""
    return PROTOCOLS.register(name, *aliases, override=override)


def available_protocols() -> List[str]:
    """Canonical names of the protocols that can be instantiated."""
    _ensure_builtin()
    return PROTOCOLS.available()


def protocol_class(name: str) -> Type[Safety]:
    """The registered class of protocol ``name`` (or an alias of it)."""
    _ensure_builtin()
    return PROTOCOLS.get(name)


def make_safety(name: str, forest: BlockForest) -> Safety:
    """Instantiate the Safety module for protocol ``name``."""
    return protocol_class(name)(forest)
