"""Generic plugin registries: the framework's extension-point machinery.

The paper's central claim is that a chained-BFT framework should let
researchers plug in new protocols, attacks, and environments without
touching the shared machinery.  This module provides the one mechanism every
extension point uses: a :class:`Registry`, a dict from an exact name to an
implementation, populated either with the decorator form::

    PROTOCOLS = Registry("protocol")

    @PROTOCOLS.register("myproto")
    class MyProtocolSafety(Safety):
        ...

or imperatively with :meth:`Registry.add`.  A name is matched exactly (no
aliases, no case folding), so one behaviour has one name and one run id.  A
taken name cannot be registered again, an unknown name raises a
:class:`RegistryError` listing what *is* available, and ``available()``
returns the names in registration order.

The concrete registries live next to the interfaces they extend:

===================  =============================  ==========================
extension point      registry                       module
===================  =============================  ==========================
protocols            ``PROTOCOLS``                  ``repro.protocols.registry``
Byzantine behaviour  ``STRATEGIES``                 ``repro.core.byzantine``
leader election      ``ELECTIONS``                  ``repro.election.election``
network delays       ``DELAY_MODELS``               ``repro.network.delays``
scenario events      ``SCENARIO_EVENTS``            ``repro.scenario.events``
invariant oracles    ``ORACLES``                    ``repro.fuzz.invariants``
===================  =============================  ==========================

``repro.api`` re-exports one ``register_*`` helper per registry, and
``api.available()`` lists every registry's contents;
``docs/EXTENDING.md`` is the guided tour.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, List, TypeVar

T = TypeVar("T")


class RegistryError(ValueError):
    """An unknown or conflicting name was used with a :class:`Registry`."""


class Registry(Generic[T]):
    """A dict from exact name to implementation, with decorator support."""

    def __init__(self, kind: str) -> None:
        #: Human-readable name of the extension point ("protocol", ...);
        #: used in error messages.
        self.kind = kind
        #: name -> implementation, in registration order.
        self.entries: Dict[str, T] = {}

    def add(self, name: str, obj: T) -> T:
        """Register ``obj`` under ``name`` and return it; a taken name raises."""
        if not name:
            raise RegistryError(f"{self.kind} name must be non-empty")
        if name in self.entries:
            raise RegistryError(f"{self.kind} name {name!r} is already registered")
        self.entries[name] = obj
        return obj

    def register(self, name: str) -> Callable[[T], T]:
        """Decorator form of :meth:`add`."""
        return lambda obj: self.add(name, obj)

    def unregister(self, name: str) -> None:
        """Remove an entry (mostly for tests)."""
        self.get(name)
        del self.entries[name]

    def get(self, name: str) -> T:
        """Look up an implementation; raise :class:`RegistryError` if unknown."""
        try:
            return self.entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; available: {', '.join(self.entries)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def available(self) -> List[str]:
        """Names in registration order."""
        return list(self.entries)
