"""Generic plugin registries: the framework's extension-point machinery.

The paper's central claim is that a chained-BFT framework should let
researchers plug in new protocols, attacks, and environments without
touching the shared machinery.  This module provides the one mechanism every
extension point uses: a :class:`Registry` mapping names (and aliases) to
implementations, populated either with the decorator form::

    PROTOCOLS = Registry("protocol")

    @PROTOCOLS.register("myproto", "mp")
    class MyProtocolSafety(Safety):
        ...

or imperatively with :meth:`Registry.add`.  Lookups normalize case, dashes,
and underscores (``"Fast-HotStuff"`` finds ``"fasthotstuff"``), unknown
names raise a :class:`RegistryError` listing what *is* available, and
``available()`` returns canonical names in registration order — so listings
like ``available_protocols()`` are always derived from the registry contents
rather than hand-maintained.

The concrete registries live next to the interfaces they extend:

===================  =============================  ==========================
extension point      registry                       module
===================  =============================  ==========================
protocols            ``PROTOCOLS``                  ``repro.protocols.registry``
Byzantine behaviour  ``STRATEGIES``                 ``repro.core.byzantine``
leader election      ``ELECTIONS``                  ``repro.election.election``
network delays       ``DELAY_MODELS``               ``repro.network.delays``
client workloads     ``CLIENTS``                    ``repro.client.client``
scenario events      ``SCENARIO_EVENTS``            ``repro.scenario.events``
message handlers     ``MESSAGE_HANDLERS``           ``repro.core.dispatch``
invariant oracles    ``ORACLES``                    ``repro.fuzz.invariants``
===================  =============================  ==========================

``repro.api`` re-exports one ``register_*`` helper per registry, and
``api.available()`` lists every registry's contents under the same keys;
``docs/EXTENDING.md`` is the guided tour.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, List, Optional, TypeVar

T = TypeVar("T")


def normalize_name(name: str) -> str:
    """Canonicalize a lookup key: lowercase, drop dashes and underscores."""
    return name.lower().replace("-", "").replace("_", "")


class RegistryError(ValueError):
    """An unknown or conflicting name was used with a :class:`Registry`."""


class Registry(Generic[T]):
    """A name -> implementation mapping with aliases and decorator support."""

    def __init__(self, kind: str) -> None:
        #: Human-readable name of the extension point ("protocol", ...);
        #: used in error messages.
        self.kind = kind
        self._entries: Dict[str, T] = {}
        #: normalized alias -> canonical name (canonical maps to itself).
        self._aliases: Dict[str, str] = {}
        #: canonical names in registration order.
        self._order: List[str] = []
        #: Bumped on every add/unregister so callers may cache resolutions
        #: and cheaply detect staleness (see ``repro.core.dispatch``).
        self.version = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add(self, name: str, obj: T, *aliases: str, override: bool = False) -> T:
        """Register ``obj`` under ``name`` (and ``aliases``); return ``obj``."""
        if not name:
            raise RegistryError(f"{self.kind} name must be non-empty")
        for key in (name, *aliases):
            canonical = self._aliases.get(normalize_name(key))
            if canonical is not None and not override:
                raise RegistryError(
                    f"{self.kind} name {key!r} is already registered "
                    f"(for {canonical!r}); pass override=True to replace it"
                )
        if override:
            for key in (name, *aliases):
                shadowed = self._aliases.get(normalize_name(key))
                # Re-pointing the alias that *is* an entry's canonical name
                # orphans that entry: evict it so available()/items() never
                # advertise something lookups can no longer reach.
                if (
                    shadowed is not None
                    and shadowed != name
                    and normalize_name(shadowed) == normalize_name(key)
                ):
                    del self._entries[shadowed]
                    self._order.remove(shadowed)
                    self._aliases = {
                        a: c for a, c in self._aliases.items() if c != shadowed
                    }
        if name not in self._order:
            self._order.append(name)
        self._entries[name] = obj
        for key in (name, *aliases):
            self._aliases[normalize_name(key)] = name
        self.version += 1
        return obj

    def register(self, name: str, *aliases: str, override: bool = False) -> Callable[[T], T]:
        """Decorator form of :meth:`add`."""

        def decorator(obj: T) -> T:
            return self.add(name, obj, *aliases, override=override)

        return decorator

    def unregister(self, name: str) -> None:
        """Remove an entry and every alias pointing at it (mostly for tests)."""
        canonical = self.canonical(name)
        del self._entries[canonical]
        self._order.remove(canonical)
        self._aliases = {a: c for a, c in self._aliases.items() if c != canonical}
        self.version += 1

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def canonical(self, name: str) -> str:
        """Resolve ``name`` (or an alias) to its canonical name."""
        canonical = self._aliases.get(normalize_name(name))
        if canonical is None:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; available: {', '.join(self.available())}"
            )
        return canonical

    def get(self, name: str) -> T:
        """Look up an implementation; raise :class:`RegistryError` if unknown."""
        return self._entries[self.canonical(name)]

    def __contains__(self, name: str) -> bool:
        return normalize_name(name) in self._aliases

    def available(self) -> List[str]:
        """Canonical names in registration order."""
        return list(self._order)

    def aliases(self, name: str) -> List[str]:
        """All non-canonical aliases of ``name``, sorted."""
        canonical = self.canonical(name)
        return sorted(
            a for a, c in self._aliases.items()
            if c == canonical and a != normalize_name(canonical)
        )

    def items(self) -> List[tuple]:
        """(canonical name, implementation) pairs in registration order."""
        return [(name, self._entries[name]) for name in self._order]

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {self.available()})"


def lazy_import(module_names: List[str]) -> Callable[[], None]:
    """Build an idempotent loader that imports ``module_names`` on first call.

    Registries populated by decorators need the defining modules imported
    before lookups; calling the returned function from the registry's factory
    functions avoids circular imports at module load time.  A failed import
    propagates and is retried on the next call (the loader only latches once
    every module imported cleanly); re-entrant calls during the import pass
    return immediately.
    """
    state = {"loaded": False, "loading": False}

    def ensure() -> None:
        if state["loaded"] or state["loading"]:
            return
        import importlib

        state["loading"] = True
        try:
            for module in module_names:
                importlib.import_module(module)
            state["loaded"] = True
        finally:
            state["loading"] = False

    return ensure
