"""One-way propagation delay models.

The paper assumes the round-trip time between any two machines follows a
normal distribution N(µ, σ); one-way delays here are therefore modelled as
N(µ/2, σ/2) by the caller's choice of parameters.  Additional configured
delay (the ``delay`` knob of Table I, e.g. "5ms ± 1ms") composes additively.

Delay models are an extension point: subclass :class:`DelayModel` and
register with :func:`register_delay_model`; :func:`make_delay_model` then
builds instances from JSON-style specs like ``{"kind": "normal",
"mean_delay": 5e-3, "stddev": 1e-3}``, which is how scenario events describe
delay changes declaratively.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, Sequence, Tuple, Type, Union

from repro.plugins import Registry

#: The delay-model extension point.
DELAY_MODELS: Registry[Type["DelayModel"]] = Registry("delay model")


#: A delay model bound to a generator: ``(draw, a, b, floor)``, one sample
#: being ``max(floor, draw(a, b))``.  See :meth:`DelayModel.bind`.
Draw = Tuple[Callable[[Any, Any], float], Any, Any, float]
#: The draw of a model that never adds delay; the network skips it per copy.
ZERO_DRAW: Draw = (max, 0.0, 0.0, 0.0)


def register_delay_model(name: str) -> Callable:
    """Class decorator registering a DelayModel subclass."""
    return DELAY_MODELS.register(name)


class DelayModel(ABC):
    """Samples a one-way propagation delay in seconds.

    A model states its distribution once, as :meth:`sample` or as
    :meth:`bind`, and the other is derived from it when the class is made.
    A subclass that overrides :meth:`sample` alone gets the default
    :meth:`bind`, which calls that :meth:`sample`, so the network never
    bypasses it.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if "sample" in own and "bind" not in own:
            cls.bind = DelayModel.bind  # type: ignore[method-assign]
        elif "bind" in own and "sample" not in own:
            bind = own["bind"]

            def sample(self: DelayModel, rng: random.Random) -> float:
                draw, a, b, floor = bind(self, rng)
                drawn = draw(a, b)
                return drawn if drawn > floor else floor

            cls.sample = sample  # type: ignore[method-assign]

    @classmethod
    def from_spec(cls, **params) -> "DelayModel":
        """Build an instance from the non-``kind`` keys of a JSON spec."""
        return cls(**params)

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one delay sample."""

    @abstractmethod
    def mean(self) -> float:
        """Expected value of the delay (used by the analytical model)."""

    def bind(self, rng: random.Random) -> Draw:
        """This model's sampler on ``rng``, drawing what :meth:`sample` draws.

        The network binds a model once, when it is assigned, and draws every
        wire copy's delay as ``max(floor, draw(a, b))`` with no frame of the
        model's own.  The default calls :meth:`sample` itself.
        """
        return type(self).sample, self, rng, -math.inf


def make_delay_model(spec: Union["DelayModel", str, Dict, None]) -> "DelayModel":
    """Build a delay model from a spec.

    Accepts an existing model (returned unchanged), a registered name
    (built with no arguments, e.g. ``"none"``), or a JSON-style dict whose
    ``kind`` key names the model and whose remaining keys are constructor
    arguments.
    """
    if spec is None:
        return NoDelay()
    if isinstance(spec, DelayModel):
        return spec
    if isinstance(spec, str):
        return DELAY_MODELS.get(spec).from_spec()
    params = dict(spec)
    kind = params.pop("kind", None)
    if kind is None:
        raise ValueError(f"delay model spec needs a 'kind' key: {spec!r}")
    return DELAY_MODELS.get(kind).from_spec(**params)


@register_delay_model("none")
@dataclass
class NoDelay(DelayModel):
    """Zero propagation delay (useful for unit tests)."""

    def mean(self) -> float:
        return 0.0

    def bind(self, rng: random.Random) -> Draw:
        return ZERO_DRAW


@register_delay_model("fixed")
@dataclass
class FixedDelay(DelayModel):
    """A constant delay."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"negative delay: {self.delay}")

    def sample(self, rng: random.Random) -> float:
        return self.delay

    def mean(self) -> float:
        return self.delay


@register_delay_model("normal")
@dataclass
class NormalDelay(DelayModel):
    """Normally distributed delay, truncated at a floor (default 0)."""

    mean_delay: float
    stddev: float
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.mean_delay < 0 or self.stddev < 0:
            raise ValueError("mean and stddev must be non-negative")

    def mean(self) -> float:
        return self.mean_delay

    def bind(self, rng: random.Random) -> Draw:
        return rng.gauss, self.mean_delay, self.stddev, self.floor


@register_delay_model("uniform")
@dataclass
class UniformDelay(DelayModel):
    """Uniformly distributed delay in ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError(f"invalid range [{self.low}, {self.high}]")

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0


@register_delay_model("composite")
class CompositeDelay(DelayModel):
    """Sum of several delay models (base LAN delay + configured extra delay)."""

    @classmethod
    def from_spec(cls, **params) -> "CompositeDelay":
        return cls([make_delay_model(c) for c in params.get("components", [])])

    def __init__(self, components: Sequence[DelayModel]) -> None:
        if not components:
            raise ValueError("CompositeDelay needs at least one component")
        self.components = list(components)

    def sample(self, rng: random.Random) -> float:
        return sum(component.sample(rng) for component in self.components)

    def mean(self) -> float:
        return sum(component.mean() for component in self.components)
