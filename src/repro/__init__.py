"""Bamboo-py: a framework for prototyping and evaluating chained-BFT protocols.

This package reproduces the system described in "Dissecting the Performance
of Chained-BFT" (ICDCS 2021): the Bamboo prototyping framework, the three
evaluated protocols (HotStuff, two-chain HotStuff, Streamlet) plus two
extensions (Fast-HotStuff and an LBFT-inspired variant), the two Byzantine
attack strategies (forking and silence), the benchmark facilities, and the
analytical queuing model used to validate the implementation.

The public surface is the :mod:`repro.api` facade::

    from repro import api

    result = api.run({"protocol": "hotstuff", "num_nodes": 4,
                      "block_size": 400, "runtime": 2.0, "cost_profile": "fast"})
    print(result.metrics.to_dict())

Every part of an experiment is an extension point backed by a registry
(:mod:`repro.plugins`): protocols, Byzantine strategies, leader elections,
network delay models, client types, and scenario events.  Register your own
with the ``api.register_*`` decorators and select them by name from the
configuration; fault schedules are declarative :class:`~repro.scenario.Scenario`
objects that serialize to JSON.  See ``README.md`` for a worked example and
``examples/`` for runnable scenarios; ``python -m repro paper all``
regenerates every table and figure of the paper's evaluation and checks the
paper's claims against them.

Only the facade is imported here: anything else is imported from the module
that defines it (``from repro.model import AnalyticalModel``), so that
``import repro`` never pays for a subsystem the caller does not use.
"""

from repro import api

__version__ = "1.2.0"

__all__ = ["api", "__version__"]
