"""Cost profiles: named CPU cost models used by benchmarks and tests.

The absolute throughput of the paper's testbed (hundreds of thousands of
transactions per second on 8-vCPU machines) cannot be simulated transaction
by transaction in reasonable wall-clock time, so the benchmark profile scales
every CPU cost up by a constant factor.  Scaling all costs together preserves
the *relative* behaviour of the protocols — who saturates first, how block
size and payload shift the curves — while keeping each simulated run to a few
hundred thousand events.  ``docs/EXPERIMENTS.md`` reports both the paper's
absolute numbers and the simulator's, and compares shapes rather than
magnitudes.

Profiles
--------
``fast``
    Microsecond-scale costs, saturating in the hundreds of KTx/s.  Used by
    unit and integration tests where wall-clock speed matters more than
    saturation realism.
``standard``
    Millisecond-scale costs, saturating at a few KTx/s.  The default for all
    benchmark figures.
``ohs``
    The "original HotStuff" baseline of Fig. 9: the standard profile with a
    slightly cheaper request path, modelling the paper's explanation of the
    small gap (TCP ingest instead of HTTP, different batching, C++ vs Go).
``measured``
    All-zero modeled costs, the two flat dispatch charges included.  Used by
    the deployment runtime (:mod:`repro.transport`), where signing,
    verification, serialization and dispatch are *real* work on the wall clock
    — charging modeled CPU costs on top would double-count them, and any
    positive charge there is a wall-clock timer armed per message.

Scaling a profile (``ohs``, the ablations) multiplies the crypto and
serialization costs only; every simulated profile charges 5 us per client
request and 1 us per loopback copy.
"""

from __future__ import annotations

from dataclasses import fields

from repro.crypto.costs import CryptoCostModel

_FAST = CryptoCostModel()

_STANDARD = CryptoCostModel(
    sign_time=1.0e-3,
    verify_time=1.2e-3,
    per_transaction_time=1.0e-4,
    block_overhead_time=0.5e-3,
    qc_aggregate_time=1.0e-3,
    qc_verify_time=1.5e-3,
)

_OHS = _STANDARD.scaled(0.88)

_MEASURED = CryptoCostModel(**{field.name: 0.0 for field in fields(CryptoCostModel)})

_PROFILES = {
    "fast": _FAST,
    "standard": _STANDARD,
    "ohs": _OHS,
    "measured": _MEASURED,
}


def cost_profile(name: str) -> CryptoCostModel:
    """Return a copy of the named cost profile."""
    key = name.lower()
    if key not in _PROFILES:
        raise ValueError(
            f"unknown cost profile {name!r}; expected one of {sorted(_PROFILES)}"
        )
    return _PROFILES[key].scaled(1.0)


def available_profiles() -> list:
    """Names of the available cost profiles."""
    return sorted(_PROFILES)
