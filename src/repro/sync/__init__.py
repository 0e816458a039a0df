"""Block-fetch / state-sync: how a replica closes gaps in its forest.

The consensus round assumes every replica saw every certified block, but
crashes, partitions, and message loss break that assumption: a proposal whose
parent is unknown used to park forever, leaving a recovered replica unable to
vote on (or lead) the live chain.  This package restores full participation:

* :mod:`repro.sync.messages` — the two wire messages, ``BlockRequest`` and
  ``BlockResponse``, which travel through the ordinary network pipeline.
* :mod:`repro.sync.manager` — the per-replica :class:`SyncManager` that parks
  orphan proposals, issues fetch rounds, serves peers' requests, re-validates
  fetched certificates, and drives post-recovery catch-up.  Its handlers are
  plugged into the replica through the message-handler registry
  (:mod:`repro.core.dispatch`), making sync a worked example of extending the
  replica with new message types.

See ``docs/ARCHITECTURE.md`` for the message flow of one sync round and
``docs/SCENARIOS.md`` for a crash → recover → catch-up scenario exercising
it end to end.
"""

from repro.sync.manager import SyncManager, SyncStats
from repro.sync.messages import BlockRequest, BlockResponse

__all__ = [
    "BlockRequest",
    "BlockResponse",
    "SyncManager",
    "SyncStats",
]
