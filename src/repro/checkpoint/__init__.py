"""Checkpointing and log truncation: bounded-memory long runs.

The forest, the executor's KV log, and the sync protocol all paid
O(run-length) memory before this package existed.  A
:class:`~repro.checkpoint.manager.CheckpointManager` per replica snapshots
the committed prefix every ``interval`` commits and truncates the forest
below the checkpoint.  A ``BlockRequest`` anchored below that watermark is
answered with a :class:`~repro.checkpoint.messages.SnapshotResponse`, so a
recovered or far-behind replica installs a checkpoint and fetches only the
blocks above it instead of walking the whole chain.

Configure through :class:`~repro.bench.config.Configuration`'s
``checkpoint_interval``, which every replica reads off its ``config``; 0,
the default, keeps every block.
"""

from repro.checkpoint.manager import CheckpointManager, CheckpointStats
from repro.checkpoint.messages import SnapshotResponse
from repro.checkpoint.snapshot import Checkpoint

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "CheckpointStats",
    "SnapshotResponse",
]
