"""Shared helpers for the test suite: hand-built chains, forests, and votes."""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

from repro.crypto.keys import KeyRegistry
from repro.crypto.signatures import sign
from repro.forest.forest import BlockForest
from repro.types.block import Block, make_block
from repro.types.certificates import QuorumCertificate, Vote, vote_digest
from repro.types.transaction import Transaction


#: Sequences for :func:`make_transaction`, so that no two of its calls
#: build the same transaction.
_SEQUENCES = itertools.count()


def make_transaction(client_id: str = "c0", created_at: float = 0.0, **fields) -> Transaction:
    """``Transaction.create`` with a sequence no other call of this helper uses
    (and key ``k<sequence % 1024>`` unless one is given)."""
    sequence = next(_SEQUENCES)
    fields.setdefault("key", f"k{sequence % 1024}")
    return Transaction.create(client_id, sequence, created_at, **fields)


def make_transactions(count: int, client_id: str = "c0", payload_size: int = 0) -> Tuple[Transaction, ...]:
    """Create ``count`` distinct transactions."""
    return tuple(make_transaction(client_id, payload_size=payload_size) for _ in range(count))


def certify(forest: BlockForest, block: Block, num_nodes: int = 4) -> QuorumCertificate:
    """Record a quorum certificate for ``block`` in ``forest`` and return it."""
    signers = frozenset(f"r{i}" for i in range(2 * ((num_nodes - 1) // 3) + 1))
    qc = QuorumCertificate(block_id=block.block_id, view=block.view, signers=signers)
    forest.record_qc(qc)
    return qc


def extend_chain(
    forest: BlockForest,
    parent: Block,
    views: List[int],
    proposer: str = "r0",
    txs_per_block: int = 0,
    certify_blocks: bool = True,
    num_nodes: int = 4,
) -> List[Block]:
    """Append a chain of blocks at the given views, optionally certified."""
    blocks = []
    current = parent
    for view in views:
        parent_vertex = forest.get(current.block_id)
        qc = parent_vertex.qc
        if qc is None:
            qc = QuorumCertificate(
                block_id=current.block_id, view=current.view, signers=frozenset({"r0", "r1", "r2"})
            )
        block = make_block(
            view=view,
            parent=current,
            qc=qc,
            proposer=proposer,
            transactions=make_transactions(txs_per_block),
        )
        forest.add_block(block)
        if certify_blocks:
            certify(forest, block, num_nodes)
        blocks.append(block)
        current = block
    return blocks


def build_certified_chain(
    views: List[int], txs_per_block: int = 0, num_nodes: int = 4
) -> Tuple[BlockForest, List[Block]]:
    """A fresh forest containing one certified chain at the given views."""
    forest = BlockForest()
    blocks = extend_chain(
        forest, forest.genesis, views, txs_per_block=txs_per_block, num_nodes=num_nodes
    )
    return forest, blocks


def make_vote(registry: KeyRegistry, voter: str, block: Block) -> Vote:
    """Create a validly signed vote from ``voter`` for ``block``."""
    keypair = registry.register(voter)
    return Vote(
        voter=voter,
        block_id=block.block_id,
        view=block.view,
        signature=sign(keypair, vote_digest(block.block_id, block.view)),
    )
