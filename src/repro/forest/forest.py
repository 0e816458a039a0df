"""The block forest: height-indexed block trees with pruning and a main chain.

The forest keeps every block a replica has seen, indexed by id and by height.
It answers the structural questions the safety rules need (ancestry, chain
extension) and maintains the committed *main chain* used for consistency
checks across replicas (paper §III-A).  The two certified tips it is asked
for — the highest-view one (the anchor a sync request advertises) and the
longest one (Streamlet's proposing and voting rules) — are cached ids kept
current by :meth:`BlockForest.record_qc`, so reading either is O(1); only
removing vertices rescans.

The forest also tracks *orphans*: proposals whose parent has not arrived,
parked in a bounded FIFO buffer keyed by the missing parent id.  The sync
subsystem (:mod:`repro.sync`) consults this buffer to decide what to fetch
and the replica drains it as parents arrive — whether through ordinary
delivery or a :class:`~repro.sync.messages.BlockResponse`.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.crypto.digest import digest_fields
from repro.forest.vertex import Vertex
from repro.types.block import Block, make_genesis
from repro.types.certificates import QuorumCertificate


class ForestError(ValueError):
    """Raised when a block cannot be added to the forest."""


def _tip_order(vertex: Vertex) -> Tuple[int, int, str]:
    """Rank of a certified vertex as Streamlet's longest-chain tip."""
    return (vertex.height, vertex.view, vertex.block_id)


class BlockForest:
    """Stores blocks, their certification state, and the committed chain."""

    def __init__(self, orphan_capacity: int = 256) -> None:
        genesis, genesis_qc = make_genesis()
        self.genesis = genesis
        self._vertices: Dict[str, Vertex] = {}
        self._by_height: Dict[int, List[str]] = defaultdict(list)
        #: Ids of the committed main chain, genesis first; list index equals
        #: height (every commit extends the last committed block).  This is
        #: the *commit-log index*: it outlives truncation — blocks below the
        #: checkpoint watermark drop their vertices (and transactions) but
        #: keep their id here, which is what keeps cross-replica consistency
        #: hashes comparable between replicas truncated at different heights.
        self._committed_ids: List[str] = []
        self._pruned_height = -1
        #: Lowest height whose block (vertex) is still retained; heights
        #: below it were truncated away by a checkpoint (see repro.checkpoint).
        self._base_height = 0
        #: The lowest retained committed block: genesis until a checkpoint is
        #: installed or truncation runs, then the checkpoint block.
        self._root_id = genesis.block_id

        #: Parked blocks whose parent is missing: parent id -> blocks, plus a
        #: FIFO of (block id, parent id) pairs for O(1) bounded eviction.
        self.orphan_capacity = orphan_capacity
        self._orphans: Dict[str, List[Block]] = {}
        self._orphan_order: Deque[Tuple[str, str]] = deque()

        root = Vertex(block=genesis, qc=genesis_qc)
        root.committed = True
        self._vertices[genesis.block_id] = root
        self._by_height[0].append(genesis.block_id)
        self._committed_ids.append(genesis.block_id)
        #: The certified vertex of highest view, and the one of greatest
        #: (height, view, id); the root until something above it certifies.
        self._highest_certified_id = genesis.block_id
        self._longest_certified_id = genesis.block_id

    # ------------------------------------------------------------------
    # insertion and certification
    # ------------------------------------------------------------------
    def add_block(self, block: Block) -> Vertex:
        """Insert ``block``; its parent must already be present.

        Re-inserting a known block is a no-op (messages can be duplicated or
        echoed).  Structural invariants — height is parent height + 1, view
        strictly greater than the parent's view — are validated here, which
        is the semantic check the safety rules delegate to the data module.
        """
        if block.block_id in self._vertices:
            return self._vertices[block.block_id]
        if block.parent_id is None or block.parent_id not in self._vertices:
            raise ForestError(f"unknown parent {block.parent_id!r} for block {block.block_id[:10]}")
        parent = self._vertices[block.parent_id]
        if block.height != parent.height + 1:
            raise ForestError(
                f"bad height {block.height} for child of height {parent.height}"
            )
        if block.view <= parent.view:
            raise ForestError(
                f"view {block.view} does not advance past parent view {parent.view}"
            )
        vertex = Vertex(block=block)
        self._vertices[block.block_id] = vertex
        self._by_height[block.height].append(block.block_id)
        parent.children.add(block.block_id)
        return vertex

    def record_qc(self, qc: QuorumCertificate) -> Optional[Vertex]:
        """Attach a certificate to the block it certifies (if known)."""
        vertex = self._vertices.get(qc.block_id)
        if vertex is None:
            return None
        if vertex.qc is None or qc.view > vertex.qc.view:
            vertex.qc = qc
        if vertex.view > self._vertices[self._highest_certified_id].view:
            self._highest_certified_id = vertex.block_id
        if _tip_order(vertex) > _tip_order(self._vertices[self._longest_certified_id]):
            self._longest_certified_id = vertex.block_id
        return vertex

    # ------------------------------------------------------------------
    # orphan tracking (blocks waiting for a missing parent)
    # ------------------------------------------------------------------
    def add_orphan(self, block: Block) -> tuple:
        """Park ``block`` until its parent arrives; bounded FIFO eviction.

        Returns ``(added, evicted)``: ``added`` is False for blocks already
        in the forest or already parked (duplicates and echoes are no-ops);
        ``evicted`` is the oldest parked block dropped to stay within
        ``orphan_capacity``, or ``None``.
        """
        if block.parent_id is None or block.block_id in self._vertices:
            return (False, None)
        bucket = self._orphans.setdefault(block.parent_id, [])
        if any(b.block_id == block.block_id for b in bucket):
            return (False, None)
        bucket.append(block)
        self._orphan_order.append((block.block_id, block.parent_id))
        evicted = None
        if len(self._orphan_order) > self.orphan_capacity:
            oldest_id, oldest_parent = self._orphan_order.popleft()
            parked = self._orphans.get(oldest_parent, [])
            for parked_block in parked:
                if parked_block.block_id == oldest_id:
                    evicted = parked_block
                    parked.remove(parked_block)
                    break
            if not parked:
                self._orphans.pop(oldest_parent, None)
        return (True, evicted)

    def pop_orphans(self, parent_id: str) -> List[Block]:
        """Remove and return the blocks parked under ``parent_id``."""
        parked = self._orphans.pop(parent_id, [])
        if parked:
            self._orphan_order = deque(
                pair for pair in self._orphan_order if pair[1] != parent_id
            )
        return parked

    def orphan_parents(self) -> List[str]:
        """Missing parent ids that have blocks waiting on them."""
        return list(self._orphans)

    @property
    def orphan_count(self) -> int:
        """Number of blocks currently parked."""
        return len(self._orphan_order)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def __contains__(self, block_id: str) -> bool:
        return block_id in self._vertices

    def __len__(self) -> int:
        return len(self._vertices)

    def get(self, block_id: str) -> Vertex:
        """Return the vertex for ``block_id`` (KeyError if unknown)."""
        return self._vertices[block_id]

    def get_block(self, block_id: str) -> Block:
        """Return the block for ``block_id`` (KeyError if unknown)."""
        return self._vertices[block_id].block

    def maybe_get(self, block_id: Optional[str]) -> Optional[Vertex]:
        """Return the vertex for ``block_id`` or None."""
        if block_id is None:
            return None
        return self._vertices.get(block_id)

    def parent(self, block_id: str) -> Optional[Vertex]:
        """Return the parent vertex of ``block_id`` if it is in the forest."""
        vertex = self._vertices[block_id]
        return self.maybe_get(vertex.block.parent_id)

    def children(self, block_id: str) -> List[Vertex]:
        """Return the child vertices of ``block_id``."""
        vertex = self._vertices[block_id]
        return [self._vertices[child] for child in sorted(vertex.children)]

    def blocks_at_height(self, height: int) -> List[Vertex]:
        """All vertices at ``height`` (more than one indicates a fork)."""
        return [self._vertices[b] for b in self._by_height.get(height, [])]

    def ancestors(self, block_id: str, include_self: bool = False) -> Iterable[Vertex]:
        """Yield ancestors of ``block_id`` walking toward genesis."""
        vertex = self._vertices[block_id]
        if include_self:
            yield vertex
        parent_id = vertex.block.parent_id
        while parent_id is not None and parent_id in self._vertices:
            vertex = self._vertices[parent_id]
            yield vertex
            parent_id = vertex.block.parent_id

    def is_ancestor(self, ancestor_id: str, descendant_id: str) -> bool:
        """True if ``ancestor_id`` lies on the path from ``descendant_id`` to genesis."""
        if ancestor_id == descendant_id:
            return True
        if ancestor_id not in self._vertices or descendant_id not in self._vertices:
            return False
        target_height = self._vertices[ancestor_id].height
        current = self._vertices[descendant_id]
        while current.block.parent_id is not None and current.height > target_height:
            parent = self._vertices.get(current.block.parent_id)
            if parent is None:
                return False
            current = parent
        return current.block_id == ancestor_id

    def extends(self, block: Block, ancestor_id: str) -> bool:
        """True if ``block`` (possibly not yet inserted) extends ``ancestor_id``."""
        if block.block_id == ancestor_id:
            return True
        if block.parent_id is None:
            return False
        if block.parent_id == ancestor_id:
            return True
        if block.parent_id not in self._vertices:
            return False
        return self.is_ancestor(ancestor_id, block.parent_id)

    # ------------------------------------------------------------------
    # certified chains
    # ------------------------------------------------------------------
    def highest_certified(self) -> Vertex:
        """The certified vertex with the highest view (the root if none).

        Tracked incrementally by :meth:`record_qc` (and repaired by
        :meth:`_rescan_certified`), so the lookup is O(1).  It is the anchor
        every sync request advertises, which makes it per-missing-parent-event
        rather than per-message — cheap to call however often sync needs it.
        """
        return self._vertices[self._highest_certified_id]

    def longest_certified_tip(self) -> Vertex:
        """The certified vertex of greatest height (the root if none).

        Streamlet's proposing and voting rules extend the tip of the longest
        notarized chain; in the states Streamlet reaches that is the certified
        vertex of greatest height (see :mod:`repro.protocols.streamlet`).
        Ties break toward the higher view, then the greater id, so every
        replica with the same forest picks the same tip.  Tracked like
        :meth:`highest_certified`, so the lookup is O(1).
        """
        return self._vertices[self._longest_certified_id]

    def certified_vertices(self) -> List[Vertex]:
        """Every retained vertex holding a QC, in insertion order.

        Safety audits (the fuzz harness's certified-safety oracle) walk this
        to assert that no view certified two different blocks.  Truncated
        history is out of scope: blocks below the checkpoint watermark were
        committed, and conflicting commits already raise :class:`ForestError`.
        """
        return [vertex for vertex in self._vertices.values() if vertex.certified]

    def _rescan_certified(self) -> None:
        """Repair the cached certified tips after vertices were removed.

        A cached tip still retained is still the maximum (removal only
        shrinks the candidates), so only a removed one costs a scan.
        """
        vertices = self._vertices
        if self._highest_certified_id in vertices and self._longest_certified_id in vertices:
            return
        highest = longest = self._vertices[self._root_id]
        for vertex in vertices.values():
            if not vertex.certified:
                continue
            if vertex.view > highest.view:
                highest = vertex
            if _tip_order(vertex) > _tip_order(longest):
                longest = vertex
        self._highest_certified_id = highest.block_id
        self._longest_certified_id = longest.block_id

    # ------------------------------------------------------------------
    # commitment and the main chain
    # ------------------------------------------------------------------
    @property
    def committed_chain(self) -> List[str]:
        """Block ids of the main chain in commit order (genesis first)."""
        return list(self._committed_ids)

    def committed_prefix(self, height: int) -> Tuple[str, ...]:
        """Ids of the committed main chain up to ``height`` inclusive.

        One copy of the prefix, not a full-chain copy then a slice — this is
        what snapshot materialization ships (see :mod:`repro.checkpoint`).
        """
        return tuple(self._committed_ids[: height + 1])

    @property
    def committed_height(self) -> int:
        """Height of the most recently committed block."""
        return len(self._committed_ids) - 1

    @property
    def base_height(self) -> int:
        """Lowest height whose block is still retained (the truncation watermark).

        Zero until :meth:`truncate_below` or :meth:`install_checkpoint` runs;
        blocks below it survive only as ids in the commit-log index.
        """
        return self._base_height

    def last_committed(self) -> Vertex:
        """The most recently committed vertex."""
        return self._vertices[self._committed_ids[-1]]

    def committed_blocks_between(
        self, low_height: int, high_height: int, limit: int
    ) -> List[Block]:
        """Main-chain blocks with ``low_height < height <= high_height``.

        Oldest first, at most ``limit`` blocks.  The committed chain is
        contiguous from genesis (every commit extends the last committed
        block), so list index equals height and the lookup is O(limit) —
        this is what lets a sync responder serve an arbitrarily deep
        catch-up request without walking its whole forest.

        Blocks below :attr:`base_height` no longer exist; a range starting
        under the watermark cannot produce a batch that connects to the
        requester's anchor, so it returns empty (the sync responder answers
        such requests with a snapshot instead, see :mod:`repro.checkpoint`).
        """
        start = max(low_height + 1, 0)
        if start < self._base_height:
            return []
        end = min(high_height, self.committed_height, start + limit - 1)
        return [self._vertices[b].block for b in self._committed_ids[start : end + 1]]

    def commit(self, block_id: str, at_view: Optional[int] = None) -> List[Vertex]:
        """Commit ``block_id`` and every uncommitted ancestor.

        Returns the newly committed vertices in chain order (oldest first).
        Committing a block that conflicts with an already committed block is
        a safety violation and raises — tests rely on this to detect unsound
        rule implementations.  ``at_view`` is ignored: the view a commit
        becomes visible in travels on the replica's ``commit`` event (the
        block-interval metric's ``commit_view``); the parameter stays for
        callers that still pass it.
        """
        if block_id not in self._vertices:
            raise ForestError(f"cannot commit unknown block {block_id!r}")
        target = self._vertices[block_id]
        if target.committed:
            return []
        last = self.last_committed()
        if not self.is_ancestor(last.block_id, block_id):
            raise ForestError(
                "safety violation: committing a block that conflicts with the "
                f"committed chain (last committed {last.block_id[:10]} at height "
                f"{last.height}, new {block_id[:10]} at height {target.height})"
            )
        newly: List[Vertex] = []
        cursor: Optional[Vertex] = target
        while cursor is not None and not cursor.committed:
            newly.append(cursor)
            cursor = self.maybe_get(cursor.block.parent_id)
        newly.reverse()
        for vertex in newly:
            vertex.committed = True
            self._committed_ids.append(vertex.block_id)
        return newly

    def forked_blocks_below(self, height: int) -> List[Vertex]:
        """Uncommitted vertices at or below ``height`` (abandoned branches)."""
        forked = []
        for h in range(self._pruned_height + 1, height + 1):
            for block_id in self._by_height.get(h, []):
                vertex = self._vertices[block_id]
                if not vertex.committed:
                    forked.append(vertex)
        return forked

    def prune(self, height: int) -> List[Vertex]:
        """Drop all vertices at or below ``height`` except the main chain.

        Returns the removed (forked) vertices so the caller can recycle their
        transactions into the mempool, as the paper's evaluation does.
        Committed vertices are kept: they form the main chain used for
        consistency checks; a production system would move them to cold
        storage instead.
        """
        removed = self.forked_blocks_below(height)
        for vertex in removed:
            parent = self.maybe_get(vertex.block.parent_id)
            if parent is not None:
                parent.children.discard(vertex.block_id)
            self._by_height[vertex.height].remove(vertex.block_id)
            del self._vertices[vertex.block_id]
        self._pruned_height = max(self._pruned_height, height)
        self._rescan_certified()
        return removed

    def consistency_hash(self, height: Optional[int] = None) -> str:
        """Hash of the committed chain up to ``height`` (default: full chain).

        Two replicas whose committed chains agree produce identical hashes;
        integration tests use this to assert safety across the cluster.
        Computed from the commit-log index (ids only), so it stays comparable
        across replicas truncated at different checkpoint heights.
        """
        ids = self._committed_ids if height is None else self._committed_ids[: height + 1]
        return digest_fields("chain", *ids)

    def committed_transactions(self) -> List[str]:
        """Transaction ids in committed order (for end-to-end ordering checks).

        Only blocks still retained contribute — transactions below the
        truncation watermark travel in checkpoints as applied state, not as
        a replayable log.
        """
        txids: List[str] = []
        for block_id in self._committed_ids[self._base_height :]:
            for tx in self._vertices[block_id].block.transactions:
                txids.append(tx.txid)
        return txids

    # ------------------------------------------------------------------
    # checkpoint support: truncation and snapshot install
    # ------------------------------------------------------------------
    def truncate_below(self, height: int) -> int:
        """Drop every vertex outside the subtree rooted at main-chain ``height``.

        The committed block at ``height`` becomes the forest's new root; its
        committed ancestors *and* any branch not descending from it are
        removed (such branches conflict with the committed chain and can
        never be extended by an honest proposal).  Ids of truncated committed
        blocks remain in the commit-log index so ``committed_chain`` /
        ``consistency_hash`` keep working.  Returns the number of vertices
        removed.  Orphan parking is untouched: parked blocks waiting on
        truncated parents simply age out of the bounded FIFO.
        """
        if height <= self._base_height:
            return 0
        if height > self.committed_height:
            raise ForestError(
                f"cannot truncate below uncommitted height {height} "
                f"(committed height is {self.committed_height})"
            )
        root_id = self._committed_ids[height]
        keep = {root_id}
        stack = [root_id]
        while stack:
            for child in self._vertices[stack.pop()].children:
                keep.add(child)
                stack.append(child)
        removed = 0
        for block_id in list(self._vertices):
            if block_id in keep:
                continue
            vertex = self._vertices.pop(block_id)
            bucket = self._by_height.get(vertex.height)
            if bucket is not None:
                bucket.remove(block_id)
                if not bucket:
                    del self._by_height[vertex.height]
            removed += 1
        self._root_id = root_id
        self._base_height = height
        self._pruned_height = max(self._pruned_height, height)
        self._rescan_certified()
        return removed

    def install_checkpoint(self, block: Block, qc: Optional[QuorumCertificate], committed_ids: List[str]) -> None:
        """Reset the forest to a single committed root: the checkpoint block.

        Used by a recovered or far-behind replica installing a peer's
        snapshot (:mod:`repro.checkpoint`): every local vertex is discarded
        and replaced by the checkpoint block, already committed, with ``qc``
        as its certificate.  ``committed_ids`` is the full commit-log index
        up to and including the checkpoint block.  The caller is responsible
        for having validated the certificate.
        """
        if not committed_ids or committed_ids[-1] != block.block_id:
            raise ForestError("checkpoint id log must end at the checkpoint block")
        if len(committed_ids) != block.height + 1:
            raise ForestError(
                f"checkpoint id log length {len(committed_ids)} does not match "
                f"checkpoint height {block.height}"
            )
        if block.height <= self.committed_height:
            raise ForestError(
                f"checkpoint at height {block.height} is not ahead of the "
                f"committed height {self.committed_height}"
            )
        root = Vertex(block=block, qc=qc)
        root.committed = True
        self._vertices = {block.block_id: root}
        self._by_height = defaultdict(list)
        self._by_height[block.height].append(block.block_id)
        self._committed_ids = list(committed_ids)
        self._root_id = block.block_id
        self._base_height = block.height
        self._pruned_height = max(self._pruned_height, block.height)
        self._rescan_certified()
