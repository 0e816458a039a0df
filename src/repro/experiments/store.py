"""Persistent campaign results: one JSONL record per completed run.

A :class:`ResultStore` is a directory holding ``results.jsonl`` — one
JSON object per line, each a completed run's record (config + metrics +
consistency + sync stats, see :mod:`repro.experiments.runner`) keyed by the
run's content hash (:func:`repro.experiments.spec.run_key`).  The store is
what makes campaigns *resumable*: :class:`CampaignRunner` skips every
expanded point whose ``run_id`` is already present, so an interrupted
paper-scale grid picks up where it left off, and re-running a finished
campaign executes zero simulations.

Records are written by the parent process only (workers hand records back),
**as each run completes** — so an interrupted campaign keeps everything that
finished before the interruption.  Each record line uses canonical key
ordering, making per-record bytes identical however the campaign was
executed; line *order* is expansion order for serial runs and completion
order under workers, which resume never depends on (lookups are by
``run_id``).  Re-adding an existing ``run_id`` (a forced re-run) appends a
new line with last-write-wins semantics; :meth:`ResultStore.compact` — run
by the campaign runner after each campaign — rewrites the file back to one
record per run.  Opening a store never writes: superseded lines are folded
in memory and left on disk until the next compact.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

RESULTS_FILENAME = "results.jsonl"


class StoreError(ValueError):
    """A result store file is malformed or a record is unusable."""


class TruncatedRecordWarning(UserWarning):
    """The store's final JSONL line was partial (an interrupted write).

    A worker killed mid-append leaves a half-written last line.  Loading
    skips it with this warning instead of refusing the whole store — every
    complete record stays usable, the skipped run re-executes on the next
    campaign (its run_id is simply absent), and the next :meth:`compact`
    rewrites the file without the partial line.  Corruption anywhere *but*
    the final line is not a crash signature and still raises
    :class:`StoreError`.
    """


def encode_record(record: Dict[str, Any]) -> str:
    """The canonical single-line JSON encoding of one run record."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class ResultStore:
    """A directory of campaign results, indexed by run content hash."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.path = self.root / RESULTS_FILENAME
        self._records: List[Dict[str, Any]] = []
        self._by_id: Dict[str, Dict[str, Any]] = {}
        #: run_id -> position in _records, for O(1) superseding writes.
        self._positions: Dict[str, int] = {}
        #: Lines currently in the file (> len(self._records) when a forced
        #: re-run appended superseding records that compact() would fold).
        self._file_lines = 0
        #: True when the file's tail is not newline-terminated (a killed
        #: writer): appending would fuse the new record with the remnant,
        #: so the first write rewrites the file from the complete records.
        self._rewrite_on_add = False
        # Opening is read-only: the directory is only created on the first
        # write, so e.g. listing a mistyped store path cannot scaffold it.
        if self.path.exists():
            self._load()

    @classmethod
    def existing(cls, root: Union[str, Path]) -> "ResultStore":
        """Open a store that must already exist: what every reader of one calls."""
        if not Path(root).is_dir():
            raise StoreError(f"no such result store: {root}")
        return cls(root)

    def _load(self) -> None:
        content = self.path.read_text()
        # A tail without its trailing newline (whatever survived of the last
        # write) must not be appended onto: the first add() rewrites the
        # file from the complete records instead (opening stays read-only).
        self._rewrite_on_add = bool(content) and not content.endswith("\n")
        lines = content.splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if lineno == len(lines):
                    # A killed worker's partial final append: skip it (the
                    # run re-executes on resume) but count the line so the
                    # next compact() rewrites the file without it.
                    warnings.warn(
                        f"{self.path}:{lineno}: skipping truncated final "
                        f"record ({exc}); the run will re-execute on resume",
                        TruncatedRecordWarning,
                        stacklevel=3,
                    )
                    self._file_lines += 1
                    # However the junk is terminated, never append after
                    # it: that would strand it mid-file for the next load.
                    self._rewrite_on_add = True
                    continue
                raise StoreError(f"{self.path}:{lineno}: not valid JSON: {exc}") from exc
            if "run_id" not in record:
                raise StoreError(f"{self.path}:{lineno}: record has no run_id")
            self._remember(record)
            self._file_lines += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, run_id: str) -> bool:
        return run_id in self._by_id

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self._records)

    def keys(self) -> List[str]:
        """Every stored run_id, in file order."""
        return [record["run_id"] for record in self._records]

    def get(self, run_id: str) -> Optional[Dict[str, Any]]:
        """The record stored under ``run_id``, or None."""
        return self._by_id.get(run_id)

    def records(self, campaign: Optional[str] = None) -> List[Dict[str, Any]]:
        """All records in file order, optionally filtered by campaign name."""
        if campaign is None:
            return list(self._records)
        return [r for r in self._records if r.get("campaign") == campaign]

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def add(self, record: Dict[str, Any]) -> None:
        """Store one completed-run record (must carry a ``run_id``).

        Always a single O(1) append, so the runner can persist every run
        the moment it completes.  A ``run_id`` that is already stored is
        *superseded* (last write wins); :meth:`compact` folds superseded
        lines away, and the runner compacts once per campaign.
        """
        if "run_id" not in record:
            raise StoreError("record has no run_id")
        self.root.mkdir(parents=True, exist_ok=True)
        if self._rewrite_on_add:
            # Heal a truncated tail before the first append: rewriting from
            # the complete records drops the remnant, so a crash between now
            # and compact() cannot leave corruption mid-file.
            self._remember(record)
            self._rewrite_on_add = False
            self.path.write_text(
                "".join(encode_record(r) + "\n" for r in self._records)
            )
            self._file_lines = len(self._records)
            return
        with self.path.open("a") as handle:
            handle.write(encode_record(record) + "\n")
        self._file_lines += 1
        self._remember(record)

    def _remember(self, record: Dict[str, Any]) -> None:
        """Index one record, superseding any earlier one with its run_id
        (last write wins, keeping the first occurrence's position)."""
        run_id = record["run_id"]
        if run_id in self._positions:
            self._records[self._positions[run_id]] = record
        else:
            self._positions[run_id] = len(self._records)
            self._records.append(record)
        self._by_id[run_id] = record

    def compact(self) -> None:
        """Rewrite the file to exactly one record per ``run_id`` (no-op when
        nothing has been superseded)."""
        if self._file_lines == len(self._records):
            return
        self.path.write_text("".join(encode_record(r) + "\n" for r in self._records))
        self._file_lines = len(self._records)
