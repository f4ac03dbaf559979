"""Append-only JSONL run store: resumable, incremental sweeps.

Each line is one completed evaluation cell::

    {"key": <task cache key>, "record": {…}, "sum": <checksum>, "task": {…}}

The store is keyed by :meth:`TheoremTask.cache_key`, so a re-run of
the same sweep (same corpus knobs, same search hyperparameters) hits
the store and performs zero new searches; ``--fresh`` bypasses the
lookup but still appends, so the newest record for a key wins on the
next load.

Integrity: ``sum`` is a truncated SHA-256 over the line's canonical
payload, written at append time.  A crash mid-append, a truncated
disk, or a hand-edited line shows up as a checksum mismatch (or as
unparseable JSON) on the next load; such lines are **quarantined** —
moved to a ``<store>.quarantine`` sibling file for post-mortems — and
the store file is atomically rewritten without them, so the damaged
cells simply re-execute on resume instead of resurfacing as corrupt
results.  Lines written by older versions carry no ``sum`` and load
unverified (see ``tests/eval/test_store.py``).

Appends: the first :meth:`RunStore.put` opens the file for appending,
and the handle stays open for the later ones.  Each line is flushed to
the operating system before ``put`` returns, but not ``fsync``-ed: a
line survives a crash of the process, not a power loss.
:meth:`RunStore.close` (or leaving a ``with`` block) closes the handle;
it is idempotent, and a later ``put`` reopens the file.  A file has one
writer.  Quarantine happens only at load, before the handle opens; its
rewrite replaces the file, so lines appended through a handle another
store opened before it are lost.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Optional

__all__ = [
    "OutcomeRecord",
    "RunStore",
    "LineAppender",
    "checksum_payload",
    "quarantine_lines",
]


@dataclass(frozen=True)
class OutcomeRecord:
    """The serialisable result of one task.

    This is :class:`~repro.eval.runner.TheoremOutcome` minus the live
    :class:`~repro.corpus.model.Theorem` object (records carry the
    theorem *name*; the runner rehydrates against its project) and
    with ``status`` as the plain enum value string.  Every field is
    deterministic — no wall-clock — so records compare equal across
    serial, thread, and process backends.
    """

    theorem: str
    model: str
    hinted: bool
    status: str
    queries: int
    generated_proof: str = ""
    revalidated: bool = False
    similarity: Optional[float] = None
    length_ratio: Optional[float] = None
    # Search attempts consumed: 1 single-shot; 1 + rounds run when the
    # repair loop engaged (repro.repair).
    attempts: int = 1
    # Serialized FailureContext of the last failed attempt (None when
    # the search proved/repaired the theorem, or never saw a
    # rejection).  Deterministic: tactic text, checker message, and
    # rendered goal are all pure functions of the task.
    failure: Optional[dict] = None

    def to_json(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_json(obj: dict) -> "OutcomeRecord":
        return OutcomeRecord(**obj)


def checksum_payload(payload: dict) -> str:
    """Truncated SHA-256 of the canonical JSON of ``payload``.

    16 hex chars (64 bits) — plenty against accidental corruption,
    which is the threat model; this is not a cryptographic seal.
    The service's job journal (:mod:`repro.service.journal`) writes
    the same ``{"...": ..., "sum": <checksum>}`` line format.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


_checksum = checksum_payload  # internal alias


class LineAppender:
    """Appends lines to ``path`` through a handle that stays open.

    The first :meth:`append` creates the directory and opens the file.
    Each line is flushed to the operating system before ``append``
    returns, but not ``fsync``-ed.  :meth:`close` is idempotent, and a
    later append reopens the file.  Not locked: the owner serialises
    calls (the run store and the job journal hold their write lock).
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._handle: Optional[BinaryIO] = None

    def append(self, line: str) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("ab")
        self._handle.write(line.encode("utf-8") + b"\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def quarantine_lines(
    path: Path, good_lines: List[str], bad_lines: List[str]
) -> Path:
    """Move corrupt lines to the ``.quarantine`` sibling of ``path``
    and atomically rewrite ``path`` with only the good ones.

    The rewrite goes through a temp file + ``os.replace`` so a crash
    mid-quarantine leaves either the old file (re-quarantined next
    load) or the clean new one — never a half-written file.  Returns
    the quarantine path.
    """
    quarantine = path.with_name(path.name + ".quarantine")
    with quarantine.open("a", encoding="utf-8") as handle:
        for line in bad_lines:
            handle.write(line + "\n")
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as handle:
        for line in good_lines:
            handle.write(line + "\n")
    os.replace(tmp, path)
    return quarantine


class RunStore:
    """Append-only JSONL persistence for outcome records."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._records: Dict[str, OutcomeRecord] = {}
        # Serialises appends: the prover service's scheduler workers
        # put() concurrently, and an interleaved write would tear lines.
        self._write_lock = threading.Lock()
        self._appender = LineAppender(self.path)
        #: Lines rejected on the last load (torn writes, checksum
        #: mismatches, schema garbage) — moved to :meth:`quarantine_path`.
        self.quarantined = 0
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        good_lines: List[str] = []
        bad_lines: List[str] = []
        with self.path.open("r", encoding="utf-8") as handle:
            for raw in handle:
                line = raw.strip()
                if not line:
                    continue
                if self._ingest(line):
                    good_lines.append(line)
                else:
                    bad_lines.append(line)
        if bad_lines:
            self._quarantine(good_lines, bad_lines)

    def _ingest(self, line: str) -> bool:
        """Index one stored line; False = corrupt, quarantine it."""
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            # Torn tail write from a killed run, or disk damage.
            return False
        if not isinstance(obj, dict):
            return False
        stored_sum = obj.pop("sum", None)
        if stored_sum is not None and stored_sum != _checksum(obj):
            # The line parses but its payload does not match the
            # checksum written at append time: silent corruption.
            return False
        key = obj.get("key")
        record = obj.get("record")
        if not key or not isinstance(record, dict):
            return False
        try:
            self._records[key] = OutcomeRecord.from_json(record)
        except TypeError:
            # Schema drift (e.g. older CACHE_KEY_VERSION line with
            # different record fields): ignore but keep the line — it
            # is internally consistent, just from another era.
            return True
        return True

    def _quarantine(self, good_lines: List[str], bad_lines: List[str]) -> None:
        """Move corrupt lines aside and rewrite the store without them."""
        self.quarantined = len(bad_lines)
        quarantine_lines(self.path, good_lines, bad_lines)

    # ------------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[str]:
        return iter(self._records)

    def get(self, key: str) -> OutcomeRecord:
        return self._records[key]

    def put(self, task, record: OutcomeRecord) -> None:
        """Persist one completed cell (append + in-memory index)."""
        key = task.cache_key()
        payload = {
            "key": key,
            "task": asdict(task),
            "record": record.to_json(),
        }
        payload["sum"] = _checksum(payload)
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with self._write_lock:
            self._appender.append(line)
            self._records[key] = record

    def close(self) -> None:
        """Close the append handle (idempotent; a later put reopens)."""
        with self._write_lock:
            self._appender.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def metrics_path(self) -> Path:
        """Where the sweep's instrumentation JSON lives (sibling file)."""
        return self.path.with_name(self.path.stem + ".metrics.json")

    def quarantine_path(self) -> Path:
        """Where corrupt lines are moved on load (sibling file)."""
        return self.path.with_name(self.path.name + ".quarantine")
