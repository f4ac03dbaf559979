"""Write-ahead job journal for the prover cluster.

The cluster router's scheduler (:mod:`repro.service.scheduler`)
journals every job's lifecycle to an append-only JSONL file *before*
acting on it, so the jobs — not the process — are the source of
truth.  A crashed worker, a killed router, or a full-service restart
replays unfinished jobs from the journal and, by the determinism
contract (a task's outcome is a pure function of its
:meth:`~repro.eval.tasks.TheoremTask.cache_key`), produces
byte-identical records to a fault-free run.

Line format is the evaluation store's checksummed convention
(:func:`repro.eval.store.checksum_payload`): every line carries a
``sum`` over its canonical payload, and lines that fail to parse or
verify are **quarantined** to a ``.quarantine`` sibling on load (the
journal is atomically rewritten without them), exactly like
:class:`~repro.eval.store.RunStore`.

Events per job (``job`` is the router's job id)::

    {"event": "admitted",   "job": J, "key": K, "body": {...}, "sum": S}
    {"event": "dispatched", "job": J, "worker": W,             "sum": S}
    {"event": "done",       "job": J, "key": K, "record": {...}, "sum": S}
    {"event": "failed",     "job": J, "error": "...",          "sum": S}

``admitted`` is written before the job can run (so before the client
sees the 202); ``dispatched`` after the task is handed to a worker
(re-dispatches append another ``dispatched`` line — the journal is a
log, not a table); ``done`` / ``failed`` are terminal.  A job with no
terminal event is *pending* and must be replayed on restart.

The first append opens the file, and the handle stays open for the
later ones.  Each append is flushed to the operating system before the
caller proceeds, but not ``fsync``-ed: a line survives a crash of the
process, not a power loss or kernel crash.  :meth:`JobJournal.close`
closes the handle; it is idempotent, and a later append reopens the
file.  A journal file has one writer: the router that loaded it.  A
crash-stopped router must never append again, which the scheduler's
abort guarantees (:meth:`~repro.service.scheduler.Scheduler.abort`).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.eval.store import LineAppender, checksum_payload, quarantine_lines

__all__ = ["JobJournal", "JournalEntry"]

_EVENTS = ("admitted", "dispatched", "done", "failed")


@dataclass
class JournalEntry:
    """The replayed state of one journaled job."""

    job: str
    key: str = ""
    body: Optional[dict] = None
    workers: List[int] = field(default_factory=list)  # dispatch history
    record: Optional[dict] = None  # set by a ``done`` event
    error: Optional[str] = None  # set by a ``failed`` event

    def finished(self) -> bool:
        return self.record is not None or self.error is not None

    def pending(self) -> bool:
        """Admitted with a body but no terminal event: must replay."""
        return self.body is not None and not self.finished()


class JobJournal:
    """Append-only, checksummed, replayable job log."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._write_lock = threading.Lock()
        self._appender = LineAppender(self.path)
        #: Jobs in admission order (dict preserves insertion order).
        self.entries: Dict[str, JournalEntry] = {}
        #: Lines rejected on load (torn writes, checksum mismatches).
        self.quarantined = 0
        # Entries per state, kept current by _apply so stats() never
        # walks the entries.
        self._tally = {"pending": 0, "done": 0, "failed": 0}
        if self.path.exists():
            self._load()

    # ------------------------------------------------------------------
    # Load / replay
    # ------------------------------------------------------------------

    def _load(self) -> None:
        good: List[str] = []
        bad: List[str] = []
        with self.path.open("r", encoding="utf-8") as handle:
            for raw in handle:
                line = raw.strip()
                if not line:
                    continue
                obj = self._parse(line)
                if obj is None:
                    bad.append(line)
                else:
                    self._apply(obj)
                    good.append(line)
        if bad:
            self.quarantined = len(bad)
            quarantine_lines(self.path, good, bad)

    @staticmethod
    def _parse(line: str) -> Optional[dict]:
        """One line's verified payload; None = corrupt, quarantine it."""
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(obj, dict):
            return None
        stored_sum = obj.pop("sum", None)
        if stored_sum != checksum_payload(obj):
            # Unlike the run store, journal lines are never legacy —
            # a missing or wrong checksum is always corruption.
            return None
        if obj.get("event") not in _EVENTS or not isinstance(
            obj.get("job"), str
        ):
            return None
        return obj

    def _apply(self, obj: dict) -> None:
        """Fold one verified event into the in-memory view."""
        event, job = obj["event"], obj["job"]
        entry = self.entries.get(job)
        if entry is None:
            entry = self.entries[job] = JournalEntry(job)
        self._count(entry, -1)
        if event == "admitted":
            entry.key = obj.get("key", "")
            entry.body = obj.get("body")
        elif event == "dispatched":
            entry.workers.append(obj.get("worker", -1))
        elif event == "done":
            entry.record = obj.get("record")
            entry.key = obj.get("key", entry.key)
        elif event == "failed":
            entry.error = obj.get("error", "unknown failure")
        self._count(entry, +1)

    def _count(self, entry: JournalEntry, sign: int) -> None:
        self._tally["pending"] += sign * entry.pending()
        self._tally["done"] += sign * (entry.record is not None)
        self._tally["failed"] += sign * (entry.error is not None)

    def pending(self) -> List[JournalEntry]:
        """Jobs admitted but not finished, in admission order."""
        return [e for e in self.entries.values() if e.pending()]

    def finished(self) -> List[JournalEntry]:
        return [e for e in self.entries.values() if e.finished()]

    # ------------------------------------------------------------------
    # Appends (each one flushed to the OS before the caller proceeds;
    # no fsync, so they survive a process crash but not a power loss)
    # ------------------------------------------------------------------

    def admitted(self, job: str, key: str, body: dict) -> None:
        self._append({"event": "admitted", "job": job, "key": key,
                      "body": body})

    def dispatched(self, job: str, worker: int) -> None:
        self._append({"event": "dispatched", "job": job, "worker": worker})

    def done(self, job: str, key: str, record: dict) -> None:
        self._append({"event": "done", "job": job, "key": key,
                      "record": record})

    def failed(self, job: str, error: str) -> None:
        self._append({"event": "failed", "job": job, "error": error})

    def _append(self, payload: dict) -> None:
        line = json.dumps(
            {**payload, "sum": checksum_payload(payload)},
            sort_keys=True,
            separators=(",", ":"),
        )
        with self._write_lock:
            self._appender.append(line)
            # Keep the in-memory view current so stats()/pending() on a
            # live journal agree with what a reload would see.
            self._apply(payload)

    def close(self) -> None:
        """Close the append handle (idempotent; a later append reopens)."""
        with self._write_lock:
            self._appender.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Journal gauges for ``/metrics``."""
        with self._write_lock:
            return {
                "path": str(self.path),
                "jobs": len(self.entries),
                **self._tally,
                "quarantined": self.quarantined,
            }

    def quarantine_path(self) -> Path:
        return self.path.with_name(self.path.name + ".quarantine")
