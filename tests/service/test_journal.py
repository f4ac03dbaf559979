"""Write-ahead job journal: lifecycle, replay view, quarantine."""

from __future__ import annotations

import json

from repro.eval.store import checksum_payload
from repro.service.journal import JobJournal


def test_lifecycle_round_trips_through_reload(tmp_path):
    path = tmp_path / "journal.jsonl"
    with JobJournal(path) as journal:
        journal.admitted("cj-1", "k1", {"theorem": "t1", "model": "m"})
        journal.dispatched("cj-1", 0)
        journal.done("cj-1", "k1", {"status": "proved"})
        journal.admitted("cj-2", "k2", {"theorem": "t2", "model": "m"})
        journal.dispatched("cj-2", 1)
        journal.failed("cj-2", "worker exploded")
        journal.admitted("cj-3", "k3", {"theorem": "t3", "model": "m"})
        journal.dispatched("cj-3", 0)
        journal.dispatched("cj-3", 1)  # re-dispatch appends, never rewrites

    reloaded = JobJournal(path)
    assert reloaded.quarantined == 0
    assert [e.job for e in reloaded.finished()] == ["cj-1", "cj-2"]
    assert [e.job for e in reloaded.pending()] == ["cj-3"]
    assert reloaded.entries["cj-1"].record == {"status": "proved"}
    assert reloaded.entries["cj-2"].error == "worker exploded"
    assert reloaded.entries["cj-3"].workers == [0, 1]
    # The live journal's view must match what a reload sees.
    assert journal.stats() == reloaded.stats()


def test_live_view_equals_a_reload_after_every_event(tmp_path):
    # Appends fold the payload they serialized into the view instead
    # of parsing the line back: the two must never drift apart.
    path = tmp_path / "journal.jsonl"
    with JobJournal(path) as journal:
        journal.admitted("cj-1", "k1", {"theorem": "t1", "model": "m"})
        journal.admitted("cj-2", "k2", {"goal": "forall n, n = n"})
        journal.dispatched("cj-1", 0)
        journal.dispatched("cj-2", 1)
        journal.dispatched("cj-2", 0)
        journal.done("cj-1", "k1", {"status": "proved", "queries": 3})
        journal.failed("cj-2", "worker exploded")
        journal.admitted("cj-3", "k3", {"theorem": "t3", "model": "m"})
        journal.dispatched("cj-3", 1)
        reloaded = JobJournal(path)
        assert journal.entries == reloaded.entries
        assert journal.pending() == reloaded.pending()
        assert journal.stats() == reloaded.stats()
        assert [e.job for e in journal.pending()] == ["cj-3"]


def test_close_is_idempotent_and_a_later_append_reopens(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    journal.admitted("cj-1", "k1", {"theorem": "t1", "model": "m"})
    journal.close()
    journal.close()
    journal.done("cj-1", "k1", {"status": "proved"})
    journal.close()
    assert [e.job for e in JobJournal(path).finished()] == ["cj-1"]


def test_pending_requires_an_admitted_body(tmp_path):
    with JobJournal(tmp_path / "journal.jsonl") as journal:
        # A dispatched event without its admitted line (quarantined,
        # or a torn multi-line write) must not become a replayable
        # ghost job.
        journal.dispatched("cj-9", 2)
        assert journal.pending() == []


def test_corrupt_lines_are_quarantined_on_load(tmp_path):
    path = tmp_path / "journal.jsonl"
    with JobJournal(path) as journal:
        journal.admitted("cj-1", "k1", {"theorem": "t1", "model": "m"})
        journal.done("cj-1", "k1", {"status": "proved"})
        journal.admitted("cj-2", "k2", {"theorem": "t2", "model": "m"})
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1][:-4] + 'XX"}'  # flip bytes: checksum mismatch
    lines.append("not json at all")
    # A journal line without a sum is corrupt (no legacy exemption).
    lines.append(json.dumps({"event": "failed", "job": "cj-2"}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    reloaded = JobJournal(path)
    assert reloaded.quarantined == 3
    assert reloaded.quarantine_path().exists()
    assert (
        len(reloaded.quarantine_path().read_text().splitlines()) == 3
    )
    # cj-1 lost its terminal event to corruption -> pending again;
    # the bogus un-summed "failed" line must not have finished cj-2.
    assert [e.job for e in reloaded.pending()] == ["cj-1", "cj-2"]
    # The rewritten journal is clean: a second load quarantines nothing.
    assert JobJournal(path).quarantined == 0


def test_checksums_use_the_store_convention(tmp_path):
    path = tmp_path / "journal.jsonl"
    with JobJournal(path) as journal:
        journal.admitted("cj-1", "k", {"theorem": "t", "model": "m"})
    obj = json.loads(path.read_text(encoding="utf-8"))
    stored = obj.pop("sum")
    assert stored == checksum_payload(obj)
