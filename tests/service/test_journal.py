"""Service journal: crash-safe ledger semantics and resume behaviour."""

import json

from repro.service.core import AttackService
from repro.service.journal import Journal
from repro.service.requests import AttackRequest, request_fingerprint


def _request(request_id, **overrides):
    overrides.setdefault("configuration", "NATIVE")
    return AttackRequest(id=request_id, **overrides)


def test_journal_roundtrip_and_missing_file(tmp_path):
    with Journal(tmp_path) as journal:
        journal.record("fp1", {"id": "a", "status": "done"})
        journal.record("fp2", {"id": "b", "status": "done"})
    assert Journal.load(tmp_path) == {
        "fp1": {"id": "a", "status": "done"},
        "fp2": {"id": "b", "status": "done"},
    }
    assert Journal.load(tmp_path / "nowhere") == {}


def test_journal_tolerates_torn_and_corrupt_lines(tmp_path):
    with Journal(tmp_path) as journal:
        journal.record("fp1", {"id": "a"})
    # a service killed mid-write leaves a torn final line plus line noise
    path = tmp_path / Journal.FILENAME
    path.write_text(path.read_text() + "not json\n" + '{"fingerprint": "fp2"')
    assert Journal.load(tmp_path) == {"fp1": {"id": "a"}}
    # reopening repairs the torn line: the next record starts fresh and
    # both the old and the new entry survive
    with Journal(tmp_path) as journal:
        journal.record("fp3", {"id": "c"})
    assert set(Journal.load(tmp_path)) == {"fp1", "fp3"}


def test_journal_append_never_truncates(tmp_path):
    with Journal(tmp_path) as journal:
        journal.record("fp1", {"id": "a"})
    with Journal(tmp_path) as journal:
        journal.record("fp2", {"id": "b"})
    lines = (tmp_path / Journal.FILENAME).read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["fingerprint"] == "fp1"


def test_restarted_service_reruns_exactly_the_unfinished_requests(tmp_path,
                                                                  monkeypatch):
    """The resume contract: after a mid-batch kill, a restarted service
    re-emits journaled rows verbatim and re-runs only what never finished."""
    from repro.service import requests as service_requests

    executed = []

    def fake_execute(request):
        executed.append(request.id)
        return {"id": request.id, "status": "done", "echo": request.seed}

    monkeypatch.setattr(service_requests, "execute_request", fake_execute)
    requests = [_request("a", seed=1), _request("b", seed=2),
                _request("c", seed=3)]

    with AttackService(tmp_path, workers=1) as service:
        for request in requests[:2]:
            service.submit(request)
        first = service.drain()
    assert executed == ["a", "b"]
    assert all(row["status"] == "done" for row in first)

    # simulate the kill arriving mid-write of b's record: torn final line
    path = tmp_path / Journal.FILENAME
    content = path.read_text()
    path.write_text(content[:-10])

    executed.clear()
    with AttackService(tmp_path, workers=1) as service:
        rows = []
        for request in requests:
            rows.extend(service.submit(request))
        rows.extend(service.drain())
        stats = service.stats
    # a's record survived intact -> resumed; b's record was torn -> re-run;
    # c never ran -> run.  Exactly the unfinished requests execute.
    assert executed == ["b", "c"]
    assert stats.resumed == 1
    assert stats.completed == 2
    assert {row["id"] for row in rows} == {"a", "b", "c"}
    assert all(row["status"] == "done" for row in rows)
    # the repaired journal now holds all three
    assert len(Journal.load(tmp_path)) == 3


def test_quarantined_requests_are_not_journaled_and_retry_on_restart(
        tmp_path, monkeypatch):
    from repro.service import requests as service_requests

    calls = {"n": 0}

    def flaky(request):
        calls["n"] += 1
        if calls["n"] <= 2:
            raise RuntimeError("transient fault")
        return {"id": request.id, "status": "done"}

    monkeypatch.setattr(service_requests, "execute_request", flaky)
    request = _request("flaky")
    with AttackService(tmp_path, workers=1, retries=1, backoff=0.0) as service:
        service.submit(request)
        rows = service.drain()
    assert rows[0]["status"] == "quarantined"
    assert "transient fault" in rows[0]["error"]
    assert Journal.load(tmp_path) == {}
    # the fault was transient: a restarted service retries and succeeds
    with AttackService(tmp_path, workers=1, retries=1, backoff=0.0) as service:
        service.submit(request)
        rows = service.drain()
    assert rows[0]["status"] == "done"
    assert request_fingerprint(request) in Journal.load(tmp_path)
