"""Attack service: admission, retry/backoff, degradation, byte-identity."""

import json
import time

import pytest

from repro.service import requests as service_requests
from repro.service.__main__ import main as service_main
from repro.service.core import (AttackService, service_backoff,
                                service_queue_limit, service_workers)
from repro.service.journal import Journal
from repro.service.requests import (AttackRequest, execute_request,
                                    parse_request, request_fingerprint)
from repro.evaluation.parallel import fork_available
from tests.evaluation.test_fault_tolerance import _fail_if_hung

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method required")


def _request(request_id, **overrides):
    """A cheap real request: NATIVE (no obfuscation) runs in milliseconds."""
    overrides.setdefault("configuration", "NATIVE")
    return AttackRequest(id=request_id, **overrides)


def _fake_executor(monkeypatch, rows=None):
    """Route the pool's executor registry to a cheap stub."""
    rows = [] if rows is None else rows

    def fake_execute(request):
        row = {"id": request.id, "status": "done", "seed": request.seed}
        rows.append(row)
        return row

    # the pool registry late-binds through requests.execute_request, in
    # inline and forked pools alike
    monkeypatch.setattr(service_requests, "execute_request", fake_execute)
    return rows


# -- admission: parsing and validation ----------------------------------------

def test_parse_request_accepts_defaults_and_normalises_id():
    request = parse_request({"id": 7})
    assert request.id == "7"
    assert request.configuration == "ROP1.00"
    assert request.engine == "dse"
    assert request.effective_attack_seed == request.seed
    assert parse_request({"id": "a", "attack_seed": 9}) \
        .effective_attack_seed == 9


@pytest.mark.parametrize("obj, needle", [
    ([1, 2], "must be a JSON object"),
    ({"id": "a", "bogus": 1}, "unknown request field"),
    ({}, "missing the required 'id'"),
    ({"id": "a", "seed": "one"}, "field 'seed' must be int"),
    ({"id": "a", "seed": True}, "field 'seed' must be int"),
    ({"id": "a", "structure": "while(true)"}, "unknown structure"),
    ({"id": "a", "input_size": 3}, "input_size must be one of"),
    ({"id": "a", "configuration": "ROP9.99"}, "unknown configuration"),
    ({"id": "a", "engine": "fuzzer"}, "unknown engine"),
    ({"id": "a", "loop_iterations": 0}, "loop_iterations"),
    ({"id": "a", "max_executions": 0}, "budget caps must be positive"),
])
def test_parse_request_rejects_with_the_reason(obj, needle):
    with pytest.raises(ValueError, match=needle):
        parse_request(obj)


def test_request_fingerprint_is_deterministic_and_parameter_sensitive():
    assert request_fingerprint(_request("a")) == \
        request_fingerprint(_request("a"))
    # every axis that changes the attack changes the journal key
    variants = [_request("a"), _request("b"), _request("a", seed=2),
                _request("a", attack_seed=2),
                _request("a", configuration="ROP0.05"),
                _request("a", max_executions=3)]
    assert len({request_fingerprint(v) for v in variants}) == len(variants)


# -- execution: determinism and engine reuse ----------------------------------

def test_execute_request_is_deterministic_across_cached_engine_reuse():
    """The second run reuses the cached engine through reset(); its row
    must still be byte-identical to the cold run."""
    request = _request("det", seed=1)
    first = execute_request(request)
    second = execute_request(request)
    assert first == second
    assert first["status"] == "done"
    assert first["secret_found"] is True  # NATIVE: the attack wins easily
    assert "elapsed" not in first and "time" not in first


def test_requests_differing_only_in_attack_seed_share_a_prepared_engine():
    service_requests._ENGINES.clear()
    service_requests._IMAGES.clear()
    row_a = execute_request(_request("a", seed=1, attack_seed=1))
    row_b = execute_request(_request("b", seed=1, attack_seed=2))
    assert len(service_requests._ENGINES) == 1
    assert len(service_requests._IMAGES) == 1
    # same image, same engine object, independent per-request exploration
    assert row_a["symbol"] == row_b["symbol"]
    # and the reuse did not contaminate a re-run of the first request
    assert execute_request(_request("a", seed=1, attack_seed=1)) == row_a


# -- the serial service: terminal states and resume ---------------------------

def test_serial_service_rows_match_one_shot_runs_and_are_journaled(tmp_path):
    requests = [_request("r1", seed=1), _request("r2", seed=2)]
    reference = {request.id: execute_request(request) for request in requests}
    with AttackService(tmp_path, workers=1) as service:
        rows = []
        for request in requests:
            rows.extend(service.submit(request))
        rows.extend(service.drain())
        summary = service.summary()
    assert {row["id"]: row for row in rows} == reference
    assert summary["completed"] == 2 and summary["quarantined"] == 0
    journaled = Journal.load(tmp_path)
    assert set(journaled) == {request_fingerprint(r) for r in requests}


def test_resumed_service_reemits_rows_verbatim_without_rerunning(tmp_path,
                                                                 monkeypatch):
    request = _request("r1")
    with AttackService(tmp_path, workers=1) as service:
        service.submit(request)
        first = service.drain()

    def boom(_request):
        raise AssertionError("resumed service re-ran a journaled request")

    monkeypatch.setattr(service_requests, "execute_request", boom)
    with AttackService(tmp_path, workers=1) as service:
        rows = service.submit(request)
        assert service.occupancy == 0
        stats = service.stats
    assert rows == first
    assert stats.resumed == 1 and stats.completed == 0


def test_inline_raise_fault_is_retried_then_succeeds(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_INJECT", "0:raise")
    _fake_executor(monkeypatch)
    with AttackService(tmp_path, workers=1, backoff=0.0) as service:
        service.submit(_request("r1"))
        rows = service.drain()
        stats = service.stats
    assert rows == [{"id": "r1", "status": "done", "seed": 1}]
    assert stats.retried == 1 and stats.completed == 1


def test_retry_backoff_is_exponential_and_exhaustion_quarantines(tmp_path,
                                                                 monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_INJECT", "0:raise:always")
    _fake_executor(monkeypatch)
    started = time.monotonic()
    with AttackService(tmp_path, workers=1, retries=2,
                       backoff=0.05) as service:
        service.submit(_request("r1"))
        rows = service.drain()
        stats = service.stats
    elapsed = time.monotonic() - started
    assert rows[0]["status"] == "quarantined"
    assert "InjectedFault" in rows[0]["error"]
    assert stats.retried == 2 and stats.quarantined == 1
    # two backoffs at base 0.05: 0.05 + 0.10
    assert elapsed >= 0.14
    assert Journal.load(tmp_path) == {}  # quarantined rows are never journaled


def test_full_queue_sheds_when_asked_and_backpressures_otherwise(tmp_path,
                                                                 monkeypatch):
    _fake_executor(monkeypatch)
    with AttackService(tmp_path, workers=1, queue_limit=1) as service:
        assert service.submit(_request("r1")) == []
        shed = service.submit(_request("r2"), shed_when_full=True)
        assert shed == [{"id": "r2", "status": "shed",
                         "reason": "service queue full "
                                   "(REPRO_SERVICE_QUEUE=1)"}]
        # without shedding, admission blocks until a slot frees: the rows
        # completed along the way come back with the call
        rows = service.submit(_request("r3"))
        assert [row["id"] for row in rows] == ["r1"]
        rows = service.drain()
        assert [row["id"] for row in rows] == ["r3"]
        stats = service.stats
    assert stats.shed == 1 and stats.completed == 2


def test_reject_counts_and_echoes_the_reason(tmp_path):
    with AttackService(tmp_path, workers=1) as service:
        row = service.reject("bad", "field 'seed' must be int, got str")
        assert row["status"] == "rejected"
        assert service.stats.rejected == 1


# -- the pooled service: differential fault recovery --------------------------

@needs_fork
def test_pooled_service_under_faults_matches_serial_byte_for_byte(tmp_path,
                                                                  monkeypatch):
    """The acceptance property: a batch served across workers under
    kill/exit0/hang/raise faults produces done rows byte-identical to
    one-shot serial runs, with every request terminal."""
    requests = [_request(f"r{i}", seed=i + 1) for i in range(4)]
    reference = {request.id: execute_request(request) for request in requests}

    monkeypatch.setenv("REPRO_FAULT_INJECT", "0:kill,1:exit0,2:hang,3:raise")
    with AttackService(tmp_path / "served", workers=2, deadline=5.0,
                       backoff=0.0) as service:
        rows = []
        for request in requests:
            rows.extend(service.submit(request))
        rows.extend(service.drain())
        stats = service.stats
    assert {row["id"]: row for row in rows} == reference
    assert stats.completed == 4 and stats.quarantined == 0
    assert stats.retried == 4          # every fault cost exactly one retry
    assert stats.timeouts == 1         # the hang, killed by the deadline
    assert stats.respawns >= 3         # kill, exit0, and the hang's killer
    assert stats.degraded == 0
    journaled = Journal.load(tmp_path / "served")
    assert set(journaled) == {request_fingerprint(r) for r in requests}


@needs_fork
def test_circuit_breaker_degrades_to_inline_and_still_completes(tmp_path,
                                                                monkeypatch):
    """A request whose worker dies on every attempt would burn respawns
    forever; past the pool's respawn limit (``breaker=``) the pool degrades
    in place and finishes the batch in-process, where kill faults cannot
    reach it."""
    monkeypatch.setenv("REPRO_FAULT_INJECT", "0:kill:always")
    _fake_executor(monkeypatch)
    requests = [_request(f"r{i}", seed=i + 1) for i in range(3)]
    with AttackService(tmp_path, workers=2, retries=10, backoff=0.0,
                       breaker=2) as service:
        rows = []
        for request in requests:
            rows.extend(service.submit(request))
        rows.extend(service.drain())
        stats = service.stats
        assert service.degraded
    assert stats.degraded == 1
    assert stats.respawns >= 3         # what tripped the breaker
    assert sorted(row["id"] for row in rows) == ["r0", "r1", "r2"]
    assert all(row["status"] == "done" for row in rows)


@needs_fork
def test_pooled_retry_backoff_is_exponential(tmp_path, monkeypatch):
    """A forked pool schedules backoff like the inline one: the poisoned
    request waits 0.05 + 0.10 s across its two retries while its
    neighbour completes, then it is quarantined."""
    monkeypatch.setenv("REPRO_FAULT_INJECT", "0:raise:always")
    _fake_executor(monkeypatch)
    started = time.monotonic()
    with AttackService(tmp_path, workers=2, retries=2,
                       backoff=0.05) as service:
        service.submit(_request("r0"))
        service.submit(_request("r1"))
        with _fail_if_hung(60):   # a retry never released would hang drain()
            rows = service.drain()
        stats = service.stats
    elapsed = time.monotonic() - started
    assert {row["id"]: row["status"] for row in rows} == \
        {"r0": "quarantined", "r1": "done"}
    assert stats.retried == 2 and stats.quarantined == 1
    assert stats.completed == 1 and stats.respawns == 0
    assert elapsed >= 0.14


@needs_fork
def test_pooled_rows_equal_serial_rows_without_faults(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
    requests = [_request(f"r{i}", seed=i + 1) for i in range(3)]
    reference = {request.id: execute_request(request) for request in requests}
    with AttackService(tmp_path, workers=2) as service:
        rows = []
        for request in requests:
            rows.extend(service.submit(request))
        rows.extend(service.drain())
    assert {row["id"]: row for row in rows} == reference


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
def test_se_request_serves_like_its_one_shot_row(tmp_path, monkeypatch,
                                                  workers):
    """The static engine is built per request (only DSE engines are cached);
    served inline or pooled, its row is still the one-shot row."""
    monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
    request = _request("se", engine="se", configuration="ROP0.25",
                       max_executions=3)
    reference = execute_request(request)
    assert reference["engine"] == "se" and reference["executions"] <= 3
    with AttackService(tmp_path, workers=workers) as service:
        rows = service.submit(request) + service.drain()
    assert rows == [reference]


# -- knobs and the CLI --------------------------------------------------------

def test_service_knob_resolution(monkeypatch, tmp_path):
    for name in ("REPRO_SERVICE_WORKERS", "REPRO_SERVICE_QUEUE",
                 "REPRO_SERVICE_BACKOFF", "REPRO_UNIT_TIMEOUT",
                 "REPRO_UNIT_RETRIES"):
        monkeypatch.delenv(name, raising=False)
    assert service_workers() == 1
    assert service_queue_limit() == 64
    assert service_backoff() == 0.1
    monkeypatch.setenv("REPRO_SERVICE_WORKERS", "4")
    monkeypatch.setenv("REPRO_SERVICE_QUEUE", "0")
    monkeypatch.setenv("REPRO_SERVICE_BACKOFF", "junk")
    assert service_workers() == 4
    assert service_queue_limit() == 1   # clamped to a usable bound
    assert service_backoff() == 0.1
    # a non-finite delay would park a retry forever: it falls back too
    for value in ("inf", "-inf", "nan"):
        monkeypatch.setenv("REPRO_SERVICE_BACKOFF", value)
        assert service_backoff() == 0.1
    # the pool's recovery policy: the request deadline is the shared unit
    # deadline, and the breaker argument is the pool's respawn limit
    monkeypatch.setenv("REPRO_UNIT_TIMEOUT", "7")
    with AttackService(tmp_path, workers=2) as service:
        assert service._pool.deadline == 7.0
        assert service._pool.respawn_limit == 8   # max(8, 2 * (2 + 2))
    with AttackService(tmp_path, workers=2, deadline=0, breaker=3) as service:
        assert service._pool.deadline is None     # explicit 0 disables
        assert service._pool.respawn_limit == 3


def test_cli_drains_a_batch_and_reports_rejects(tmp_path, capsys,
                                                monkeypatch):
    _fake_executor(monkeypatch)
    batch = tmp_path / "requests.jsonl"
    batch.write_text("\n".join([
        "# comment lines and blanks are skipped",
        "",
        json.dumps({"id": "good", "configuration": "NATIVE"}),
        "this is not json",
        json.dumps({"id": "bad", "bogus": 1}),
    ]) + "\n")
    code = service_main([str(batch), "--dir", str(tmp_path / "out")])
    assert code == 0
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines()]
    summary = lines[-1]["summary"]
    assert summary["completed"] == 1
    assert summary["rejected"] == 2
    by_status = {}
    for row in lines[:-1]:
        by_status.setdefault(row["status"], []).append(row)
    assert [row["id"] for row in by_status["done"]] == ["good"]
    assert len(by_status["rejected"]) == 2
    assert any("invalid JSON" in row["reason"]
               for row in by_status["rejected"])
    assert any("unknown request field" in row["reason"]
               for row in by_status["rejected"])


def test_cli_exit_code_reflects_quarantine(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_INJECT", "0:raise:always")
    monkeypatch.setenv("REPRO_UNIT_RETRIES", "0")
    monkeypatch.setenv("REPRO_SERVICE_BACKOFF", "0")
    _fake_executor(monkeypatch)
    batch = tmp_path / "requests.jsonl"
    batch.write_text(json.dumps({"id": "doomed",
                                 "configuration": "NATIVE"}) + "\n")
    code = service_main([str(batch), "--dir", str(tmp_path / "out")])
    assert code == 1
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines()]
    assert lines[0]["status"] == "quarantined"
    assert lines[-1]["summary"]["quarantined"] == 1
