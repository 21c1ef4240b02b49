"""Fault tolerance: injection harness, supervised pool, checkpoint-resume."""

import contextlib
import json
import math
import signal

import pytest

from repro.evaluation import parallel
from repro.evaluation.grid import (
    Checkpoint,
    compare_summaries,
    load_resume,
    run_grid,
    write_artifacts,
)
from repro.evaluation.parallel import (
    WorkerPool,
    fork_available,
    quarantine_row,
    unit_fingerprint,
)
from repro.evaluation.table3 import table3_units
from repro.faults import InjectedFault, inject_fault, parse_fault_spec
from tests.evaluation.test_parallel_grid import GOLDEN_SMOKE_ROWS

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method required")


def _units():
    """Three cheap table3 units (k=0 skips obfuscation entirely)."""
    return table3_units(("fasta",), (0.0, 0.05, 0.25), seed=1)


def _ok_rows(rows):
    return [row for row in rows if row.get("status") != "failed"]


# -- the harness itself -------------------------------------------------------

def test_parse_fault_spec_modes_counts_and_malformed_directives():
    spec = parse_fault_spec("0:raise,3:hang:2,5:kill:always, 7 : exit0 ")
    assert spec == {0: ("raise", 1.0), 3: ("hang", 2.0),
                    5: ("kill", math.inf), 7: ("exit0", 1.0)}
    # malformed directives are skipped, never an error: a typo in the
    # environment must not crash a worker that would otherwise run fine
    assert parse_fault_spec("junk,1:frobnicate,x:raise,2:raise:soon,,") == {}
    assert parse_fault_spec("") == {}
    assert parse_fault_spec("4") == {}


def test_parse_fault_spec_slow_mode_carries_its_delay():
    spec = parse_fault_spec("0:slow:250,1:slow:100:2,2:slow:50:always")
    assert spec == {0: ("slow:250", 1.0), 1: ("slow:100", 2.0),
                    2: ("slow:50", math.inf)}
    # malformed slow directives (missing/negative/non-integer delay) are
    # skipped like any other typo, never an error
    assert parse_fault_spec("0:slow,1:slow:-5,2:slow:fast,3:slow:1:2:3") == {}


def test_inject_slow_delays_then_returns_normally():
    import time
    spec = parse_fault_spec("0:slow:120")
    started = time.monotonic()
    inject_fault(0, attempt=0, spec=spec)   # sleeps, does not raise
    assert time.monotonic() - started >= 0.1
    started = time.monotonic()
    inject_fault(0, attempt=1, spec=spec)   # count exhausted: no delay
    assert time.monotonic() - started < 0.1
    # slow is honoured inline too — it cannot corrupt the driver
    started = time.monotonic()
    inject_fault(0, attempt=0, spec=spec, inline=True)
    assert time.monotonic() - started >= 0.1


def test_inject_fault_counts_attempts_and_inline_gating():
    spec = parse_fault_spec("0:raise,1:raise:always,2:kill")
    with pytest.raises(InjectedFault):
        inject_fault(0, attempt=0, spec=spec)
    # count=1 (the default): only the first attempt fails, the retry runs
    inject_fault(0, attempt=1, spec=spec)
    with pytest.raises(InjectedFault):
        inject_fault(1, attempt=5, spec=spec)  # "always" never stops firing
    inject_fault(3, attempt=0, spec=spec)  # untargeted index: no-op
    # inline execution only honours raise — kill would take down the driver
    inject_fault(2, attempt=0, spec=spec, inline=True)


# -- supervised pool recovery -------------------------------------------------

@contextlib.contextmanager
def _fail_if_hung(seconds):
    """Raise in the main thread after ``seconds``.  A result lost in
    transit leaves ``map`` waiting forever, so the loss shows as a hang;
    the alarm turns it into a failure (``map`` aborts its pool on the way
    out)."""
    def hung(*_):
        raise TimeoutError(f"pool still waiting after {seconds}s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _map_with_env(monkeypatch, env, workers=2, units=None):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    with WorkerPool(workers) as pool:
        rows, worker_ids = pool.map(units if units is not None else _units())
    return rows, worker_ids, pool.stats


@needs_fork
def test_raise_once_is_retried_and_rows_match_unfaulted(monkeypatch):
    reference, _ = WorkerPool(1).map(_units())
    rows, _, stats = _map_with_env(monkeypatch, {"REPRO_FAULT_INJECT": "1:raise"})
    assert rows == reference
    assert stats.retries == 1
    assert stats.failed_units == 0
    assert stats.respawns == 0


@needs_fork
def test_raise_always_quarantines_after_retries(monkeypatch):
    reference, _ = WorkerPool(1).map(_units())
    rows, _, stats = _map_with_env(
        monkeypatch,
        {"REPRO_FAULT_INJECT": "1:raise:always", "REPRO_UNIT_RETRIES": "1"})
    assert stats.failed_units == 1
    assert stats.retries == 1
    failed = rows[1]
    assert failed["status"] == "failed"
    assert "InjectedFault" in failed["error"]
    assert failed["part"] == "table3"
    assert failed["benchmark"] == "fasta"
    # the surviving rows are untouched by the quarantine
    assert [rows[0], rows[2]] == [reference[0], reference[2]]


@needs_fork
@pytest.mark.parametrize("mode", ["kill", "exit0"])
def test_worker_death_is_detected_respawned_and_unit_retried(monkeypatch, mode):
    """SIGKILL and the *clean* premature exit 0 — the case an exit-code
    filter cannot see — both resolve to a respawn plus a successful retry.

    Unit 0 dies on a fresh worker; unit 2 dies on a worker that has just
    finished an earlier unit, whose result must survive the death.
    """
    reference, _ = WorkerPool(1).map(_units())
    with _fail_if_hung(60):
        rows, _, stats = _map_with_env(
            monkeypatch, {"REPRO_FAULT_INJECT": f"0:{mode},2:{mode}"})
    assert rows == reference
    assert stats.respawns >= 2
    assert stats.retries == 2
    assert stats.failed_units == 0


@needs_fork
def test_more_workers_than_cores_deliver_every_result_once(monkeypatch):
    """Four workers (more than CI's two cores) contend for the shared result
    pipe while three of them exit mid-run: every unit still resolves exactly
    once, to its inline row."""
    units = _units() * 4
    reference, _ = WorkerPool(1).map(units)
    with _fail_if_hung(120):
        rows, _, stats = _map_with_env(
            monkeypatch, {"REPRO_FAULT_INJECT": "3:exit0,6:kill,9:exit0"},
            workers=4, units=units)
    assert rows == reference
    assert stats.retries == 3
    assert stats.failed_units == 0


@needs_fork
def test_hang_is_killed_by_unit_deadline_and_retried(monkeypatch):
    reference, _ = WorkerPool(1).map(_units())
    rows, _, stats = _map_with_env(
        monkeypatch,
        {"REPRO_FAULT_INJECT": "2:hang", "REPRO_UNIT_TIMEOUT": "2"})
    assert rows == reference
    assert stats.timeouts == 1
    assert stats.retries == 1
    assert stats.failed_units == 0


@needs_fork
def test_slow_fault_delays_but_never_alters_rows(monkeypatch):
    """slow:ms probes deadline-boundary behavior: the unit finishes late but
    honestly, so nothing is retried and the rows are untouched."""
    reference, _ = WorkerPool(1).map(_units())
    rows, _, stats = _map_with_env(
        monkeypatch, {"REPRO_FAULT_INJECT": "1:slow:200"})
    assert rows == reference
    assert stats.retries == 0
    assert stats.timeouts == 0
    assert stats.failed_units == 0


@needs_fork
def test_respawns_past_the_limit_degrade_the_pool_to_inline(monkeypatch):
    """Workers that die on every attempt cannot respawn forever: past the
    respawn limit (max(8, 2 * (2 + 2)) = 8 here) the pool aborts its forked
    workers and finishes the map inline, where kill faults cannot reach.

    Which dying units exhaust their retries before the pool degrades
    depends on the schedule, so only schedule-free facts are asserted:
    the map completes, and every row that is not quarantined is the
    inline pool's row.
    """
    units = _units() * 2
    reference, _ = WorkerPool(1).map(units)
    with _fail_if_hung(120):
        rows, _, stats = _map_with_env(
            monkeypatch,
            {"REPRO_FAULT_INJECT": ",".join(f"{index}:kill:always"
                                            for index in range(4)),
             "REPRO_UNIT_RETRIES": "2"},
            units=units)
    assert stats.degraded == 1
    assert stats.respawns > 8
    assert len(rows) == len(units)
    assert all(row == expected for row, expected in zip(rows, reference)
               if row.get("status") != "failed")
    # only the four dying units can have been quarantined
    assert all(row.get("status") != "failed" for row in rows[4:])


@needs_fork
def test_fault_indexes_are_global_across_map_calls(monkeypatch):
    """REPRO_FAULT_INJECT indexes the pool-lifetime dispatch sequence, so a
    directive can target a unit of the *second* map() call deterministically."""
    monkeypatch.setenv("REPRO_FAULT_INJECT", "4:raise:always")
    monkeypatch.setenv("REPRO_UNIT_RETRIES", "0")
    with WorkerPool(2) as pool:
        first, _ = pool.map(_units())   # global indexes 0..2
        second, _ = pool.map(_units())  # global indexes 3..5
    assert all(row.get("status") != "failed" for row in first)
    assert second[1]["status"] == "failed"
    assert pool.stats.failed_units == 1


# -- fingerprints and the checkpoint ledger -----------------------------------

def test_unit_fingerprint_is_deterministic_and_parameter_sensitive():
    a, b, c = _units()
    assert unit_fingerprint(a) == unit_fingerprint(table3_units(
        ("fasta",), (0.0,), seed=1)[0])
    assert len({unit_fingerprint(u) for u in (a, b, c)}) == 3
    # any parameter change invalidates the fingerprint — a checkpoint from
    # a different seed must match nothing
    assert unit_fingerprint(a) != unit_fingerprint(
        table3_units(("fasta",), (0.0,), seed=2)[0])
    assert unit_fingerprint(object()).startswith("object:")


def test_checkpoint_roundtrip_tolerates_torn_and_corrupt_lines(tmp_path):
    with Checkpoint(tmp_path) as checkpoint:
        checkpoint.record("fp1", "table3", {"benchmark": "fasta"})
        checkpoint.record("fp2", "figure5", {"k": 1.0})
    # simulate a driver killed mid-write: torn final line plus line noise
    path = tmp_path / Checkpoint.FILENAME
    path.write_text(path.read_text() + "not json\n" + '{"fingerprint": "fp3"')
    entries = Checkpoint.load(tmp_path)
    assert entries == {
        "fp1": {"part": "table3", "result": {"benchmark": "fasta"}},
        "fp2": {"part": "figure5", "result": {"k": 1.0}},
    }
    assert Checkpoint.load(tmp_path / "nowhere") == {}
    # appending (a resumed run reusing the directory) never truncates
    with Checkpoint(tmp_path) as checkpoint:
        checkpoint.record("fp4", "table3", {})
    assert set(Checkpoint.load(tmp_path)) == {"fp1", "fp2", "fp4"}


def test_checkpoint_meta_written_once_and_resume_validates_axes(tmp_path):
    """A --resume ledger recorded under a different slice/seed would match
    nothing fingerprint-wise, silently reading as a fresh run; the meta line
    makes the mismatch loud and the ledger is ignored."""
    axes = {"slice": "smoke", "seed": 1}
    with Checkpoint(tmp_path, meta=axes) as checkpoint:
        checkpoint.record("fp1", "table3", {})
    assert Checkpoint.load_meta(tmp_path) == axes
    # reopening an existing ledger never writes a second meta line
    with Checkpoint(tmp_path, meta=axes) as checkpoint:
        checkpoint.record("fp2", "table3", {})
    lines = (tmp_path / Checkpoint.FILENAME).read_text().splitlines()
    assert sum(1 for line in lines if "meta" in json.loads(line)) == 1
    # the meta line never pollutes the fingerprint ledger
    assert set(Checkpoint.load(tmp_path)) == {"fp1", "fp2"}

    completed, messages = load_resume(tmp_path, axes)
    assert set(completed) == {"fp1", "fp2"}
    assert any("2 completed unit(s)" in message for message in messages)

    completed, messages = load_resume(tmp_path, {"slice": "smoke", "seed": 2})
    assert completed == {}
    assert any("WARNING" in message and "seed=1" in message
               and "seed=2" in message for message in messages)


def test_legacy_ledger_without_meta_still_resumes(tmp_path):
    with Checkpoint(tmp_path) as checkpoint:  # pre-meta ledger shape
        checkpoint.record("fp1", "table3", {})
    assert Checkpoint.load_meta(tmp_path) is None
    assert Checkpoint.load_meta(tmp_path / "nowhere") is None
    completed, messages = load_resume(tmp_path, {"slice": "full", "seed": 9})
    assert set(completed) == {"fp1"}
    assert not any("WARNING" in message for message in messages)


def test_resume_skips_completed_units_entirely(tmp_path, monkeypatch):
    """A resumed grid re-executes zero completed units: with every unit
    checkpointed, the rerun succeeds even when execution itself is broken."""
    out = tmp_path / "run1"
    with Checkpoint(out) as checkpoint:
        first = run_grid("smoke", seed=1, workers=1, checkpoint=checkpoint)
    completed = Checkpoint.load(out)
    total_units = sum(len(rows) for rows in first.values())
    assert len(completed) == total_units

    def boom(unit):
        raise AssertionError(f"resumed run re-executed {unit!r}")

    monkeypatch.setattr(parallel, "execute_unit", boom)
    resumed = run_grid("smoke", seed=1, workers=1, completed=completed)
    assert resumed == first


def test_quarantined_units_are_not_checkpointed_and_retry_on_resume(tmp_path,
                                                                    monkeypatch):
    units = _units()
    out = tmp_path / "run"
    monkeypatch.setenv("REPRO_FAULT_INJECT", "1:raise:always")
    monkeypatch.setenv("REPRO_UNIT_RETRIES", "0")
    with Checkpoint(out) as checkpoint, WorkerPool(1) as pool:
        fingerprints = [unit_fingerprint(unit) for unit in units]

        def on_result(index, unit, payload):
            if payload.get("status") != "failed":
                checkpoint.record(fingerprints[index], "table3", payload)

        rows, _ = pool.map(units, on_result=on_result)
    assert rows[1]["status"] == "failed"
    completed = Checkpoint.load(out)
    # the failed unit is absent from the ledger: a resumed run retries it
    assert set(completed) == {fingerprints[0], fingerprints[2]}
    monkeypatch.delenv("REPRO_FAULT_INJECT")
    retried, _ = WorkerPool(1).map([units[1]])
    assert retried[0].get("status") != "failed"


# -- grid-level integration ---------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_grid_with_quarantined_cell_matches_serial_on_survivors(monkeypatch,
                                                                workers):
    """A grid with one poisoned cell (quarantined) — and, with forked
    workers, one injected kill (recovered) — still produces the golden
    serial rows for every survivor.

    One run_grid call dispatches parts in body order (figure5, table2,
    table3), so global unit indexes 0-1 are the figure5 bars.  Index 1
    (fasta@k=1.0) raises on every attempt and is quarantined; at 2 workers
    index 0 (fasta@k=0.25) is also killed once and recovers.  The serial
    run is the pool's inline mode, which honours ``raise`` faults too.
    """
    if workers > 1 and not fork_available():
        pytest.skip("fork start method required")
    golden = json.loads(GOLDEN_SMOKE_ROWS.read_text())
    monkeypatch.setenv("REPRO_FAULT_INJECT", "1:raise:always" if workers == 1
                       else "0:kill,1:raise:always")
    meta = {}
    faulty = run_grid("smoke", seed=1, workers=workers, meta=meta)
    assert meta["faults"]["failed_units"] == 1
    if workers > 1:
        assert meta["faults"]["respawns"] >= 1

    assert faulty["table3"] == golden["table3"]
    failed = [row for row in faulty["figure5"] if row.get("status") == "failed"]
    assert len(failed) == 1
    assert failed[0]["benchmark"] == "fasta" and failed[0]["k"] == 1.0
    assert _ok_rows(faulty["figure5"]) == \
        [row for row in golden["figure5"] if row["k"] != 1.0]
    # table2 was untouched by the faults: identical up to wall-clock
    assert [{k: v for k, v in row.items() if k != "average_time"}
            for row in faulty["table2"]] == golden["table2"]


def test_write_artifacts_excludes_quarantined_rows_from_aggregates(tmp_path):
    table2 = [
        {"configuration": "NATIVE", "secrets_found": 1, "functions": 1,
         "full_coverage": 0, "average_time": 0.1, "executions": 5,
         "instructions": 100, "branch_restores": 0},
        quarantine_row(_units()[0], "InjectedFault: boom"),
    ]
    figure5 = [
        {"benchmark": "fasta", "k": 0.25, "slowdown_vs_baseline": 1.5},
        {"status": "failed", "error": "x", "part": "figure5",
         "benchmark": "fasta", "k": 1.0},
    ]
    out = write_artifacts({"table2": table2, "figure5": figure5},
                          tmp_path / "run", "smoke", elapsed=1.0,
                          faults={"failed_units": 2, "retries": 4,
                                  "respawns": 1, "timeouts": 0})
    summary = json.loads((out / "summary.json").read_text())
    assert summary["faults"]["failed_units"] == 2
    assert summary["attack_engine"]["executions"] == 5
    assert list(summary["table2_configs"]) == ["NATIVE"]
    assert list(summary["figure5_overheads"]) == ["fasta@k0.25"]
    # the quarantined rows themselves are preserved in the artifacts
    assert json.loads((out / "table2.json").read_text())[1]["status"] == "failed"
    # legacy summaries (no faults recorded) default to zero counters
    out = write_artifacts({"table2": table2[:1]}, tmp_path / "old", "smoke",
                          elapsed=1.0)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["faults"] == {"failed_units": 0, "retries": 0,
                                 "respawns": 0, "timeouts": 0}


def test_compare_flags_runs_with_quarantined_cells():
    clean = {"table2_configs": {"NATIVE": {
        "secret_rate": 1.0, "coverage_rate": 1.0, "average_time": 0.1}},
        "faults": {"failed_units": 0, "retries": 0, "respawns": 0,
                   "timeouts": 0}}
    partial = {"table2_configs": {"NATIVE": {
        "secret_rate": 1.0, "coverage_rate": 1.0, "average_time": 0.1}},
        "faults": {"failed_units": 2, "retries": 6, "respawns": 2,
                   "timeouts": 1}}
    lines, shifted = compare_summaries(clean, partial)
    assert any("warning: new run has 2 quarantined cell(s)" in line
               for line in lines)
    assert not shifted  # a warning, not a threshold alarm
    lines, _ = compare_summaries(partial, clean)
    assert any("warning: old run has 2 quarantined cell(s)" in line
               for line in lines)
    lines, _ = compare_summaries(clean, clean)
    assert not any("quarantined" in line for line in lines)
