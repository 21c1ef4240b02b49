"""Sharded grid evaluation: unit decomposition, merge, pool and determinism."""

import json
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.attacks import AttackBudget
from repro.attacks.dse import DseEngine
from repro.compiler import compile_program
from repro.evaluation.configurations import NATIVE, nvm, ropk
from repro.evaluation.figure5 import figure5_units
from repro.evaluation.grid import (
    _config_aggregates,
    compare_summaries,
    executions_by_worker,
    run_grid,
    write_artifacts,
)
from repro.evaluation.parallel import (WorkerPool, fork_available,
                                       register_unit_executor)
from repro.evaluation.table2 import merge_table2, table2_units
from repro.evaluation.table3 import table3_units
from repro.lang import Const, Function, Program, Return
from repro.workloads.randomfuns import RandomFunSpec

#: ``run_grid("smoke", seed=1, workers=1)`` with ``average_time`` stripped,
#: recorded from the serial drivers before they became the pool's inline
#: mode: the independent reference every worker count must reproduce.
GOLDEN_SMOKE_ROWS = Path(__file__).with_name("golden_smoke_rows.json")


def _strip_wallclock(results):
    """Drop the wall-clock fields that are nondeterministic even serially."""
    stripped = {}
    for name, rows in results.items():
        rows = [dict(row) for row in rows]
        for row in rows:
            row.pop("average_time", None)
        stripped[name] = rows
    return stripped


def test_smoke_grid_parallel_rows_match_serial():
    """The tentpole determinism property: workers=1 and workers=2 both
    reproduce the golden smoke rows, row for row.

    The smoke slice's budgets are deterministic caps (executions, solver
    queries, instructions) with a generous wall clock, so every count in
    every row must agree exactly; only ``average_time`` is wall-clock.
    """
    golden = json.loads(GOLDEN_SMOKE_ROWS.read_text())
    for workers in (1, 2):
        meta = {}
        rows = _strip_wallclock(run_grid("smoke", seed=1, workers=workers,
                                         meta=meta))
        assert rows == golden, f"workers={workers}"
        # the JSON serialization (what the artifacts persist) agrees too
        assert json.dumps(rows, sort_keys=True) == \
            json.dumps(golden, sort_keys=True)
        # the side-channel attributes every attack execution to some worker
        total = sum(row["executions"] for row in golden["table2"])
        assert sum(meta["executions_by_worker"].values()) == total


def test_unit_decomposition_orders_match_serial_loops():
    f5 = figure5_units(("fasta", "rev-comp"), (0.25, 1.0), nvm(1, "all"), seed=1)
    assert [(u.benchmark, u.k) for u in f5] == [
        ("fasta", 0.25), ("fasta", 1.0), ("rev-comp", 0.25), ("rev-comp", 1.0)]
    t3 = table3_units(("fasta",), (0.05, 0.25), seed=1)
    assert [(u.benchmark, u.k) for u in t3] == [("fasta", 0.05), ("fasta", 0.25)]
    specs = [RandomFunSpec(structure="if(bb4,bb4)", input_size=1, seed=s)
             for s in (1, 2)]
    t2 = table2_units([NATIVE, ropk(1.0)], specs, AttackBudget(),
                      include_coverage=False, seed=1)
    assert [(u.configuration.name, u.spec.seed) for u in t2] == [
        ("NATIVE", 1), ("NATIVE", 2), ("ROP1.00", 1), ("ROP1.00", 2)]


def test_merge_table2_reassembles_serial_rows():
    specs = [RandomFunSpec(structure="if(bb4,bb4)", input_size=1, seed=s)
             for s in (1, 2)]
    units = table2_units([NATIVE, ropk(1.0)], specs, AttackBudget(),
                         include_coverage=True, seed=1)
    cells = [
        # NATIVE: both secrets found, one full coverage
        {"secret_found": True, "time_to_success": 0.5, "coverage_full": True,
         "executions": 3, "instructions": 100, "branch_restores": 0},
        {"secret_found": True, "time_to_success": 1.5, "coverage_full": False,
         "executions": 4, "instructions": 200, "branch_restores": 1},
        # ROP1.00: one secret
        {"secret_found": False, "time_to_success": 5.0, "coverage_full": False,
         "executions": 10, "instructions": 9000, "branch_restores": 2},
        {"secret_found": True, "time_to_success": 2.0, "coverage_full": False,
         "executions": 12, "instructions": 8000, "branch_restores": 3},
    ]
    rows = merge_table2(units, cells)
    assert rows == [
        {"configuration": "NATIVE", "secrets_found": 2, "functions": 2,
         "average_time": 1.0, "full_coverage": 1, "executions": 7,
         "instructions": 300, "branch_restores": 1},
        {"configuration": "ROP1.00", "secrets_found": 1, "functions": 2,
         "average_time": 2.0, "full_coverage": 0, "executions": 22,
         "instructions": 17000, "branch_restores": 5},
    ]
    # unsuccessful-only configurations average to 0.0
    rows = merge_table2(units[:1], [dict(cells[2])])
    assert rows[0]["average_time"] == 0.0

    by_worker = executions_by_worker([0, 1, 0, 1], cells)
    assert by_worker == {"0": 13, "1": 16}


def test_worker_pool_serial_fallback_and_error_quarantine(monkeypatch):
    pool = WorkerPool(1)
    assert not pool.parallel
    units = table3_units(("fasta",), (0.0,), seed=1)
    results, worker_ids = pool.map(units)
    assert worker_ids == [0]
    assert results[0]["benchmark"] == "fasta"
    assert pool.map([]) == ([], [])

    # the inline pool speaks the same submit/pump protocol: one result
    # event per pump, in submit order
    two = table3_units(("fasta",), (0.0, 0.05), seed=1)
    ids = [pool.submit(unit) for unit in two]
    events = pool.pump() + pool.pump()
    assert [(event.kind, event.status, event.dispatch_id, event.worker)
            for event in events] == [("result", "ok", ids[0], 0),
                                     ("result", "ok", ids[1], 0)]
    assert [event.payload["k"] for event in events] == [0.0, 0.05]

    # the pool re-dispatches a failed unit under the same dispatch id with a
    # higher attempt, which a count-limited directive no longer sabotages:
    # one pump surfaces only the retry's ok event
    target = ids[1] + 1
    monkeypatch.setenv("REPRO_FAULT_INJECT", f"{target}:raise:1")
    assert pool.submit(units[0]) == target
    [retried] = pool.pump()
    assert retried.dispatch_id == target and retried.status == "ok"
    assert pool.stats.retries == 1
    monkeypatch.delenv("REPRO_FAULT_INJECT")

    # an empty queue returns at once instead of waiting out the timeout
    started = time.monotonic()
    assert pool.pump(timeout=5.0) == []
    assert time.monotonic() - started < 1.0

    # a poisoned unit no longer aborts the run: after the retries exhaust
    # it is quarantined as a status=failed row and the map completes
    monkeypatch.setenv("REPRO_UNIT_RETRIES", "0")
    bad, _ = pool.map([object()])
    assert bad[0]["status"] == "failed"
    assert "unknown work unit" in bad[0]["error"]
    assert pool.stats.failed_units == 1

    if fork_available():
        with WorkerPool(2) as bad_pool:
            rows, _ = bad_pool.map([object(), *units])
            assert rows[0]["status"] == "failed"
            assert "unknown work unit" in rows[0]["error"]
            assert rows[1]["benchmark"] == "fasta"
            assert bad_pool.stats.failed_units == 1


@dataclass(frozen=True)
class _CapacityProbe:
    """Work unit reporting the snapshot capacity of a freshly built engine."""


def _engine_snapshot_capacity(unit=None) -> int:
    image = compile_program(Program([Function("f", ["x"],
                                              [Return(Const(0))])]))
    return DseEngine(image, "f")._pool.capacity


register_unit_executor(_CapacityProbe, _engine_snapshot_capacity)


@pytest.mark.skipif(not fork_available(), reason="needs a fork pool")
def test_worker_engines_keep_the_exploration_snapshot_capacity():
    """A forked worker builds its DSE engines exactly as the parent does:
    the snapshot capacity belongs to one exploration, not to a worker's
    share of a budget, so rows cannot depend on the worker count."""
    with WorkerPool(2) as pool:
        assert pool.parallel
        results, _ = pool.map([_CapacityProbe()])
    assert results == [_engine_snapshot_capacity()]


def test_config_aggregates_sums_rows_per_configuration():
    """Multi-seed grids emit several rows per config; none may be dropped."""
    rows = [
        {"configuration": "ROP1.00", "secrets_found": 2, "functions": 6,
         "full_coverage": 1, "average_time": 3.0},
        {"configuration": "ROP1.00", "secrets_found": 4, "functions": 6,
         "full_coverage": 2, "average_time": 1.5},
        {"configuration": "NATIVE", "secrets_found": 6, "functions": 6,
         "full_coverage": 6, "average_time": 0.5},
    ]
    aggregates = _config_aggregates(rows)
    assert aggregates["ROP1.00"]["secret_rate"] == round(6 / 12, 4)
    assert aggregates["ROP1.00"]["coverage_rate"] == round(3 / 12, 4)
    # success-weighted: (3.0*2 + 1.5*4) / 6
    assert aggregates["ROP1.00"]["average_time"] == 2.0
    assert aggregates["NATIVE"]["secret_rate"] == 1.0
    # a configuration with zero successes averages to 0.0, not a ZeroDivision
    zero = _config_aggregates([{"configuration": "X", "secrets_found": 0,
                                "functions": 6, "full_coverage": 0,
                                "average_time": 0.0}])
    assert zero["X"]["average_time"] == 0.0


def test_write_artifacts_records_part_times_and_worker_counts(tmp_path):
    table2 = [{"configuration": "NATIVE", "secrets_found": 1, "functions": 1,
               "full_coverage": 0, "average_time": 0.1, "executions": 5,
               "instructions": 100, "branch_restores": 0}]
    out = write_artifacts({"table2": table2}, tmp_path / "run", "smoke",
                          elapsed=3.0,
                          elapsed_by_part={"table2": 2.5, "figure5": 0.5},
                          executions_by_worker={"0": 3, "1": 2}, workers=2)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["elapsed_by_part"] == {"table2": 2.5, "figure5": 0.5}
    assert summary["workers"] == 2
    assert summary["attack_engine"]["executions_by_worker"] == {"0": 3, "1": 2}
    # the pre-PR call shape still works (existing callers and old scripts)
    out = write_artifacts({"table2": table2}, tmp_path / "old", "smoke",
                          elapsed=1.0)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["elapsed_by_part"] == {}
    assert summary["attack_engine"]["executions_by_worker"] == {}


def test_compare_tolerates_schema_growth():
    base = {"table2_configs": {"NATIVE": {
        "secret_rate": 1.0, "coverage_rate": 1.0, "average_time": 0.1}}}
    grown = {"table2_configs": {"NATIVE": {
        "secret_rate": 1.0, "coverage_rate": 1.0, "average_time": 0.1,
        "novel_metric": 42}},
        "novel_top_level": {"x": 1}}
    lines, shifted = compare_summaries(base, grown)
    assert not shifted
    assert any("ignoring unknown new summary key(s): novel_top_level" in line
               for line in lines)

    # a metric missing from one side is skipped with a notice, not a KeyError
    old_schema = {"table2_configs": {"NATIVE": {"secret_rate": 1.0,
                                                "average_time": 0.1}}}
    lines, shifted = compare_summaries(old_schema, base)
    assert not shifted
    assert any("coverage_rate missing" in line for line in lines)
