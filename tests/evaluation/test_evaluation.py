"""Smoke tests for the evaluation drivers (tiny scales)."""

from repro.attacks import AttackBudget
from repro.evaluation import (
    render_table,
    run_case_study,
    run_coverage_study,
    run_figure5,
    run_table2,
    run_table3,
)
from repro.obfuscation.configs import NATIVE, ropk
from repro.workloads.randomfuns import RandomFunSpec


def test_render_table_alignment():
    text = render_table(("a", "bbbb"), [(1, 2), (333, 4)], title="t")
    lines = text.splitlines()
    assert lines[0] == "t"
    assert "333" in lines[-1]


def test_run_table2_smoke():
    specs = [RandomFunSpec(structure="if(bb4,bb4)", input_size=1, seed=1)]
    rows = run_table2(configurations=[NATIVE, ropk(1.0)], specs=specs,
                      budget=AttackBudget(seconds=1.5, max_executions=25),
                      include_coverage=True)
    assert len(rows) == 2
    native = rows[0]
    assert native.functions == 1
    assert native.secrets_found in (0, 1)


def test_run_table3_smoke():
    rows = run_table3(benchmarks=["fasta"], k_values=[0.0, 1.0])
    assert len(rows) == 2
    assert rows[1].total_gadgets > rows[0].total_gadgets


def test_run_figure5_smoke():
    bars = run_figure5(benchmarks=["fasta"], k_values=[0.25])
    assert len(bars) == 1
    assert bars[0].slowdown_vs_native > 1.0


def test_run_coverage_study_smoke():
    result = run_coverage_study(programs=3, functions_per_program=4)
    assert result.total_functions == result.skipped_small + result.attempted
    assert 0.0 <= result.coverage <= 1.0


def test_grid_driver_writes_artifacts(tmp_path):
    from repro.evaluation.grid import run_grid, write_artifacts
    import json

    results = run_grid("smoke", parts=["table3"])
    assert set(results) == {"table3"} and results["table3"]
    out = write_artifacts(results, tmp_path / "grid", "smoke", elapsed=1.0)
    rows = json.loads((out / "table3.json").read_text())
    assert rows == results["table3"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["slice"] == "smoke"
    assert summary["grids"] == {"table3": len(rows)}
    assert set(summary["attack_engine"]) == {"executions", "instructions",
                                             "branch_restores",
                                             "executions_by_worker"}
    assert summary["workers"] == 1


def test_run_case_study_smoke():
    results = run_case_study(configurations=[NATIVE, ropk(0.0)],
                             budget=AttackBudget(seconds=1.0, max_executions=10))
    assert len(results) == 2
    assert results[1].execution_instructions > results[0].execution_instructions


def test_grid_module_runs_without_runtime_warning():
    """``python -m repro.evaluation.grid`` runs its module as ``__main__``;
    the package must not have imported it first (runpy warns when it has)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.evaluation.grid", "--help"],
        env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "Warning" not in result.stderr
