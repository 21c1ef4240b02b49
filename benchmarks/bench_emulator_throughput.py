"""Microbenchmark: emulator steady-state throughput and fork/snapshot rates.

This is the perf gate for the fast execution core (decode cache, dispatch
table, the exec-compiled trace tier, memory fast paths, copy-on-write
forking).  It drives a fully ROP-obfuscated
workload (``fasta`` under ``ROP1.00`` — every instruction dispatched through
ret-terminated chains, the worst case the paper measures in Figure 5) and
reports:

* **instructions/sec** of the hook-free interpreter loop in two
  configurations: the default two-tier pipeline and single-step dispatch
  (``REPRO_TRACE_CACHE=0``), plus the JIT pipeline counters of the default
  run (traces compiled, warm-up and compiled runs, compiled-trace hit
  rate),
* **forks/sec** of :meth:`repro.memory.Memory.snapshot`-based program
  forking versus the deep ``load_image`` path the attack engines used to
  take per execution,
* **snapshots/sec** of the full-context :meth:`repro.cpu.Emulator.snapshot`
  / :meth:`~repro.cpu.Emulator.restore` pair the attack engines rewind with,
* **per-engine executions/sec** of the three snapshot-driven attack engines
  (DSE, TDS, ROPMEMU) against their legacy fork-per-execution path, measured
  on a minimal function so the per-execution overhead dominates.  TDS and
  ROPMEMU must stay >= 3x over the legacy path (same-machine ratio); a
  ROP-chain workload is also reported (un-gated — its longer hooked runs
  dilute the per-execution win),
* **grid cells/sec** of the sharded evaluation layer
  (:mod:`repro.evaluation.parallel`): smoke-shaped Table II attack cells
  dispatched through the fork-based worker pool at 1 vs 4 workers.  On
  hosts with >= 4 CPUs (CI runners) the 4-worker rate must stay >= 2.5x the
  1-worker rate; on smaller hosts the numbers are recorded but not gated.

Results are persisted to ``BENCH_emulator.json`` at the repo root so future
PRs see the trajectory.  The committed file doubles as the regression
baseline: a run whose throughput drops more than 20% below it fails.

Usage::

    PYTHONPATH=src python benchmarks/bench_emulator_throughput.py   # or
    PYTHONPATH=src python -m pytest benchmarks/bench_emulator_throughput.py -q

Knobs:

* ``REPRO_BENCH_UPDATE=1`` — rewrite the committed baseline (current
  numbers become the new gate) instead of checking against it.
* ``REPRO_BENCH_GATE=0``   — measure and persist but skip the regression
  assertions (useful on machines much slower than the baseline host).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro import knobs

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_emulator.json"

#: Maximum tolerated interpreter-throughput regression before the gate fails.
REGRESSION_TOLERANCE = 0.20

#: The trace cache is the largest win; flag runs where the environment has
#: turned it off so the report stays honest.
_TRACE_ENABLED = knobs.enabled("REPRO_TRACE_CACHE")

#: Compiled-trace throughput must stay at least this multiple of
#: single-step dispatch on the same machine: the product of the earlier
#: fusion (>= 1.8x over single-step) and compiled (>= 1.5x over fusion)
#: gates, so dropping the tier between them loosens nothing.
COMPILE_SPEEDUP_FLOOR = 2.7

#: Sharded grid evaluation must process smoke-shaped cells at least this
#: multiple of the 1-worker rate when run with 4 workers (the PR 6 tentpole
#: gate; only enforced on hosts with >= 4 CPUs — CI's runners qualify).
GRID_PARALLEL_SPEEDUP_FLOOR = 2.5
GRID_PARALLEL_WORKERS = 4


def measure_calibration(rounds=3):
    """Time a fixed pure-Python integer workload on this machine.

    The committed baseline stores the baseline host's calibration time, so
    the regression gate can scale its absolute instructions/sec numbers by
    the ratio of interpreter speeds — a 20% *code* regression still fails
    while a slower CI runner does not.
    """
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        value = 0
        for i in range(2_000_000):
            value = (value + i) & 0xFFFFFFFFFFFFFFFF
        best = min(best, time.perf_counter() - start)
    return best


def _build_workload():
    """Compile the ROP-chain workload: ``fasta`` fully obfuscated (k=1.00)."""
    from repro.binary import load_image
    from repro.obfuscation.configs import apply_configuration, ropk
    from repro.workloads.clbg import build_clbg_program

    program, entry, argument, names = build_clbg_program("fasta")
    image = apply_configuration(program, names, ropk(1.00), seed=1)
    return load_image(image), entry, argument


def measure_throughput(pristine, entry, argument, rounds=3, trace_cache=None):
    """Run the workload ``rounds`` times; return best-of instructions/sec.

    Each round builds a fresh emulator, so per-round numbers include the
    warm-up cost of the requested tier (decode and — with fusion on —
    trace recording, warm-up runs and ``compile()`` of every hot trace).
    """
    from repro.cpu.emulator import Emulator
    from repro.cpu.host import EXIT_ADDRESS, HostEnvironment
    from repro.isa.registers import ARG_REGISTERS, Register

    best_ips = 0.0
    steps = 0
    jit = None
    for _ in range(rounds):
        program = pristine.fork()
        emulator = Emulator(program.memory, host=HostEnvironment(),
                            max_steps=5_000_000, trace_cache=trace_cache)
        emulator.state.write_reg(Register.RSP, program.stack_top)
        emulator.state.write_reg(Register.RBP, program.stack_top)
        emulator.state.write_reg(ARG_REGISTERS[0], argument)
        emulator.push(EXIT_ADDRESS)
        emulator.state.rip = program.image.function(entry).address
        start = time.perf_counter()
        emulator.run()
        elapsed = time.perf_counter() - start
        steps = emulator.steps
        jit = emulator.jit_stats
        best_ips = max(best_ips, steps / elapsed)
    report = {"instructions": steps, "instructions_per_sec": round(best_ips)}
    if trace_cache:
        report["jit"] = {
            "traces_built": jit.traces_built,
            "traces_compiled": jit.traces_compiled,
            "compile_declined": jit.compile_declined,
            "compiled_runs": jit.compiled_runs,
            "closure_runs": jit.closure_runs,
            "compiled_hit_rate": round(jit.compiled_hit_rate, 4),
        }
    return report


def measure_fork_rate(pristine, image, count=300):
    """Compare COW forking against the deep ``load_image`` path."""
    from repro.binary import load_image

    # COW path: fork + one stack store (forces the detach a real run pays)
    start = time.perf_counter()
    for _ in range(count):
        fork = pristine.fork()
        fork.memory.write_int(fork.stack_top - 8, 1, 8)
    cow_elapsed = time.perf_counter() - start

    deep_count = max(count // 10, 10)
    start = time.perf_counter()
    for _ in range(deep_count):
        loaded = load_image(image)
        loaded.memory.write_int(loaded.stack_top - 8, 1, 8)
    deep_elapsed = time.perf_counter() - start

    forks_per_sec = count / cow_elapsed
    deep_per_sec = deep_count / deep_elapsed
    return {
        "forks_per_sec": round(forks_per_sec),
        "deep_loads_per_sec": round(deep_per_sec),
        "fork_speedup": round(forks_per_sec / deep_per_sec, 2),
    }


def measure_snapshot_rate(pristine, entry, argument, count=2000):
    """Measure full-context ``Emulator.snapshot()``/``restore()`` cycles.

    This is the DSE rewind pattern: snapshot a prepared emulator once, then
    restore per explored path.  Each cycle includes a register write and a
    stack store so the COW detach a real path pays is part of the cost.
    """
    from repro.cpu.emulator import Emulator
    from repro.cpu.host import EXIT_ADDRESS, HostEnvironment
    from repro.isa.registers import ARG_REGISTERS, Register

    program = pristine.fork()
    emulator = Emulator(program.memory, host=HostEnvironment(),
                        max_steps=5_000_000)
    emulator.state.write_reg(Register.RSP, program.stack_top)
    emulator.state.write_reg(Register.RBP, program.stack_top)
    emulator.state.write_reg(ARG_REGISTERS[0], argument)
    emulator.push(EXIT_ADDRESS)
    emulator.state.rip = program.image.function(entry).address
    snap = emulator.snapshot()

    start = time.perf_counter()
    for index in range(count):
        emulator.restore(snap)
        emulator.state.write_reg(ARG_REGISTERS[0], index)
        emulator.memory.write_int(program.stack_top - 16, index, 8)
    elapsed = time.perf_counter() - start
    return {"snapshot_restores_per_sec": round(count / elapsed)}


def _build_engine_workloads():
    """Small attack targets: a minimal function and a ROP-plain variant.

    The minimal function isolates the per-execution overhead the snapshot
    engines eliminate (fork + emulator construction + re-decode); the
    ROP-obfuscated license check is the realistic-context datapoint.
    """
    from repro.compiler import compile_program
    from repro.core import RopConfig, rop_obfuscate
    from repro.lang import Assign, BinOp, Const, Function, If, Probe, Program, Return, Var

    tiny = compile_program(Program([Function("f", ["x"], [
        Return(BinOp("^", BinOp("*", Var("x"), Const(13)), Const(0x27))),
    ])]))
    check = Program([Function("f", ["x"], [
        Probe(1),
        Assign("h", BinOp("^", BinOp("*", Var("x"), Const(13)), Const(0x27))),
        If(BinOp("==", BinOp("&", Var("h"), Const(0xFF)), Const(0x5A)),
           [Probe(2), Return(Const(1))],
           [Probe(3), Return(Const(0))]),
    ])])
    ropped, _ = rop_obfuscate(compile_program(check), ["f"], RopConfig.plain())
    return tiny, ropped


def _execution_rate(run_one, count):
    """Executions/sec of ``run_one`` over one timed window of ``count`` calls."""
    run_one(0)  # warm caches and snapshots outside the timed window
    start = time.perf_counter()
    for index in range(count):
        run_one(index)
    return count / (time.perf_counter() - start)


def measure_engine_rates(tiny_count=500, rop_count=150):
    """Per-engine executions/sec: snapshot rewinding vs the legacy path."""
    from repro.attacks.dse import DseEngine, InputSpec
    from repro.attacks.ropaware import RopMemuExplorer
    from repro.attacks.tds import TaintDrivenSimplifier

    tiny, ropped = _build_engine_workloads()
    report = {}

    def measure(name, image, count, factory, rounds=3):
        # interleave the two legs so CPU-steal noise on a shared runner hits
        # both, and take the best window of each
        snap_one = factory(image, True)
        legacy_one = factory(image, False)
        snap_rate = legacy_rate = 0.0
        for _ in range(rounds):
            snap_rate = max(snap_rate, _execution_rate(snap_one, count))
            legacy_rate = max(legacy_rate, _execution_rate(legacy_one, count))
        return {
            f"{name}_executions_per_sec": round(snap_rate),
            f"{name}_legacy_executions_per_sec": round(legacy_rate),
            f"{name}_speedup": round(snap_rate / legacy_rate, 2),
        }

    def tds(image, snapshots):
        engine = TaintDrivenSimplifier(image, "f", use_snapshots=snapshots)
        return lambda index: engine.record([index & 0xFF])

    def memu(image, snapshots):
        engine = RopMemuExplorer(image, "f", use_snapshots=snapshots)
        return lambda index: engine._run([index & 0xFF])

    def dse(image, snapshots):
        engine = DseEngine(image, "f", InputSpec(argument_sizes=[1]),
                           use_snapshots=snapshots)
        return lambda index: engine.execute({"arg0": index & 0xFF})

    for name, factory in (("tds", tds), ("ropmemu", memu), ("dse", dse)):
        report.update(measure(name, tiny, tiny_count, factory))
    report.update({f"rop_{key}": value for key, value in
                   measure("tds", ropped, rop_count, tds).items()})
    return report


def measure_grid_parallel(workers=GRID_PARALLEL_WORKERS, cell_seeds=8):
    """Sharded grid evaluation: smoke-shaped Table II cells/sec, 1 vs N workers.

    The cells are the smoke slice's ``ROP1.00`` attack cell expanded across
    RandomFuns seeds, so the pool has enough comparable-cost units to
    balance (the real smoke slice has too few cells to show scaling).  Every
    budget in the cell is a deterministic cap, so both legs do identical
    work and the ratio is a pure scheduling measurement.
    """
    from repro.attacks import AttackBudget
    from repro.evaluation.configurations import ropk
    from repro.evaluation.parallel import WorkerPool, fork_available
    from repro.evaluation.table2 import table2_units
    from repro.workloads.randomfuns import RandomFunSpec

    specs = [RandomFunSpec(structure="if(bb4,bb4)", input_size=1, seed=s)
             for s in range(1, cell_seeds + 1)]
    budget = AttackBudget(seconds=60.0, max_executions=2,
                          max_instructions_per_run=80_000,
                          max_solver_queries=16)
    units = table2_units([ropk(1.00)], specs, budget,
                         include_coverage=False, seed=1)

    def cells_per_sec(worker_count):
        with WorkerPool(worker_count) as pool:
            start = time.perf_counter()
            pool.map(units)
            return len(units) / (time.perf_counter() - start)

    report = {
        "cells": len(units),
        "workers": workers,
        "cpu_count": os.cpu_count() or 1,
        "fork_available": fork_available(),
        "serial_cells_per_sec": round(cells_per_sec(1), 2),
    }
    if fork_available():
        parallel_rate = cells_per_sec(workers)
        report["parallel_cells_per_sec"] = round(parallel_rate, 2)
        report["speedup"] = round(
            parallel_rate / report["serial_cells_per_sec"], 2)
    return report


def run_benchmarks():
    """Measure everything and return the report dict."""
    pristine, entry, argument = _build_workload()
    fusion = _TRACE_ENABLED or None
    report = {
        "workload": "clbg/fasta under ROP1.00 (seed=1), hook-free run loop",
        "calibration_sec": round(measure_calibration(), 4),
        "throughput": measure_throughput(pristine, entry, argument,
                                         trace_cache=fusion),
        "throughput_trace_cache_off": measure_throughput(
            pristine, entry, argument, rounds=2, trace_cache=False),
        "forking": measure_fork_rate(pristine, pristine.image),
        "snapshots": measure_snapshot_rate(pristine, entry, argument),
        "engines": measure_engine_rates(),
        "grid_parallel": measure_grid_parallel(),
    }
    return report


#: Every run also writes its raw measurements here (git-ignored by CI), so a
#: failing throughput gate can upload the candidate numbers as an artifact
#: for post-mortem comparison against the committed baseline.
CANDIDATE_PATH = REPO_ROOT / "BENCH_emulator.candidate.json"


def _load_committed():
    if RESULT_PATH.exists():
        try:
            return json.loads(RESULT_PATH.read_text())
        except json.JSONDecodeError as exc:
            raise SystemExit(
                f"{RESULT_PATH} is not valid JSON ({exc}); restore it from "
                f"git or regenerate with REPRO_BENCH_UPDATE=1") from exc
    return None


def _persist(report, committed):
    payload = {"schema": 7}
    # the seed measurement is a fixed historical reference; carry it forward
    if committed and "seed" in committed:
        payload["seed"] = committed["seed"]
    payload.update(report)
    payload["speedup_vs_seed"] = _speedups(report, payload.get("seed"))
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def _speedups(report, seed):
    if not seed:
        return None
    return {
        "instructions_per_sec": round(
            report["throughput"]["instructions_per_sec"]
            / seed["instructions_per_sec"], 2),
        "forks_per_sec": round(
            report["forking"]["forks_per_sec"] / seed["forks_per_sec"], 2),
    }


def test_emulator_throughput_and_fork_rate():
    report = run_benchmarks()
    committed = _load_committed()
    update = knobs.raw("REPRO_BENCH_UPDATE", "0") == "1"
    gate = knobs.enabled("REPRO_BENCH_GATE") and not update
    CANDIDATE_PATH.write_text(json.dumps(report, indent=2) + "\n")

    ips = report["throughput"]["instructions_per_sec"]
    trace_off_ips = report["throughput_trace_cache_off"]["instructions_per_sec"]
    forking = report["forking"]
    snapshots = report["snapshots"]
    engines = report["engines"]
    jit = report["throughput"].get("jit")
    print()
    print(f"interpreter throughput : {ips:>12,} instructions/sec")
    print(f"  trace cache off      : {trace_off_ips:>12,} instructions/sec")
    if jit:
        print(f"  JIT pipeline         : {jit['traces_compiled']}/"
              f"{jit['traces_built']} traces compiled, "
              f"{jit['compiled_hit_rate']:.1%} compiled-trace hit rate")
    print(f"COW fork rate          : {forking['forks_per_sec']:>12,} forks/sec "
          f"({forking['fork_speedup']}x over deep load_image)")
    print(f"emulator snapshot rate : "
          f"{snapshots['snapshot_restores_per_sec']:>12,} restores/sec")
    for name in ("tds", "ropmemu", "dse"):
        print(f"{name.upper():<7} execution rate : "
              f"{engines[f'{name}_executions_per_sec']:>12,} executions/sec "
              f"({engines[f'{name}_speedup']}x over fork-per-execution)")
    print(f"TDS on ROP chain       : "
          f"{engines['rop_tds_executions_per_sec']:>12,} executions/sec "
          f"({engines['rop_tds_speedup']}x over fork-per-execution)")
    grid = report["grid_parallel"]
    if "speedup" in grid:
        print(f"grid sharding          : {grid['serial_cells_per_sec']} -> "
              f"{grid['parallel_cells_per_sec']} cells/sec at "
              f"{grid['workers']} workers ({grid['speedup']}x, "
              f"{grid['cpu_count']} CPUs)")
    else:
        print(f"grid sharding          : {grid['serial_cells_per_sec']} "
              f"cells/sec serial (fork unavailable, parallel leg skipped)")

    caches_on = _TRACE_ENABLED
    if update or committed is None:
        if not caches_on:
            raise SystemExit(
                "refusing to (re)write the baseline with "
                "REPRO_TRACE_CACHE disabled: the committed numbers must be "
                "the full pipeline configuration CI gates against")
        payload = _persist(report, committed)
        print(f"baseline updated: {RESULT_PATH}")
        speedups = payload.get("speedup_vs_seed")
        if speedups:
            print(f"speedup vs seed        : {speedups['instructions_per_sec']}x "
                  f"throughput, {speedups['forks_per_sec']}x forking")
        return

    # forking speedup is a same-machine ratio, so it gates unconditionally
    assert forking["fork_speedup"] >= 10.0, (
        f"COW forking only {forking['fork_speedup']}x faster than deep "
        f"load_image (expected >= 10x)")

    # per-engine rewind speedups are same-machine ratios too: snapshot
    # restores must stay >= 3x over the legacy fork-per-execution path
    for name in ("tds", "ropmemu"):
        speedup = engines[f"{name}_speedup"]
        assert speedup >= 3.0, (
            f"{name} snapshot rewinding only {speedup}x over "
            f"fork-per-execution (expected >= 3x)")

    # grid sharding is a same-machine ratio, but only meaningful with real
    # parallel hardware: enforced when the host has >= 4 CPUs (as CI's
    # runners do); measured-but-ungated elsewhere so a laptop run of the
    # bench still records honest numbers
    if "speedup" in grid and grid["cpu_count"] >= GRID_PARALLEL_WORKERS:
        assert grid["speedup"] >= GRID_PARALLEL_SPEEDUP_FLOOR, (
            f"grid sharding only {grid['speedup']}x over 1 worker at "
            f"{grid['workers']} workers (expected >= "
            f"{GRID_PARALLEL_SPEEDUP_FLOOR}x)")
    else:
        print(f"grid sharding gate skipped: "
              f"{grid['cpu_count']} CPU(s) < {GRID_PARALLEL_WORKERS}")

    if caches_on:
        # same-machine ratio: exec-compiled traces must stay a large
        # multiplier over single-step dispatch (nominally ~3.8x)
        compile_speedup = ips / max(1, trace_off_ips)
        assert compile_speedup >= COMPILE_SPEEDUP_FLOOR, (
            f"exec-compiled traces only {compile_speedup:.2f}x over "
            f"single-step dispatch (expected >= {COMPILE_SPEEDUP_FLOOR}x)")
        hit_rate = report["throughput"]["jit"]["compiled_hit_rate"]
        assert hit_rate >= 0.9, (
            f"compiled-trace hit rate only {hit_rate:.1%} on the bench "
            f"workload (expected >= 90%)")

    if gate and not caches_on:
        # the committed baseline is the two-tier configuration; measuring
        # with a cache disabled is the A/B debugging mode, not a regression
        print("absolute throughput gate skipped: a cache tier is disabled")
    elif gate:
        # scale the baseline host's absolute numbers by the ratio of machine
        # speeds, so slow CI runners don't fail without a code regression
        baseline_cal = committed.get("calibration_sec")
        machine_scale = (baseline_cal / report["calibration_sec"]
                         if baseline_cal else 1.0)
        baseline_ips = committed["throughput"]["instructions_per_sec"]
        floor = baseline_ips * machine_scale * (1.0 - REGRESSION_TOLERANCE)
        print(f"machine speed vs baseline host: {machine_scale:.2f}x "
              f"(gate floor {floor:,.0f} instructions/sec)")
        assert ips >= floor, (
            f"interpreter throughput regressed: {ips:,.0f} instructions/sec "
            f"vs committed baseline {baseline_ips:,} scaled by machine speed "
            f"{machine_scale:.2f}x (floor {floor:,.0f}; set "
            f"REPRO_BENCH_UPDATE=1 to rebaseline or REPRO_BENCH_GATE=0 to "
            f"skip)")
        seed = committed.get("seed")
        if seed:
            speedup = ips / (seed["instructions_per_sec"] * machine_scale)
            assert speedup >= 5.0, (
                f"throughput only {speedup:.1f}x over the seed interpreter "
                f"(expected >= 5x)")


def main():
    test_emulator_throughput_and_fork_rate()


if __name__ == "__main__":
    main()
