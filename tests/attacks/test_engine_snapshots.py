"""Snapshot-engine tests: backtracking DSE differentials, the snapshot pool,
entry-snapshot retargeting, and TDS/ROPMEMU snapshot-vs-legacy parity."""

import pytest

from repro.attacks.dse import DseEngine, InputSpec
from repro.attacks.engine import SnapshotPool
from repro.attacks.ropaware import RopMemuExplorer
from repro.attacks.tds import TaintDrivenSimplifier
from repro.compiler import compile_program
from repro.core import RopConfig, rop_obfuscate
from repro.lang import (
    Assign,
    BinOp,
    Call,
    Const,
    Function,
    If,
    Load,
    Probe,
    Program,
    Return,
    Var,
)


#: Differentials are bound by deterministic caps (executions, solver
#: queries); the wall-clock budget never binds, so a slow host explores
#: exactly what a fast one does.
_NO_WALL_CLOCK = float("inf")

#: Solver-query cap for explorations that exhaust their path set well
#: before it, so it only guarantees termination.
_QUERY_CAP = 200


def branchy_program():
    """Nested data-dependent branches over one 8-byte argument."""
    return Program([Function("f", ["x"], [
        Assign("c", Const(0)),
        If(BinOp(">", Var("x"), Const(100)),
           [Assign("c", Const(1)),
            If(BinOp("==", BinOp("&", Var("x"), Const(0xFF)), Const(0x7F)),
               [Assign("c", Const(2)), Probe(1)],
               [Probe(2)])],
           [If(BinOp("==", Var("x"), Const(42)),
               [Assign("c", Const(3)), Probe(3)],
               [Probe(4)]),
            If(BinOp("<", Var("x"), Const(5)),
               [Assign("c", BinOp("+", Var("c"), Const(10)))])]),
        Return(Var("c")),
    ])])


def license_check_program(secret=0x5A):
    return Program([Function("check", ["x"], [
        Probe(1),
        Assign("h", BinOp("^", BinOp("*", Var("x"), Const(13)), Const(0x27))),
        If(BinOp("==", BinOp("&", Var("h"), Const(0xFF)), Const(secret)),
           [Probe(2), Return(Const(1))],
           [Probe(3), Return(Const(0))]),
    ])])


def two_function_program():
    return Program([
        Function("first", ["x"], [Probe(11), Return(Const(111))]),
        Function("second", ["x"], [Probe(22), Return(Const(222))]),
    ])


def _explore(image, function, backtracking, seed=3, max_executions=60):
    engine = DseEngine(image, function, InputSpec(argument_sizes=[8]),
                       seed=seed, backtracking=backtracking)
    results, stats = engine.explore(time_budget=_NO_WALL_CLOCK,
                                    max_executions=max_executions,
                                    max_solver_queries=_QUERY_CAP)
    return results, stats


def _result_key(result):
    return (tuple(sorted(result.assignment.items())), result.return_value,
            result.probes, tuple(result.branch_addresses),
            tuple((c.expected for c in result.constraints)),
            result.instructions, result.faulted)


@pytest.mark.parametrize("caches", ["on", "off"])
def test_backtracking_explores_identical_path_set(monkeypatch, caches):
    """Backtracking DSE must be execution-for-execution identical to
    rerun-from-entry DSE — same inputs tried, same paths, same goals."""
    import repro.cpu.emulator as emulator_module

    if caches == "off":
        monkeypatch.setattr(emulator_module, "_TRACE_CACHE_DEFAULT", False)
    image = compile_program(branchy_program())
    rerun_results, rerun_stats = _explore(image, "f", backtracking=False)
    back_results, back_stats = _explore(image, "f", backtracking=True)

    assert [_result_key(r) for r in rerun_results] == \
           [_result_key(r) for r in back_results]
    assert rerun_stats.paths_seen == back_stats.paths_seen
    assert rerun_stats.executions == back_stats.executions
    # the rewinding actually engaged (it is not trivially exploring from entry)
    assert back_stats.snapshots_taken > 0
    assert back_stats.branch_restores > 0
    assert back_stats.instructions_replayed > 0
    assert rerun_stats.branch_restores == 0


def test_backtracking_differential_on_rop_chain():
    """On a ROP-obfuscated target the exactness guards force most paths back
    to the entry rewind — results must still be identical."""
    image = compile_program(license_check_program())
    obfuscated, report = rop_obfuscate(image, ["check"], RopConfig.ropk(0.25))
    assert report.coverage == 1.0

    def run(backtracking):
        engine = DseEngine(obfuscated, "check", InputSpec(argument_sizes=[1]),
                           seed=1, backtracking=backtracking)
        # the query cap binds here: this image's unsat queries take ~40 s
        # uncapped
        return engine.explore(time_budget=_NO_WALL_CLOCK, max_executions=15,
                              max_solver_queries=30)

    rerun_results, rerun_stats = run(False)
    back_results, back_stats = run(True)
    assert [_result_key(r) for r in rerun_results] == \
           [_result_key(r) for r in back_results]
    assert rerun_stats.paths_seen == back_stats.paths_seen


def test_host_memory_calls_keep_backtracking_sound():
    """strlen reads symbolic guest memory the shadow cannot repair across a
    host call; exploration must still match rerun-from-entry exactly."""
    program = Program([Function("f", ["buf"], [
        Assign("first", Load(Var("buf"), 1)),
        If(BinOp(">", Var("first"), Const(0x40)), [Probe(1)], [Probe(2)]),
        Assign("n", Call("strlen", [Var("buf")])),
        If(BinOp("==", Var("n"), Const(0)), [Probe(3)], [Probe(4)]),
        Return(Var("n")),
    ])])
    image = compile_program(program)

    def run(backtracking):
        engine = DseEngine(image, "f",
                           InputSpec(argument_sizes=(), buffer_symbols=2),
                           seed=5, backtracking=backtracking)
        return engine.explore(time_budget=_NO_WALL_CLOCK, max_executions=30,
                              max_solver_queries=_QUERY_CAP)

    rerun_results, rerun_stats = run(False)
    back_results, back_stats = run(True)
    assert [_result_key(r) for r in rerun_results] == \
           [_result_key(r) for r in back_results]
    assert rerun_stats.paths_seen == back_stats.paths_seen


def test_call_return_address_never_repaired_from_stale_shadow():
    """Regression: codegen passes arguments via 'push rax; pop rdi; call g',
    so the call's implicit return-address push lands on a slot whose shadow
    entry still holds the symbolic argument.  The shadow must invalidate the
    slot, or a mid-path resume repairs the live return address with the
    input value and the callee returns into garbage."""
    program = Program([
        Function("f", ["x"], [
            Probe(1),
            Assign("r", Call("g", [Var("x")])),
            If(BinOp(">", Var("r"), Const(0)), [Probe(3)], [Probe(4)]),
            Return(Var("r")),
        ]),
        Function("g", ["y"], [
            If(BinOp(">", Var("y"), Const(50)), [Return(Const(1))],
               [Return(Const(0))]),
        ]),
    ])
    image = compile_program(program)

    def run(backtracking):
        engine = DseEngine(image, "f", InputSpec(argument_sizes=[8]),
                           seed=5, backtracking=backtracking)
        return engine.explore(time_budget=_NO_WALL_CLOCK, max_executions=30,
                              max_solver_queries=_QUERY_CAP)

    rerun_results, rerun_stats = run(False)
    back_results, back_stats = run(True)
    assert not any(r.faulted for r in back_results)
    assert [_result_key(r) for r in rerun_results] == \
           [_result_key(r) for r in back_results]
    assert rerun_stats.paths_seen == back_stats.paths_seen


def test_backtracking_finds_same_secret():
    image = compile_program(license_check_program())

    def run(backtracking):
        engine = DseEngine(image, "check", InputSpec(argument_sizes=[1]),
                           seed=2, backtracking=backtracking)
        witness = {}

        def stop(result):
            if not result.faulted and result.return_value == 1:
                witness.update(result.assignment)
                return True
            return False

        engine.explore(time_budget=_NO_WALL_CLOCK, max_executions=80,
                       max_solver_queries=_QUERY_CAP, stop_condition=stop)
        return witness

    assert run(False) == run(True) != {}


# -- snapshot pool -------------------------------------------------------------
def test_snapshot_pool_evicts_deepest_lru_first():
    pool = SnapshotPool(capacity=2)
    pool.put((("a", True),), "depth1")
    pool.put((("a", True), ("b", False)), "depth2")
    pool.put((("a", True), ("c", True)), "depth2-other")
    # the deepest least-recently-used entry went first; the shallow survives
    assert (("a", True),) in pool
    assert (("a", True), ("b", False)) not in pool
    assert pool.evictions == 1


def test_snapshot_pool_nearest_ancestor_walks_prefixes():
    pool = SnapshotPool(capacity=8)
    pool.put((), "entry-branch")
    pool.put((("a", True),), "one-deep")
    key, value = pool.nearest_ancestor((("a", True), ("b", False), ("c", True)))
    assert key == (("a", True),) and value == "one-deep"
    key, value = pool.nearest_ancestor((("z", False),))
    assert key == () and value == "entry-branch"
    assert SnapshotPool(capacity=8).nearest_ancestor((("a", True),)) is None


def test_snapshot_pool_env_knob_disables_backtracking(monkeypatch):
    monkeypatch.setenv("REPRO_SNAPSHOT_POOL", "0")
    image = compile_program(branchy_program())
    engine = DseEngine(image, "f", InputSpec(argument_sizes=[8]), backtracking=True)
    assert not engine.backtracking
    results, stats = engine.explore(time_budget=_NO_WALL_CLOCK,
                                    max_executions=10,
                                    max_solver_queries=_QUERY_CAP)
    assert stats.snapshots_taken == 0 and stats.branch_restores == 0
    assert len(results) > 1


def test_bounded_pool_still_explores_identically():
    """Evictions only cost speed: a tiny pool must not change exploration."""
    image = compile_program(branchy_program())
    rerun_results, _ = _explore(image, "f", backtracking=False)

    engine = DseEngine(image, "f", InputSpec(argument_sizes=[8]), seed=3,
                       backtracking=True)
    engine._pool.capacity = 1
    results, stats = engine.explore(time_budget=_NO_WALL_CLOCK,
                                    max_executions=60,
                                    max_solver_queries=_QUERY_CAP)
    assert [_result_key(r) for r in rerun_results] == \
           [_result_key(r) for r in results]


# -- entry snapshot lifecycle --------------------------------------------------
def test_entry_snapshot_invalidated_when_function_changes():
    """Regression: retargeting an engine must not leak the previous symbol's
    prepared entry context."""
    image = compile_program(two_function_program())
    engine = DseEngine(image, "first", InputSpec(argument_sizes=[1]))
    first = engine.execute({"arg0": 0})
    assert first.return_value == 111 and first.probes == (11,)

    engine.function = "second"
    second = engine.execute({"arg0": 0})
    assert second.return_value == 222 and second.probes == (22,)
    # and back again, exercising the rebuilt snapshot rather than a stale one
    engine.function = "first"
    again = engine.execute({"arg0": 0})
    assert again.return_value == 111 and again.probes == (11,)


def test_retargeting_clears_branch_snapshot_pool():
    image = compile_program(branchy_program())
    engine = DseEngine(image, "f", InputSpec(argument_sizes=[8]), seed=3,
                       backtracking=True)
    engine.explore(time_budget=_NO_WALL_CLOCK, max_executions=20,
                   max_solver_queries=_QUERY_CAP)
    assert len(engine._pool) > 0
    engine.function = "f"  # same symbol: nothing dropped
    engine.execute({"arg0": 1})
    assert len(engine._pool) > 0
    engine.invalidate_snapshots()
    assert len(engine._pool) == 0 and engine._entry_snapshot is None


def test_tds_entry_snapshot_tracks_function_switch():
    image = compile_program(two_function_program())
    simplifier = TaintDrivenSimplifier(image, "first")
    _, first_value = simplifier.record([0])
    simplifier.function = "second"
    _, second_value = simplifier.record([0])
    assert (first_value, second_value) == (111, 222)


# -- TDS / ROPMEMU parity ------------------------------------------------------
def test_tds_snapshot_path_matches_legacy():
    image = compile_program(license_check_program())
    obfuscated, _ = rop_obfuscate(image, ["check"], RopConfig.plain())
    snap = TaintDrivenSimplifier(obfuscated, "check")
    legacy = TaintDrivenSimplifier(obfuscated, "check", use_snapshots=False)
    for argument in (0, 7, 0x41):
        snap_trace, snap_value = snap.record([argument])
        legacy_trace, legacy_value = legacy.record([argument])
        assert snap_value == legacy_value
        assert [e.address for e in snap_trace] == [e.address for e in legacy_trace]
        assert [e.regs for e in snap_trace] == [e.regs for e in legacy_trace]
    snap_report = snap.simplify([7])
    legacy_report = legacy.simplify([7])
    assert snap_report == legacy_report


def test_ropmemu_snapshot_path_matches_legacy():
    image = compile_program(license_check_program())
    hardened, _ = rop_obfuscate(image, ["check"], RopConfig.ropk(0.0))
    snap = RopMemuExplorer(hardened, "check")
    legacy = RopMemuExplorer(hardened, "check", use_snapshots=False)
    snap_report = snap.explore([7], max_flips=6)
    legacy_report = legacy.explore([7], max_flips=6)
    assert snap_report.flag_leak_points == legacy_report.flag_leak_points
    assert [(a.trace_index, a.address, a.survived, a.new_probes)
            for a in snap_report.attempts] == \
           [(a.trace_index, a.address, a.survived, a.new_probes)
            for a in legacy_report.attempts]
    assert snap.stats.executions == len(snap_report.attempts) + 1


def test_host_state_never_leaks_across_rewinds():
    """Probes and output recorded by one execution must not bleed into the
    next one after the entry-snapshot restore."""
    image = compile_program(license_check_program())
    simplifier = TaintDrivenSimplifier(image, "check")
    lengths = set()
    for _ in range(3):
        trace, _ = simplifier.record([7])
        lengths.add(len(trace))
    assert len(lengths) == 1  # identical runs: nothing accumulated across rewinds
    engine = DseEngine(image, "check", InputSpec(argument_sizes=[1]))
    first = engine.execute({"arg0": 7})
    second = engine.execute({"arg0": 7})
    assert first.probes == second.probes
