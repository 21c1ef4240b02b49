"""Distributed DSE snapshot frontier: path-set identity and wiring."""

import multiprocessing

import pytest

from repro.attacks.dse import DseEngine, InputSpec
from repro.attacks.frontier import FrontierExplorer
from repro.attacks.goals import AttackBudget, dse_workers, secret_finding_attack
from repro.compiler import compile_program
from repro.core import RopConfig, rop_obfuscate
from repro.evaluation.parallel import fork_available
from repro.lang import Assign, BinOp, Const, Function, If, Probe, Program, Return, Var
from repro.workloads.randomfuns import RandomFunSpec, generate_random_function

#: Differentials are bound by deterministic caps (executions, solver
#: queries); the wall-clock budget never binds, so a slow host explores
#: exactly what a fast one does.  The explorations here exhaust their path
#: sets well inside the query cap, which only guarantees termination.
_NO_WALL_CLOCK = float("inf")
_QUERY_CAP = 200
_CAPS = dict(time_budget=_NO_WALL_CLOCK, max_solver_queries=_QUERY_CAP)

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method required")


def _branchy_image():
    """A multi-path RandomFuns workload (11 feasible paths at 1 input byte)."""
    spec = RandomFunSpec(structure="for(if(bb4,bb4))", input_size=1, seed=2,
                         point_test=False)
    program, _, _ = generate_random_function(spec)
    return compile_program(program), spec.name


def _rop_license_image():
    """A ROP-obfuscated license check: pointer-kind branch records."""
    check = Program([Function("f", ["x"], [
        Probe(1),
        Assign("h", BinOp("^", BinOp("*", Var("x"), Const(13)), Const(0x27))),
        If(BinOp("==", BinOp("&", Var("h"), Const(0xFF)), Const(0x5A)),
           [Probe(2), Return(Const(1))],
           [Probe(3), Return(Const(0))]),
    ])])
    ropped, _ = rop_obfuscate(compile_program(check), ["f"], RopConfig.plain())
    return ropped, "f"


def _path_set(results):
    """Path identity via decision keys (unambiguous for pointer records)."""
    return {result.decision_keys for result in results}


@needs_fork
@pytest.mark.parametrize("workers", [2, 4])
def test_frontier_path_set_equals_serial_entry_rewind(workers):
    """The tentpole property: the distributed explorer's exhausted path set
    is identical to serial ``REPRO_DSE_BACKTRACK=0`` exploration.

    Byte-sized inputs keep the solver in its exhaustive-enumeration phase,
    which is order-independent — so the equality is exact, not statistical.
    """
    image, function = _branchy_image()
    input_spec = InputSpec(argument_sizes=[1])

    serial = DseEngine(image, function, input_spec, seed=5, backtracking=False)
    serial_results, serial_stats = serial.explore(max_executions=500, **_CAPS)
    assert serial_stats.paths_seen >= 5  # the workload must stay branchy

    frontier = FrontierExplorer(image, function, input_spec, seed=5,
                                workers=workers)
    assert frontier.distributed
    frontier_results, frontier_stats = frontier.explore(max_executions=500,
                                                        **_CAPS)
    assert _path_set(frontier_results) == _path_set(serial_results)
    assert frontier_stats.paths_seen == serial_stats.paths_seen
    assert frontier_stats.executions == serial_stats.executions
    assert sum(frontier.executions_by_worker.values()) == \
        frontier_stats.executions


@needs_fork
def test_frontier_matches_serial_on_rop_chain():
    image, function = _rop_license_image()
    input_spec = InputSpec(argument_sizes=[1])
    serial = DseEngine(image, function, input_spec, seed=3, backtracking=False)
    serial_results, _ = serial.explore(max_executions=100, **_CAPS)
    frontier = FrontierExplorer(image, function, input_spec, seed=3, workers=2)
    frontier_results, _ = frontier.explore(max_executions=100, **_CAPS)
    assert _path_set(frontier_results) == _path_set(serial_results)
    # both must have recovered the accepting input
    assert any(r.return_value == 1 and not r.faulted for r in serial_results)
    assert any(r.return_value == 1 and not r.faulted for r in frontier_results)


@needs_fork
def test_frontier_backtracking_off_still_matches():
    image, function = _branchy_image()
    input_spec = InputSpec(argument_sizes=[1])
    serial = DseEngine(image, function, input_spec, seed=5, backtracking=False)
    serial_results, _ = serial.explore(max_executions=500, **_CAPS)
    frontier = FrontierExplorer(image, function, input_spec, seed=5, workers=2,
                                backtracking=False)
    frontier_results, _ = frontier.explore(max_executions=500, **_CAPS)
    assert _path_set(frontier_results) == _path_set(serial_results)


def test_workers_1_delegates_to_serial_engine():
    image, function = _branchy_image()
    input_spec = InputSpec(argument_sizes=[1])
    frontier = FrontierExplorer(image, function, input_spec, seed=5, workers=1)
    assert not frontier.distributed
    results, stats = frontier.explore(max_executions=500, **_CAPS)
    reference = DseEngine(image, function, input_spec, seed=5)
    ref_results, ref_stats = reference.explore(max_executions=500, **_CAPS)
    assert _path_set(results) == _path_set(ref_results)
    assert frontier.executions_by_worker == {0: stats.executions}


@needs_fork
def test_frontier_respects_max_executions():
    image, function = _branchy_image()
    frontier = FrontierExplorer(image, function, InputSpec(argument_sizes=[1]),
                                seed=5, workers=2)
    _, stats = frontier.explore(max_executions=3, **_CAPS)
    assert stats.executions <= 3


@needs_fork
@pytest.mark.parametrize("backtracking", [True, False])
@pytest.mark.parametrize("fault", ["1:kill", "1:exit0"])
def test_frontier_recovers_worker_death_mid_exploration(monkeypatch,
                                                        backtracking, fault):
    """A worker killed mid-exploration (SIGKILL or a *clean* premature
    exit 0) must not lose its claimed branch decision: the coordinator
    returns it to the frontier, respawns the slot, and the explored path
    set still equals the serial explorer's — in both backtracking modes."""
    image, function = _branchy_image()
    input_spec = InputSpec(argument_sizes=[1])
    serial = DseEngine(image, function, input_spec, seed=5, backtracking=False)
    serial_results, _ = serial.explore(max_executions=500, **_CAPS)

    monkeypatch.setenv("REPRO_FAULT_INJECT", fault)
    frontier = FrontierExplorer(image, function, input_spec, seed=5, workers=2,
                                backtracking=backtracking)
    frontier_results, frontier_stats = frontier.explore(max_executions=500,
                                                        **_CAPS)
    assert frontier.respawns >= 1
    assert _path_set(frontier_results) == _path_set(serial_results)
    assert frontier_stats.executions == len(serial_results)


@needs_fork
def test_frontier_hang_is_killed_by_deadline_and_path_set_preserved(
        monkeypatch):
    """A worker that hangs mid-decision (not dead — the claim cell still
    names its task) is killed once REPRO_UNIT_TIMEOUT expires, the decision
    returns to the frontier, and the explored path set still equals the
    serial explorer's.  Frontier units are milliseconds, so a short deadline
    only ever trips on the injected hang."""
    image, function = _branchy_image()
    input_spec = InputSpec(argument_sizes=[1])
    serial = DseEngine(image, function, input_spec, seed=5, backtracking=False)
    serial_results, _ = serial.explore(max_executions=500, **_CAPS)

    monkeypatch.setenv("REPRO_FAULT_INJECT", "1:hang")
    monkeypatch.setenv("REPRO_UNIT_TIMEOUT", "2")
    frontier = FrontierExplorer(image, function, input_spec, seed=5, workers=2)
    frontier_results, frontier_stats = frontier.explore(max_executions=500,
                                                        **_CAPS)
    assert frontier.timeouts >= 1
    assert frontier.respawns >= 1
    assert _path_set(frontier_results) == _path_set(serial_results)
    assert frontier_stats.executions == len(serial_results)


@needs_fork
def test_frontier_gives_up_after_repeated_deaths_on_one_task(monkeypatch):
    """A branch decision that kills every worker that touches it must not
    respawn forever — after the retry budget the exploration aborts loudly."""
    image, function = _branchy_image()
    monkeypatch.setenv("REPRO_UNIT_RETRIES", "1")
    # every dispatched task dies: task ids 0..9 all SIGKILL their worker
    monkeypatch.setenv("REPRO_FAULT_INJECT",
                       ",".join(f"{i}:kill" for i in range(10)))
    frontier = FrontierExplorer(image, function, InputSpec(argument_sizes=[1]),
                                seed=5, workers=2)
    with pytest.raises(RuntimeError, match="died|respawn limit"):
        frontier.explore(max_executions=500, **_CAPS)


@needs_fork
def test_frontier_worker_raise_aborts_and_leaves_no_workers(monkeypatch):
    """A worker whose execution *raises* (rather than dies or hangs) is not
    a lost decision to requeue: the exploration aborts with the worker's
    error, and the pool is torn down with no worker left alive."""
    image, function = _branchy_image()
    monkeypatch.setenv("REPRO_FAULT_INJECT", "1:raise")
    frontier = FrontierExplorer(image, function, InputSpec(argument_sizes=[1]),
                                seed=5, workers=2)
    with pytest.raises(RuntimeError, match="frontier worker .* failed"):
        frontier.explore(max_executions=500, **_CAPS)
    assert multiprocessing.active_children() == []


def test_dse_workers_knob(monkeypatch):
    monkeypatch.delenv("REPRO_DSE_WORKERS", raising=False)
    assert dse_workers() == 1
    monkeypatch.setenv("REPRO_DSE_WORKERS", "4")
    assert dse_workers() == 4
    monkeypatch.setenv("REPRO_DSE_WORKERS", "junk")
    assert dse_workers() == 1


@needs_fork
def test_secret_finding_attack_through_frontier(monkeypatch):
    """`REPRO_DSE_WORKERS>1` routes the goal drivers through the frontier;
    the stop condition runs coordinator-side, so the witness closure works."""
    monkeypatch.setenv("REPRO_DSE_WORKERS", "2")
    image, function = _rop_license_image()
    outcome = secret_finding_attack(
        image, function, InputSpec(argument_sizes=[1]),
        AttackBudget(seconds=_NO_WALL_CLOCK, max_executions=50,
                     max_solver_queries=_QUERY_CAP), seed=3)
    assert outcome.success
    assert outcome.witness is not None
    value = outcome.witness["arg0"]
    assert ((value * 13) ^ 0x27) & 0xFF == 0x5A
