"""A finished DSE exploration leaves nothing behind but its results.

Each execution detaches the tracker's branch observer and the emulator's
hook once it has run, and ``explore`` empties the snapshot pool when it
returns.  Shadow state is then freed by reference counting the moment it
dies; none of it may reach the cyclic garbage collector.  The test runs the
collector in ``DEBUG_SAVEALL`` mode, which keeps every object it would have
freed in ``gc.garbage``, and looks for shadow-state types there.
"""

import gc
from collections import Counter

from repro.attacks.dse import DseEngine, InputSpec
from repro.attacks.shadow import BranchRecord, ShadowTracker
from repro.attacks.solver.expr import (BinExpr, ConstExpr, SelectExpr,
                                       SymExpr, UnExpr)
from repro.attacks.solver.solver import PathConstraint
from repro.compiler import compile_program
from repro.service import requests as service_requests
from repro.service.requests import AttackRequest, execute_request
from tests.attacks.test_engine_snapshots import branchy_program

_SHADOW_TYPES = (ShadowTracker, BranchRecord, PathConstraint, DseEngine,
                 SymExpr, ConstExpr, BinExpr, UnExpr, SelectExpr)


def test_exploration_and_served_request_leave_no_cyclic_shadow_state():
    # a small ROP request: pointer-kind branch records, mid-path snapshots
    request = AttackRequest(id="lifetime", configuration="ROP1.00",
                            max_executions=3, max_solver_queries=8)
    execute_request(request)  # warm the caches: the next run reuses the engine
    image = compile_program(branchy_program())

    gc.collect()
    flags = gc.get_debug()
    saved = list(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        engine = DseEngine(image, "f", InputSpec(argument_sizes=[8]), seed=3)
        results, _ = engine.explore(time_budget=float("inf"),
                                    max_executions=20, max_solver_queries=200)
        assert len(results) > 1 and engine.stats.branch_restores > 0
        assert len(engine._pool) == 0
        assert engine._emulator.pre_hooks == []
        del engine, results

        row = execute_request(request)
        assert row["status"] == "done"
        cached = list(service_requests._ENGINES.values())
        assert cached and all(len(e._pool) == 0 and e._emulator.pre_hooks == []
                              for e in cached)
        del cached

        gc.collect()
        leaked = Counter(type(obj).__name__ for obj in gc.garbage
                         if isinstance(obj, _SHADOW_TYPES))
    finally:
        gc.set_debug(flags)
        gc.garbage[:] = saved
    assert not leaked, f"shadow state left to the cyclic collector: {leaked}"
