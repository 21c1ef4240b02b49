"""Attack goal drivers: G1 secret finding and G2 code coverage (§III).

Both drivers wrap an exploration engine (DSE by default) with a budget and a
success criterion, returning an :class:`AttackOutcome` with the measurements
Table II reports: whether the goal was reached, how long it took, and how
much work (executions, instructions, solver queries) was spent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set

from repro import knobs
from repro.attacks.dse import DseEngine, ExecutionResult, InputSpec
from repro.binary.image import BinaryImage


def dse_workers() -> int:
    """Resolve ``REPRO_DSE_WORKERS``: worker processes per DSE attack.

    Values above 1 route the ``dse`` engine through the distributed
    snapshot frontier (:class:`repro.attacks.frontier.FrontierExplorer`);
    the default 1 keeps today's serial engine.
    """
    return knobs.positive_int("REPRO_DSE_WORKERS")


@dataclass
class AttackBudget:
    """Resource budget of one attack attempt.

    The paper uses 1-hour wall-clock budgets on a Xeon server; the
    reproduction defaults are seconds-scale so the full grid runs on a laptop
    (see the ``REPRO_FULL_SCALE`` row of ``benchmarks/README.md``
    for the scaling discussion).
    """

    seconds: float = 5.0
    max_executions: int = 150
    max_instructions_per_run: int = 2_000_000
    #: optional deterministic cap on generational-expansion solver queries;
    #: when it (rather than the wall clock) is what binds, an attack's
    #: executions/instructions counters are identical on every machine —
    #: the property the grid's serial-vs-parallel determinism tests rely on
    max_solver_queries: Optional[int] = None


@dataclass
class AttackOutcome:
    """Result of one attack attempt.

    Attributes:
        success: whether the goal was reached within the budget.
        time_to_success: seconds elapsed when the goal was reached (or the
            full budget when it was not).
        executions: concrete executions performed.
        instructions: total emulated instructions (rerun-from-entry
            accounting; see :class:`repro.attacks.engine.EngineStats`).
        solver_queries: solver invocations.
        paths: distinct paths observed.
        witness: for secret finding, the input assignment that reached the
            accepting path.
        covered_probes: for coverage, the set of probe identifiers observed.
        branch_restores: executions resumed from a mid-path branch snapshot
            (backtracking DSE).
        instructions_replayed: instructions skipped by those restores.
    """

    success: bool
    time_to_success: float
    executions: int
    instructions: int
    solver_queries: int
    paths: int
    witness: Optional[Dict[str, int]] = None
    covered_probes: Set[int] = field(default_factory=set)
    branch_restores: int = 0
    instructions_replayed: int = 0


def _make_engine(image: BinaryImage, function: str, input_spec: InputSpec,
                 budget: AttackBudget, engine: str, seed: int,
                 memory_model: str) -> DseEngine:
    if engine == "dse":
        workers = dse_workers()
        if workers > 1:
            from repro.attacks.frontier import FrontierExplorer

            return FrontierExplorer(image, function, input_spec,
                                    strategy="cupa",
                                    memory_model=memory_model, seed=seed,
                                    max_instructions=budget.max_instructions_per_run,
                                    workers=workers)
        return DseEngine(image, function, input_spec, strategy="cupa",
                         memory_model=memory_model, seed=seed,
                         max_instructions=budget.max_instructions_per_run)
    if engine == "se":
        from repro.attacks.symbolic import SymbolicExecutionEngine

        return SymbolicExecutionEngine(image, function, input_spec, seed=seed,
                                       max_instructions=budget.max_instructions_per_run)
    raise ValueError(f"unknown engine {engine!r}")


def secret_finding_attack(image: BinaryImage, function: str,
                          input_spec: Optional[InputSpec] = None,
                          budget: Optional[AttackBudget] = None,
                          accept_value: int = 1, engine: str = "dse",
                          memory_model: str = "concretize",
                          seed: int = 0,
                          driver: Optional[DseEngine] = None) -> AttackOutcome:
    """G1: find an input that drives the function to its accepting return value.

    ``driver`` lets a caller supply an already-prepared engine (retargeted
    and reset by the attack service) instead of constructing one per call;
    the caller is then responsible for the engine matching ``function``,
    ``seed`` and ``input_spec``.
    """
    budget = budget or AttackBudget()
    input_spec = input_spec or InputSpec()
    if driver is None:
        driver = _make_engine(image, function, input_spec, budget, engine,
                              seed, memory_model)

    start = time.monotonic()
    found: Dict[str, int] = {}

    def stop(result: ExecutionResult) -> bool:
        if not result.faulted and result.return_value == accept_value:
            found.update(result.assignment)
            return True
        return False

    results, stats = driver.explore(time_budget=budget.seconds,
                                    max_executions=budget.max_executions,
                                    stop_condition=stop,
                                    max_solver_queries=budget.max_solver_queries)
    elapsed = time.monotonic() - start
    success = bool(found)
    return AttackOutcome(
        success=success,
        time_to_success=elapsed if success else budget.seconds,
        executions=stats.executions,
        instructions=stats.instructions,
        solver_queries=stats.solver_queries,
        paths=stats.paths_seen,
        witness=dict(found) if success else None,
        covered_probes={p for r in results for p in r.probes},
        branch_restores=stats.branch_restores,
        instructions_replayed=stats.instructions_replayed,
    )


def coverage_attack(image: BinaryImage, function: str, target_probes: Iterable[int],
                    input_spec: Optional[InputSpec] = None,
                    budget: Optional[AttackBudget] = None, engine: str = "dse",
                    memory_model: str = "concretize", seed: int = 0) -> AttackOutcome:
    """G2: exercise enough paths to hit every reachable coverage probe."""
    budget = budget or AttackBudget()
    input_spec = input_spec or InputSpec()
    target = set(target_probes)
    driver = _make_engine(image, function, input_spec, budget, engine, seed, memory_model)

    covered: Set[int] = set()
    start = time.monotonic()
    reached_at = {"time": budget.seconds}

    def stop(result: ExecutionResult) -> bool:
        covered.update(result.probes)
        if target and covered >= target:
            reached_at["time"] = time.monotonic() - start
            return True
        return False

    _, stats = driver.explore(time_budget=budget.seconds,
                              max_executions=budget.max_executions,
                              stop_condition=stop,
                              max_solver_queries=budget.max_solver_queries)
    success = bool(target) and covered >= target
    return AttackOutcome(
        success=success,
        time_to_success=reached_at["time"] if success else budget.seconds,
        executions=stats.executions,
        instructions=stats.instructions,
        solver_queries=stats.solver_queries,
        paths=stats.paths_seen,
        covered_probes=covered,
        branch_restores=stats.branch_restores,
        instructions_replayed=stats.instructions_replayed,
    )
