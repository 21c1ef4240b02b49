"""Attack goal drivers: G1 secret finding and G2 code coverage (§III).

Both goals run one driver over an exploration engine (DSE by default): it
explores within an :class:`AttackBudget` until the goal's "reached"
predicate holds, and returns an :class:`AttackOutcome` with what Table II
reports: whether the goal was reached, when, and the exploration's own
:class:`~repro.attacks.engine.EngineStats` (executions, instructions,
solver queries, paths, snapshot restores).  The goals differ only in that
predicate: G1 is reached by an execution returning the accepting value,
G2 once the executions' probes cover the target set.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.attacks.dse import DseEngine, ExecutionResult, InputSpec
from repro.attacks.engine import EngineStats
from repro.binary.image import BinaryImage


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
        time_to_success: seconds into the exploration at which the goal
            was reached (the full budget when it was not).
        stats: a copy of the exploration's
            :class:`~repro.attacks.engine.EngineStats` (executions,
            instructions in rerun-from-entry accounting, solver queries,
            ``paths_seen``, branch restores, instructions replayed...); a
            copy, so reusing the engine cannot change a returned outcome.
        witness: on success, the input assignment of the execution that
            reached the goal (for secret finding, the accepting input).
        covered_probes: the union of the probes every execution observed.
    """

    success: bool
    time_to_success: float
    stats: EngineStats
    witness: Optional[Dict[str, int]] = None
    covered_probes: Set[int] = field(default_factory=set)


def _make_engine(image: BinaryImage, function: str,
                 input_spec: Optional[InputSpec], max_instructions: int,
                 engine: str = "dse", seed: int = 0,
                 memory_model: str = "concretize") -> DseEngine:
    """Build the exploration engine of one goal: ``"dse"`` or ``"se"``."""
    if engine == "dse":
        return DseEngine(image, function, input_spec, strategy="cupa",
                         memory_model=memory_model, seed=seed,
                         max_instructions=max_instructions)
    if engine == "se":
        from repro.attacks.symbolic import SymbolicExecutionEngine

        return SymbolicExecutionEngine(image, function, input_spec, seed=seed,
                                       max_instructions=max_instructions)
    raise ValueError(f"unknown engine {engine!r}")


def _attack(driver: DseEngine, budget: AttackBudget,
            reached: Callable[[ExecutionResult, Set[int]], bool]) -> AttackOutcome:
    """Explore until ``reached(result, probes covered so far)`` holds."""
    start = time.monotonic()
    covered: Set[int] = set()
    hit: List[Tuple[float, Dict[str, int]]] = []

    def stop(result: ExecutionResult) -> bool:
        covered.update(result.probes)
        if reached(result, covered):
            hit.append((time.monotonic() - start, dict(result.assignment)))
        return bool(hit)

    _, stats = driver.explore(time_budget=budget.seconds,
                              max_executions=budget.max_executions,
                              stop_condition=stop,
                              max_solver_queries=budget.max_solver_queries)
    when, witness = hit[0] if hit else (budget.seconds, None)
    return AttackOutcome(bool(hit), when, dataclasses.replace(stats), witness,
                         covered)


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
    driver = driver or _make_engine(image, function, input_spec,
                                    budget.max_instructions_per_run, engine,
                                    seed, memory_model)
    return _attack(driver, budget, lambda result, _: not result.faulted
                   and result.return_value == accept_value)


def coverage_attack(image: BinaryImage, function: str, target_probes: Iterable[int],
                    input_spec: Optional[InputSpec] = None,
                    budget: Optional[AttackBudget] = None, engine: str = "dse",
                    memory_model: str = "concretize", seed: int = 0) -> AttackOutcome:
    """G2: exercise enough paths to hit every reachable coverage probe."""
    budget = budget or AttackBudget()
    target = set(target_probes)
    driver = _make_engine(image, function, input_spec,
                          budget.max_instructions_per_run, engine, seed,
                          memory_model)
    return _attack(driver, budget,
                   lambda _, covered: bool(target) and covered >= target)
