"""Distributed DSE snapshot frontier: work-sharing concolic exploration.

:class:`FrontierExplorer` parallelizes one attack's generational exploration
across worker processes.  The division of labor keeps the explored path set
equal to the serial :meth:`repro.attacks.dse.DseEngine.explore` loop's:

* The **coordinator** (the calling process) owns everything whose order or
  sharing determines the path set — the pending frontier, the
  ``seen_decisions`` decision-prefix dedupe set, the ``seen_inputs`` set,
  the path-signature registry, the constraint solver and the CUPA strategy
  RNG.  Branch negation, solving and dedup all happen here, exactly as in
  the serial loop; workers never expand paths on their own.
* **Workers** each own a full :class:`~repro.attacks.dse.DseEngine` (built
  on the worker's first task from a factory registered before the pool
  forks, so the binary image is inherited, not pickled) and do only the
  expensive part: claim a pending ``(assignment, resume_key)`` from the
  pool's task queue, execute it concretely under the shadow tracker on
  their private rewound emulator, and stream the
  :class:`~repro.attacks.dse.ExecutionResult` back.

Mid-path snapshot pools are worker-local: a worker resuming a decision
prefix whose snapshot lives in *another* worker's pool simply falls back to
the entry rewind, which changes cost but never the executed path — so
backtracking remains an optimization, invisible in the path set.  Each
worker's pool gets an equal share of the global ``REPRO_SNAPSHOT_POOL``
budget (:func:`repro.attacks.engine.sharded_pool_capacity`), bounding
resident snapshot memory at the serial run's level regardless of the
worker count.

When the constraint solver is deterministic for the workload (e.g. its
exhaustive-enumeration phase covers the input space, as with the byte-sized
inputs of the RandomFuns suite), an exhaustive frontier run explores
*exactly* the serial explorer's path set in any execution order — the
differential property ``tests/attacks/test_frontier.py`` asserts.

Supervision comes from :class:`repro.evaluation.parallel.WorkerPool`: the
explorer is a client of its :meth:`~repro.evaluation.parallel.WorkerPool.submit`
/ :meth:`~repro.evaluation.parallel.WorkerPool.pump` API, like the grid's
``map`` and the attack service.  Each dispatched decision is a
:class:`_FrontierTask` unit; the pool's claim-cell protocol turns a worker
that dies — crash, OOM-kill, or even a *clean* premature exit — or hangs
past the ``REPRO_UNIT_TIMEOUT`` deadline into an event, and the coordinator
returns the lost decision to the frontier (under a fresh dispatch id,
attempt-capped by ``REPRO_UNIT_RETRIES``) while the pool respawns the slot.
Because the path set is determined entirely by coordinator-owned state
(frontier, dedupe sets, solver), a recovered exploration still equals the
serial explorer's — the fault-injection differential tests
(``REPRO_FAULT_INJECT``, see :mod:`repro.faults`) kill and hang workers
mid-exploration and assert exactly that.

``workers <= 1`` — or a pool that cannot run in parallel (no fork start
method, or a coordinator that is itself a daemonic pool worker, which may
not fork) — delegates to the serial engine outright.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.attacks.dse import DseEngine, ExecutionResult, InputSpec
from repro.attacks.engine import EngineStats, sharded_pool_capacity
from repro.attacks.solver.solver import ConstraintSolver
from repro.binary.image import BinaryImage
from repro.evaluation.parallel import (WorkerPool, fork_available,
                                       register_unit_executor)
from repro.faults import unit_retries, unit_timeout

_STAT_FIELDS = tuple(field.name for field in dataclasses.fields(EngineStats)
                     if field.name != "elapsed")

#: explorer token -> worker engine factory.  The coordinator registers its
#: factory before its pool forks, so every worker (respawned replacements
#: included) inherits it.
_ENGINE_FACTORIES: Dict[int, Callable[[], DseEngine]] = {}

#: explorer token -> this worker's engine, built on its first task
#: (populated inside pool workers only).
_WORKER_ENGINES: Dict[int, DseEngine] = {}


@dataclass(frozen=True)
class _FrontierTask:
    """One pending branch decision, dispatched to a pool worker."""

    explorer: int
    assignment: Dict[str, int]
    resume_key: Optional[Tuple]


def _execute_frontier_task(task: _FrontierTask) -> Tuple[ExecutionResult, dict]:
    """Execute one decision on this worker's engine; return the result and
    the engine's stat delta, so the coordinator aggregates instructions and
    restores without a second message exchange.  Deep shadow-expression DAGs
    can out-recurse pickle's default limit, so it is raised before the
    result is serialized."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))
    engine = _WORKER_ENGINES.get(task.explorer)
    if engine is None:
        engine = _ENGINE_FACTORIES[task.explorer]()
        _WORKER_ENGINES[task.explorer] = engine
    before = {name: getattr(engine.stats, name) for name in _STAT_FIELDS}
    result = engine.execute(task.assignment, resume_key=task.resume_key)
    return result, {name: getattr(engine.stats, name) - before[name]
                    for name in _STAT_FIELDS}


register_unit_executor(_FrontierTask, _execute_frontier_task)


class FrontierExplorer:
    """Coordinator of a distributed DSE exploration of one function.

    Constructor arguments mirror :class:`~repro.attacks.dse.DseEngine`, plus
    ``workers`` (process count) and ``pool_capacity`` reinterpreted as the
    *global* mid-path snapshot budget to divide across workers (default:
    the ``REPRO_SNAPSHOT_POOL`` environment budget).
    """

    def __init__(self, image: BinaryImage, function: str,
                 input_spec: Optional[InputSpec] = None,
                 strategy: str = "cupa", memory_model: str = "concretize",
                 seed: int = 0, max_instructions: int = 2_000_000,
                 workers: int = 2, use_snapshots: bool = True,
                 backtracking: Optional[bool] = None,
                 pool_capacity: Optional[int] = None) -> None:
        if strategy not in ("cupa", "bfs", "dfs"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.image = image
        self.function = function
        self.input_spec = input_spec or InputSpec()
        self.strategy = strategy
        self.memory_model = memory_model
        self.seed = seed
        self.max_instructions = max_instructions
        self.workers = max(1, workers)
        self.use_snapshots = use_snapshots
        self.backtracking = backtracking
        self.worker_pool_capacity = sharded_pool_capacity(
            self.workers, total=pool_capacity)
        self.random = random.Random(seed)
        self.symbols = self.input_spec.symbol_table()
        self.solver = ConstraintSolver(self.symbols, seed=seed)
        self.stats = EngineStats()
        #: worker index -> concrete executions it performed (serial
        #: delegation reports everything under worker 0).
        self.executions_by_worker: Dict[int, int] = {}
        #: replacement workers forked after a premature worker exit or a
        #: deadline kill (the pool's ``stats.respawns``).
        self.respawns = 0
        #: claimed decisions whose ``REPRO_UNIT_TIMEOUT`` deadline expired.
        self.timeouts = 0

    # -- serial delegation ---------------------------------------------------
    def _make_engine(self, pool_capacity: Optional[int]) -> DseEngine:
        return DseEngine(self.image, self.function, self.input_spec,
                         strategy=self.strategy,
                         memory_model=self.memory_model, seed=self.seed,
                         max_instructions=self.max_instructions,
                         use_snapshots=self.use_snapshots,
                         backtracking=self.backtracking,
                         pool_capacity=pool_capacity)

    @property
    def distributed(self) -> bool:
        return self.workers > 1 and fork_available()

    # -- exploration ---------------------------------------------------------
    def explore(self, time_budget: float = 10.0, max_executions: int = 200,
                stop_condition: Optional[Callable[[ExecutionResult], bool]] = None,
                max_solver_queries: Optional[int] = None,
                ) -> Tuple[List[ExecutionResult], EngineStats]:
        """Explore paths until the budget runs out or ``stop_condition`` holds.

        Same contract as :meth:`DseEngine.explore`; ``stop_condition`` runs
        in the coordinator process, so closures over caller state work
        unchanged.  Results that were already in flight when the stop fired
        are still drained and counted (they did execute).
        """
        if not self.distributed:
            engine = self._make_engine(None)
            results, stats = engine.explore(
                time_budget=time_budget, max_executions=max_executions,
                stop_condition=stop_condition,
                max_solver_queries=max_solver_queries)
            self.stats = stats
            self.executions_by_worker = {0: stats.executions}
            return results, stats
        pool = WorkerPool(self.workers,
                          snapshot_share=self.worker_pool_capacity)
        token = id(self)
        _ENGINE_FACTORIES[token] = \
            lambda: self._make_engine(self.worker_pool_capacity)
        try:
            with pool:
                return self._explore_distributed(
                    pool, token, time_budget, max_executions, stop_condition,
                    max_solver_queries)
        finally:
            del _ENGINE_FACTORIES[token]
            self.respawns = pool.stats.respawns
            self.timeouts = pool.stats.timeouts

    def _explore_distributed(self, pool: WorkerPool, token: int, time_budget,
                             max_executions, stop_condition,
                             max_solver_queries):
        start = time.monotonic()  # lint: allow-wallclock — wall-clock attack budget, reported not row-keyed
        stats = self.stats
        initial = {name: 0 for name in self.symbols}
        # pending entries are (priority, assignment, resume_key, attempt);
        # attempt counts how often a worker died or hung holding it
        pending: List[Tuple[int, Dict[str, int], Optional[Tuple], int]] = \
            [(0, initial, None, 0)]
        seen_inputs: Set[Tuple] = {tuple(sorted(initial.items()))}
        seen_decisions: Set[Tuple] = set()
        results: List[ExecutionResult] = []
        path_signatures: Set[Tuple] = set()
        self.executions_by_worker = {index: 0 for index in range(self.workers)}
        retries = unit_retries()
        deadline = unit_timeout()
        respawn_limit = pool.respawn_limit(retries)
        #: dispatched-but-unresolved decisions, by pool dispatch id
        inflight: Dict[int, Tuple[int, Dict[str, int], Optional[Tuple], int]] = {}
        stopped = False

        while True:
            # dispatch while there is pending work, free workers and budget
            while (pending and not stopped
                   and len(inflight) < self.workers
                   and stats.executions + len(inflight) < max_executions
                   and time.monotonic() - start <= time_budget):  # lint: allow-wallclock — wall-clock attack budget, reported not row-keyed
                entry = pending.pop(self._pick(pending))
                inflight[pool.submit(_FrontierTask(token, entry[1],
                                                   entry[2]))] = entry
            if not inflight:
                break

            for event in pool.pump(deadline=deadline):
                entry = inflight.pop(event.dispatch_id)
                if event.kind == "result" and event.status == "error":
                    raise RuntimeError(f"frontier worker {event.worker} "
                                       f"failed: {event.payload}")
                if event.kind != "result":
                    # a death or deadline kill: the decision goes back to
                    # the frontier (attempt-capped) and is reassigned under
                    # a fresh dispatch id — path set stays identical to serial
                    priority, assignment, resume_key, attempt = entry
                    if attempt >= retries:
                        raise RuntimeError(
                            f"frontier worker lost one branch decision "
                            f"{attempt + 1} times ({event.payload})")
                    pending.append((priority, assignment, resume_key,
                                    attempt + 1))
                    continue

                result, delta = event.payload
                results.append(result)
                self.executions_by_worker[event.worker] += 1
                for name, value in delta.items():
                    setattr(stats, name, getattr(stats, name) + value)

                signature = tuple(
                    (address, constraint.expected)
                    for address, constraint in zip(result.branch_addresses,
                                                   result.constraints))
                if signature not in path_signatures:
                    path_signatures.add(signature)
                    stats.paths_seen += 1

                if stopped:
                    continue  # draining in-flight results after a stop
                if stop_condition is not None and stop_condition(result):
                    stopped = True
                    continue

                # generational expansion — identical to the serial loop;
                # the shared dedupe sets live here, so no two workers
                # ever chase the same negated decision
                for position, constraint in enumerate(result.constraints):
                    if max_solver_queries is not None \
                            and stats.solver_queries >= max_solver_queries:
                        break
                    if time.monotonic() - start > time_budget:  # lint: allow-wallclock — wall-clock attack budget, reported not row-keyed
                        break
                    decision_key = (
                        signature[:position],
                        result.branch_addresses[position],
                        not constraint.expected,
                    )
                    if decision_key in seen_decisions:
                        continue
                    seen_decisions.add(decision_key)
                    prefix = result.constraints[:position] \
                        + [constraint.negated()]
                    stats.solver_queries += 1
                    solution = self.solver.solve(
                        prefix, seed_assignment=result.assignment)
                    if solution is None:
                        continue
                    key = tuple(sorted(solution.items()))
                    if key in seen_inputs:
                        continue
                    seen_inputs.add(key)
                    pending.append((result.branch_addresses[position],
                                    solution,
                                    result.decision_keys[:position], 0))
            if pool.stats.respawns > respawn_limit:
                raise RuntimeError(
                    f"frontier worker respawn limit exceeded "
                    f"({pool.stats.respawns} respawns)")

        stats.elapsed = time.monotonic() - start  # lint: allow-wallclock — elapsed-time stat, excluded from byte-identity
        return results, stats

    def _pick(self, pending: List[Tuple]) -> int:
        """Strategy-driven frontier pick (same policy as the serial engine)."""
        if self.strategy == "dfs":
            return len(pending) - 1
        if self.strategy == "bfs":
            return 0
        classes: Dict[int, List[int]] = {}
        for index, entry in enumerate(pending):
            classes.setdefault(entry[0], []).append(index)
        chosen_class = self.random.choice(list(classes))
        return self.random.choice(classes[chosen_class])
