"""Multiprocessing execution layer for the evaluation grids.

The three evaluation grids (Figure 5 overhead bars, Table II attack cells,
Table III gadget statistics) decompose into independent work units — one
Figure 5 bar, one Table II ``(configuration, spec)`` cell, one Table III
``(benchmark, k)`` cell.  This module defines those units, a persistent
fork-based :class:`WorkerPool` that dispatches them with dynamic load
balancing, and merge helpers that reassemble the streamed unit results into
exactly the rows the serial drivers produce.

Determinism: every unit measures in deterministic quantities (instruction
counts, execution counts bounded by deterministic caps, gadget statistics),
so a parallel run merges to *row-identical* JSON against a serial run at the
same seed — the property ``tests/evaluation/test_parallel_grid.py`` asserts.
The only nondeterministic fields are wall-clock times (``average_time``),
which are nondeterministic in serial runs too.

Worker-local caches keep shared preparation work amortized: a worker
computing several Figure 5 bars of one benchmark measures the native and
baseline runs once; a worker attacking several Table II configurations of
one spec samples the reachable probe set once.  Because those cached values
are themselves deterministic, two workers recomputing them independently
agree with the serial run.

Memory bounding: ``REPRO_SNAPSHOT_POOL`` is a *global* mid-path snapshot
budget; each worker gets its share via
:func:`repro.attacks.engine.sharded_pool_capacity` (exported to the worker
through its environment before any engine is built).

Fault tolerance: :meth:`WorkerPool.map` supervises its workers.  A unit
whose worker raises, exceeds the ``REPRO_UNIT_TIMEOUT`` deadline or dies —
any premature exit counts, including a *clean* exit code 0 mid-unit — is
retried up to ``REPRO_UNIT_RETRIES`` times on a respawned worker, and when
retries exhaust, the unit is **quarantined**: its slot in the results
becomes a ``{"status": "failed", "error": ...}`` row and the run continues
instead of aborting a CPU-hours grid.  :class:`FaultStats` counts the
recoveries; every path is provoked deliberately by the deterministic
fault-injection harness (:mod:`repro.faults`, ``REPRO_FAULT_INJECT``).

The supervision core is exposed below :meth:`WorkerPool.map` as an
incremental :meth:`WorkerPool.submit` / :meth:`WorkerPool.pump` event API:
``submit`` enqueues one unit under a pool-lifetime dispatch id, ``pump``
performs one supervision round (claim polling, deadline kills, death
detection, slot respawns) and returns :class:`PoolEvent` records.  ``map``
is a client of that API; the long-lived attack service
(:mod:`repro.service`) is another, with its own retry/backoff and terminal
states layered on the same events; the distributed DSE frontier
(:mod:`repro.attacks.frontier`) is a third, returning a lost branch decision
to its frontier instead of retrying it in place.  Units beyond the three
grid dataclasses plug in through :func:`register_unit_executor`.

Nested pools run inline: pool workers are daemonic processes, which may not
fork children, so a pool (or a frontier) built inside a worker is never
parallel — :func:`fork_available` is the one place that decides.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import queue as queue_module
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import knobs
from repro.attacks import AttackBudget
from repro.evaluation.configurations import ObfuscationConfig
from repro.faults import inject_fault, parse_fault_spec, unit_retries, unit_timeout
from repro.workloads.randomfuns import RandomFunSpec

#: Seconds between liveness checks while waiting on worker results.
_POLL_SECONDS = 1.0


def grid_workers() -> int:
    """Resolve the ``REPRO_GRID_WORKERS`` knob (default 1 = serial)."""
    return knobs.positive_int("REPRO_GRID_WORKERS")


def fork_available() -> bool:
    """Whether this process can fork the workers a parallel pool needs.

    Fork lets workers inherit compiled programs and images without pickling
    them; platforms without it (Windows, some macOS configurations) fall
    back to in-process execution.  So does a daemonic process — a pool
    worker itself — because daemonic processes may not have children:
    nested pools (a DSE frontier inside a grid or service worker) run
    inline.
    """
    return ("fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon)


# -- work units ---------------------------------------------------------------

@dataclass(frozen=True)
class Figure5Unit:
    """One Figure 5 bar: benchmark ``benchmark`` at ROP fraction ``k``."""

    benchmark: str
    k: float
    baseline: ObfuscationConfig
    seed: int


@dataclass(frozen=True)
class Table2Unit:
    """One Table II cell: attack one generated function under one config."""

    configuration: ObfuscationConfig
    spec: RandomFunSpec
    budget: AttackBudget
    include_coverage: bool
    seed: int


@dataclass(frozen=True)
class Table3Unit:
    """One Table III cell: gadget statistics of one benchmark at one ``k``."""

    benchmark: str
    k: float
    seed: int


GridUnit = object  # any of the three unit dataclasses


def figure5_units(benchmarks: Optional[Sequence[str]],
                  k_values: Optional[Sequence[float]],
                  baseline, seed: int) -> List[Figure5Unit]:
    """Decompose a Figure 5 sweep, resolving the serial driver's defaults."""
    from repro.evaluation.configurations import nvm, ROPK_SWEEP
    from repro.workloads.clbg import CLBG_BENCHMARKS

    benchmarks = list(benchmarks or sorted(CLBG_BENCHMARKS))
    k_values = list(k_values if k_values is not None
                    else [k for k in ROPK_SWEEP if k > 0])
    baseline = baseline or nvm(2, "last")
    return [Figure5Unit(benchmark=name, k=k, baseline=baseline, seed=seed)
            for name in benchmarks for k in k_values]


def table2_units(configurations, specs, budget: AttackBudget,
                 include_coverage: bool, seed: int) -> List[Table2Unit]:
    """Decompose a Table II grid in the serial config-outer/spec-inner order."""
    return [Table2Unit(configuration=configuration, spec=spec, budget=budget,
                       include_coverage=include_coverage, seed=seed)
            for configuration in configurations for spec in specs]


def table3_units(benchmarks: Optional[Sequence[str]],
                 k_values: Optional[Sequence[float]],
                 seed: int) -> List[Table3Unit]:
    """Decompose a Table III sweep, resolving the serial driver's defaults."""
    from repro.evaluation.configurations import ROPK_SWEEP
    from repro.workloads.clbg import CLBG_BENCHMARKS

    benchmarks = list(benchmarks or sorted(CLBG_BENCHMARKS))
    k_values = list(k_values if k_values is not None else ROPK_SWEEP)
    return [Table3Unit(benchmark=name, k=k, seed=seed)
            for name in benchmarks for k in k_values]


# -- unit identity, fingerprints and quarantine rows --------------------------

def unit_identity(unit: GridUnit) -> Dict[str, object]:
    """Human-readable identity fields of a unit (embedded in failure rows)."""
    if isinstance(unit, Figure5Unit):
        return {"part": "figure5", "benchmark": unit.benchmark, "k": unit.k}
    if isinstance(unit, Table2Unit):
        return {"part": "table2", "configuration": unit.configuration.name,
                "structure": unit.spec.structure,
                "input_size": unit.spec.input_size,
                "spec_seed": unit.spec.seed}
    if isinstance(unit, Table3Unit):
        return {"part": "table3", "benchmark": unit.benchmark, "k": unit.k}
    return {"part": "unknown", "unit": type(unit).__name__}


def unit_fingerprint(unit: GridUnit) -> str:
    """Deterministic cross-run identity of a unit — the checkpoint key.

    Hashes every field of the unit (configuration, spec, budget, seed via
    the nested ``dataclasses.asdict``), so two runs agree on what "the same
    cell" means exactly when they would compute the same row, and any
    parameter change (a retuned budget, a different seed) invalidates the
    old checkpoint entry instead of silently reusing a stale result.
    """
    if dataclasses.is_dataclass(unit):
        payload = json.dumps(dataclasses.asdict(unit), sort_keys=True,
                             default=repr)
    else:
        payload = repr(unit)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return f"{type(unit).__name__}:{digest}"


def quarantine_row(unit: GridUnit, error: str) -> dict:
    """The artifact row recorded for a unit whose retries exhausted."""
    return {"status": "failed", "error": error, **unit_identity(unit)}


@dataclass
class FaultStats:
    """Recovery counters of one :class:`WorkerPool` (cumulative over maps).

    Attributes:
        failed_units: units quarantined after exhausting their retries.
        retries: re-dispatches of a unit after a failure/timeout/death.
        respawns: replacement workers forked after a death or a kill.
        timeouts: units whose ``REPRO_UNIT_TIMEOUT`` deadline expired.
    """

    failed_units: int = 0
    retries: int = 0
    respawns: int = 0
    timeouts: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class PoolEvent:
    """One supervision outcome surfaced by :meth:`WorkerPool.pump`.

    ``kind`` is ``"result"`` (the worker reported back; ``status`` is
    ``"ok"`` with a payload dict or ``"error"`` with an error string),
    ``"deadline"`` (the unit's ``REPRO_UNIT_TIMEOUT`` expired and its worker
    was killed) or ``"death"`` (the worker died mid-unit; ``exitcode``
    carries how).  Exactly one event is emitted per outstanding dispatch id
    — the pool removes the id from its outstanding set before emitting, so
    a result racing a kill is never double-reported.
    """

    kind: str
    dispatch_id: int
    status: str
    payload: object
    worker: int
    exitcode: Optional[int] = None


# -- unit execution (runs inside a worker) ------------------------------------

#: benchmark-level measurements shared by several Figure 5 bars:
#: (benchmark, baseline, seed) -> (program, entry, argument, targets,
#: native_steps, baseline_steps).  Worker-local; the cached values are
#: deterministic, so independent workers agree with each other and with the
#: serial driver.
_FIGURE5_CACHE: Dict[Tuple, Tuple] = {}

#: spec-level reachable-probe samples shared by several Table II cells
#: (the reachable set is a property of the *native* function).
_REACHABLE_CACHE: Dict[Tuple, set] = {}

#: benchmark-level compiled images shared by several Table III cells.
_TABLE3_CACHE: Dict[str, Tuple] = {}


def _figure5_measurements(unit: Figure5Unit) -> Tuple:
    from repro.compiler import compile_program
    from repro.evaluation.configurations import apply_configuration
    from repro.evaluation.figure5 import _run
    from repro.workloads.clbg import build_clbg_program

    key = (unit.benchmark, unit.baseline, unit.seed)
    cached = _FIGURE5_CACHE.get(key)
    if cached is None:
        program, entry, argument, targets = build_clbg_program(unit.benchmark)
        native_steps = _run(compile_program(program), entry, argument)
        baseline_image = apply_configuration(program, targets, unit.baseline,
                                             seed=unit.seed)
        baseline_steps = _run(baseline_image, entry, argument)
        cached = (program, entry, argument, targets, native_steps, baseline_steps)
        _FIGURE5_CACHE[key] = cached
    return cached


def _execute_figure5(unit: Figure5Unit) -> dict:
    from repro.evaluation.configurations import apply_configuration, ropk
    from repro.evaluation.figure5 import Figure5Bar, _run

    program, entry, argument, targets, native_steps, baseline_steps = \
        _figure5_measurements(unit)
    rop_image = apply_configuration(program, targets, ropk(unit.k),
                                    seed=unit.seed)
    bar = Figure5Bar(benchmark=unit.benchmark, k=unit.k,
                     native_instructions=native_steps,
                     rop_instructions=_run(rop_image, entry, argument),
                     baseline_instructions=baseline_steps)
    return {**dataclasses.asdict(bar),
            "slowdown_vs_native": bar.slowdown_vs_native,
            "slowdown_vs_baseline": bar.slowdown_vs_baseline}


def _execute_table2(unit: Table2Unit) -> dict:
    from repro.attacks import coverage_attack, secret_finding_attack
    from repro.attacks.dse import InputSpec
    from repro.evaluation.configurations import apply_configuration
    from repro.evaluation.table2 import _reachable_probes
    from repro.workloads.randomfuns import generate_random_function

    spec = unit.spec
    secret_spec = RandomFunSpec(structure=spec.structure,
                                input_size=spec.input_size, seed=spec.seed,
                                point_test=True,
                                loop_iterations=spec.loop_iterations)
    program, _, _ = generate_random_function(secret_spec)
    image = apply_configuration(program, [secret_spec.name],
                                unit.configuration, seed=unit.seed)
    input_spec = InputSpec(argument_sizes=[spec.input_size])
    outcome = secret_finding_attack(image, secret_spec.name, input_spec,
                                    unit.budget, seed=unit.seed)
    cell = {
        "configuration": unit.configuration.name,
        "secret_found": outcome.success,
        "time_to_success": outcome.time_to_success,
        "coverage_full": False,
        "executions": outcome.executions,
        "instructions": outcome.instructions,
        "branch_restores": outcome.branch_restores,
    }

    if unit.include_coverage:
        coverage_spec = RandomFunSpec(structure=spec.structure,
                                      input_size=spec.input_size,
                                      seed=spec.seed, point_test=False,
                                      loop_iterations=spec.loop_iterations)
        cov_program, _, probe_count = generate_random_function(coverage_spec)
        cov_image = apply_configuration(cov_program, [coverage_spec.name],
                                        unit.configuration, seed=unit.seed)
        spec_key = (spec.structure, spec.input_size, spec.seed,
                    spec.loop_iterations)
        reachable = _REACHABLE_CACHE.get(spec_key)
        if reachable is None:
            reachable = _reachable_probes(cov_program, coverage_spec,
                                          probe_count)
            _REACHABLE_CACHE[spec_key] = reachable
        cov_outcome = coverage_attack(cov_image, coverage_spec.name,
                                      reachable, input_spec, unit.budget,
                                      seed=unit.seed)
        cell["coverage_full"] = cov_outcome.success
        cell["executions"] += cov_outcome.executions
        cell["instructions"] += cov_outcome.instructions
        cell["branch_restores"] += cov_outcome.branch_restores
    return cell


def _execute_table3(unit: Table3Unit) -> dict:
    from repro.compiler import compile_program
    from repro.core import RopConfig, rop_obfuscate
    from repro.evaluation.table3 import Table3Row
    from repro.workloads.clbg import build_clbg_program

    cached = _TABLE3_CACHE.get(unit.benchmark)
    if cached is None:
        program, _, _, targets = build_clbg_program(unit.benchmark)
        cached = (compile_program(program), targets)
        _TABLE3_CACHE[unit.benchmark] = cached
    image, targets = cached
    _, report = rop_obfuscate(image, targets,
                              RopConfig.ropk(unit.k, seed=unit.seed))
    totals = report.totals()
    row = Table3Row(benchmark=unit.benchmark, k=unit.k,
                    program_points=int(totals["program_points"]),
                    total_gadgets=int(totals["total_gadgets"]),
                    unique_gadgets=int(totals["unique_gadgets"]))
    return {**dataclasses.asdict(row), "gadgets_per_point": row.gadgets_per_point}


#: Extension point for unit types beyond the three grid dataclasses —
#: populated via :func:`register_unit_executor` in the parent process
#: *before* the pool forks, so workers inherit the registry.
_UNIT_EXECUTORS: Dict[type, Callable[[object], dict]] = {}


def register_unit_executor(unit_type: type,
                           executor: Callable[[object], dict]) -> None:
    """Register the executor for a custom unit type (idempotent).

    The service layer registers its :class:`~repro.service.AttackRequest`
    here at import time; because workers are forked from the parent, any
    registration made before the first dispatch is visible inside every
    worker (and every respawned replacement).
    """
    _UNIT_EXECUTORS[unit_type] = executor


def execute_unit(unit: GridUnit) -> dict:
    """Execute one work unit; dispatch point shared by serial and workers."""
    if isinstance(unit, Figure5Unit):
        return _execute_figure5(unit)
    if isinstance(unit, Table2Unit):
        return _execute_table2(unit)
    if isinstance(unit, Table3Unit):
        return _execute_table3(unit)
    executor = _UNIT_EXECUTORS.get(type(unit))
    if executor is not None:
        return executor(unit)
    raise TypeError(f"unknown work unit {type(unit).__name__}")


# -- the worker pool ----------------------------------------------------------

def _worker_main(worker_index: int, snapshot_share: int, task_queue,
                 result_queue, claim_cell) -> None:
    """Worker loop: claim units until the ``None`` sentinel arrives.

    The snapshot-pool share is exported *before* any attack engine is built,
    so every engine the unit executions construct sizes its mid-path pool to
    this worker's slice of the global budget.

    Every claimed unit is announced in ``claim_cell`` — a shared int the
    supervisor reads to attribute a worker death or a deadline expiry to
    the exact unit it must retry.  The claim must NOT travel through the
    result queue: queue puts are flushed by a background feeder thread, so
    a worker dying right after claiming (SIGKILL, OOM) would lose the
    in-flight claim message and strand the unit forever; the shared-memory
    write is synchronous and survives any death.  Interrupts
    (``KeyboardInterrupt``/``SystemExit``) re-raise instead of being
    reported as unit errors: the supervisor treats the dying worker like any
    other premature exit, and a Ctrl-C reaches the driver's own handler.
    """
    os.environ["REPRO_SNAPSHOT_POOL"] = str(snapshot_share)
    fault_spec = parse_fault_spec()
    while True:
        task = task_queue.get()
        if task is None:
            break
        dispatch_id, attempt, unit = task
        claim_cell.value = dispatch_id
        try:
            inject_fault(dispatch_id, attempt, fault_spec)
            result_queue.put((worker_index, dispatch_id, "ok",
                              execute_unit(unit)))
        except (KeyboardInterrupt, SystemExit):
            raise
        # lint: allow-broad-except — worker blast containment: any
        # failure becomes an error event for the supervisor (KeyboardInterrupt/
        # SystemExit re-raised above)
        except BaseException as exc:  # surface, don't hang the parent
            result_queue.put((worker_index, dispatch_id, "error",
                              f"{type(exc).__name__}: {exc}"))
        # cleared only after the result is queued: a death in between leaves
        # a stale claim, which the supervisor's drain-first recovery ignores
        claim_cell.value = -1


class WorkerPool:
    """Persistent pool of forked grid workers with dynamic load balancing.

    Workers are spawned lazily on the first :meth:`map` call and stay alive
    across calls (and hence across the three grid parts), so benchmark
    programs, preloaded images and reachable-probe samples cached inside a
    worker keep paying off for later units.  ``workers <= 1`` — or a
    process that cannot fork workers (:func:`fork_available`) — degrades to
    in-process execution with identical results.
    """

    def __init__(self, workers: int,
                 snapshot_share: Optional[int] = None) -> None:
        from repro.attacks.engine import sharded_pool_capacity

        self.workers = max(1, workers)
        self.snapshot_share = (sharded_pool_capacity(self.workers)
                               if snapshot_share is None else snapshot_share)
        self.stats = FaultStats()
        self._processes: List = []
        self._task_queue = None
        self._result_queue = None
        #: per-slot shared claim cells (-1 = idle); see :func:`_worker_main`
        self._claim_cells: List = []
        #: global dispatch sequence across the pool's lifetime — the index
        #: space ``REPRO_FAULT_INJECT`` directives target (deterministic:
        #: units are numbered in enqueue order, not completion order).
        self._units_dispatched = 0
        #: dispatch ids enqueued but not yet surfaced as a :class:`PoolEvent`
        self._outstanding: set = set()
        #: slot -> (claimed dispatch id, first observed) — the supervisor's
        #: view of the shared claim cells; deadlines run from observation
        self._observed: Dict[int, Optional[Tuple[int, float]]] = {}

    @property
    def parallel(self) -> bool:
        return self.workers > 1 and fork_available()

    def respawn_limit(self, retries: int) -> int:
        """Respawns a supervising client tolerates before aborting.

        A worker that keeps dying before even claiming a unit (e.g. a crash
        in the fork prologue) must not respawn forever.
        """
        return max(8, self.workers * (retries + 2))

    def _spawn(self, worker_index: int):
        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=_worker_main,
            args=(worker_index, self.snapshot_share, self._task_queue,
                  self._result_queue, self._claim_cells[worker_index]),
            daemon=True)
        process.start()
        return process

    def _ensure_started(self) -> None:
        if self._processes:
            return
        context = multiprocessing.get_context("fork")
        self._task_queue = context.Queue()
        self._result_queue = context.Queue()
        self._claim_cells = [context.Value("q", -1, lock=False)
                             for _ in range(self.workers)]
        self._observed = {slot: None for slot in range(self.workers)}
        self._processes = [self._spawn(worker_index)
                           for worker_index in range(self.workers)]

    def _respawn(self, slot: int) -> None:
        """Replace a dead/killed worker in place, keeping its slot index."""
        self._claim_cells[slot].value = -1
        self._observed[slot] = None
        self._processes[slot] = self._spawn(slot)
        self.stats.respawns += 1

    # -- incremental supervision API ------------------------------------------

    def submit(self, unit: GridUnit, dispatch_id: Optional[int] = None,
               attempt: int = 0) -> int:
        """Enqueue one unit; return its pool-lifetime dispatch id.

        ``dispatch_id`` defaults to the next slot of the global dispatch
        sequence; a retry re-submits under the unit's *original* id with a
        bumped ``attempt``, preserving the fault-injection index semantics
        (a ``count``-limited directive stops sabotaging once ``attempt``
        reaches its count).  Parallel pools only — inline execution has no
        queue to supervise.
        """
        if not self.parallel:
            raise RuntimeError("submit() requires a parallel pool "
                               "(workers > 1 with fork available)")
        if dispatch_id is None:
            dispatch_id = self._units_dispatched
            self._units_dispatched += 1
        self._ensure_started()
        self._outstanding.add(dispatch_id)
        self._task_queue.put((dispatch_id, attempt, unit))
        return dispatch_id

    def pump(self, timeout: float = _POLL_SECONDS,
             deadline: Optional[float] = None) -> List[PoolEvent]:
        """One supervision round; block at most ``timeout`` for a result.

        Polls the claim cells, waits (briefly) on the result queue, enforces
        ``deadline`` seconds per claimed unit (kill + respawn on expiry) and
        recovers dead workers — any premature exit counts, clean code 0
        included.  Every outcome is returned as a :class:`PoolEvent`; the
        caller owns retry policy (:meth:`submit` again under the same id) and
        respawn budgets (watch :attr:`stats` ``.respawns``).  Results
        drained while recovering a kill or a death win over the synthetic
        deadline/death event — the unit finished, so it is reported
        finished.
        """
        events: List[PoolEvent] = []

        def handle(message) -> None:
            worker, dispatch_id, status, payload = message
            if dispatch_id not in self._outstanding:
                return  # stale duplicate drained around a worker death
            self._outstanding.discard(dispatch_id)
            events.append(PoolEvent(kind="result", dispatch_id=dispatch_id,
                                    status=status, payload=payload,
                                    worker=worker))

        def drain() -> None:
            while True:
                try:
                    handle(self._result_queue.get_nowait())
                except queue_module.Empty:
                    return

        self._ensure_started()
        now = time.monotonic()  # lint: allow-wallclock — worker-liveness deadline, not row content
        for slot, cell in enumerate(self._claim_cells):
            value = cell.value
            observed = self._observed.get(slot)
            if value < 0:
                self._observed[slot] = None
            elif observed is None or observed[0] != value:
                self._observed[slot] = (value, now)

        # wake early enough to enforce the nearest unit deadline
        wake = timeout
        if deadline is not None:
            for claim in self._observed.values():
                if claim is not None and claim[0] in self._outstanding:
                    remaining = deadline - (now - claim[1])
                    wake = max(0.05, min(wake, remaining))
        try:
            handle(self._result_queue.get(timeout=wake))
            drain()
            return events
        except queue_module.Empty:
            pass

        # per-unit deadline: kill the worker hosting an expired unit, then
        # surface the expiry and refill the slot
        if deadline is not None:
            now = time.monotonic()  # lint: allow-wallclock — worker-liveness deadline, not row content
            for slot, claim in list(self._observed.items()):
                if claim is None or claim[0] not in self._outstanding \
                        or now - claim[1] <= deadline:
                    continue
                process = self._processes[slot]
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5.0)
                self.stats.timeouts += 1
                drain()  # a result that raced the kill wins over a retry
                if claim[0] in self._outstanding:
                    self._outstanding.discard(claim[0])
                    events.append(PoolEvent(
                        kind="deadline", dispatch_id=claim[0],
                        status="error",
                        payload=(f"unit deadline exceeded "
                                 f"(REPRO_UNIT_TIMEOUT={deadline:g}s)"),
                        worker=slot))
                self._respawn(slot)

        # supervise: ANY dead worker with work outstanding is a fault —
        # including a clean exit code 0, which the close() sentinel
        # handshake alone may legitimately produce, but a mid-unit exit
        # never can
        for slot, process in enumerate(self._processes):
            if process.is_alive():
                continue
            drain()
            value = self._claim_cells[slot].value
            if value >= 0 and value in self._outstanding:
                self._outstanding.discard(value)
                events.append(PoolEvent(
                    kind="death", dispatch_id=value, status="error",
                    payload=(f"worker died mid-unit (exit code "
                             f"{process.exitcode})"),
                    worker=slot, exitcode=process.exitcode))
            self._respawn(slot)
        return events

    def map(self, units: Sequence[GridUnit],
            on_result: Optional[Callable] = None,
            ) -> Tuple[List[dict], List[int]]:
        """Execute every unit; return ``(results, worker_ids)`` unit-ordered.

        Units are claimed dynamically, so expensive cells (Table II attacks)
        and cheap ones (Table III statistics) balance across workers; the
        returned lists are nevertheless in input order, which is what makes
        the downstream merge order-independent of the execution schedule.

        Fault tolerance (see the module docstring): failed, timed-out and
        orphaned units are retried ``REPRO_UNIT_RETRIES`` times and then
        quarantined as ``{"status": "failed", ...}`` rows instead of
        aborting the run.  ``on_result``, when given, is called with
        ``(index, unit, payload)`` as each unit resolves (completion order)
        — the grid driver streams completed units to its checkpoint with it.
        """
        if not units:
            return [], []
        base = self._units_dispatched
        self._units_dispatched += len(units)
        if not self.parallel:
            return self._map_inline(units, base, on_result)
        self._ensure_started()
        try:
            return self._map_supervised(units, base, on_result)
        # lint: allow-broad-except — error-path cleanup that re-raises:
        # the pool is aborted so a failed run cannot hang close()
        except BaseException:
            self.abort()
            raise

    def _map_inline(self, units: Sequence[GridUnit], base: int,
                    on_result: Optional[Callable]) -> Tuple[List[dict], List[int]]:
        """In-process execution (serial fallback) with the same quarantine
        semantics; only ``raise`` faults are injectable here."""
        retries = unit_retries()
        fault_spec = parse_fault_spec()
        results: List[dict] = []
        for index, unit in enumerate(units):
            attempt = 0
            while True:
                try:
                    inject_fault(base + index, attempt, fault_spec,
                                 inline=True)
                    payload = execute_unit(unit)
                    break
                # lint: allow-broad-except — the inline pool mirrors the
                # forked workers' blast containment: *any* unit failure
                # (including EmulationError) is retried then quarantined as
                # a row, never allowed to kill the whole grid.
                except Exception as exc:
                    if attempt < retries:
                        attempt += 1
                        self.stats.retries += 1
                        continue
                    payload = quarantine_row(unit,
                                             f"{type(exc).__name__}: {exc}")
                    self.stats.failed_units += 1
                    break
            results.append(payload)
            if on_result is not None:
                on_result(index, unit, payload)
        return results, [0] * len(units)

    def _map_supervised(self, units: Sequence[GridUnit], base: int,
                        on_result: Optional[Callable],
                        ) -> Tuple[List[dict], List[int]]:
        retries = unit_retries()
        deadline = unit_timeout()
        respawn_limit = self.respawn_limit(retries)
        respawns_before = self.stats.respawns
        results: List[Optional[dict]] = [None] * len(units)
        worker_ids: List[int] = [0] * len(units)
        attempts: Dict[int, int] = {}
        index_of: Dict[int, int] = {}
        for index, unit in enumerate(units):
            dispatch_id = self.submit(unit, dispatch_id=base + index)
            index_of[dispatch_id] = index
            attempts[dispatch_id] = 0
        unresolved = set(index_of)

        def resolve(dispatch_id: int, payload: dict, worker: int) -> None:
            index = index_of[dispatch_id]
            results[index] = payload
            worker_ids[index] = worker
            unresolved.discard(dispatch_id)
            if on_result is not None:
                on_result(index, units[index], payload)

        def fail(dispatch_id: int, worker: int, error: str) -> None:
            if attempts[dispatch_id] < retries:
                attempts[dispatch_id] += 1
                self.stats.retries += 1
                self.submit(units[index_of[dispatch_id]],
                            dispatch_id=dispatch_id,
                            attempt=attempts[dispatch_id])
            else:
                self.stats.failed_units += 1
                resolve(dispatch_id,
                        quarantine_row(units[index_of[dispatch_id]], error),
                        worker)

        while unresolved:
            for event in self.pump(deadline=deadline):
                if event.dispatch_id not in unresolved:
                    continue
                if event.kind == "result" and event.status == "ok":
                    resolve(event.dispatch_id, event.payload, event.worker)
                else:
                    fail(event.dispatch_id, event.worker, event.payload)
            if self.stats.respawns - respawns_before > respawn_limit:
                raise RuntimeError(
                    f"grid worker respawn limit exceeded "
                    f"({self.stats.respawns - respawns_before} respawns "
                    f"with {len(unresolved)} unit(s) unresolved)")
        return results, worker_ids

    def abort(self) -> None:
        """Tear the pool down immediately, skipping the sentinel handshake.

        The close() handshake waits on workers draining the task queue; a
        pool being abandoned on an error path, or *because* its workers keep
        dying (the service's circuit breaker), must not wait on them.
        """
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        for queue in (self._task_queue, self._result_queue):
            if queue is not None:
                queue.cancel_join_thread()
        self._reset()

    def close(self) -> None:
        """Stop the workers; safe to call twice."""
        if not self._processes:
            return
        for _ in self._processes:
            try:
                self._task_queue.put(None)
            except (OSError, ValueError):
                break
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._reset()

    def _reset(self) -> None:
        self._processes = []
        self._task_queue = None
        self._result_queue = None
        self._claim_cells = []
        self._outstanding = set()
        self._observed = {}

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        # an exception unwinding through the pool takes the error path
        if exc_type is None:
            self.close()
        else:
            self.abort()


# -- deterministic merges -----------------------------------------------------

def merge_table2(units: Sequence[Table2Unit],
                 cells: Sequence[dict]) -> List[dict]:
    """Reassemble Table II rows from per-cell results.

    ``units`` must be in the serial config-outer/spec-inner order (what
    :func:`table2_units` produces); accumulating cells in that order makes
    each output row identical to the serial driver's — including
    ``average_time``, which averages time-to-success over successful cells
    in spec order.

    Quarantined cells (``{"status": "failed", ...}``) are excluded from the
    aggregation entirely — they were never measured, so they count toward
    neither ``functions`` nor any attack counter; the grid driver appends
    them to the artifact as their own rows.
    """
    rows: List[dict] = []
    by_config: Dict[str, dict] = {}
    spec_counts: Dict[str, int] = {}
    for unit, cell in zip(units, cells):
        if cell.get("status") == "failed":
            continue
        name = unit.configuration.name
        spec_counts[name] = spec_counts.get(name, 0) + 1
        row = by_config.get(name)
        if row is None:
            row = {"configuration": name, "secrets_found": 0, "functions": 0,
                   "average_time": 0.0, "full_coverage": 0, "executions": 0,
                   "instructions": 0, "branch_restores": 0, "_times": []}
            by_config[name] = row
            rows.append(row)
        if cell["secret_found"]:
            row["secrets_found"] += 1
            row["_times"].append(cell["time_to_success"])
        if cell["coverage_full"]:
            row["full_coverage"] += 1
        row["executions"] += cell["executions"]
        row["instructions"] += cell["instructions"]
        row["branch_restores"] += cell["branch_restores"]
    for row in rows:
        times = row.pop("_times")
        row["functions"] = spec_counts[row["configuration"]]
        row["average_time"] = sum(times) / len(times) if times else 0.0
    return rows


def executions_by_worker(worker_ids: Sequence[int],
                         cells: Sequence[dict]) -> Dict[str, int]:
    """Per-worker concrete-execution totals for the summary's attack_engine."""
    totals: Dict[str, int] = {}
    for worker_index, cell in zip(worker_ids, cells):
        if cell.get("status") == "failed":
            continue  # quarantined cells carry no execution counters
        key = str(worker_index)
        totals[key] = totals.get(key, 0) + cell["executions"]
    return totals
