"""Supervised worker pool shared by the evaluation grid and the service.

Work arrives as *units*: any object whose type registered an executor via
:func:`register_unit_executor`.  The evaluation grid's units are one
Figure 5 bar, one Table II ``(configuration, spec)`` cell and one Table III
``(benchmark, k)`` cell, each defined next to its row type
(:mod:`repro.evaluation.figure5`, :mod:`~repro.evaluation.table2`,
:mod:`~repro.evaluation.table3`); the attack service submits requests.

:class:`WorkerPool` runs them through one incremental API: ``submit``
enqueues one unit under a pool-lifetime dispatch id, ``pump`` performs one
supervision round and returns :class:`PoolEvent` records, and ``map`` is a
client of those two that returns results in unit order.  The long-lived
attack service (:mod:`repro.service`) is the other client, with its own
retry/backoff and terminal states layered on the same events.  One attack
is never split across workers: a DSE exploration runs in the process that
executes its unit.

One pool, two modes.  A *parallel* pool (``workers > 1`` and
:func:`fork_available`) forks persistent workers lazily on the first
``submit`` and keeps them across calls, so worker-local caches (benchmark
measurements, preloaded images, reachable-probe samples) keep paying off;
units are claimed dynamically, so cheap and expensive cells balance.  A
pool at one worker — or one that cannot fork — runs *inline*: ``pump``
executes the oldest queued unit in-process and returns the same events,
without sleeping or polling.  Serial execution is therefore the pool at
one worker, not a second driver beside it.

Determinism: every unit measures in deterministic quantities (instruction
counts, execution counts bounded by deterministic caps, gadget statistics),
so a parallel run merges to *row-identical* JSON against an inline run at
the same seed — the property ``tests/evaluation/test_parallel_grid.py``
asserts against recorded golden rows.  The only nondeterministic fields
are wall-clock times (``average_time``).

Memory bounding: ``REPRO_SNAPSHOT_POOL`` is a *global* mid-path snapshot
budget; each worker gets its share via
:func:`repro.attacks.engine.sharded_pool_capacity` (exported to the worker
through its environment before any engine is built).

Fault tolerance: :meth:`WorkerPool.map` supervises its units.  A unit that
raises, exceeds the ``REPRO_UNIT_TIMEOUT`` deadline or loses its worker —
any premature exit counts, including a *clean* exit code 0 mid-unit — is
retried up to ``REPRO_UNIT_RETRIES`` times (on a respawned worker when one
died), and when retries exhaust, the unit is **quarantined**: its slot in
the results becomes a ``{"status": "failed", "error": ...}`` row and the
run continues instead of aborting a CPU-hours grid.  :class:`FaultStats`
counts the recoveries; every path is provoked deliberately by the
deterministic fault-injection harness (:mod:`repro.faults`,
``REPRO_FAULT_INJECT``).  Inline pools honour only ``raise`` and ``slow``
faults, which cannot take down the process running them.

Nested pools run inline: pool workers are daemonic processes, which may not
fork children, so a pool built inside a worker is never parallel —
:func:`fork_available` is the one place that decides.
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
from repro.faults import inject_fault, parse_fault_spec, unit_retries, unit_timeout

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
    nested pools run inline.
    """
    return ("fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon)


# -- unit identity, fingerprints and quarantine rows --------------------------

def unit_fingerprint(unit: object) -> str:
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


def quarantine_row(unit: object, error: str) -> dict:
    """The artifact row recorded for a unit whose retries exhausted.

    It carries the unit's human-readable ``identity()`` fields when the
    unit type defines them (the grid units do).
    """
    identity = getattr(unit, "identity", None)
    fields = (identity() if identity is not None
              else {"part": "unknown", "unit": type(unit).__name__})
    return {"status": "failed", "error": error, **fields}


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


# -- unit execution -----------------------------------------------------------

#: unit type -> executor, populated via :func:`register_unit_executor` in
#: the parent process *before* the pool forks, so workers inherit it.
_UNIT_EXECUTORS: Dict[type, Callable[[object], object]] = {}


def register_unit_executor(unit_type: type,
                           executor: Callable[[object], object]) -> None:
    """Register the executor for a unit type (idempotent).

    The grid parts and the service's :class:`~repro.service.AttackRequest`
    register here at import time; because workers are forked from the
    parent, any registration made before the first dispatch is visible
    inside every worker (and every respawned replacement).
    """
    _UNIT_EXECUTORS[unit_type] = executor


def execute_unit(unit: object) -> object:
    """Execute one work unit through its registered executor."""
    executor = _UNIT_EXECUTORS.get(type(unit))
    if executor is None:
        raise TypeError(f"unknown work unit {type(unit).__name__}")
    return executor(unit)


def _run_unit(dispatch_id: int, attempt: int, unit: object, fault_spec,
              inline: bool = False) -> Tuple[str, object]:
    """Fire any injected fault, then execute; ``(status, payload)``.

    Shared by the forked workers and the inline pool: any failure becomes
    an ``("error", message)`` outcome for the supervising client.
    Interrupts (``KeyboardInterrupt``/``SystemExit``) propagate instead: a
    dying worker is supervised like any other premature exit, and a Ctrl-C
    reaches the driver's own handler.
    """
    try:
        inject_fault(dispatch_id, attempt, fault_spec, inline=inline)
        return "ok", execute_unit(unit)
    # lint: allow-broad-except — unit blast containment: any failure
    # (EmulationError and injected faults included) becomes an error event
    # for the supervising client instead of killing a grid or the service
    except Exception as exc:
        return "error", f"{type(exc).__name__}: {exc}"


# -- the worker pool ----------------------------------------------------------

def _worker_main(worker_index: int, snapshot_share: int, task_queue,
                 result_writer, result_lock, claim_cell) -> None:
    """Worker loop: claim units until the ``None`` sentinel arrives.

    The snapshot-pool share is exported *before* any attack engine is built,
    so every engine the unit executions construct sizes its mid-path pool to
    this worker's slice of the global budget.

    Every claimed unit is announced in ``claim_cell`` — a shared int the
    supervisor reads to attribute a worker death or a deadline expiry to
    the exact unit it must retry.  Claims and results are both written
    synchronously, so neither can die with the worker: results go straight
    into the shared result pipe (under ``result_lock``) instead of through
    a ``multiprocessing.Queue``, whose background feeder thread would still
    hold a finished unit's result when the worker dies on its next claim —
    the supervisor would then retry the claimed unit and wait forever for
    the finished one.
    """
    os.environ["REPRO_SNAPSHOT_POOL"] = str(snapshot_share)
    fault_spec = parse_fault_spec()
    while True:
        task = task_queue.get()
        if task is None:
            break
        dispatch_id, attempt, unit = task
        claim_cell.value = dispatch_id
        outcome = _run_unit(dispatch_id, attempt, unit, fault_spec)
        with result_lock:
            result_writer.send((worker_index, dispatch_id, *outcome))
        # cleared only after the result is sent: a death in between leaves
        # a stale claim, which the supervisor's drain-first recovery ignores
        claim_cell.value = -1


class WorkerPool:
    """Persistent pool of forked workers with dynamic load balancing.

    Workers are spawned lazily on the first :meth:`submit` and stay alive
    across calls (and hence across the three grid parts), so benchmark
    programs, preloaded images and reachable-probe samples cached inside a
    worker keep paying off for later units.  ``workers <= 1`` — or a
    process that cannot fork workers (:func:`fork_available`) — is the
    inline mode of the same API: units run in-process, oldest first, one
    per :meth:`pump`, with identical results.
    """

    def __init__(self, workers: int) -> None:
        from repro.attacks.engine import sharded_pool_capacity

        self.workers = max(1, workers)
        self.snapshot_share = sharded_pool_capacity(self.workers)
        self.stats = FaultStats()
        self._processes: List = []
        #: pending ``(dispatch id, attempt, unit)`` tasks: a fork-context
        #: queue the workers claim from, or the inline FIFO :meth:`pump` runs
        self._task_queue = None
        #: the workers' shared result pipe and its write lock
        self._result_reader = None
        self._result_writer = None
        self._result_lock = None
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

    def _spawn(self, worker_index: int):
        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=_worker_main,
            args=(worker_index, self.snapshot_share, self._task_queue,
                  self._result_writer, self._result_lock,
                  self._claim_cells[worker_index]),
            daemon=True)
        process.start()
        return process

    def _ensure_started(self) -> None:
        if self._task_queue is not None:
            return
        if not self.parallel:
            self._task_queue = queue_module.SimpleQueue()
            return
        context = multiprocessing.get_context("fork")
        self._task_queue = context.Queue()
        self._result_reader, self._result_writer = context.Pipe(duplex=False)
        self._result_lock = context.Lock()
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

    def submit(self, unit: object, dispatch_id: Optional[int] = None,
               attempt: int = 0) -> int:
        """Enqueue one unit; return its pool-lifetime dispatch id.

        ``dispatch_id`` defaults to the next slot of the global dispatch
        sequence; a retry re-submits under the unit's *original* id with a
        bumped ``attempt``, preserving the fault-injection index semantics
        (a ``count``-limited directive stops sabotaging once ``attempt``
        reaches its count).
        """
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

        Polls the claim cells, waits (briefly) on the result pipe, enforces
        ``deadline`` seconds per claimed unit (kill + respawn on expiry) and
        recovers dead workers — any premature exit counts, clean code 0
        included.  Every outcome is returned as a :class:`PoolEvent`; the
        caller owns retry policy (:meth:`submit` again under the same id) and
        respawn budgets (watch :attr:`stats` ``.respawns``).  Results
        drained while recovering a kill or a death win over the synthetic
        deadline/death event — the unit finished, so it is reported
        finished.

        An inline pool instead runs the oldest queued unit in-process and
        returns its ``result`` event (``[]`` when nothing is queued); it
        never waits, so ``timeout`` and ``deadline`` do not apply.
        """
        self._ensure_started()
        if not self.parallel:
            try:
                dispatch_id, attempt, unit = self._task_queue.get_nowait()
            except queue_module.Empty:
                return []
            self._outstanding.discard(dispatch_id)
            status, payload = _run_unit(dispatch_id, attempt, unit,
                                        parse_fault_spec(), inline=True)
            return [PoolEvent(kind="result", dispatch_id=dispatch_id,
                              status=status, payload=payload, worker=0)]
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
            while self._result_reader.poll():
                handle(self._result_reader.recv())

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
        if self._result_reader.poll(wake):
            drain()
            return events

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

    def map(self, units: Sequence[object],
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
        retries = unit_retries()
        deadline = unit_timeout()
        # a worker that keeps dying before even claiming a unit (e.g. a crash
        # in the fork prologue) must not respawn forever
        respawn_limit = max(8, self.workers * (retries + 2))
        respawns_before = self.stats.respawns
        results: List[Optional[dict]] = [None] * len(units)
        worker_ids: List[int] = [0] * len(units)
        attempts = [0] * len(units)
        base = self._units_dispatched
        self._units_dispatched += len(units)
        unresolved = set(range(len(units)))

        def resolve(index: int, payload: dict, worker: int) -> None:
            results[index] = payload
            worker_ids[index] = worker
            unresolved.discard(index)
            if on_result is not None:
                on_result(index, units[index], payload)

        try:
            for index, unit in enumerate(units):
                self.submit(unit, dispatch_id=base + index)
            while unresolved:
                for event in self.pump(deadline=deadline):
                    index = event.dispatch_id - base
                    if index not in unresolved:
                        continue
                    if event.kind == "result" and event.status == "ok":
                        resolve(index, event.payload, event.worker)
                    elif attempts[index] < retries:
                        attempts[index] += 1
                        self.stats.retries += 1
                        self.submit(units[index], dispatch_id=event.dispatch_id,
                                    attempt=attempts[index])
                    else:
                        self.stats.failed_units += 1
                        resolve(index,
                                quarantine_row(units[index], event.payload),
                                event.worker)
                if self.stats.respawns - respawns_before > respawn_limit:
                    raise RuntimeError(
                        f"grid worker respawn limit exceeded "
                        f"({self.stats.respawns - respawns_before} respawns "
                        f"with {len(unresolved)} unit(s) unresolved)")
        # lint: allow-broad-except — error-path cleanup that re-raises:
        # the pool is aborted so a failed run cannot hang close()
        except BaseException:
            self.abort()
            raise
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
        if self._processes:  # an inline FIFO has no feeder thread to cancel
            self._task_queue.cancel_join_thread()
        self._reset()

    def close(self) -> None:
        """Stop the workers; safe to call twice."""
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
        if self._result_reader is not None:
            self._result_reader.close()
            self._result_writer.close()
        self._processes = []
        self._task_queue = None
        self._result_reader = self._result_writer = self._result_lock = None
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
