"""Supervised worker pool shared by the evaluation grid and the service.

Work arrives as *units*: any object whose type registered an executor via
:func:`register_unit_executor`.  The evaluation grid's units are one
Figure 5 bar, one Table II ``(configuration, spec)`` cell and one Table III
``(benchmark, k)`` cell, each defined next to its row type
(:mod:`repro.evaluation.figure5`, :mod:`~repro.evaluation.table2`,
:mod:`~repro.evaluation.table3`); the attack service submits requests.

:class:`WorkerPool` runs them through one incremental API: ``submit``
enqueues one unit under a pool-lifetime dispatch id, and ``pump`` performs
one supervision round and returns the :class:`PoolEvent` of every unit
that reached a terminal outcome.  The grid's ``map`` is a client of those
two that returns results in unit order; the long-lived attack service
(:mod:`repro.service`) is the other, layering admission and terminal rows
on the same events.  One attack is never split across workers: a DSE
exploration runs in the process that executes its unit, and the pool knows
nothing about what a unit does.

One pool, two modes.  A *parallel* pool (``workers > 1`` and
:func:`fork_available`) forks persistent workers lazily on the first
``submit`` and keeps them across calls, so worker-local caches (benchmark
measurements, preloaded images, reachable-probe samples) keep paying off;
units are claimed dynamically, so cheap and expensive cells balance.  A
pool at one worker — or one that cannot fork — runs *inline*: ``pump``
executes queued units in-process, oldest first, and returns the same
events.  Serial execution is therefore the pool at one worker, not a
second driver beside it.

Determinism: every unit measures in deterministic quantities (instruction
counts, execution counts bounded by deterministic caps, gadget statistics),
so a parallel run merges to *row-identical* JSON against an inline run at
the same seed — the property ``tests/evaluation/test_parallel_grid.py``
asserts against recorded golden rows.  The only nondeterministic fields
are wall-clock times (``average_time``).

Recovery is one policy, and the pool is the only code that applies it.  A
unit that raises, exceeds the ``REPRO_UNIT_TIMEOUT`` deadline or loses its
worker — any premature exit counts, including a *clean* exit code 0
mid-unit — is re-dispatched under its original dispatch id up to
``REPRO_UNIT_RETRIES`` times, after an optional exponential backoff
(``base * 2**(n-1)`` before attempt ``n``).  When the retries are spent,
``pump`` surfaces the unit's one failure event carrying the last error,
and the client records it as quarantined (the grid's
``{"status": "failed", ...}`` row, the service's ``quarantined`` row)
instead of aborting a CPU-hours run.  Workers that keep dying must not
respawn forever: once cumulative respawns exceed the pool's respawn limit
(default ``max(8, workers * (retries + 2))``) the pool aborts its forked
workers and continues *in place* in inline mode, where outstanding units
keep their dispatch ids and attempts.  :class:`FaultStats` counts every
recovery; each path is provoked deliberately by the deterministic
fault-injection harness (:mod:`repro.faults`, ``REPRO_FAULT_INJECT``).
Inline pools honour only ``raise`` and ``slow`` faults, which cannot take
down the process running them.

Nested pools run inline: pool workers are daemonic processes, which may not
fork children, so a pool built inside a worker is never parallel —
:func:`fork_available` is the one place that decides.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
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
    """Recovery counters of one :class:`WorkerPool` (cumulative over its life).

    Attributes:
        failed_units: units surfaced as failed after exhausting their retries.
        retries: re-dispatches of a unit after a failure/timeout/death.
        respawns: replacement workers forked after a death or a kill.
        timeouts: units whose ``REPRO_UNIT_TIMEOUT`` deadline expired.
        degraded: 1 once respawns passed the respawn limit and the pool
            continued inline.
    """

    failed_units: int = 0
    retries: int = 0
    respawns: int = 0
    timeouts: int = 0
    degraded: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class PoolEvent:
    """One terminal outcome surfaced by :meth:`WorkerPool.pump`.

    ``status`` is ``"ok"`` (``payload`` is the unit's result) or
    ``"error"`` (the unit's retries are spent; ``payload`` is the last
    error string).  ``kind`` says how the last attempt ended: ``"result"``
    (the worker reported back), ``"deadline"`` (the ``REPRO_UNIT_TIMEOUT``
    expired and its worker was killed) or ``"death"`` (the worker died
    mid-unit; ``exitcode`` carries how).  Exactly one event is emitted per
    dispatch id — the pool forgets the unit before emitting, so a result
    racing a kill is never double-reported.
    """

    kind: str
    dispatch_id: int
    status: str
    payload: object
    worker: int
    exitcode: Optional[int] = None


@dataclass
class _Outstanding:
    """A submitted unit that has not reached a terminal outcome."""

    unit: object
    attempt: int = 0


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
    an ``("error", message)`` outcome for the pool's recovery policy.
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

def _worker_main(worker_index: int, task_queue, result_writer, result_lock,
                 claim_cell) -> None:
    """Worker loop: claim units until the ``None`` sentinel arrives.

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
    inline mode of the same API: units run in-process, oldest first, with
    identical results.

    The recovery policy (see the module docstring) is set here once:
    ``retries`` (default ``REPRO_UNIT_RETRIES``), ``backoff`` (base delay
    in seconds before a retry; 0 re-dispatches at once), ``deadline``
    (seconds per claimed unit, default ``REPRO_UNIT_TIMEOUT``; ``<= 0``
    disables) and ``respawn_limit`` (default
    ``max(8, workers * (retries + 2))``).
    """

    def __init__(self, workers: int, retries: Optional[int] = None,
                 backoff: float = 0.0, deadline: Optional[float] = None,
                 respawn_limit: Optional[int] = None) -> None:
        self.workers = max(1, workers)
        self.retries = unit_retries() if retries is None else max(0, retries)
        self.backoff = backoff
        self.deadline = (unit_timeout() if deadline is None
                         else deadline if deadline > 0 else None)
        # a worker that keeps dying before even claiming a unit (e.g. a crash
        # in the fork prologue) must not respawn forever
        self.respawn_limit = (max(8, self.workers * (self.retries + 2))
                              if respawn_limit is None else respawn_limit)
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
        #: units are numbered in submit order, not completion order).
        self._units_dispatched = 0
        #: dispatch id -> every unit submitted but not yet surfaced as a
        #: terminal :class:`PoolEvent`
        self._units: Dict[int, _Outstanding] = {}
        #: dispatch id -> monotonic time its backing-off retry is due
        self._backoff: Dict[int, float] = {}
        #: slot -> (claimed dispatch id, first observed) — the supervisor's
        #: view of the shared claim cells; deadlines run from observation
        self._observed: Dict[int, Optional[Tuple[int, float]]] = {}

    @property
    def parallel(self) -> bool:
        return (self.workers > 1 and fork_available()
                and not self.stats.degraded)

    def _spawn(self, worker_index: int):
        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=_worker_main,
            args=(worker_index, self._task_queue, self._result_writer,
                  self._result_lock, self._claim_cells[worker_index]),
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

    # -- the recovery policy ---------------------------------------------------

    def _dispatch(self, dispatch_id: int) -> None:
        entry = self._units[dispatch_id]
        self._task_queue.put((dispatch_id, entry.attempt, entry.unit))

    def _running(self, dispatch_id: int) -> bool:
        """Whether ``dispatch_id`` is queued or claimed (not backing off)."""
        return dispatch_id in self._units and dispatch_id not in self._backoff

    def _release_due(self) -> None:
        """Dispatch every backing-off retry whose delay has passed."""
        if not self._backoff:
            return
        now = time.monotonic()  # lint: allow-wallclock — retry-backoff schedule, not row content
        for dispatch_id, ready_at in list(self._backoff.items()):
            if ready_at <= now:
                del self._backoff[dispatch_id]
                self._dispatch(dispatch_id)

    def _settle(self, outcomes: List[Tuple[PoolEvent, _Outstanding]],
                ) -> List[PoolEvent]:
        """Retry failed outcomes with attempts left; return the terminal.

        Each outcome's unit was already taken out of the outstanding set
        while its round was supervised, so a stale claim of the same id
        cannot be reported twice in that round.
        """
        terminal: List[PoolEvent] = []
        for event, entry in outcomes:
            if event.status == "ok":
                terminal.append(event)
                continue
            if entry.attempt >= self.retries:
                self.stats.failed_units += 1
                terminal.append(event)
                continue
            entry.attempt += 1
            self.stats.retries += 1
            self._units[event.dispatch_id] = entry
            delay = self.backoff * 2 ** (entry.attempt - 1)
            if delay > 0:
                self._backoff[event.dispatch_id] = time.monotonic() + delay  # lint: allow-wallclock — retry-backoff schedule, not row content
            else:
                self._dispatch(event.dispatch_id)
        return terminal

    def _degrade(self) -> None:
        """Abort the forked workers and continue inline, in place.

        Outstanding units are queued in dispatch order with their dispatch
        ids and attempts intact, so fault-injection indexing and retry
        budgets carry over; inline execution honours only ``raise`` and
        ``slow`` faults, so a pool whose workers keep dying stops using them.
        """
        self.stats.degraded = 1
        self._terminate()
        self._task_queue = queue_module.SimpleQueue()
        for dispatch_id in sorted(self._units):
            if dispatch_id not in self._backoff:
                self._dispatch(dispatch_id)

    # -- incremental supervision API ------------------------------------------

    def submit(self, unit: object) -> int:
        """Enqueue one unit; return its pool-lifetime dispatch id."""
        dispatch_id = self._units_dispatched
        self._units_dispatched += 1
        self._ensure_started()
        self._units[dispatch_id] = _Outstanding(unit)
        self._dispatch(dispatch_id)
        return dispatch_id

    def pump(self, timeout: float = _POLL_SECONDS) -> List[PoolEvent]:
        """One supervision round; block at most ``timeout`` seconds.

        Returns the :class:`PoolEvent` of every unit that reached a terminal
        outcome this round: its ``ok`` result, or its failure once its
        retries are spent.  Failures with attempts left are re-dispatched
        (after their backoff) and surface nothing.  Returns ``[]`` at once
        when nothing is outstanding.

        A forked pool polls the claim cells, waits (briefly) on the result
        pipe, enforces the deadline per claimed unit (kill + respawn on
        expiry) and recovers dead workers — any premature exit counts,
        clean code 0 included.  Results drained while recovering a kill or
        a death win over the deadline/death outcome — the unit finished, so
        it is reported finished.  An inline pool runs queued units
        in-process until one is terminal; with only backing-off work it
        waits for the nearest retry, up to ``timeout``.
        """
        if not self._units:
            return []
        self._ensure_started()
        if not self.parallel:
            return self._pump_inline(timeout)
        self._release_due()
        terminal = self._settle(self._supervise(timeout))
        if self.stats.respawns > self.respawn_limit:
            self._degrade()
        return terminal

    def _pump_inline(self, timeout: float) -> List[PoolEvent]:
        give_up = time.monotonic() + timeout  # lint: allow-wallclock — retry-backoff schedule, not row content
        while True:
            self._release_due()
            try:
                dispatch_id, attempt, unit = self._task_queue.get_nowait()
            except queue_module.Empty:
                now = time.monotonic()  # lint: allow-wallclock — retry-backoff schedule, not row content
                if not self._backoff or now >= give_up:
                    return []
                time.sleep(max(0.0, min(min(self._backoff.values()),
                                        give_up) - now))
                continue
            entry = self._units.pop(dispatch_id)
            status, payload = _run_unit(dispatch_id, attempt, unit,
                                        parse_fault_spec(), inline=True)
            terminal = self._settle([(PoolEvent(
                kind="result", dispatch_id=dispatch_id, status=status,
                payload=payload, worker=0), entry)])
            if terminal:
                return terminal

    def _supervise(self, timeout: float,
                   ) -> List[Tuple[PoolEvent, _Outstanding]]:
        """One forked supervision round: every outcome, failed or not."""
        outcomes: List[Tuple[PoolEvent, _Outstanding]] = []

        def outcome(event: PoolEvent) -> None:
            outcomes.append((event, self._units.pop(event.dispatch_id)))

        def handle(message) -> None:
            worker, dispatch_id, status, payload = message
            if not self._running(dispatch_id):
                return  # stale duplicate drained around a worker death
            outcome(PoolEvent(kind="result", dispatch_id=dispatch_id,
                              status=status, payload=payload, worker=worker))

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

        # wake early enough to enforce the nearest unit deadline and to
        # dispatch the nearest backing-off retry
        wake = timeout
        if self.deadline is not None:
            for claim in self._observed.values():
                if claim is not None and self._running(claim[0]):
                    remaining = self.deadline - (now - claim[1])
                    wake = max(0.05, min(wake, remaining))
        if self._backoff:
            wake = max(0.0, min(wake, min(self._backoff.values()) - now))
        if self._result_reader.poll(wake):
            drain()
            return outcomes

        # per-unit deadline: kill the worker hosting an expired unit, then
        # record the expiry and refill the slot
        if self.deadline is not None:
            now = time.monotonic()  # lint: allow-wallclock — worker-liveness deadline, not row content
            for slot, claim in list(self._observed.items()):
                if claim is None or not self._running(claim[0]) \
                        or now - claim[1] <= self.deadline:
                    continue
                process = self._processes[slot]
                if process.is_alive():
                    process.kill()
                    process.join(timeout=5.0)
                self.stats.timeouts += 1
                drain()  # a result that raced the kill wins over a retry
                if self._running(claim[0]):
                    outcome(PoolEvent(
                        kind="deadline", dispatch_id=claim[0],
                        status="error",
                        payload=(f"unit deadline exceeded "
                                 f"(REPRO_UNIT_TIMEOUT={self.deadline:g}s)"),
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
            if value >= 0 and self._running(value):
                outcome(PoolEvent(
                    kind="death", dispatch_id=value, status="error",
                    payload=(f"worker died mid-unit (exit code "
                             f"{process.exitcode})"),
                    worker=slot, exitcode=process.exitcode))
            self._respawn(slot)
        return outcomes

    def map(self, units: Sequence[object],
            on_result: Optional[Callable] = None,
            ) -> Tuple[List[dict], List[int]]:
        """Execute every unit; return ``(results, worker_ids)`` unit-ordered.

        Units are claimed dynamically, so expensive cells (Table II attacks)
        and cheap ones (Table III statistics) balance across workers; the
        returned lists are nevertheless in input order, which is what makes
        the downstream merge order-independent of the execution schedule.

        A unit the pool surfaces as failed (see the module docstring) is
        recorded as a :func:`quarantine_row` instead of aborting the run.
        ``on_result``, when given, is called with ``(index, unit, payload)``
        as each unit resolves (completion order) — the grid driver streams
        completed units to its checkpoint with it.
        """
        results: List[Optional[dict]] = [None] * len(units)
        worker_ids: List[int] = [0] * len(units)
        try:
            index_of = {self.submit(unit): index
                        for index, unit in enumerate(units)}
            while index_of:
                for event in self.pump():
                    index = index_of.pop(event.dispatch_id)
                    payload = (event.payload if event.status == "ok" else
                               quarantine_row(units[index], event.payload))
                    results[index] = payload
                    worker_ids[index] = event.worker
                    if on_result is not None:
                        on_result(index, units[index], payload)
        # lint: allow-broad-except — error-path cleanup that re-raises:
        # the pool is aborted so a failed run cannot hang close()
        except BaseException:
            self.abort()
            raise
        return results, worker_ids

    def _terminate(self) -> None:
        """Kill every worker at once, skipping the sentinel handshake."""
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
        if self._result_reader is not None:
            self._result_reader.close()
            self._result_writer.close()
        self._processes = []
        self._result_reader = self._result_writer = self._result_lock = None
        self._claim_cells = []
        self._observed = {}

    def abort(self) -> None:
        """Tear the pool down immediately, skipping the sentinel handshake.

        The close() handshake waits on workers draining the task queue; a
        pool being abandoned on an error path must not wait on them.
        """
        self._terminate()
        self._task_queue = None
        self._units = {}
        self._backoff = {}

    def close(self) -> None:
        """Stop the workers after the sentinel handshake; safe to call twice."""
        for _ in self._processes:
            try:
                self._task_queue.put(None)
            except (OSError, ValueError):
                break
        for process in self._processes:
            process.join(timeout=5.0)
        self.abort()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        # an exception unwinding through the pool takes the error path
        if exc_type is None:
            self.close()
        else:
            self.abort()
