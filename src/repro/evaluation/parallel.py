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

One pool, two modes, one queue.  Submitted units wait in one FIFO of
dispatch ids.  A *parallel* pool (``workers > 1`` and
:func:`fork_available`) forks persistent workers lazily on the first
``submit`` and keeps them across calls, so worker-local caches (benchmark
measurements, preloaded images, reachable-probe samples) keep paying off.
Each worker owns one duplex pipe to the coordinator, which sends the
queue's head to whichever worker is idle — cheap and expensive cells
balance — and reads that unit's result on the same pipe.  A worker holds
at most one unit, so the unit a death or a deadline belongs to is the one
the coordinator sent it, and a deadline runs from the send.  A pool at one
worker — or one that cannot fork — runs *inline*: ``pump`` executes the
queue's head in-process and returns the same events.  Serial execution is
therefore the pool at one worker, not a second driver beside it.

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
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro import knobs
from repro.faults import inject_fault, parse_fault_spec, unit_retries, unit_timeout

#: Longest one supervision round blocks when no result, death, deadline
#: or retry is due.
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
    mid-unit; the payload states its exit code).  Exactly one event is
    emitted per dispatch id — the pool forgets the unit before emitting,
    so a result racing a kill is never double-reported.
    """

    kind: str
    dispatch_id: int
    status: str
    payload: object
    worker: int


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

def _worker_main(conn, inherited) -> None:
    """Worker loop: run each unit received on ``conn`` and answer on it.

    The coordinator sends a unit only while the worker is idle, so the
    worker answers every unit before it reads the next.  The result is
    sent synchronously: a worker that dies on a unit has delivered every
    earlier result, and one killed while sending leaves a torn frame that
    reads as EOF on its own pipe only.  ``inherited`` are the coordinator's
    ends of this and the older workers' pipes, copied by the fork; closing
    them lets each worker see EOF — and exit — as soon as the coordinator
    closes its end or dies, even while a younger sibling is still busy.
    """
    for end in inherited:
        end.close()
    fault_spec = parse_fault_spec()
    while True:
        try:
            dispatch_id, attempt, unit = conn.recv()
        except (EOFError, OSError):  # the coordinator closed its end or died
            return
        outcome = _run_unit(dispatch_id, attempt, unit, fault_spec)
        try:
            conn.send(outcome)
        except OSError:  # the coordinator is gone
            return


@dataclass
class _Worker:
    """One forked worker and the coordinator's end of its pipe."""

    process: multiprocessing.process.BaseProcess
    conn: connection.Connection
    #: dispatch id of the unit sent and not yet answered (``None`` = idle)
    unit: Optional[int] = None
    #: monotonic time ``unit`` was sent; its deadline runs from here
    sent_at: float = 0.0


def _reap(process: multiprocessing.process.BaseProcess) -> None:
    """Wait for a worker that is exiting; kill it if it lingers."""
    process.join(timeout=5.0)
    if process.is_alive():
        process.kill()
        process.join()


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
    (seconds per sent unit, default ``REPRO_UNIT_TIMEOUT``; ``<= 0``
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
        # a worker that keeps dying before it answers a unit (e.g. a crash
        # in the fork prologue) must not respawn forever
        self.respawn_limit = (max(8, self.workers * (self.retries + 2))
                              if respawn_limit is None else respawn_limit)
        self.stats = FaultStats()
        #: the forked workers by slot (empty while inline or not started)
        self._workers: List[_Worker] = []
        #: dispatch ids waiting for a worker (or, inline, for :meth:`pump`)
        self._queue: Deque[int] = deque()
        #: global dispatch sequence across the pool's lifetime — the index
        #: space ``REPRO_FAULT_INJECT`` directives target (deterministic:
        #: units are numbered in submit order, not completion order).
        self._units_dispatched = 0
        #: dispatch id -> every unit submitted but not yet surfaced as a
        #: terminal :class:`PoolEvent`
        self._units: Dict[int, _Outstanding] = {}
        #: dispatch id -> monotonic time its backing-off retry is due
        self._backoff: Dict[int, float] = {}

    @property
    def parallel(self) -> bool:
        return (self.workers > 1 and fork_available()
                and not self.stats.degraded)

    def _spawn(self) -> _Worker:
        context = multiprocessing.get_context("fork")
        # made right before its fork, so no other worker inherits the
        # worker's end: the worker's death is EOF on the coordinator's end
        mine, theirs = context.Pipe()
        process = context.Process(
            target=_worker_main,
            args=(theirs, [mine, *(worker.conn for worker in self._workers)]),
            daemon=True)
        process.start()
        theirs.close()
        return _Worker(process, mine)

    def _ensure_started(self) -> None:
        if self.parallel and not self._workers:
            for _ in range(self.workers):
                self._workers.append(self._spawn())

    def _respawn(self, slot: int) -> None:
        """Replace a dead/killed worker in place, keeping its slot index."""
        old = self._workers[slot]
        _reap(old.process)
        old.conn.close()
        self._workers[slot] = self._spawn()
        self.stats.respawns += 1

    # -- the recovery policy ---------------------------------------------------

    def _enqueue(self, dispatch_id: int) -> None:
        self._queue.append(dispatch_id)
        self._feed()

    def _feed(self) -> None:
        """Send the queue's oldest units to the idle workers."""
        for worker in self._workers:
            if not self._queue:
                return
            if worker.unit is not None:
                continue
            dispatch_id = self._queue.popleft()
            entry = self._units[dispatch_id]
            try:
                worker.conn.send((dispatch_id, entry.attempt, entry.unit))
            except OSError:  # died idle: the unit waits for a live worker
                self._queue.appendleft(dispatch_id)
                continue
            worker.unit = dispatch_id
            worker.sent_at = time.monotonic()  # lint: allow-wallclock — worker-liveness deadline, not row content

    def _release_due(self) -> None:
        """Queue every backing-off retry whose delay has passed."""
        if not self._backoff:
            return
        now = time.monotonic()  # lint: allow-wallclock — retry-backoff schedule, not row content
        for dispatch_id, ready_at in list(self._backoff.items()):
            if ready_at <= now:
                del self._backoff[dispatch_id]
                self._enqueue(dispatch_id)

    def _settle(self, outcomes: List[Tuple[PoolEvent, _Outstanding]],
                ) -> List[PoolEvent]:
        """Retry failed outcomes with attempts left; return the terminal.

        Each outcome's unit was already taken out of the outstanding set
        when its attempt ended.
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
                self._enqueue(event.dispatch_id)
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
        self._queue = deque(sorted(dispatch_id for dispatch_id in self._units
                                   if dispatch_id not in self._backoff))

    # -- incremental supervision API ------------------------------------------

    def submit(self, unit: object) -> int:
        """Enqueue one unit; return its pool-lifetime dispatch id."""
        dispatch_id = self._units_dispatched
        self._units_dispatched += 1
        self._ensure_started()
        self._units[dispatch_id] = _Outstanding(unit)
        self._enqueue(dispatch_id)
        return dispatch_id

    def pump(self, timeout: float = _POLL_SECONDS) -> List[PoolEvent]:
        """One supervision round; block at most ``timeout`` seconds.

        Returns the :class:`PoolEvent` of every unit that reached a terminal
        outcome this round: its ``ok`` result, or its failure once its
        retries are spent.  Failures with attempts left are re-dispatched
        (after their backoff) and surface nothing.  Returns ``[]`` at once
        when nothing is outstanding.

        A forked pool waits on the busy workers' pipes and on every
        worker's process sentinel, so a result or a death ends the wait at
        once.  It enforces the deadline per sent unit (kill + respawn on
        expiry) and recovers dead workers — any premature exit counts,
        clean code 0 included.  A result that reached the pipe before its
        worker died or was killed wins over the death or deadline outcome —
        the unit finished, so it is reported finished; a torn result is EOF
        on the dead worker's pipe.  Freed workers then take the queue's
        head.  An inline pool runs queued units in-process until one is
        terminal; with only backing-off work it waits for the nearest
        retry, up to ``timeout``.
        """
        if not self._units:
            return []
        if not self.parallel:
            return self._pump_inline(timeout)
        self._release_due()
        terminal = self._settle(self._supervise(timeout))
        if self.stats.respawns > self.respawn_limit:
            self._degrade()
        self._feed()
        return terminal

    def _pump_inline(self, timeout: float) -> List[PoolEvent]:
        give_up = time.monotonic() + timeout  # lint: allow-wallclock — retry-backoff schedule, not row content
        while True:
            self._release_due()
            if not self._queue:
                now = time.monotonic()  # lint: allow-wallclock — retry-backoff schedule, not row content
                if not self._backoff or now >= give_up:
                    return []
                time.sleep(max(0.0, min(min(self._backoff.values()),
                                        give_up) - now))
                continue
            dispatch_id = self._queue.popleft()
            entry = self._units.pop(dispatch_id)
            status, payload = _run_unit(dispatch_id, entry.attempt,
                                        entry.unit, parse_fault_spec(),
                                        inline=True)
            terminal = self._settle([(PoolEvent(
                kind="result", dispatch_id=dispatch_id, status=status,
                payload=payload, worker=0), entry)])
            if terminal:
                return terminal

    def _supervise(self, timeout: float,
                   ) -> List[Tuple[PoolEvent, _Outstanding]]:
        """One forked supervision round: every outcome, failed or not."""
        busy = [worker for worker in self._workers if worker.unit is not None]
        # wake early enough to enforce the nearest unit deadline and to
        # dispatch the nearest backing-off retry
        now = time.monotonic()  # lint: allow-wallclock — worker-liveness deadline, not row content
        wake = timeout
        if self.deadline is not None:
            for worker in busy:
                wake = min(wake, worker.sent_at + self.deadline - now)
        if self._backoff:
            wake = min(wake, min(self._backoff.values()) - now)
        ready = set(connection.wait(
            [worker.conn for worker in busy]
            + [worker.process.sentinel for worker in self._workers],
            max(0.0, wake)))

        outcomes: List[Tuple[PoolEvent, _Outstanding]] = []
        now = time.monotonic()  # lint: allow-wallclock — worker-liveness deadline, not row content
        for slot, worker in enumerate(self._workers):
            process, dispatch_id = worker.process, worker.unit
            # ANY exit is a death, a clean exit code 0 included: only the
            # coordinator closing the pipe lets a worker exit on purpose
            dead = process.sentinel in ready
            expired = (dispatch_id is not None and not dead
                       and worker.conn not in ready
                       and self.deadline is not None
                       and now - worker.sent_at >= self.deadline)
            if expired:
                process.kill()
                self.stats.timeouts += 1
                dead = True
            if dispatch_id is not None and (dead or worker.conn in ready):
                worker.unit = None
                try:
                    status, payload = worker.conn.recv()
                    kind = "result"
                except (EOFError, OSError):  # torn or never sent
                    _reap(process)
                    dead, status = True, "error"
                    kind = "deadline" if expired else "death"
                    payload = (f"unit deadline exceeded (REPRO_UNIT_TIMEOUT="
                               f"{self.deadline:g}s)" if expired else
                               f"worker died mid-unit (exit code "
                               f"{process.exitcode})")
                outcomes.append((PoolEvent(
                    kind=kind, dispatch_id=dispatch_id, status=status,
                    payload=payload, worker=slot),
                    self._units.pop(dispatch_id)))
            if dead:
                self._respawn(slot)
        return outcomes

    def map(self, units: Sequence[object],
            on_result: Optional[Callable] = None,
            ) -> Tuple[List[dict], List[int]]:
        """Execute every unit; return ``(results, worker_ids)`` unit-ordered.

        Idle workers take units as they free up, so expensive cells (Table
        II attacks) and cheap ones (Table III statistics) balance across
        workers; the returned lists are nevertheless in input order, which
        is what makes the downstream merge order-independent of the
        execution schedule.

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
        """Kill every worker at once, skipping the EOF handshake."""
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()
        for worker in self._workers:
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=2.0)
            worker.conn.close()
        self._workers = []

    def abort(self) -> None:
        """Tear the pool down immediately, skipping the EOF handshake.

        close() waits on workers finishing the unit they hold; a pool
        being abandoned on an error path must not wait on them.
        """
        self._terminate()
        self._queue.clear()
        self._units = {}
        self._backoff = {}

    def close(self) -> None:
        """Stop the workers: each exits on EOF once its unit is answered.

        Safe to call twice.
        """
        for worker in self._workers:
            worker.conn.close()
        for worker in self._workers:
            worker.process.join(timeout=5.0)
        self.abort()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        # an exception unwinding through the pool takes the error path
        if exc_type is None:
            self.close()
        else:
            self.abort()
