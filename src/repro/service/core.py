"""Long-lived attack service: scheduling, robustness and terminal states.

:class:`AttackService` accepts :class:`~repro.service.requests.AttackRequest`
admissions and drives each to exactly one terminal state:

* ``done`` — executed within the budget; the row is journaled and a
  restarted service re-emits it verbatim instead of re-running.
* ``quarantined`` — the request failed/timed out/lost its worker more than
  ``REPRO_UNIT_RETRIES`` times (PR 7 semantics: not journaled, so a
  restarted service retries it — the fault may have been transient).
* ``shed`` — admission control refused it because the bounded queue
  (``REPRO_SERVICE_QUEUE``) was full and the caller asked to shed rather
  than block.
* ``rejected`` — the request never parsed/validated.

Scheduling layers on the grid pool's incremental supervision API
(:meth:`repro.evaluation.parallel.WorkerPool.submit` /
:meth:`~repro.evaluation.parallel.WorkerPool.pump`): the service owns
admission, retry policy with exponential backoff (``REPRO_SERVICE_BACKOFF``)
and terminal-state bookkeeping, while the pool owns the claim-cell heartbeat
protocol that turns worker deaths *and* hangs (``REPRO_SERVICE_TIMEOUT``,
falling back to ``REPRO_UNIT_TIMEOUT``) into events.  The service always
holds a pool: at one worker it is the pool's inline mode, which runs one
request in-process per supervision round.  A forked pool that keeps
burning respawns trips a circuit breaker (``REPRO_SERVICE_BREAKER``): the
service aborts it and swaps in an inline ``WorkerPool(1)``, where only
``raise`` faults can reach it — in-flight requests are resubmitted with
their dispatch ids and attempt counts, so fault-injection indexing and the
retry budget survive the degradation.

Every recovery path here is provoked deterministically by
``REPRO_FAULT_INJECT`` (see :mod:`repro.faults`); the differential tests
assert that a batch served under kill/hang/exit0/raise faults produces
``done`` rows byte-identical to one-shot serial runs at the same seed.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, List, Optional

from repro import knobs
from repro.evaluation.parallel import WorkerPool
from repro.faults import unit_retries, unit_timeout
from repro.service.journal import Journal
from repro.service.requests import AttackRequest, request_fingerprint

#: Seconds one blocking supervision round waits for pool events.
_POLL_SECONDS = 1.0


def service_workers() -> int:
    """Resolve ``REPRO_SERVICE_WORKERS`` (default 1 = in-process serial)."""
    return knobs.positive_int("REPRO_SERVICE_WORKERS")


def service_queue_limit() -> int:
    """Resolve ``REPRO_SERVICE_QUEUE``: max requests admitted but not yet
    terminal (pending + backing off + in flight); default 64."""
    return knobs.positive_int("REPRO_SERVICE_QUEUE")


def service_timeout() -> Optional[float]:
    """Per-request deadline: ``REPRO_SERVICE_TIMEOUT``, else the shared
    ``REPRO_UNIT_TIMEOUT``; ``None`` disables (the default)."""
    try:
        value = float(knobs.raw("REPRO_SERVICE_TIMEOUT", "") or "")
    except ValueError:
        return unit_timeout()
    return value if value > 0 else None


def service_backoff() -> float:
    """Resolve ``REPRO_SERVICE_BACKOFF``: base retry delay in seconds;
    attempt ``n`` waits ``base * 2**(n-1)``.  Default 0.1; 0 disables."""
    return knobs.nonneg_float("REPRO_SERVICE_BACKOFF")


def service_breaker() -> int:
    """Resolve ``REPRO_SERVICE_BREAKER``: worker respawns tolerated before
    the circuit breaker degrades the service to in-process execution
    (default 8)."""
    return knobs.positive_int("REPRO_SERVICE_BREAKER")


@dataclass
class ServiceStats:
    """Terminal-state and recovery counters of one service instance."""

    completed: int = 0
    quarantined: int = 0
    shed: int = 0
    rejected: int = 0
    retried: int = 0
    #: requests whose journaled row was re-emitted without re-running.
    resumed: int = 0
    respawns: int = 0
    timeouts: int = 0
    #: 1 once the circuit breaker degraded the service to in-process mode.
    degraded: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclass
class _Tracked:
    """Book-keeping for one admitted, not-yet-terminal request."""

    request: AttackRequest
    fingerprint: str
    dispatch_id: Optional[int] = None
    attempt: int = 0
    #: monotonic time before which a backing-off retry must not re-dispatch
    ready_at: float = 0.0


class AttackService:
    """The long-lived attack service (see module docstring).

    Args mirror the service knobs and default to them; tests
    pass explicit values.  ``directory`` holds ``service.jsonl``.
    """

    def __init__(self, directory: Path, workers: Optional[int] = None,
                 queue_limit: Optional[int] = None,
                 deadline: Optional[float] = None,
                 retries: Optional[int] = None,
                 backoff: Optional[float] = None,
                 breaker: Optional[int] = None) -> None:
        self.workers = service_workers() if workers is None else max(1, workers)
        self.queue_limit = (service_queue_limit() if queue_limit is None
                            else max(1, queue_limit))
        self.deadline = service_timeout() if deadline is None else deadline
        self.retries = unit_retries() if retries is None else retries
        self.backoff = service_backoff() if backoff is None else backoff
        self.breaker = service_breaker() if breaker is None else breaker
        self.stats = ServiceStats()
        # load before opening for append: the previous service may have died
        # mid-write, and the journal's constructor repairs the torn line
        self._journaled = Journal.load(directory)
        self.journal = Journal(directory)
        self._pool = WorkerPool(self.workers)
        self._pending: Deque[_Tracked] = deque()
        self._waiting: List[_Tracked] = []
        self._inflight: Dict[int, _Tracked] = {}
        #: service-owned dispatch sequence — the ``REPRO_FAULT_INJECT``
        #: index space; ids survive retries and pool degradation
        self._dispatch_sequence = 0

    # -- admission -------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Admitted requests that have not reached a terminal state."""
        return len(self._pending) + len(self._waiting) + len(self._inflight)

    @property
    def degraded(self) -> bool:
        return bool(self.stats.degraded)

    def submit(self, request: AttackRequest,
               shed_when_full: bool = False) -> List[dict]:
        """Admit one request; return any terminal rows this call produced.

        A journaled request re-emits its recorded row immediately (never
        re-run).  When the bounded queue is full, ``shed_when_full`` makes
        admission fail fast with a ``shed`` row; otherwise the call applies
        backpressure — it processes queued work until a slot frees, and the
        rows completed along the way are returned together with any
        immediate terminal row.
        """
        fingerprint = request_fingerprint(request)
        journaled = self._journaled.get(fingerprint)
        if journaled is not None:
            self.stats.resumed += 1
            return [journaled]
        rows: List[dict] = []
        if self.occupancy >= self.queue_limit:
            if shed_when_full:
                self.stats.shed += 1
                return [{"id": request.id, "status": "shed",
                         "reason": f"service queue full "
                                   f"(REPRO_SERVICE_QUEUE={self.queue_limit})"}]
            while self.occupancy >= self.queue_limit:
                rows.extend(self.process())
        self._pending.append(_Tracked(request=request,
                                      fingerprint=fingerprint))
        return rows

    def reject(self, request_id: Optional[str], reason: str) -> dict:
        """Record an admission rejection (unparseable/invalid request)."""
        self.stats.rejected += 1
        return {"id": request_id, "status": "rejected", "reason": reason}

    # -- terminal states -------------------------------------------------------
    def _finish(self, tracked: _Tracked, row: dict) -> dict:
        self.stats.completed += 1
        self.journal.record(tracked.fingerprint, row)
        return row

    def _quarantine(self, tracked: _Tracked, error: str) -> dict:
        # not journaled: the fault may have been transient, so a restarted
        # service retries quarantined requests (checkpoint semantics)
        self.stats.quarantined += 1
        return {"id": tracked.request.id, "status": "quarantined",
                "error": error}

    def _retry_or_quarantine(self, tracked: _Tracked,
                             error: str) -> Optional[dict]:
        if tracked.attempt >= self.retries:
            return self._quarantine(tracked, error)
        tracked.attempt += 1
        self.stats.retried += 1
        delay = self.backoff * (2 ** (tracked.attempt - 1))
        tracked.ready_at = time.monotonic() + delay  # lint: allow-wallclock — retry-backoff schedule, not row content
        self._waiting.append(tracked)
        return None

    # -- scheduling ------------------------------------------------------------
    def _next_dispatch_id(self, tracked: _Tracked) -> int:
        if tracked.dispatch_id is None:
            tracked.dispatch_id = self._dispatch_sequence
            self._dispatch_sequence += 1
        return tracked.dispatch_id

    def _dispatch_ready(self) -> None:
        """Move pending and backoff-expired requests into the pool."""
        now = time.monotonic()  # lint: allow-wallclock — retry-backoff schedule, not row content
        ready = [tracked for tracked in self._waiting
                 if tracked.ready_at <= now]
        for tracked in ready:
            self._waiting.remove(tracked)
            self._pool.submit(tracked.request,
                              dispatch_id=tracked.dispatch_id,
                              attempt=tracked.attempt)
            self._inflight[tracked.dispatch_id] = tracked
        while self._pending:
            tracked = self._pending.popleft()
            dispatch_id = self._next_dispatch_id(tracked)
            self._pool.submit(tracked.request, dispatch_id=dispatch_id,
                              attempt=tracked.attempt)
            self._inflight[dispatch_id] = tracked

    def _trip_breaker(self) -> None:
        """Degrade to in-process execution after repeated respawns.

        The forked pool is aborted and an inline ``WorkerPool(1)`` takes
        over its counters.  In-flight requests are resubmitted to it in
        dispatch order with their dispatch ids and attempt counts intact, so
        fault-injection indexing and retry budgets carry over; inline
        execution then only honours ``raise``/``slow`` faults, which is
        exactly the degradation the breaker exists for — a pool whose
        workers keep dying stops being used.
        """
        self.stats.degraded = 1
        self._pool.abort()
        inline = WorkerPool(1)
        inline.stats = self._pool.stats
        self._pool = inline
        for dispatch_id in sorted(self._inflight):
            tracked = self._inflight[dispatch_id]
            inline.submit(tracked.request, dispatch_id=dispatch_id,
                          attempt=tracked.attempt)

    def process(self) -> List[dict]:
        """One supervision round; returns requests that became terminal."""
        rows: List[dict] = []
        self._dispatch_ready()
        if not self._inflight:
            if self._waiting:
                # everything admitted is backing off; wait out the nearest
                # retry instead of spinning
                now = time.monotonic()  # lint: allow-wallclock — retry-backoff schedule, not row content
                time.sleep(min(_POLL_SECONDS,
                               max(0.0, min(tracked.ready_at
                                            for tracked in self._waiting)
                                   - now)))
            return rows
        for event in self._pool.pump(timeout=_POLL_SECONDS,
                                     deadline=self.deadline):
            tracked = self._inflight.pop(event.dispatch_id, None)
            if tracked is None:
                continue
            if event.kind == "result" and event.status == "ok":
                rows.append(self._finish(tracked, event.payload))
            else:
                row = self._retry_or_quarantine(tracked, str(event.payload))
                if row is not None:
                    rows.append(row)
        self.stats.respawns = self._pool.stats.respawns
        self.stats.timeouts = self._pool.stats.timeouts
        if self._pool.parallel and self.stats.respawns > self.breaker:
            self._trip_breaker()
        return rows

    def drain(self) -> List[dict]:
        """Process until every admitted request is terminal; return rows."""
        rows: List[dict] = []
        while self.occupancy:
            rows.extend(self.process())
        return rows

    # -- lifecycle -------------------------------------------------------------
    def summary(self) -> dict:
        """The service-stats block the CLI emits after the batch."""
        return {"workers": self.workers, "queue_limit": self.queue_limit,
                **self.stats.as_dict()}

    def close(self) -> None:
        self._pool.close()
        self.journal.close()

    def __enter__(self) -> "AttackService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
