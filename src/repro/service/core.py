"""Long-lived attack service: admission, terminal states and the summary.

:class:`AttackService` accepts :class:`~repro.service.requests.AttackRequest`
admissions and drives each to exactly one terminal state:

* ``done`` — executed within the budget; the row is journaled and a
  restarted service re-emits it verbatim instead of re-running.
* ``quarantined`` — the pool surfaced the request as failed once its
  ``REPRO_UNIT_RETRIES`` retries were spent (not journaled, so a restarted
  service retries it — the fault may have been transient).
* ``shed`` — admission control refused it because the bounded queue
  (``REPRO_SERVICE_QUEUE``) was full and the caller asked to shed rather
  than block.
* ``rejected`` — the request never parsed/validated.

The service is a client of the grid's
:class:`~repro.evaluation.parallel.WorkerPool`: it owns admission (journal
lookup, the queue bound, shedding and backpressure) and turns the pool's
terminal events into rows.  An admitted request is submitted to the pool
at once.  Recovery is the pool's one policy: it retries failed, hung
(``REPRO_UNIT_TIMEOUT``) and orphaned requests after an exponential backoff
(``REPRO_SERVICE_BACKOFF``), and once its workers respawn past the respawn
limit (the ``breaker`` argument) it continues inline in place — the
``degraded`` summary field.  At one worker the pool runs requests
in-process from the start.

Every recovery path here is provoked deterministically by
``REPRO_FAULT_INJECT`` (see :mod:`repro.faults`); the differential tests
assert that a batch served under kill/hang/exit0/raise faults produces
``done`` rows byte-identical to one-shot serial runs at the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import knobs
from repro.evaluation.parallel import FaultStats, WorkerPool
from repro.service.journal import Journal
from repro.service.requests import AttackRequest, request_fingerprint


def service_workers() -> int:
    """Resolve ``REPRO_SERVICE_WORKERS`` (default 1 = in-process serial)."""
    return knobs.positive_int("REPRO_SERVICE_WORKERS")


def service_queue_limit() -> int:
    """Resolve ``REPRO_SERVICE_QUEUE``: max requests admitted but not yet
    terminal; default 64."""
    return knobs.positive_int("REPRO_SERVICE_QUEUE")


def service_backoff() -> float:
    """Resolve ``REPRO_SERVICE_BACKOFF``: base retry delay in seconds;
    attempt ``n`` waits ``base * 2**(n-1)``.  Default 0.1; 0 disables."""
    return knobs.nonneg_float("REPRO_SERVICE_BACKOFF")


@dataclass
class ServiceStats:
    """Admission and terminal-state counters of one service instance.

    The recovery counters read through to the pool's :class:`FaultStats`;
    every request the pool surfaces as failed is quarantined.
    """

    faults: FaultStats = field(default_factory=FaultStats)
    completed: int = 0
    shed: int = 0
    rejected: int = 0
    #: requests whose journaled row was re-emitted without re-running.
    resumed: int = 0

    quarantined = property(lambda self: self.faults.failed_units)
    retried = property(lambda self: self.faults.retries)
    respawns = property(lambda self: self.faults.respawns)
    timeouts = property(lambda self: self.faults.timeouts)
    degraded = property(lambda self: self.faults.degraded)

    def as_dict(self) -> Dict[str, int]:
        return {"completed": self.completed, "quarantined": self.quarantined,
                "shed": self.shed, "rejected": self.rejected,
                "retried": self.retried, "resumed": self.resumed,
                "respawns": self.respawns, "timeouts": self.timeouts,
                "degraded": self.degraded}


class AttackService:
    """The long-lived attack service (see module docstring).

    Args mirror the service knobs and default to them; tests pass explicit
    values.  ``directory`` holds ``service.jsonl``; ``deadline``,
    ``retries``, ``backoff`` and ``breaker`` (the respawn limit) configure
    the pool's recovery policy.
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
        self._pool = WorkerPool(
            self.workers, retries=retries, deadline=deadline,
            backoff=service_backoff() if backoff is None else backoff,
            respawn_limit=breaker)
        self.stats = ServiceStats(self._pool.stats)
        # load before opening for append: the previous service may have died
        # mid-write, and the journal's constructor repairs the torn line
        self._journaled = Journal.load(directory)
        self.journal = Journal(directory)
        #: dispatch id -> (request, fingerprint) of each admitted request
        #: that has not reached a terminal state
        self._inflight: Dict[int, Tuple[AttackRequest, str]] = {}

    # -- admission -------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Admitted requests that have not reached a terminal state."""
        return len(self._inflight)

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
        self._inflight[self._pool.submit(request)] = (request, fingerprint)
        return rows

    def reject(self, request_id: Optional[str], reason: str) -> dict:
        """Record an admission rejection (unparseable/invalid request)."""
        self.stats.rejected += 1
        return {"id": request_id, "status": "rejected", "reason": reason}

    # -- terminal states -------------------------------------------------------
    def process(self) -> List[dict]:
        """One supervision round; returns requests that became terminal.

        A ``done`` row is journaled; a failed request is quarantined and
        not journaled, since the fault may have been transient and a
        restarted service should retry it.
        """
        rows: List[dict] = []
        for event in self._pool.pump():
            request, fingerprint = self._inflight.pop(event.dispatch_id)
            if event.status == "ok":
                self.stats.completed += 1
                self.journal.record(fingerprint, event.payload)
                rows.append(event.payload)
            else:
                rows.append({"id": request.id, "status": "quarantined",
                             "error": str(event.payload)})
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
