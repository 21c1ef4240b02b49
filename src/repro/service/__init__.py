"""Long-lived attack service over the persistent grid worker pool.

``python -m repro.service`` drains a request file (or stdin) through
:class:`~repro.service.core.AttackService`; see :mod:`repro.service.core`
for the robustness vocabulary (admission control, deadlines, retry with
backoff and degradation to in-process execution, all applied by the worker
pool; crash-safe journaling) and
:mod:`repro.service.requests` for the request schema and the per-worker
image/engine reuse that makes the service cheaper than one-shot runs.
"""

from repro.service.core import (AttackService, ServiceStats, service_backoff,
                                service_queue_limit, service_workers)
from repro.service.journal import Journal
from repro.service.requests import (AttackRequest, execute_request,
                                    parse_request, request_fingerprint)

__all__ = [
    "AttackRequest",
    "AttackService",
    "Journal",
    "ServiceStats",
    "execute_request",
    "parse_request",
    "request_fingerprint",
    "service_backoff",
    "service_queue_limit",
    "service_workers",
]
