"""CLI of the long-lived attack service.

Usage::

    PYTHONPATH=src python -m repro.service --dir service-results requests.jsonl
    ... | PYTHONPATH=src python -m repro.service --dir service-results -

The input is one JSON request object per line (see
:func:`repro.service.requests.parse_request` for the schema); blank lines
and ``#`` comment lines are skipped.  One JSON result row is printed per
request in *completion* order (retries and load balancing reorder them; sort
by ``id`` to compare batches), followed by a final ``{"summary": ...}``
block with the service stats — completed/shed/rejected/resumed plus the
pool's recovery counters (retried/quarantined/respawns/timeouts/degraded).

``--dir`` holds ``service.jsonl``: re-running the same batch against the
same directory re-emits completed rows from the journal instead of
re-running them (the ``resumed`` counter says how many).  Admission applies
backpressure by default when the bounded queue fills; ``--shed-when-full``
turns that into fail-fast ``shed`` rows instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.service.core import AttackService
from repro.service.requests import parse_request


def _emit(row: dict) -> None:
    print(json.dumps(row, sort_keys=True), flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("requests", nargs="?", default="-",
                        help="JSONL request file, or - for stdin (default)")
    parser.add_argument("--dir", default="service-results",
                        help="journal directory (service.jsonl lives here)")
    parser.add_argument("--workers", type=int, default=None,
                        help="pool worker processes "
                             "(default: REPRO_SERVICE_WORKERS or 1 = serial)")
    parser.add_argument("--queue", type=int, default=None,
                        help="admission queue bound "
                             "(default: REPRO_SERVICE_QUEUE)")
    parser.add_argument("--shed-when-full", action="store_true",
                        help="shed requests when the queue is full instead "
                             "of applying backpressure")
    args = parser.parse_args(argv)

    if args.requests == "-":
        lines = sys.stdin.read().splitlines()
    else:
        lines = Path(args.requests).read_text(encoding="utf-8").splitlines()

    quarantined = 0
    with AttackService(Path(args.dir), workers=args.workers,
                       queue_limit=args.queue) as service:
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                _emit(service.reject(None, f"invalid JSON: {exc}"))
                continue
            try:
                request = parse_request(obj)
            except ValueError as exc:
                request_id = obj.get("id") if isinstance(obj, dict) else None
                _emit(service.reject(request_id, str(exc)))
                continue
            for row in service.submit(request,
                                      shed_when_full=args.shed_when_full):
                _emit(row)
        for row in service.drain():
            _emit(row)
        summary = service.summary()
        quarantined = summary["quarantined"]
        _emit({"summary": summary})
    return 1 if quarantined else 0


if __name__ == "__main__":
    raise SystemExit(main())
