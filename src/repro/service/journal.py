"""Crash-safe request journal of the long-lived attack service.

``service.jsonl`` is a :class:`repro.ledger.Ledger`, the same discipline as
the grid's ``checkpoint.jsonl``: one flushed JSON line ``{"fingerprint",
"row"}`` per request the moment it reaches a *recorded* terminal state, so
a service killed at any point — including mid-write — leaves a usable
ledger behind.  On restart the journal is loaded, completed requests
re-emit their recorded rows verbatim instead of re-running, and a torn
final line (the tell of a mid-write kill) is repaired by starting the next
record on a fresh line.

Only ``done`` rows are journaled.  ``quarantined`` mirrors the grid
checkpoint's semantics — the fault may have been transient, so a restarted
service retries quarantined requests instead of trusting a stale failure.
``shed``/``rejected`` are admission decisions of one particular service
invocation — journaling them would make a restarted service refuse work it
now has room for.
"""

from __future__ import annotations

from typing import Dict

from repro.ledger import Ledger


class Journal(Ledger):
    """Append-only fingerprint-keyed ledger of terminal request rows."""

    FILENAME = "service.jsonl"
    PAYLOAD = "row"

    def record(self, fingerprint: str, row: dict) -> None:
        self.append(fingerprint, row=row)

    @classmethod
    def load(cls, directory) -> Dict[str, dict]:
        """``fingerprint -> row`` from a previous service's ledger."""
        return {fingerprint: entry["row"]
                for fingerprint, entry in cls.read(directory)[0].items()}
