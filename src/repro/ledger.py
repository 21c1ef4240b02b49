"""Crash-safe, fingerprint-keyed JSONL ledger.

One ledger discipline backs both resumable layers: the grid driver's
``checkpoint.jsonl`` (:class:`repro.evaluation.grid.Checkpoint`, lines
``{"fingerprint", "part", "result"}``) and the attack service's
``service.jsonl`` (:class:`repro.service.journal.Journal`, lines
``{"fingerprint", "row"}``).  Each record is one JSON line, flushed the
moment it is appended, so a process killed at *any* point — mid-write
included — leaves a usable ledger behind:

* **torn-line repair** — a previous writer killed mid-line leaves a final
  line with no newline; reopening starts the next record on a fresh line,
  so the torn fragment cannot corrupt it;
* **meta line** — an optional ``{"meta": ...}`` first line, written only
  when the ledger is created, so a resumed append keeps the original one;
* **tolerant load** — a missing file, blank, corrupt or torn lines all just
  yield fewer resumable entries, never an error.

Subclasses name the file (``FILENAME``) and the payload field a valid
record must carry (``PAYLOAD``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Tuple


class Ledger:
    """Append-only ledger of ``{"fingerprint", ...}`` JSON lines."""

    #: file name inside the ledger directory
    FILENAME: str
    #: field every resumable record carries besides its fingerprint
    PAYLOAD: str

    def __init__(self, directory: Path, meta: Optional[Dict] = None) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.path = directory / self.FILENAME
        size = self.path.stat().st_size if self.path.exists() else 0
        torn = False
        if size:
            with self.path.open("rb") as existing:
                existing.seek(-1, 2)
                torn = existing.read(1) != b"\n"
        self._file = self.path.open("a", encoding="utf-8")
        if torn:
            self._file.write("\n")
        if meta is not None and not size:
            self._write({"meta": meta})

    def _write(self, entry: Dict) -> None:
        self._file.write(json.dumps(entry) + "\n")
        self._file.flush()

    def append(self, fingerprint: str, **fields) -> None:
        """Record one entry (fields are written in the order given)."""
        self._write({"fingerprint": fingerprint, **fields})

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @classmethod
    def read(cls, directory) -> Tuple[Dict[str, dict], Optional[Dict]]:
        """``(fingerprint -> record, meta)`` from one pass over the file.

        Later records win over earlier ones with the same fingerprint;
        ``meta`` is ``None`` for a missing file or a ledger without one.
        """
        path = Path(directory) / cls.FILENAME
        entries: Dict[str, dict] = {}
        meta: Optional[Dict] = None
        if not path.exists():
            return entries, meta
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(entry, dict):
                continue
            if "fingerprint" in entry and cls.PAYLOAD in entry:
                entries[entry["fingerprint"]] = entry
            if meta is None and isinstance(entry.get("meta"), dict):
                meta = entry["meta"]
        return entries, meta
