"""Deterministic fault injection for the multiprocessing execution layers.

The worker pool in :mod:`repro.evaluation.parallel` (shared by the grid
and the attack service) owns the one recovery policy for crashed workers,
hung units and poisoned cells.
Recovery code that is only ever exercised by accident is broken by default,
so this module provides the harness that provokes every failure mode on
purpose — the fault-tolerance tests and the CI fault-injection grid leg
drive each recovery path deliberately instead of hoping for it.

``REPRO_FAULT_INJECT`` is a comma-separated list of directives
``index:mode[:count]``:

* ``index`` — the dispatch sequence number the fault targets.  The grid
  pool numbers units globally across the pool's lifetime in enqueue order
  (so the index is deterministic regardless of which worker runs what).
  The pool retries a unit under its original id, so a ``count`` limits
  how often the same unit is sabotaged.
* ``mode`` — ``raise`` (the unit errors), ``hang`` (the worker sleeps past
  any deadline, provoking the ``REPRO_UNIT_TIMEOUT`` kill), ``exit0`` (the
  worker exits *cleanly* mid-unit — the liveness case an exit-code filter
  misses), ``kill`` (SIGKILL to self, an OOM-kill stand-in) or ``slow:ms``
  (a deterministic delay of ``ms`` milliseconds before the unit runs
  normally — the probe for deadline/backoff *boundary* behavior, where an
  infinite ``hang`` cannot distinguish "finishes just under the deadline"
  from "just over" without flaky wall-clock races).
* ``count`` — how many attempts of that unit to sabotage: an integer
  (default 1, i.e. only the first attempt fails and the retry succeeds) or
  ``always`` (every attempt fails, so retries exhaust and the unit is
  quarantined).  For ``slow`` the directive is ``index:slow:ms[:count]``;
  the delay occupies the third field and the count moves to the fourth.

Malformed directives are ignored — an operator typo in the environment must
never crash a worker that would otherwise run fine.

This module is also the home of the pool's fault-tolerance knobs, shared
by both of its clients:

* ``REPRO_UNIT_TIMEOUT`` — per-unit wall-clock deadline in seconds, from
  the unit's send to its worker; a worker whose unit exceeds it is killed
  and the unit retried.
  Unset, empty or ``<= 0`` disables the deadline (the default).
* ``REPRO_UNIT_RETRIES`` — how many times a failed/timed-out/orphaned unit
  is retried before being quarantined (default 2).
"""

from __future__ import annotations

import math
import os
import signal
import time
from typing import Dict, Optional, Tuple

from repro import knobs

#: Recognized fault modes, in the order the docstring describes them.
FAULT_MODES = ("raise", "hang", "exit0", "kill", "slow")

#: How long a ``hang`` fault sleeps — far past any plausible unit deadline.
_HANG_SECONDS = 3600.0


class InjectedFault(RuntimeError):
    """The error raised by an injected ``raise`` fault."""


def parse_fault_spec(spec: Optional[str] = None) -> Dict[int, Tuple[str, float]]:
    """Parse a ``REPRO_FAULT_INJECT`` value into ``{index: (mode, count)}``.

    ``spec`` defaults to the environment variable; malformed directives are
    skipped silently (see module docstring).
    """
    if spec is None:
        spec = knobs.raw("REPRO_FAULT_INJECT", "") or ""
    directives: Dict[int, Tuple[str, float]] = {}
    for field in spec.split(","):
        parts = [part.strip() for part in field.strip().split(":")]
        if len(parts) < 2:
            continue
        try:
            index = int(parts[0])
        except ValueError:
            continue
        mode = parts[1]
        if mode not in FAULT_MODES:
            continue
        if mode == "slow":
            # index:slow:ms[:count] — the delay occupies the count's slot
            if len(parts) not in (3, 4):
                continue
            try:
                delay_ms = int(parts[2])
            except ValueError:
                continue
            if delay_ms < 0:
                continue
            mode = f"slow:{delay_ms}"
            count_field = parts[3] if len(parts) == 4 else None
        else:
            if len(parts) not in (2, 3):
                continue
            count_field = parts[2] if len(parts) == 3 else None
        count = 1.0
        if count_field is not None:
            if count_field == "always":
                count = math.inf
            else:
                try:
                    count = float(int(count_field))
                except ValueError:
                    continue
        directives[index] = (mode, count)
    return directives


def inject_fault(index: int, attempt: int = 0,
                 spec: Optional[Dict[int, Tuple[str, float]]] = None,
                 inline: bool = False) -> None:
    """Fire the configured fault for ``(index, attempt)``, if any.

    Called by the worker loop right after it receives a unit (the
    coordinator sent it, so it knows which unit a dying worker held).
    ``inline`` marks in-process (non-forked) execution, where only
    ``raise`` and ``slow`` are honoured — ``exit0``/``kill``/``hang`` would
    take down or stall the driver itself.
    """
    directives = parse_fault_spec() if spec is None else spec
    directive = directives.get(index)
    if directive is None:
        return
    mode, count = directive
    if attempt >= count:
        return
    if mode.startswith("slow:"):
        time.sleep(int(mode.split(":", 1)[1]) / 1000.0)
        return
    if inline and mode != "raise":
        return
    if mode == "raise":
        raise InjectedFault(f"injected fault at unit {index} "
                            f"(attempt {attempt})")
    if mode == "hang":
        time.sleep(_HANG_SECONDS)
        # only reachable when no deadline killed us — surface that loudly
        raise InjectedFault(f"injected hang at unit {index} outlived the "
                            f"deadline (attempt {attempt})")
    if mode == "exit0":
        os._exit(0)
    if mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)


def unit_timeout() -> Optional[float]:
    """Resolve ``REPRO_UNIT_TIMEOUT`` (seconds; ``None`` = no deadline)."""
    return knobs.optional_seconds("REPRO_UNIT_TIMEOUT")


def unit_retries() -> int:
    """Resolve ``REPRO_UNIT_RETRIES`` (default 2)."""
    return knobs.nonneg_int("REPRO_UNIT_RETRIES")
