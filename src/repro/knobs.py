"""Central registry of ``REPRO_*`` environment knobs.

Every environment variable the reproduction reads is declared here once,
with its kind, default and scope — and :func:`raw` is the **only** place in
the tree that may touch ``os.environ`` for a ``REPRO_*`` name.  The static
analysis gate (``python -m repro.analysis.lint``) enforces that: any other
``os.environ`` read under ``src/repro`` is a finding.  The docs-consistency
tests derive the expected knob tables in ``README.md`` and
``benchmarks/README.md`` from this registry, so a knob cannot be added,
renamed or dropped without the documentation moving in lockstep.

Reading a knob that is not registered raises ``KeyError`` immediately —
a typo'd name fails loudly instead of silently falling back to a default.

The typed accessors reproduce the clamping conventions the call sites have
always used (malformed values never crash a worker that would otherwise run
fine — an operator typo in the environment degrades to the default):

* :func:`enabled` — ``"0"`` disables, anything else (or unset+default)
  enables; the convention of all cache/tier A/B levers.
* :func:`positive_int` / :func:`nonneg_int` — ``int()`` with the registered
  default on parse failure, clamped to ``>= 1`` / ``>= 0``.
* :func:`nonneg_float` — ``float()`` with the registered default on parse
  failure or a non-finite value, clamped to ``>= 0.0``.
* :func:`optional_seconds` — ``float()``; unset/malformed/``<= 0`` all mean
  "no deadline" (``None``).
* :func:`raw` — the untyped escape hatch for knobs with bespoke parsing
  (fault-injection specs).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple


@dataclass(frozen=True)
class Knob:
    """One registered environment knob."""

    name: str
    #: "flag" (0/1 lever), "int", "float", "seconds" (optional deadline) or
    #: "spec" (free-form string with bespoke parsing at the call site).
    kind: str
    #: Documented default, as the string the environment would hold;
    #: ``None`` means "unset" is the default state.
    default: Optional[str]
    #: "src" for knobs read by ``src/repro``, "benchmarks" for knobs read
    #: only by the benchmark harness.
    scope: str
    description: str


_REGISTRY: Dict[str, Knob] = {}


def _register(name: str, kind: str, default: Optional[str], scope: str,
              description: str) -> None:
    if name in _REGISTRY:
        raise ValueError(f"duplicate knob registration: {name}")
    _REGISTRY[name] = Knob(name=name, kind=kind, default=default,
                           scope=scope, description=description)


# -- emulator tiers (repro.cpu) -----------------------------------------------
_register("REPRO_TRACE_CACHE", "flag", "1", "src",
          "0 disables trace fusion (single-step dispatch)")

# -- attack engines (repro.attacks) -------------------------------------------
_register("REPRO_SNAPSHOT_POOL", "int", "32", "src",
          "global mid-path snapshot budget for backtracking DSE; 0 = "
          "rewind-from-entry only")

# -- evaluation grid / fault tolerance ----------------------------------------
_register("REPRO_GRID_WORKERS", "int", "1", "src",
          "worker processes for the evaluation grid")
_register("REPRO_FULL_SCALE", "flag", "0", "src",
          "1 = paper-sized grids instead of reduced scale")
_register("REPRO_UNIT_TIMEOUT", "seconds", None, "src",
          "per-unit wall-clock deadline in seconds before kill+retry")
_register("REPRO_UNIT_RETRIES", "int", "2", "src",
          "retries before a failing unit is quarantined")
_register("REPRO_FAULT_INJECT", "spec", None, "src",
          "deterministic fault-injection directives (index:mode[:count])")

# -- long-lived attack service (repro.service) --------------------------------
_register("REPRO_SERVICE_WORKERS", "int", "1", "src",
          "pool workers for python -m repro.service (1 = in-process serial)")
_register("REPRO_SERVICE_QUEUE", "int", "64", "src",
          "admission bound: max requests admitted but not yet terminal")
_register("REPRO_SERVICE_BACKOFF", "float", "0.1", "src",
          "base retry delay in seconds; attempt n waits base * 2**(n-1)")

# -- benchmark harness (benchmarks/) ------------------------------------------
_register("REPRO_BENCH_UPDATE", "flag", "0", "benchmarks",
          "1 re-measures and rewrites the committed throughput baseline")
_register("REPRO_BENCH_GATE", "flag", "1", "benchmarks",
          "0 skips the throughput regression assertions")


def get(name: str) -> Knob:
    """The registration record for ``name`` (KeyError if unregistered)."""
    return _REGISTRY[name]


def names(scope: Optional[str] = None) -> FrozenSet[str]:
    """All registered knob names, optionally restricted to one scope."""
    return frozenset(knob.name for knob in _REGISTRY.values()
                     if scope is None or knob.scope == scope)


def all_knobs() -> Tuple[Knob, ...]:
    """Every registration, in declaration order (for table generation)."""
    return tuple(_REGISTRY.values())


def raw(name: str, default: Optional[str] = None) -> Optional[str]:
    """The environment's value for a *registered* knob, verbatim.

    This is the single sanctioned ``os.environ`` read for ``REPRO_*``
    names; ``default`` is returned when the variable is unset (it is the
    call site's parse-level default and may differ from the registered
    documented default, e.g. ``""`` for "unset" in a free-form spec).
    """
    knob = _REGISTRY.get(name)
    if knob is None:
        raise KeyError(f"unregistered knob: {name} (register it in "
                       f"repro.knobs before reading it)")
    return os.environ.get(name, default)


def enabled(name: str) -> bool:
    """A 0/1 lever: ``"0"`` disables; unset falls back to the default."""
    knob = get(name)
    return raw(name, knob.default) != "0"


def _int_default(name: str) -> int:
    default = get(name).default
    if default is None:
        raise ValueError(f"knob {name} has no integer default")
    return int(default)


def positive_int(name: str) -> int:
    """``int()`` with the registered default on failure, clamped ``>= 1``."""
    value = raw(name, get(name).default)
    try:
        return max(1, int(value if value is not None else ""))
    except ValueError:
        return max(1, _int_default(name))


def nonneg_int(name: str) -> int:
    """``int()`` with the registered default on failure, clamped ``>= 0``."""
    value = raw(name, get(name).default)
    try:
        return max(0, int(value if value is not None else ""))
    except ValueError:
        return max(0, _int_default(name))


def nonneg_float(name: str) -> float:
    """``float()`` with the registered default on failure, clamped ``>= 0``.

    ``inf`` and ``nan`` count as failures: an infinite retry delay would
    leave a retried unit waiting forever.
    """
    value = raw(name, get(name).default)
    try:
        parsed = float(value if value is not None else "")
    except ValueError:
        parsed = math.nan
    if not math.isfinite(parsed):
        default = get(name).default
        parsed = float(default if default is not None else "0")
    return max(0.0, parsed)


def optional_seconds(name: str) -> Optional[float]:
    """An optional deadline: unset, malformed or ``<= 0`` mean ``None``."""
    try:
        value = float(raw(name, "") or "")
    except ValueError:
        return None
    return value if value > 0 else None
