"""Semantic classification of discovered gadgets.

A gadget found by scanning is classified as a kind of
:data:`repro.gadgets.kinds.KINDS` only when that kind's template reproduces
its body exactly: the same template the pool synthesizes from.  Everything
else (extra instructions, sub-64-bit forms, other addressing modes) stays
unclassified and is only useful to an attacker's pattern matching.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.gadgets.gadget import Gadget
from repro.gadgets.kinds import KINDS


def classify_gadget(gadget: Gadget) -> Optional[Tuple[str, dict]]:
    """Return ``(kind, params)`` for a gadget a kind's template reproduces,
    or None.

    The kinds returned here are the ones the synthesizer produces, so gadgets
    found in unobfuscated program parts can transparently join the pool.
    """
    for name, kind in KINDS.items():
        params = kind.match(gadget.instructions)
        if params is not None:
            return name, params
    return None
