"""Condition flags of the reproduction ISA.

Only the four flags the paper's machinery depends on are modelled: the carry
flag (exploited by the ``neg``/``adc`` branch-encoding idiom of Figure 1), the
zero and sign flags (ordinary conditional branches) and the overflow flag
(signed comparisons).
"""

from __future__ import annotations

import enum


class Flag(enum.Enum):
    """A CPU condition flag."""

    CF = "cf"
    ZF = "zf"
    SF = "sf"
    OF = "of"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: All modelled flags.
FLAGS = tuple(Flag)
