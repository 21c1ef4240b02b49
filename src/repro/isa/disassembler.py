"""Sequential disassembly built on :mod:`repro.isa.encoding`.

:func:`disassemble_range` decodes a byte range instruction by instruction,
the building block of linear-sweep CFG recovery in :mod:`repro.analysis`.
Gadget discovery (:func:`repro.gadgets.finder.gadget_at`, which the
ROP-aware attacks' gadget guessing calls too) decodes from every byte offset
with :func:`repro.isa.encoding.decode_instruction` instead.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.isa.encoding import decode_instruction
from repro.isa.instructions import Instruction


def disassemble_range(
    data: bytes, start: int = 0, end: Optional[int] = None
) -> List[Tuple[int, Instruction]]:
    """Sequentially decode ``data[start:end]``.

    Returns a list of ``(offset, instruction)`` pairs.  Decoding stops with a
    :class:`DecodeError` if an undecodable byte is reached before ``end``.
    """
    if end is None:
        end = len(data)
    out: List[Tuple[int, Instruction]] = []
    cursor = start
    while cursor < end:
        instruction, length = decode_instruction(data, cursor)
        out.append((cursor, instruction))
        cursor += length
    return out
