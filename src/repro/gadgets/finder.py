"""Gadget discovery by scanning code bytes for ``ret``-terminated sequences.

This is a simplified Galileo-style scan: every byte offset of the scanned
range is treated as a potential gadget start, decoded forward for a bounded
number of instructions, and kept if a ``ret`` is reached.  The same routine
serves two masters: the rewriter's gadget pool (to reuse gadgets from program
parts left unobfuscated, §IV-A1) and the ROP-aware attacks' *gadget guessing*
(§V-D), which is why unaligned starts are deliberately included.
"""

from __future__ import annotations

from typing import List, Optional

from repro.binary.image import BinaryImage
from repro.gadgets.gadget import Gadget, analyze_side_effects
from repro.isa.encoding import DecodeError, decode_instruction
from repro.isa.instructions import Mnemonic


def gadget_at(data: bytes, offset: int, base_address: int,
              max_instructions: int = 6) -> Optional[Gadget]:
    """Try to decode a gadget starting at ``offset`` inside ``data``.

    Returns None unless a ``ret`` is reached within ``max_instructions``.
    """
    instructions = []
    cursor = offset
    for _ in range(max_instructions):
        try:
            instruction, length = decode_instruction(data, cursor)
        except DecodeError:
            return None
        instructions.append(instruction)
        cursor += length
        if instruction.mnemonic is Mnemonic.RET:
            clobbers, pops, flags = analyze_side_effects(instructions)
            return Gadget(
                address=base_address + offset,
                instructions=instructions,
                clobbers=clobbers,
                pops=pops,
                writes_flags=flags,
            )
        if instruction.is_control_flow():
            return None
    return None


def find_gadgets(data: bytes, base_address: int = 0,
                 max_instructions: int = 6) -> List[Gadget]:
    """Scan every byte offset of ``data`` and return each ret-terminated
    gadget found; unaligned starts are what make unintended gadgets possible.

    Args:
        data: raw code bytes.
        base_address: load address of ``data[0]`` (gadget addresses are
            absolute).
        max_instructions: bound on gadget length.
    """
    gadgets: List[Gadget] = []
    for offset in range(len(data)):
        gadget = gadget_at(data, offset, base_address, max_instructions)
        if gadget is not None:
            gadgets.append(gadget)
    return gadgets


def find_gadgets_in_image(image: BinaryImage, section: str = ".text",
                          max_instructions: int = 6) -> List[Gadget]:
    """Scan one section of a binary image for gadgets."""
    sec = image.sections.get(section)
    if sec is None or sec.size == 0:
        return []
    return find_gadgets(bytes(sec.data), sec.address, max_instructions)
