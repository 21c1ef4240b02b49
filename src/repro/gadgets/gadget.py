"""The :class:`Gadget` model shared by the rewriter and the attacks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.isa.instructions import Instruction, Mnemonic
from repro.isa.operands import Reg
from repro.isa.registers import Register


@dataclass
class Gadget:
    """A code fragment ending in ``ret`` (or a JOP fragment ending in ``jmp``).

    Attributes:
        address: load address of the first instruction.
        instructions: the instruction sequence, terminator included.
        kind: semantic kind assigned by the synthesizer/classifier
            (e.g. ``"pop"``, ``"add_rr"``, ``"load8"``); empty for unclassified
            gadgets found by scanning.
        params: semantic parameters, e.g. ``{"dst": Register.RAX}``.
        clobbers: registers whose value the gadget destroys besides the
            primary destination (used to honour liveness during crafting).
        pops: registers popped from the stack, in order — each pop consumes
            one 8-byte chain slot that the crafter must fill (with the operand
            or with junk).
        writes_flags: True when the gadget pollutes the condition flags.
    """

    address: int
    instructions: List[Instruction]
    kind: str = ""
    params: Dict[str, object] = field(default_factory=dict)
    clobbers: frozenset = frozenset()
    pops: Tuple[Register, ...] = ()
    writes_flags: bool = False

    @property
    def length(self) -> int:
        """Number of instructions, terminator included."""
        return len(self.instructions)

    def text(self) -> str:
        """Human-readable listing (``"pop rdi ; ret"`` style)."""
        return " ; ".join(str(i) for i in self.instructions)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Gadget {self.address:#x}: {self.text()}>"


def analyze_side_effects(instructions: List[Instruction]) -> Tuple[frozenset, Tuple[Register, ...], bool]:
    """Compute ``(clobbers, pops, writes_flags)`` for an instruction sequence.

    Used both by the synthesizer (to annotate artificial gadgets) and by the
    classifier (to annotate gadgets found in existing code).
    """
    clobbers = set()
    pops: List[Register] = []
    writes_flags = False
    for instruction in instructions:
        if instruction.writes_flags():
            writes_flags = True
        if instruction.mnemonic is Mnemonic.POP and isinstance(instruction.operands[0], Reg):
            pops.append(instruction.operands[0].reg)
            clobbers.add(instruction.operands[0].reg)
            continue
        if instruction.mnemonic in (Mnemonic.RET, Mnemonic.JMP, Mnemonic.JCC,
                                    Mnemonic.NOP, Mnemonic.CMP, Mnemonic.TEST,
                                    Mnemonic.PUSH, Mnemonic.HLT):
            continue
        if instruction.operands and isinstance(instruction.operands[0], Reg):
            clobbers.add(instruction.operands[0].reg)
        if instruction.mnemonic is Mnemonic.XCHG and len(instruction.operands) > 1:
            second = instruction.operands[1]
            if isinstance(second, Reg):
                clobbers.add(second.reg)
        if instruction.mnemonic in (Mnemonic.CQO, Mnemonic.IDIV):
            clobbers.add(Register.RDX)
            clobbers.add(Register.RAX)
    return frozenset(clobbers), tuple(pops), writes_flags
