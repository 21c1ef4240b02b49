"""The :class:`Gadget` model shared by the rewriter and the attacks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.isa.effects import instruction_uses_defs
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

    The clobbers are the registers the sequence defines
    (:func:`repro.isa.effects.instruction_uses_defs`) other than ``rsp``,
    the chain pointer.  Used both by the synthesizer (to annotate artificial
    gadgets) and by the classifier (to annotate gadgets found in existing
    code).
    """
    clobbers: Set[Register] = set()
    pops: List[Register] = []
    writes_flags = False
    for instruction in instructions:
        writes_flags = writes_flags or instruction.writes_flags()
        operands = instruction.operands
        if instruction.mnemonic is Mnemonic.POP and operands and isinstance(operands[0], Reg):
            pops.append(operands[0].reg)
        clobbers |= instruction_uses_defs(instruction)[1]
    clobbers.discard(Register.RSP)
    return frozenset(clobbers), tuple(pops), writes_flags
