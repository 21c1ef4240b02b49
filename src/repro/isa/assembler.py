"""Two-pass assembler turning instruction lists with labels into bytes.

Labels are resolved to absolute addresses (the reproduction, like the paper's
rewritten binaries, loads programs at fixed addresses).  Control-flow target
immediates are always encoded with 8-byte width so that instruction sizes do
not depend on label values and a single fix-up pass suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from repro.isa.encoding import encode_instruction, encoded_length
from repro.isa.instructions import Instruction
from repro.isa.operands import Imm, Label, Operand


@dataclass
class AssemblyItem:
    """One item of an assembly listing: either an instruction or a label."""

    instruction: Instruction = None
    label: str = None

    @property
    def is_label(self) -> bool:
        """True when the item defines a label rather than an instruction."""
        return self.label is not None


class Assembler:
    """Accumulates instructions and labels and assembles them to bytes.

    Example::

        asm = Assembler()
        asm.label("loop")
        asm.emit(make("dec", Reg(Register.RCX)))
        asm.emit(make("jne", Label("loop")))
        code, symbols = asm.assemble(base_address=0x1000)
    """

    def __init__(self) -> None:
        self._items: List[AssemblyItem] = []

    def emit(self, instruction: Instruction) -> None:
        """Append an instruction to the listing."""
        self._items.append(AssemblyItem(instruction=instruction))

    def label(self, name: str) -> None:
        """Define a label at the current position."""
        self._items.append(AssemblyItem(label=name))

    @property
    def items(self) -> Tuple[AssemblyItem, ...]:
        """The accumulated listing (read-only view)."""
        return tuple(self._items)

    def _placeholder(self, instruction: Instruction) -> Instruction:
        """Replace label operands with 8-byte immediates for sizing."""
        operands = tuple(
            Imm(0, 8) if isinstance(op, Label) else op for op in instruction.operands
        )
        return Instruction(instruction.mnemonic, operands, instruction.condition)

    def _resolve(self, instruction: Instruction, labels: Dict[str, int]) -> Instruction:
        operands: List[Operand] = []
        for op in instruction.operands:
            if isinstance(op, Label):
                if op.name not in labels:
                    raise KeyError(f"undefined label {op.name!r}")
                operands.append(Imm(labels[op.name], 8))
            else:
                operands.append(op)
        return Instruction(instruction.mnemonic, tuple(operands), instruction.condition)

    def assemble(self, base_address: int = 0) -> Tuple[bytes, Dict[str, int]]:
        """Assemble the listing.

        Args:
            base_address: absolute address of the first instruction.

        Returns:
            ``(code, labels)`` where ``labels`` maps label names to absolute
            addresses.
        """
        # pass 1: compute label addresses using fixed-size placeholders
        labels: Dict[str, int] = {}
        cursor = base_address
        for item in self._items:
            if item.is_label:
                labels[item.label] = cursor
            else:
                cursor += encoded_length(self._placeholder(item.instruction))
        # pass 2: encode with resolved labels
        out = bytearray()
        for item in self._items:
            if item.is_label:
                continue
            out += encode_instruction(self._resolve(item.instruction, labels))
        return bytes(out), labels


def assemble(
    instructions: Sequence[Union[Instruction, str]], base_address: int = 0
) -> Tuple[bytes, Dict[str, int]]:
    """Assemble a flat sequence where strings define labels.

    This is a convenience wrapper over :class:`Assembler` used heavily in
    tests and by the gadget synthesizer.
    """
    asm = Assembler()
    for item in instructions:
        if isinstance(item, str):
            asm.label(item)
        else:
            asm.emit(item)
    return asm.assemble(base_address)
