"""Instruction operands: registers, immediates, memory references, labels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.isa.registers import Register

#: Operand sizes supported by the ISA, in bytes.
VALID_SIZES = (1, 2, 4, 8)


@dataclass(frozen=True)
class Reg:
    """A register operand.

    Attributes:
        reg: the general purpose register referenced.
        size: access size in bytes (1, 2, 4 or 8).  Writes of size 4
            zero-extend into the full register, writes of size 1 or 2 merge
            into the low bytes, mirroring x86-64 semantics closely enough for
            the paper's code shapes.
    """

    reg: Register
    size: int = 8

    def __post_init__(self) -> None:
        if self.size not in VALID_SIZES:
            raise ValueError(f"invalid register operand size {self.size}")

    def __str__(self) -> str:
        suffix = {8: "", 4: "d", 2: "w", 1: "b"}[self.size]
        return f"{self.reg}{suffix}" if suffix else str(self.reg)


@dataclass(frozen=True)
class Imm:
    """An immediate operand.

    Attributes:
        value: the immediate value.  Stored as a Python int; the encoder
            truncates it to ``size`` bytes (two's complement for negatives).
        size: encoded width in bytes.
    """

    value: int
    size: int = 8

    def __post_init__(self) -> None:
        if self.size not in VALID_SIZES:
            raise ValueError(f"invalid immediate size {self.size}")

    def __str__(self) -> str:
        return hex(self.value)


@dataclass(frozen=True)
class Mem:
    """A memory operand of the form ``[base + index * scale + disp]``.

    Attributes:
        base: optional base register.
        index: optional index register.
        scale: scale factor applied to the index register (1, 2, 4 or 8).
        disp: signed 32-bit displacement.
        size: access size in bytes.
    """

    base: Optional[Register] = None
    index: Optional[Register] = None
    scale: int = 1
    disp: int = 0
    size: int = 8

    def __post_init__(self) -> None:
        if self.size not in VALID_SIZES:
            raise ValueError(f"invalid memory operand size {self.size}")
        if self.scale not in (1, 2, 4, 8):
            raise ValueError(f"invalid scale {self.scale}")

    def __str__(self) -> str:
        parts = []
        if self.base is not None:
            parts.append(str(self.base))
        if self.index is not None:
            parts.append(f"{self.index}*{self.scale}")
        if self.disp or not parts:
            parts.append(hex(self.disp))
        prefix = {8: "qword", 4: "dword", 2: "word", 1: "byte"}[self.size]
        return f"{prefix} ptr [{' + '.join(parts)}]"


@dataclass(frozen=True)
class Label:
    """A symbolic code label, resolved to an absolute address by the assembler.

    Labels never survive encoding: :func:`repro.isa.encoding.encode_instruction`
    rejects them, so any label must be materialized first.
    """

    name: str

    def __str__(self) -> str:
        return self.name


#: Union of all operand kinds.
Operand = Union[Reg, Imm, Mem, Label]


def references_rsp(operand: Operand) -> bool:
    """Return True if ``operand`` reads or writes ``rsp`` in any way."""
    if isinstance(operand, Reg):
        return operand.reg is Register.RSP
    if isinstance(operand, Mem):
        return Register.RSP in (operand.base, operand.index)
    return False
