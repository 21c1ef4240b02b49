"""Instruction mnemonics and the :class:`Instruction` container."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.isa.operands import Operand, Label


class Mnemonic(enum.Enum):
    """Supported instruction mnemonics.

    The set covers what the compiler emits for mini-C programs, what the
    artificial gadgets need, and what the rewriter's pivot/unpivot stubs use.
    """

    # data movement
    MOV = "mov"
    MOVZX = "movzx"
    MOVSX = "movsx"
    LEA = "lea"
    XCHG = "xchg"
    PUSH = "push"
    POP = "pop"
    # ALU
    ADD = "add"
    SUB = "sub"
    ADC = "adc"
    SBB = "sbb"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NEG = "neg"
    NOT = "not"
    SHL = "shl"
    SHR = "shr"
    SAR = "sar"
    IMUL = "imul"
    IDIV = "idiv"
    INC = "inc"
    DEC = "dec"
    CMP = "cmp"
    TEST = "test"
    CQO = "cqo"
    # conditional moves / sets (condition code carried separately)
    CMOV = "cmov"
    SET = "set"
    # control transfer
    JMP = "jmp"
    JCC = "j"
    CALL = "call"
    RET = "ret"
    LEAVE = "leave"
    NOP = "nop"
    HLT = "hlt"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Condition codes usable with :data:`Mnemonic.JCC`, :data:`Mnemonic.CMOV`
#: and :data:`Mnemonic.SET`.
CONDITION_CODES = (
    "e", "ne", "l", "le", "g", "ge", "b", "be", "a", "ae", "s", "ns",
)

#: Condition code negation map, used by branch flipping attacks and by the
#: compiler when inverting branches.
NEGATED_CONDITION = {
    "e": "ne", "ne": "e",
    "l": "ge", "ge": "l",
    "le": "g", "g": "le",
    "b": "ae", "ae": "b",
    "be": "a", "a": "be",
    "s": "ns", "ns": "s",
}


@dataclass(frozen=True)
class Instruction:
    """A single decoded (or to-be-encoded) instruction.

    Attributes:
        mnemonic: the operation performed.
        operands: destination-first operand tuple.
        condition: condition code for ``JCC``/``CMOV``/``SET``; empty otherwise.
    """

    mnemonic: Mnemonic
    operands: Tuple[Operand, ...] = ()
    condition: str = ""

    def __post_init__(self) -> None:
        if self.mnemonic in (Mnemonic.JCC, Mnemonic.CMOV, Mnemonic.SET):
            if self.condition not in CONDITION_CODES:
                raise ValueError(
                    f"{self.mnemonic} requires a condition code, got {self.condition!r}"
                )
        elif self.condition:
            raise ValueError(f"{self.mnemonic} does not take a condition code")

    @property
    def name(self) -> str:
        """Full mnemonic string including any condition code (e.g. ``jne``)."""
        if self.mnemonic is Mnemonic.JCC:
            return f"j{self.condition}"
        if self.mnemonic in (Mnemonic.CMOV, Mnemonic.SET):
            return f"{self.mnemonic.value}{self.condition}"
        return self.mnemonic.value

    def is_control_flow(self) -> bool:
        """True for instructions that may divert the instruction pointer."""
        return self.mnemonic in (
            Mnemonic.JMP, Mnemonic.JCC, Mnemonic.CALL, Mnemonic.RET, Mnemonic.HLT,
        )

    def reads_flags(self) -> bool:
        """True when the instruction's behaviour depends on condition flags."""
        return self.mnemonic in (Mnemonic.JCC, Mnemonic.CMOV, Mnemonic.SET,
                                 Mnemonic.ADC, Mnemonic.SBB)

    def writes_flags(self) -> bool:
        """True when the instruction updates condition flags."""
        return self.mnemonic in (
            Mnemonic.ADD, Mnemonic.SUB, Mnemonic.ADC, Mnemonic.SBB,
            Mnemonic.AND, Mnemonic.OR, Mnemonic.XOR, Mnemonic.NEG,
            Mnemonic.SHL, Mnemonic.SHR, Mnemonic.SAR, Mnemonic.IMUL,
            Mnemonic.INC, Mnemonic.DEC, Mnemonic.CMP, Mnemonic.TEST,
        )

    def __str__(self) -> str:
        if not self.operands:
            return self.name
        return f"{self.name} {', '.join(str(op) for op in self.operands)}"


def make(name: str, *operands: Operand) -> Instruction:
    """Build an :class:`Instruction` from a textual mnemonic.

    ``name`` may carry a condition code suffix, e.g. ``"jne"``, ``"cmove"``,
    ``"setle"``.  This is the main convenience constructor used by the
    compiler backend, the gadget synthesizer and the tests.
    """
    name = name.lower()
    if name.startswith("j") and name != "jmp":
        cc = name[1:]
        if cc in CONDITION_CODES:
            return Instruction(Mnemonic.JCC, tuple(operands), cc)
    if name.startswith("cmov"):
        cc = name[4:]
        if cc in CONDITION_CODES:
            return Instruction(Mnemonic.CMOV, tuple(operands), cc)
    if name.startswith("set"):
        cc = name[3:]
        if cc in CONDITION_CODES:
            return Instruction(Mnemonic.SET, tuple(operands), cc)
    mnemonic = Mnemonic(name)
    return Instruction(mnemonic, tuple(operands))


def has_label(instruction: Instruction) -> bool:
    """Return True if any operand is an unresolved :class:`Label`."""
    return any(isinstance(op, Label) for op in instruction.operands)
