"""General purpose registers of the reproduction ISA.

The register file mirrors x86-64: sixteen 64-bit general purpose registers.
``rsp`` is the stack pointer (and, for ROP chains, the virtual program
counter), ``rip`` is the instruction pointer and is modelled separately by the
CPU state rather than as a general purpose register.
"""

from __future__ import annotations

import enum


class Register(enum.IntEnum):
    """Identifier of a general purpose register.

    The integer value is used directly by the byte encoding.
    """

    RAX = 0
    RCX = 1
    RDX = 2
    RBX = 3
    RSP = 4
    RBP = 5
    RSI = 6
    RDI = 7
    R8 = 8
    R9 = 9
    R10 = 10
    R11 = 11
    R12 = 12
    R13 = 13
    R14 = 14
    R15 = 15

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


#: All general purpose registers, in encoding order.
REGISTERS = tuple(Register)

#: Registers preserved across calls by the calling convention (System V like).
CALLEE_SAVED = (
    Register.RBX,
    Register.RBP,
    Register.R12,
    Register.R13,
    Register.R14,
    Register.R15,
)

#: Registers a callee may clobber freely.
CALLER_SAVED = (
    Register.RAX,
    Register.RCX,
    Register.RDX,
    Register.RSI,
    Register.RDI,
    Register.R8,
    Register.R9,
    Register.R10,
    Register.R11,
)

#: Argument passing order of the calling convention.
ARG_REGISTERS = (
    Register.RDI,
    Register.RSI,
    Register.RDX,
    Register.RCX,
    Register.R8,
    Register.R9,
)

#: Register holding a function's return value.
RETURN_REGISTER = Register.RAX

#: Registers that the compiler's register allocator may hand out for
#: program values.  ``rsp`` is reserved for the stack and ``rbp`` for frames.
ALLOCATABLE = tuple(
    r for r in REGISTERS if r not in (Register.RSP, Register.RBP)
)
