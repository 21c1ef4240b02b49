"""x64-like instruction set architecture used throughout the reproduction.

The paper rewrites compiled x86-64 functions into ROP chains.  Because no
binary toolchain (capstone/keystone, gcc, Ghidra) is available offline, this
package provides a self-contained ISA with the properties the ROP machinery
relies on:

* sixteen 64-bit general purpose registers plus ``rsp``/``rip`` conventions,
* a condition-flag register (CF/ZF/SF/OF) written by ALU instructions,
* a variable-length byte encoding so instruction streams can be decoded from
  arbitrary (including unaligned) offsets — the property gadget finding and
  gadget confusion build on,
* an assembler and disassembler used by the compiler, the gadget finder and
  the deobfuscation attack engines,
* one table of each mnemonic's effects (:mod:`repro.isa.effects`): operand
  roles, implicit registers, flags and control transfer.
"""

from repro.isa.registers import Register, REGISTERS, CALLEE_SAVED, CALLER_SAVED, ARG_REGISTERS
from repro.isa.flags import Flag, FLAGS
from repro.isa.operands import Reg, Imm, Mem, Label, Operand
from repro.isa.instructions import Instruction, Mnemonic, CONDITION_CODES
from repro.isa.encoding import encode_instruction, decode_instruction, DecodeError
from repro.isa.assembler import Assembler, assemble
from repro.isa.disassembler import disassemble_range

__all__ = [
    "Register",
    "REGISTERS",
    "CALLEE_SAVED",
    "CALLER_SAVED",
    "ARG_REGISTERS",
    "Flag",
    "FLAGS",
    "Reg",
    "Imm",
    "Mem",
    "Label",
    "Operand",
    "Instruction",
    "Mnemonic",
    "CONDITION_CODES",
    "encode_instruction",
    "decode_instruction",
    "DecodeError",
    "Assembler",
    "assemble",
    "disassemble_range",
]
