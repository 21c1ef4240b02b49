"""Exec-compiled superinstructions: the trace-to-Python-source JIT tier.

This module takes the *recorded* form of a trace (:class:`repro.cpu.trace.
TraceStep`) and emits one Python function per trace as source text, compiled
once with :func:`compile`/``exec`` and cached on the :class:`~repro.cpu.
trace.Trace` object (so it keys on the trace's region write generation —
self-modifying and ROP-materialized code invalidates it like a decode-cache
entry).

What the generated source buys over single-step dispatch:

* **No per-instruction dispatch.**  The whole trace is one code object: no
  address probe, generation check, budget check or handler call between
  fused instructions.
* **Registers and flags live in locals.**  The registers a trace touches are
  hoisted into local variables on entry and written back at the single
  shared exit, so the hot ALU/stack ops are ``LOAD_FAST``/``STORE_FAST``
  instead of dict and attribute traffic.
* **Operands are constant-folded.**  Immediates, size masks, sign-extension
  constants, effective-address arithmetic, peeked ``ret`` targets and region
  generations are baked into the expressions as literals.
* **Width-specialized memory traffic.**  Stack loads go through a pinned
  ``struct.Struct("<Q").unpack_from`` (no slice allocation); other qword
  traffic binds the stable :meth:`repro.memory.Memory.read_qword` /
  :meth:`~repro.memory.Memory.write_qword` accessors.

The generated function is shaped as one ``while True`` block whose ``break``
statements converge on a single register/flag writeback tail (early exits —
failed ret guards, mid-trace self-modification — set the executed-step count
``ex`` first), so the source stays compact enough that ``compile()`` is a
once-per-trace cost of well under a millisecond.

Semantics are bit-for-bit those of single-step dispatch: fused ``ret``
guards, mid-trace self-modification checks after every store, and fault
repair (``rip`` and ``steps`` exactly as single-stepping would have left
them) are all emitted inline.  Every step is native code: sized
(1/2/4/8-byte) ALU and MOV destinations, shifts of any width by immediate
or count register (with the width-dependent count mask, zero-count flag
preservation and the defined 1-bit OF), memory-operand ALU, ``xchg`` with
a memory operand, exact ``idiv`` (raising the single-step fault on a zero
divisor or ``INT64_MIN / -1``) and indirect ``jmp``/``call``.  A compiled
trace never calls back into the emulator's handlers: :func:`compile_trace`
declines a trace holding a step shape no emitter covers, and that trace
keeps its single-step warm-up path.

The generated function is self-contained: it advances ``emulator.steps``,
installs the final ``rip`` and re-raises faults as
:class:`~repro.cpu.state.EmulationError` itself, so executing a compiled
trace from the run loop is a single call.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Set

from repro.cpu import semantics as _semantics
from repro.cpu.state import BIT_WIDTHS, EmulationError, SIGN_BITS, SIZE_MASKS
from repro.isa.instructions import Mnemonic
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import Register
from repro.memory import MemoryError_

_M = (1 << 64) - 1
_M32 = 0xFFFFFFFF
_H = 1 << 63

#: Literal spellings of the hot constants, so the generated source stays
#: readable when dumped for debugging.
_M_LIT = "0xFFFFFFFFFFFFFFFF"
_H_LIT = "0x8000000000000000"

#: Allocation-free little-endian qword load (bounds are pre-checked by the
#: emitted code, so the struct error path never triggers).
_UNPACK_QWORD = struct.Struct("<Q").unpack_from

#: Condition code -> Python expression over the local flag variables; the
#: exact truth tables of :data:`repro.cpu.state.CONDITION_TABLE`.
_COND_EXPR: Dict[str, str] = {
    "e": "zf",
    "ne": "not zf",
    "l": "sf != of",
    "ge": "sf == of",
    "le": "zf or sf != of",
    "g": "not zf and sf == of",
    "b": "cf",
    "ae": "not cf",
    "be": "cf or zf",
    "a": "not cf and not zf",
    "s": "sf",
    "ns": "not sf",
}

_ALU_SYMBOL = {Mnemonic.AND: "&", Mnemonic.OR: "|", Mnemonic.XOR: "^",
               Mnemonic.TEST: "&"}

_FLAG_LOADS = ["cf = _S.cf", "zf = _S.zf", "sf = _S.sf", "of = _S.of"]
_FLAG_STORES = ["_S.cf = cf", "_S.zf = zf", "_S.sf = sf", "_S.of = of"]


def _signed64(value: int) -> int:
    """to_signed(value, 8) folded at compile time."""
    value &= _M
    return value - (1 << 64) if value & _H else value


class _Codegen:
    """Builds the source of one trace function."""

    def __init__(self, trace, emulator) -> None:
        self.trace = trace
        self.emulator = emulator
        self.lines: List[str] = []
        self.hoisted: Set[Register] = set()

    # -- small emission helpers -------------------------------------------------
    def reg(self, register: Register) -> str:
        """Local variable name of a hoisted register."""
        self.hoisted.add(register)
        return f"r_{register.name.lower()}"

    def emit(self, line: str) -> None:
        self.lines.append("            " + line)

    def ea(self, operand: Mem) -> str:
        """Effective-address expression (mirrors
        :meth:`repro.cpu.emulator.Emulator.effective_address`)."""
        base, index, scale, disp = (operand.base, operand.index,
                                    operand.scale, operand.disp)
        if index is None:
            if base is None:
                return str(disp & _M)
            if disp == 0:
                return self.reg(base)
            return f"({self.reg(base)} + {disp}) & {_M_LIT}"
        if base is None:
            return f"({self.reg(index)} * {scale} + {disp}) & {_M_LIT}"
        return (f"({self.reg(base)} + {self.reg(index)} * {scale} + {disp})"
                f" & {_M_LIT}")

    def early_exit(self, executed: int) -> None:
        """Jump to the shared writeback tail reporting ``executed`` steps."""
        self.emit(f"    ex = {executed}")
        self.emit("    break")

    def gen_check(self, index: int, resume_rip: int) -> None:
        """Mid-trace self-modification check after a store (early exit)."""
        self.emit(f"if _RGN.generation != {self.trace.generation}:")
        self.emit(f"    _S.rip = {resume_rip}")
        self.early_exit(index + 1)

    def stack_load(self, address_var: str, result_var: str, index: int) -> None:
        """Qword stack load with the pinned-region fast path (pop/ret)."""
        stack = self.trace.stack_region
        self.emit(f"n = {index}")
        if stack is None:
            self.emit(f"{result_var} = _RQ({address_var})")
            return
        self.emit(f"off = {address_var} - {stack.start}")
        self.emit(f"if 0 <= off <= {len(stack.data) - 8}:")
        self.emit(f"    {result_var} = _UQ(_STK.data, off)[0]")
        self.emit("else:")
        self.emit(f"    {result_var} = _RQ({address_var})")

    def flags_zs(self, size: int = 8) -> None:
        self.emit("zf = 1 if res == 0 else 0")
        sign = _H_LIT if size == 8 else hex(SIGN_BITS[size])
        self.emit(f"sf = 1 if res & {sign} else 0")

    def reg_value(self, operand: Reg) -> str:
        """Expression of a register operand's unsigned value at its width."""
        name = self.reg(operand.reg)
        if operand.size == 8:
            return name
        return f"({name} & {SIZE_MASKS[operand.size]})"

    def write_reg_result(self, operand: Reg, expr: str = "res") -> None:
        """Store ``expr`` (already masked to the operand width) into a
        register following the sized-write convention: 8/4-byte writes
        replace the whole register (4-byte zero-extends), 1/2-byte writes
        merge into the low bytes."""
        name = self.reg(operand.reg)
        if operand.size >= 4:
            self.emit(f"{name} = {expr}")
        else:
            keep = ~SIZE_MASKS[operand.size] & _M
            self.emit(f"{name} = ({name} & {keep}) | {expr}")

    def load(self, index: int, operand) -> str:
        """Expression of ``read_operand(operand)``: the unsigned value at
        the operand's width.  Memory loads set ``n`` first, so a fault
        repairs to this step."""
        cls = type(operand)
        if cls is Reg:
            return self.reg_value(operand)
        if cls is Imm:
            return str(operand.value & SIZE_MASKS[operand.size])
        self.emit(f"n = {index}")
        if operand.size == 8:
            return f"_RQ({self.ea(operand)})"
        return f"_RD({self.ea(operand)}, {operand.size})"

    def store(self, operand, expr: str, width: int) -> None:
        """Emit ``write_operand(operand, expr)`` for a value of at most
        ``width`` bytes (memory stores mask to the operand width)."""
        if type(operand) is Mem:
            if operand.size == 8:
                self.emit(f"_WQ({self.ea(operand)}, {expr})")
            else:
                self.emit(f"_WR({self.ea(operand)}, {expr}, {operand.size})")
            return
        if width > operand.size:
            expr = f"({expr} & {SIZE_MASKS[operand.size]:#x})"
        self.write_reg_result(operand, expr)

    # -- native emitters for straight-line ops ----------------------------------
    def emit_op(self, index: int, step) -> bool:
        """Emit native source for one ``"op"`` step.  False (or any error
        raised while emitting) means no emitter covers its shape, which
        declines the trace."""
        mnemonic = step.instruction.mnemonic
        if mnemonic in (Mnemonic.MOV, Mnemonic.MOVZX):
            return self._op_mov(index, step)
        if mnemonic is Mnemonic.MOVSX:
            return self._op_movsx(index, step)
        if mnemonic in (Mnemonic.ADD, Mnemonic.SUB, Mnemonic.CMP,
                        Mnemonic.AND, Mnemonic.OR, Mnemonic.XOR,
                        Mnemonic.TEST):
            return (self._op_alu(index, step)
                    or self._op_alu_mem(index, step))
        if mnemonic in (Mnemonic.ADC, Mnemonic.SBB):
            return self._op_adc_sbb(index, step)
        if mnemonic is Mnemonic.POP:
            return self._op_pop(index, step)
        if mnemonic is Mnemonic.PUSH:
            return self._op_push(index, step)
        if mnemonic is Mnemonic.LEA:
            return self._op_lea(index, step)
        if mnemonic in (Mnemonic.INC, Mnemonic.DEC):
            return self._op_incdec(index, step)
        if mnemonic is Mnemonic.NEG:
            return self._op_neg(index, step)
        if mnemonic is Mnemonic.NOT:
            return self._op_not(index, step)
        if mnemonic in (Mnemonic.SHL, Mnemonic.SHR, Mnemonic.SAR):
            return self._op_shift(index, step)
        if mnemonic is Mnemonic.IMUL:
            return self._op_imul(index, step)
        if mnemonic is Mnemonic.XCHG:
            return self._op_xchg(index, step)
        if mnemonic is Mnemonic.CMOV:
            return self._op_cmov(index, step)
        if mnemonic is Mnemonic.SET:
            return self._op_set(index, step)
        if mnemonic is Mnemonic.IDIV:
            return self._op_idiv(index, step)
        if mnemonic is Mnemonic.CQO:
            self.emit(f"{self.reg(Register.RDX)} = {_M_LIT} "
                      f"if {self.reg(Register.RAX)} & {_H_LIT} else 0")
            return True
        if mnemonic is Mnemonic.LEAVE:
            return self._op_leave(index, step)
        if mnemonic is Mnemonic.NOP:
            return True
        return False

    def _op_mov(self, index: int, step) -> bool:
        dst, src = step.instruction.operands
        dcls, scls = type(dst), type(src)
        if dcls is Reg and dst.size == 8:
            d = self.reg(dst.reg)
            if scls is Imm:
                self.emit(f"{d} = {src.value & SIZE_MASKS[src.size]}")
                return True
            if scls is Reg:
                s = self.reg(src.reg)
                if src.size == 8:
                    self.emit(f"{d} = {s}")
                else:
                    self.emit(f"{d} = {s} & {SIZE_MASKS[src.size]}")
                return True
            if scls is Mem:
                ea = self.ea(src)
                self.emit(f"n = {index}")
                if src.size == 8:
                    self.emit(f"{d} = _RQ({ea})")
                else:
                    self.emit(f"{d} = _RD({ea}, {src.size})")
                return True
            return False
        if dcls is Reg and dst.size == 4:
            d = self.reg(dst.reg)
            if scls is Imm:
                self.emit(f"{d} = {src.value & SIZE_MASKS[src.size] & _M32}")
                return True
            if scls is Reg:
                smask = SIZE_MASKS[min(src.size, 4)]
                self.emit(f"{d} = {self.reg(src.reg)} & {smask:#x}")
                return True
            if scls is Mem:
                ea = self.ea(src)
                self.emit(f"n = {index}")
                self.emit(f"{d} = _RD({ea}, {src.size}) & {_M32}")
                return True
            return False
        if dcls is Reg and dst.size in (1, 2):
            # sized writes merge into the register's low bytes
            mask = SIZE_MASKS[dst.size]
            keep = ~mask & _M
            d = self.reg(dst.reg)
            if scls is Imm:
                value = src.value & SIZE_MASKS[src.size] & mask
                self.emit(f"{d} = ({d} & {keep}) | {value}")
                return True
            if scls is Reg:
                smask = SIZE_MASKS[min(src.size, dst.size)]
                self.emit(f"{d} = ({d} & {keep}) | "
                          f"({self.reg(src.reg)} & {smask:#x})")
                return True
            if scls is Mem:
                self.emit(f"n = {index}")
                load = f"_RD({self.ea(src)}, {src.size})"
                if src.size > dst.size:
                    load = f"({load}) & {mask:#x}"
                self.emit(f"{d} = ({d} & {keep}) | ({load})")
                return True
            return False
        if dcls is Mem:
            ea = self.ea(dst)
            if scls is Imm:
                value = str(src.value & SIZE_MASKS[src.size])
            elif scls is Reg:
                value = self.reg(src.reg)
                if src.size != 8:
                    value = f"{value} & {SIZE_MASKS[src.size]}"
            else:
                return False
            self.emit(f"n = {index}")
            if dst.size == 8:
                self.emit(f"_WQ({ea}, {value})")
            else:
                self.emit(f"_WR({ea}, {value}, {dst.size})")
            self.gen_check(index, step.post)
            return True
        return False

    def _op_movsx(self, index: int, step) -> bool:
        dst, src = step.instruction.operands
        if type(dst) is not Reg or dst.size not in (4, 8):
            return False
        scls = type(src)
        size = getattr(src, "size", 8)
        if scls is Reg:
            if size == 8:
                value = self.reg(src.reg)
            else:
                value = f"{self.reg(src.reg)} & {SIZE_MASKS[size]}"
            self.emit(f"v = {value}")
        elif scls is Mem:
            self.emit(f"n = {index}")
            self.emit(f"v = _RD({self.ea(src)}, {size})")
        else:
            return False
        d = self.reg(dst.reg)
        if size == 8:
            extended = "v"
        else:
            extended = (f"((v - {1 << (8 * size)}) & {_M_LIT}) "
                        f"if v & {1 << (8 * size - 1)} else v")
        if dst.size == 8:
            self.emit(f"{d} = {extended}")
        else:
            self.emit(f"{d} = ({extended}) & {_M32}")
        return True

    def _op_alu(self, index: int, step) -> bool:
        """Register destinations of every width (1/2/4/8 bytes) with
        register or immediate sources — sized flags, masks and the merge
        write convention all come from the shared ALU core."""
        dst, src = step.instruction.operands
        if type(dst) is not Reg:
            return False
        size = dst.size
        rhs = self._alu_rhs(src, size)
        if rhs is None:
            return False
        b, sb = rhs
        self.emit(f"a = {self.reg_value(dst)}")
        mnemonic = step.instruction.mnemonic
        self._emit_alu_core(mnemonic, size, b, sb)
        if mnemonic not in (Mnemonic.CMP, Mnemonic.TEST):
            self.write_reg_result(dst)
        return True

    def _emit_alu_core(self, mnemonic: Mnemonic, size: int, b: str,
                       sb: str) -> None:
        """Emit ``res``/``cf``/``of``/``zf``/``sf`` for ``a <op> b`` at
        ``size`` bytes.  ``a`` must already hold the masked left value;
        ``b``/``sb`` are the masked unsigned and signed right-hand
        expressions (constant-folded literals for immediates)."""
        mlit = _M_LIT if size == 8 else hex(SIZE_MASKS[size])
        slit = _H_LIT if size == 8 else hex(SIGN_BITS[size])
        if mnemonic is Mnemonic.ADD:
            self.emit(f"t = a + {b}")
            self.emit(f"res = t & {mlit}")
            self.emit(f"cf = 1 if t > {mlit} else 0")
            self.emit(f"st = (a - ((a & {slit}) << 1)) + {sb}")
            self.emit(f"of = 1 if st < -{slit} or st >= {slit} else 0")
        elif mnemonic in (Mnemonic.SUB, Mnemonic.CMP):
            self.emit(f"res = (a - {b}) & {mlit}")
            self.emit(f"cf = 1 if a < {b} else 0")
            self.emit(f"st = (a - ((a & {slit}) << 1)) - {sb}")
            self.emit(f"of = 1 if st < -{slit} or st >= {slit} else 0")
        else:
            symbol = _ALU_SYMBOL[mnemonic]
            self.emit(f"res = a {symbol} {b}")
            self.emit("cf = 0")
            self.emit("of = 0")
        self.flags_zs(size)

    def _alu_rhs(self, src, size: int) -> Optional[tuple]:
        """``(b, sb)`` expressions of a register/immediate ALU source at
        ``size`` bytes; emits a ``b = ...`` line for register sources."""
        if type(src) is Imm:
            value = src.value & SIZE_MASKS[src.size] & SIZE_MASKS[size]
            return str(value), str(value - ((value & SIGN_BITS[size]) << 1))
        if type(src) is Reg:
            smask = SIZE_MASKS[min(src.size, size)]
            source = self.reg(src.reg)
            if smask == SIZE_MASKS[8]:
                self.emit(f"b = {source}")
            else:
                self.emit(f"b = {source} & {smask:#x}")
            slit = _H_LIT if size == 8 else hex(SIGN_BITS[size])
            return "b", f"(b - ((b & {slit}) << 1))"
        return None

    def _op_alu_mem(self, index: int, step) -> bool:
        """Memory-operand ALU: ``cmp``/``test`` with a memory operand on
        either side, memory-source ALU into a register, and memory-
        destination ADD/SUB/AND/OR/XOR read-modify-writes (with the
        mid-trace SMC check after the store, like every other fused
        memory-writing op)."""
        dst, src = step.instruction.operands
        mnemonic = step.instruction.mnemonic
        dcls, scls = type(dst), type(src)
        if dcls is Reg and scls is Mem:
            size = dst.size
            slit = _H_LIT if size == 8 else hex(SIGN_BITS[size])
            self.emit(f"n = {index}")
            load = (f"_RQ({self.ea(src)})" if src.size == 8
                    else f"_RD({self.ea(src)}, {src.size})")
            if src.size > size:
                load = f"({load}) & {SIZE_MASKS[size]:#x}"
            self.emit(f"b = {load}")
            self.emit(f"a = {self.reg_value(dst)}")
            self._emit_alu_core(mnemonic, size, "b",
                                f"(b - ((b & {slit}) << 1))")
            if mnemonic not in (Mnemonic.CMP, Mnemonic.TEST):
                self.write_reg_result(dst)
            return True
        if dcls is not Mem:
            return False
        size = dst.size
        rhs = self._alu_rhs(src, size)
        if rhs is None:
            return False
        b, sb = rhs
        self.emit(f"p = {self.ea(dst)}")
        self.emit(f"n = {index}")
        self.emit("a = _RQ(p)" if size == 8 else f"a = _RD(p, {size})")
        self._emit_alu_core(mnemonic, size, b, sb)
        if mnemonic not in (Mnemonic.CMP, Mnemonic.TEST):
            self.emit("_WQ(p, res)" if size == 8
                      else f"_WR(p, res, {size})")
            self.gen_check(index, step.post)
        return True

    def _op_adc_sbb(self, index: int, step) -> bool:
        dst, src = step.instruction.operands
        if type(dst) is not Reg or dst.size != 8:
            return False
        rhs = self._alu_rhs(src, 8)
        if rhs is None:
            return False
        b, sb = rhs
        d = self.reg(dst.reg)
        self.emit(f"a = {d}")
        self.emit("c = cf")  # carry-in, read before cf is overwritten
        if step.instruction.mnemonic is Mnemonic.ADC:
            self.emit(f"t = a + {b} + c")
            self.emit(f"res = t & {_M_LIT}")
            self.emit(f"{d} = res")
            self.emit(f"cf = 1 if t > {_M_LIT} else 0")
            self.emit(f"st = (a - ((a & {_H_LIT}) << 1)) + {sb} + c")
        else:
            self.emit(f"res = (a - {b} - c) & {_M_LIT}")
            self.emit(f"{d} = res")
            self.emit(f"cf = 1 if a < {b} + c else 0")
            self.emit(f"st = (a - ((a & {_H_LIT}) << 1)) - {sb} - c")
        self.emit(f"of = 1 if st < -{_H_LIT} or st >= {_H_LIT} else 0")
        self.flags_zs()
        return True

    def _op_pop(self, index: int, step) -> bool:
        dst = step.instruction.operands[0]
        if type(dst) is not Reg or dst.size != 8:
            return False
        rsp = self.reg(Register.RSP)
        self.emit(f"rsp = {rsp}")
        self.stack_load("rsp", "v", index)
        self.emit(f"{rsp} = (rsp + 8) & {_M_LIT}")
        self.emit(f"{self.reg(dst.reg)} = v")
        return True

    def _op_push(self, index: int, step) -> bool:
        src = step.instruction.operands[0]
        scls = type(src)
        if scls is Reg and src.size == 8:
            # read before the rsp update: ``push rsp`` stores the old value
            self.emit(f"v = {self.reg(src.reg)}")
            value = "v"
        elif scls is Imm:
            value = str(src.value & SIZE_MASKS[src.size])
        else:
            return False
        rsp = self.reg(Register.RSP)
        self.emit(f"n = {index}")
        self.emit(f"rsp = ({rsp} - 8) & {_M_LIT}")
        self.emit(f"{rsp} = rsp")
        self.emit(f"_WQ(rsp, {value})")
        self.gen_check(index, step.post)
        return True

    def _op_lea(self, index: int, step) -> bool:
        dst, src = step.instruction.operands
        if type(dst) is not Reg or dst.size != 8 or type(src) is not Mem:
            return False
        self.emit(f"{self.reg(dst.reg)} = {self.ea(src)}")
        return True

    def _op_incdec(self, index: int, step) -> bool:
        dst = step.instruction.operands[0]
        if type(dst) is not Reg or dst.size != 8:
            return False
        d = self.reg(dst.reg)
        self.emit(f"a = {d}")
        if step.instruction.mnemonic is Mnemonic.INC:
            self.emit(f"res = (a + 1) & {_M_LIT}")
            # cf preserved; of set on signed overflow (0x7fff.. -> 0x8000..)
            self.emit(f"of = 1 if a == {_H - 1} else 0")
        else:
            self.emit(f"res = (a - 1) & {_M_LIT}")
            self.emit(f"of = 1 if a == {_H_LIT} else 0")
        self.emit(f"{d} = res")
        self.flags_zs()
        return True

    def _op_neg(self, index: int, step) -> bool:
        dst = step.instruction.operands[0]
        if type(dst) is not Reg or dst.size != 8:
            return False
        d = self.reg(dst.reg)
        self.emit(f"a = {d}")
        self.emit(f"res = (-a) & {_M_LIT}")
        self.emit(f"{d} = res")
        self.emit("cf = 1 if a else 0")
        self.emit(f"of = 1 if a == {_H_LIT} else 0")
        self.flags_zs()
        return True

    def _op_not(self, index: int, step) -> bool:
        dst = step.instruction.operands[0]
        if type(dst) is not Reg or dst.size != 8:
            return False
        d = self.reg(dst.reg)
        self.emit(f"{d} = (~{d}) & {_M_LIT}")
        return True

    def _op_shift(self, index: int, step) -> bool:
        """Shifts with register destinations of every width, by immediate or
        by a count register (the ``shl reg, cl`` shape ROP chains lean on).

        x86 semantics emitted inline: the count is masked by the operand
        width (6 bits for 64-bit operands, 5 otherwise), a masked count of
        zero touches neither flags nor destination, and OF is defined for
        1-bit shifts only (SHL: CF ^ MSB(result); SHR: MSB(original);
        SAR: 0) with wider counts pinned at 0 in every tier.
        """
        dst, src = step.instruction.operands
        if type(dst) is not Reg:
            return False
        size = dst.size
        bits = BIT_WIDTHS[size]
        mask = SIZE_MASKS[size]
        sign = SIGN_BITS[size]
        wmask = 0x3F if size == 8 else 0x1F
        mnemonic = step.instruction.mnemonic
        scls = type(src)
        if scls is Imm:
            amount = (src.value & SIZE_MASKS[src.size]) & wmask
            if amount == 0:
                # masked zero count: the whole instruction folds away
                return True
            self.emit(f"v = {self.reg_value(dst)}")
            one = amount == 1
            if mnemonic is Mnemonic.SHL:
                if amount <= bits:
                    self.emit(f"res = (v << {amount}) & {mask:#x}")
                    self.emit(f"cf = (v >> {bits - amount}) & 1")
                else:  # every bit (and the last carry) shifted out
                    self.emit("res = 0")
                    self.emit("cf = 0")
                self.emit(f"of = cf ^ (res >> {bits - 1})" if one else "of = 0")
            elif mnemonic is Mnemonic.SHR:
                self.emit(f"res = v >> {amount}")
                self.emit(f"cf = (v >> {amount - 1}) & 1")
                self.emit(f"of = v >> {bits - 1}" if one else "of = 0")
            else:  # SAR: shift the signed value (sign bits fill from above)
                self.emit(f"s = v - ((v & {sign:#x}) << 1)")
                self.emit(f"res = (s >> {amount}) & {mask:#x}")
                self.emit(f"cf = (s >> {amount - 1}) & 1")
                self.emit("of = 0")
            self.flags_zs(size)
            self.write_reg_result(dst)
            return True
        if scls is not Reg:
            return False
        # dynamic count: read the count register first (it may also be the
        # destination), then guard the whole update on a nonzero count
        self.emit(f"c = {self.reg(src.reg)} & {wmask}")
        self.emit("if c:")
        self.emit(f"    v = {self.reg_value(dst)}")
        if mnemonic is Mnemonic.SHL:
            if wmask >= bits:  # 1/2-byte operands: counts can exceed width
                self.emit(f"    if c <= {bits}:")
                self.emit(f"        res = (v << c) & {mask:#x}")
                self.emit(f"        cf = (v >> ({bits} - c)) & 1")
                self.emit("    else:")
                self.emit("        res = 0")
                self.emit("        cf = 0")
            else:
                self.emit(f"    res = (v << c) & {mask:#x}")
                self.emit(f"    cf = (v >> ({bits} - c)) & 1")
            self.emit(f"    of = cf ^ (res >> {bits - 1}) if c == 1 else 0")
        elif mnemonic is Mnemonic.SHR:
            self.emit("    res = v >> c")
            self.emit("    cf = (v >> (c - 1)) & 1")
            self.emit(f"    of = v >> {bits - 1} if c == 1 else 0")
        else:
            self.emit(f"    s = v - ((v & {sign:#x}) << 1)")
            self.emit(f"    res = (s >> c) & {mask:#x}")
            self.emit("    cf = (s >> (c - 1)) & 1")
            self.emit("    of = 0")
        self.emit("    zf = 1 if res == 0 else 0")
        self.emit(f"    sf = 1 if res & {sign:#x} else 0")
        name = self.reg(dst.reg)
        if size >= 4:
            self.emit(f"    {name} = res")
        else:
            keep = ~mask & _M
            self.emit(f"    {name} = ({name} & {keep}) | res")
        return True

    def _op_imul(self, index: int, step) -> bool:
        operands = step.instruction.operands
        if len(operands) != 2:
            return False
        dst, src = operands
        if type(dst) is not Reg or dst.size != 8:
            return False
        if type(src) is Imm:
            sb = str(_signed64(src.value & SIZE_MASKS[src.size]))
        elif type(src) is Reg and src.size == 8:
            s = self.reg(src.reg)
            sb = f"({s} - (({s} & {_H_LIT}) << 1))"
        else:
            return False
        d = self.reg(dst.reg)
        self.emit(f"a = {d}")
        self.emit(f"t = (a - ((a & {_H_LIT}) << 1)) * {sb}")
        self.emit(f"res = t & {_M_LIT}")
        self.emit(f"cf = 0 if -{_H_LIT} <= t < {_H_LIT} else 1")
        self.emit("of = cf")
        self.flags_zs()
        self.emit(f"{d} = res")
        return True

    def _op_xchg(self, index: int, step) -> bool:
        """Register/register and register/memory exchanges in either
        operand order, in the handler's order: read both, write the first,
        then the second (a memory address is re-derived at the store, after
        a register write), and the SMC check after a store."""
        first, second = step.instruction.operands
        kinds = (type(first), type(second))
        if Imm in kinds or kinds == (Mem, Mem):
            return False
        self.emit(f"a = {self.load(index, first)}")
        self.emit(f"b = {self.load(index, second)}")
        self.store(first, "b", second.size)
        self.store(second, "a", first.size)
        if Mem in kinds:
            self.gen_check(index, step.post)
        return True

    def _op_idiv(self, index: int, step) -> bool:
        """Signed RAX / divisor, truncated toward zero in exact integer
        arithmetic.  A zero divisor and ``INT64_MIN / -1`` raise the
        single-step fault; ``n`` routes it through the ``_PST`` repair."""
        divisor = step.instruction.operands[0]
        if type(divisor) is not Mem:
            self.emit(f"n = {index}")
        self.emit(f"d = {self.load(index, divisor)}")
        rax, rdx = self.reg(Register.RAX), self.reg(Register.RDX)
        self.emit("if not d:")
        self.emit("    raise _EE('integer division by zero')")
        self.emit(f"d -= (d & {_H_LIT}) << 1")
        self.emit(f"a = {rax} - (({rax} & {_H_LIT}) << 1)")
        self.emit("q = abs(a) // abs(d)")
        self.emit("if (a < 0) != (d < 0):")
        self.emit("    q = -q")
        self.emit(f"if q == {_H_LIT}:")
        self.emit("    raise _EE('integer division overflow')")
        self.emit(f"{rax} = q & {_M_LIT}")
        self.emit(f"{rdx} = (a - q * d) & {_M_LIT}")
        return True

    def _op_cmov(self, index: int, step) -> bool:
        dst, src = step.instruction.operands
        if type(dst) is not Reg or dst.size != 8 \
                or type(src) is not Reg or src.size != 8:
            return False
        condition = _COND_EXPR[step.instruction.condition]
        d, s = self.reg(dst.reg), self.reg(src.reg)
        self.emit(f"if {condition}:")
        self.emit(f"    {d} = {s}")
        return True

    def _op_set(self, index: int, step) -> bool:
        dst = step.instruction.operands[0]
        if type(dst) is not Reg:
            return False
        condition = _COND_EXPR[step.instruction.condition]
        d = self.reg(dst.reg)
        if dst.size >= 4:
            self.emit(f"{d} = 1 if {condition} else 0")
        else:
            keep = ~SIZE_MASKS[dst.size] & _M
            self.emit(f"{d} = ({d} & {keep}) | (1 if {condition} else 0)")
        return True

    def _op_leave(self, index: int, step) -> bool:
        rsp, rbp = self.reg(Register.RSP), self.reg(Register.RBP)
        self.emit(f"{rsp} = {rbp}")
        self.emit(f"rsp = {rsp}")
        self.stack_load("rsp", "v", index)
        self.emit(f"{rsp} = (rsp + 8) & {_M_LIT}")
        self.emit(f"{rbp} = v")
        return True

    # -- control-flow / special step kinds --------------------------------------
    def emit_step(self, index: int, step) -> None:
        kind = step.kind
        if kind == "op":
            if not self.emit_op(index, step):
                raise ValueError(f"no native emitter for {step.instruction}")
            return
        if kind == "jmp_fused":
            return
        if kind == "ret_guard":
            rsp = self.reg(Register.RSP)
            self.emit(f"rsp = {rsp}")
            self.stack_load("rsp", "t", index)
            self.emit(f"{rsp} = (rsp + 8) & {_M_LIT}")
            self.emit(f"if t != {step.target}:")
            self.emit("    _S.rip = t")
            self.early_exit(index + 1)
            return
        if kind == "ret_final":
            rsp = self.reg(Register.RSP)
            self.emit(f"rsp = {rsp}")
            self.stack_load("rsp", "t", index)
            self.emit(f"{rsp} = (rsp + 8) & {_M_LIT}")
            self.emit("_S.rip = t")
            self.emit("break")
            return
        if kind == "call_fused" or kind == "call_term":
            rsp = self.reg(Register.RSP)
            self.emit(f"n = {index}")
            self.emit(f"rsp = ({rsp} - 8) & {_M_LIT}")
            self.emit(f"{rsp} = rsp")
            self.emit(f"_WQ(rsp, {step.post})")
            if kind == "call_fused":
                self.gen_check(index, step.target)
            else:
                self.emit(f"_S.rip = {step.target}")
                self.emit("break")
            return
        if kind == "jmp_imm":
            self.emit(f"_S.rip = {step.target}")
            self.emit("break")
            return
        if kind == "jcc_imm":
            condition = _COND_EXPR[step.instruction.condition]
            self.emit(f"_S.rip = {step.target} if {condition} else {step.post}")
            self.emit("break")
            return
        if kind == "jmp_ind":
            target = self.load(index, step.instruction.operands[0])
            if step.instruction.mnemonic is Mnemonic.JCC:
                condition = _COND_EXPR[step.instruction.condition]
                target = f"{target} if {condition} else {step.post}"
            self.emit(f"_S.rip = {target}")
            self.emit("break")
            return
        if kind == "call_ind":
            # the target is read before the push, as the handler does
            self.emit(f"t = {self.load(index, step.instruction.operands[0])}")
            rsp = self.reg(Register.RSP)
            self.emit(f"n = {index}")
            self.emit(f"rsp = ({rsp} - 8) & {_M_LIT}")
            self.emit(f"{rsp} = rsp")
            self.emit(f"_WQ(rsp, {step.post})")
            self.emit("_S.rip = t")
            self.emit("break")
            return
        if kind == "hlt":
            self.emit(f"_S.rip = {step.post}")
            self.emit("_E.halted = True")
            self.emit("break")
            return
        raise ValueError(f"unknown trace step kind {kind!r}")

    # -- assembly ---------------------------------------------------------------
    def _writeback_lines(self) -> List[str]:
        lines = [f"_R[_K_{reg.name}] = r_{reg.name.lower()}"
                 for reg in sorted(self.hoisted)]
        lines.extend(_FLAG_STORES)
        return lines

    def source(self) -> str:
        trace = self.trace
        for index, step in enumerate(trace.steps):
            self.emit_step(index, step)
        if trace.final_rip is not None:
            self.emit(f"_S.rip = {trace.final_rip}")
            self.emit("break")

        writeback = self._writeback_lines()
        parameters = ["_S=_S", "_R=_R", "_E=_E", "_RD=_RD", "_WR=_WR",
                      "_RQ=_RQ", "_WQ=_WQ", "_RGN=_RGN", "_STK=_STK",
                      "_UQ=_UQ", "_EE=_EE", "_ME=_ME", "_PST=_PST"]
        parameters += [f"_K_{reg.name}=_K_{reg.name}"
                       for reg in sorted(self.hoisted)]

        prologue = ["def _trace(" + ", ".join(parameters) + "):"]
        prologue += ["    " + entry for entry in _FLAG_LOADS]
        prologue += [f"    r_{reg.name.lower()} = _R[_K_{reg.name}]"
                     for reg in sorted(self.hoisted)]
        prologue += ["    n = 0",
                     f"    ex = {trace.length}",
                     "    try:",
                     "        while True:"]

        repair = []
        for exception, raise_lines in ((" _ME as exc",
                                        ["raise _EE(str(exc)) from exc"]),
                                       (" _EE", ["raise"])):
            repair.append(f"    except{exception}:")
            repair.extend("        " + entry for entry in writeback)
            repair.append("        _E.steps += n")
            repair.append("        _S.rip = _PST[n]")
            repair.extend("        " + entry for entry in raise_lines)

        tail = ["    " + entry for entry in writeback]
        tail += ["    _E.steps += ex", "    return"]

        return "\n".join(prologue + self.lines + repair + tail) + "\n"


def compile_trace(emulator, trace) -> Optional[object]:
    """Compile ``trace`` to an exec'd Python function, or None to decline.

    Declines when a step has no native emitter for its shape (the trace
    then keeps its single-step warm-up path).
    """
    generator = _Codegen(trace, emulator)
    try:
        source = generator.source()
    # lint: allow-broad-except — any failure to *generate* source is a
    # decline, not an error: the trace keeps its single-step warm-up path,
    # which is always correct.  KeyboardInterrupt/SystemExit still pass.
    except Exception:
        return None
    namespace = {
        "_S": emulator.state,
        "_R": emulator.state.regs,
        "_E": emulator,
        "_RD": emulator.memory.read_int,
        "_WR": emulator.memory.write_int,
        "_RQ": emulator.memory.read_qword,
        "_WQ": emulator.memory.write_qword,
        "_RGN": trace.region,
        "_STK": trace.stack_region,
        "_UQ": _UNPACK_QWORD,
        "_EE": EmulationError,
        "_ME": MemoryError_,
        "_PST": tuple(step.post for step in trace.steps),
    }
    for register in generator.hoisted:
        namespace[f"_K_{register.name}"] = register
    try:
        code = compile(source, f"<trace@{trace.entry:#x}>", "exec")
        exec(code, namespace)
    except SyntaxError:  # codegen bug: keep the single-step warm-up path
        return None
    function = namespace["_trace"]
    function.__source__ = source  # debugging: dump what actually runs
    return function


# -- semantic-contract registration -------------------------------------------
# The compiled tier's coverage (see repro.cpu.semantics): it covers every
# mnemonic and declines none.  Covered mnemonics name the emitter method(s)
# whose *emitted* flag assignments must match the contract
# (flag_style="emitted": the checker parses the source-text string literals
# passed to emit()).  Empty entries are emitted inline by emit_op (CQO, NOP)
# or by the terminal-step machinery in emit_step (control flow).  A step
# shape no emitter covers declines its whole trace, which then keeps its
# single-step warm-up path.
_semantics.register_tier(
    "codegen", __name__,
    covered={
        Mnemonic.MOV: "_op_mov",
        Mnemonic.MOVZX: "_op_mov",
        Mnemonic.MOVSX: "_op_movsx",
        Mnemonic.ADD: ("_op_alu", "_op_alu_mem"),
        Mnemonic.SUB: ("_op_alu", "_op_alu_mem"),
        Mnemonic.CMP: ("_op_alu", "_op_alu_mem"),
        Mnemonic.AND: ("_op_alu", "_op_alu_mem"),
        Mnemonic.OR: ("_op_alu", "_op_alu_mem"),
        Mnemonic.XOR: ("_op_alu", "_op_alu_mem"),
        Mnemonic.TEST: ("_op_alu", "_op_alu_mem"),
        Mnemonic.ADC: "_op_adc_sbb",
        Mnemonic.SBB: "_op_adc_sbb",
        Mnemonic.POP: "_op_pop",
        Mnemonic.PUSH: "_op_push",
        Mnemonic.LEA: "_op_lea",
        Mnemonic.INC: "_op_incdec",
        Mnemonic.DEC: "_op_incdec",
        Mnemonic.NEG: "_op_neg",
        Mnemonic.NOT: "_op_not",
        Mnemonic.SHL: "_op_shift",
        Mnemonic.SHR: "_op_shift",
        Mnemonic.SAR: "_op_shift",
        Mnemonic.IMUL: "_op_imul",
        Mnemonic.IDIV: "_op_idiv",
        Mnemonic.XCHG: "_op_xchg",
        Mnemonic.CMOV: "_op_cmov",
        Mnemonic.SET: "_op_set",
        Mnemonic.CQO: None,
        Mnemonic.LEAVE: "_op_leave",
        Mnemonic.NOP: None,
        Mnemonic.JMP: None,
        Mnemonic.JCC: None,
        Mnemonic.CALL: None,
        Mnemonic.RET: None,
        Mnemonic.HLT: None,
    },
    declined=(),
    flag_style="emitted")
