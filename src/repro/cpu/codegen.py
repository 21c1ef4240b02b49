"""Exec-compiled superinstructions: the trace-to-Python-source JIT tier.

This module takes the *recorded* form of a trace (:class:`repro.cpu.trace.
TraceStep`) and emits one Python function per trace as source text, compiled
once with :func:`compile`/``exec`` and cached on the :class:`~repro.cpu.
trace.Trace` object (so it keys on the trace's region write generation —
self-modifying and ROP-materialized code invalidates it like a decode-cache
entry).

What the generated source buys over single-step dispatch:

* **No per-instruction dispatch.**  The whole trace is one code object: no
  address probe, generation check, budget check or step call between
  fused instructions.
* **Registers and flags live in locals.**  The registers a trace touches are
  hoisted into local variables on entry and written back at the single
  shared exit, so the hot ALU/stack ops are ``LOAD_FAST``/``STORE_FAST``
  instead of dict and attribute traffic.
* **Operands are constant-folded.**  Immediates, size masks, sign-extension
  constants, effective-address arithmetic, peeked ``ret`` targets and region
  generations are baked into the expressions as literals.
* **Stack traffic against a window checked once.**  The trace builder
  records ``rsp``'s offset from the trace entry on every step while it is
  statically known.  At such an offset a pop, a ``ret`` guard or an exit
  ``ret`` is one constant-offset load from the stack region's bytes,
  ``_UQ(_STK.data, o + d)[0]`` through a pinned
  ``struct.Struct("<Q").unpack_from``, followed by ``r_rsp = o + <const>``,
  where ``o`` is the entry ``rsp``'s offset into the region.  The
  prologue tests once that ``o`` keeps the lowest and highest of these
  offsets inside the region; when it does not, the function returns True
  before touching any state and the run loop single-steps the instruction
  (:attr:`~repro.cpu.emulator.JitStats.window_misses`).  Such a load
  cannot fault and leaves ``rsp`` exact, so early exits and fault repair
  see single-step's state.  Loads at unknown offsets (after ``leave``,
  ``pop rsp`` or a computed write of ``rsp``) test their bounds one by
  one.  Other qword traffic binds the stable
  :meth:`repro.memory.Memory.read_qword` /
  :meth:`~repro.memory.Memory.write_qword` accessors.

The generated function is shaped as one ``while True`` block whose ``break``
statements converge on a single register/flag writeback tail (early exits —
failed ret guards, mid-trace self-modification — set the executed-step count
``ex`` first); the one fault handler writes back too.  ``compile()`` is
still the cold cost of a trace: over one round of the end-to-end
``overhead`` workload (~1,390 traces, a 2-CPU x86-64 container) it took
~1.7 ms per trace with the per-load bounds test on every pop and ``ret``
(244 source lines per trace) and ~1.2 ms with the window (150 lines).  A
trace ends on its ``exit`` step: the control transfer, emitted by the same
emitter as any other instruction, then the ``break``.

Semantics are bit-for-bit those of single-step dispatch: fused ``ret``
guards, mid-trace self-modification checks after every store, and fault
repair (``rip`` and ``steps`` exactly as single-stepping would have left
them) are all emitted inline.  Every step is native code.  Each of the 35
mnemonics has one emitter (:data:`_EMITTERS`; control flow's is
:meth:`_Codegen._op_control`), written in the reference handler's
(:mod:`repro.cpu.reference`) order: load the destination, load the
source, set the flags, then store or fault.  The shared operand helpers
tell the operand shapes apart: immediates and masks fold into literals, a
memory read-modify-write binds its address once, an immediate shift count
is folded (a masked zero count emits no update), and ``n``, the fault
repair's step index, is set only before a line that can fault.  So every
decodable shape, register, immediate or memory at any width, runs the same
emitter as the common ones.  :func:`compile_trace` declines a trace whose
source cannot be generated, and that trace keeps its single-step warm-up
path.

The same emitters build the one-instruction steps every run mode executes
(single-step, trace warm-up and the hooked loop): :func:`compile_step`
compiles one function per distinct instruction and hook fast path (see
:class:`_StepCodegen`).  A hooked step inlines its
:class:`GuardedTransfer`'s concrete guard and kill effects ahead of the
semantics and calls the transfer only when the guard fails.

The generated function is self-contained: it advances ``emulator.steps``,
installs the final ``rip`` and re-raises faults as
:class:`~repro.cpu.state.EmulationError` itself, so executing a compiled
trace from the run loop is a single call, whose result is True only on a
window miss.
"""

from __future__ import annotations

import re
import struct
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.cpu import semantics as _semantics
from repro.cpu.state import BIT_WIDTHS, EmulationError, SIGN_BITS, SIZE_MASKS
from repro.cpu.trace import TraceStep
from repro.isa.effects import ARITY
from repro.isa.instructions import Mnemonic
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import Register
from repro.memory import MemoryError_

_M = (1 << 64) - 1

#: Literal spellings of the hot constants, so the generated source stays
#: readable when dumped for debugging.
_M_LIT = "0xFFFFFFFFFFFFFFFF"
_H_LIT = "0x8000000000000000"

#: Allocation-free little-endian qword load (bounds are checked by the
#: emitted code, once per trace or per load, so the struct error path
#: never triggers).
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

#: The logic ALU mnemonics' Python operators.
_ALU_SYMBOL = {Mnemonic.AND: "&", Mnemonic.OR: "|", Mnemonic.XOR: "^",
               Mnemonic.TEST: "&"}

_FLAG_LOADS = ["cf = _S.cf", "zf = _S.zf", "sf = _S.sf", "of = _S.of"]
_FLAG_STORES = ["_S.cf = cf", "_S.zf = zf", "_S.sf = sf", "_S.of = of"]


#: Literal spellings of each operand width's mask and sign bit.
_MASK_LIT = {size: _M_LIT if size == 8 else hex(SIZE_MASKS[size])
             for size in SIZE_MASKS}
_SIGN_LIT = {size: _H_LIT if size == 8 else hex(SIGN_BITS[size])
             for size in SIGN_BITS}


def _signed(value: str, size: int) -> str:
    """Expression of ``to_signed(value, size)`` for an expression already
    masked to ``size`` bytes."""
    return f"({value} - (({value} & {_SIGN_LIT[size]}) << 1))"


#: Mnemonic -> the :class:`_Codegen` method that emits it.  It is both
#: :meth:`_Codegen.emit_op`'s dispatch and the codegen tier's coverage, so
#: the contract lint checks the method that runs.
_EMITTERS: Dict[Mnemonic, str] = {
    Mnemonic.MOV: "_op_mov",
    Mnemonic.MOVZX: "_op_mov",
    Mnemonic.MOVSX: "_op_movsx",
    Mnemonic.ADD: "_op_alu",
    Mnemonic.ADC: "_op_alu",
    Mnemonic.SUB: "_op_alu",
    Mnemonic.SBB: "_op_alu",
    Mnemonic.CMP: "_op_alu",
    Mnemonic.AND: "_op_alu",
    Mnemonic.OR: "_op_alu",
    Mnemonic.XOR: "_op_alu",
    Mnemonic.TEST: "_op_alu",
    Mnemonic.INC: "_op_unary",
    Mnemonic.DEC: "_op_unary",
    Mnemonic.NEG: "_op_unary",
    Mnemonic.NOT: "_op_not",
    Mnemonic.SHL: "_op_shift",
    Mnemonic.SHR: "_op_shift",
    Mnemonic.SAR: "_op_shift",
    Mnemonic.IMUL: "_op_imul",
    Mnemonic.IDIV: "_op_idiv",
    Mnemonic.XCHG: "_op_xchg",
    Mnemonic.LEA: "_op_lea",
    Mnemonic.POP: "_op_pop",
    Mnemonic.PUSH: "_op_push",
    Mnemonic.LEAVE: "_op_leave",
    Mnemonic.CMOV: "_op_cmov",
    Mnemonic.SET: "_op_set",
    Mnemonic.CQO: "_op_cqo",
    Mnemonic.NOP: "_op_nop",
    Mnemonic.RET: "_op_control",
    Mnemonic.JMP: "_op_control",
    Mnemonic.JCC: "_op_control",
    Mnemonic.CALL: "_op_control",
    Mnemonic.HLT: "_op_control",
}


class _Codegen:
    """Builds the source of one trace function.

    Each mnemonic has one emitter, written in the reference handler's
    order: load the destination, load the source, set the flags, then
    store or fault.  The operand shapes are told apart by the shared
    helpers (:meth:`load`, :meth:`_load_at`, :meth:`rhs`, :meth:`store`),
    which fold immediates and masks into literals where the shape allows.
    """

    #: Whether ``_S.rip`` already holds the fall-through ``post`` when an
    #: instruction's semantics start: a step installs it first, a trace
    #: does not.
    rip_holds_post = False

    def __init__(self, trace) -> None:
        self.trace = trace
        self.lines: List[str] = []
        self.hoisted: Set[Register] = set()
        #: extra indentation of emitted lines (see :meth:`nested`)
        self.indent = ""
        #: the step whose index ``n`` holds on every path to the next
        #: emitted line (see :meth:`fault_index`)
        self.faulted: Optional[int] = None
        #: the memory operand whose address ``p`` holds (see
        #: :meth:`load_rmw`)
        self.bound: Optional[Mem] = None
        #: the ``rsp`` offsets the trace pops from inside its stack window
        #: (see :meth:`pop`)
        self.window: Set[int] = set()

    # -- small emission helpers -------------------------------------------------
    def reg(self, register: Register) -> str:
        """Local variable name of a hoisted register."""
        self.hoisted.add(register)
        return f"r_{register.name.lower()}"

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    @contextmanager
    def nested(self):
        """Emit the enclosed lines one block deeper (an ``if`` body)."""
        self.indent += "    "
        faulted = self.faulted
        try:
            yield
        finally:
            self.indent = self.indent[:-4]
            # an ``n`` set inside the block is unset on the path around it
            self.faulted = faulted

    def fault_index(self, index: int) -> None:
        """Set ``n = index`` before the first line of step ``index`` that
        can fault, so the fault repair reports this step; once per step."""
        if self.faulted != index:
            self.emit(f"n = {index}")
            self.faulted = index

    def ea(self, operand: Mem) -> str:
        """Effective-address expression (mirrors
        :meth:`repro.cpu.emulator.Emulator.effective_address`)."""
        if operand is self.bound:
            return "p"
        base, index, scale, disp = (operand.base, operand.index,
                                    operand.scale, operand.disp)
        if index is None:
            if base is None:
                return str(disp & _M)
            if not disp:
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
        """Qword stack load at an ``rsp`` of unknown offset (pop/ret): a
        bounds test per load, the generic memory path behind it."""
        stack = self.trace.stack_region
        self.fault_index(index)
        if stack is None:
            self.emit(f"{result_var} = _RQ({address_var})")
            return
        self.emit(f"off = {address_var} - {stack.start}")
        self.emit(f"if 0 <= off <= {len(stack.data) - 8}:")
        self.emit(f"    {result_var} = _UQ(_STK.data, off)[0]")
        self.emit("else:")
        self.emit(f"    {result_var} = _RQ({address_var})")

    def in_window(self, delta: Optional[int]) -> bool:
        """Whether a qword at ``rsp`` offset ``delta`` from the trace entry
        lay inside the stack region when the trace was built."""
        trace = self.trace
        return delta is not None and trace.stack_region is not None \
            and 0 <= trace.stack_offset + delta \
            <= len(trace.stack_region.data) - 8

    def pop(self, index: int, result_var: str, delta: Optional[int]) -> None:
        """Pop a qword into ``result_var`` (the stack load, then ``rsp``).

        ``delta`` is ``rsp``'s offset from the trace entry, or None when it
        is unknown.  A known offset :meth:`in_window` reads the stack
        region at ``o + delta``, where ``o`` is the entry ``rsp``'s offset
        into it, which the prologue has checked keeps every such read
        inside the region: the load cannot fault, and ``rsp`` follows from
        ``o``.  The region's ``data`` is read live, because a store may
        have detached it from a copy-on-write snapshot."""
        rsp = self.reg(Register.RSP)
        if self.in_window(delta):
            self.window.add(delta)
            offset = f"o + {delta}" if delta > 0 \
                else f"o - {-delta}" if delta else "o"
            self.emit(f"{result_var} = _UQ(_STK.data, {offset})[0]")
            self.emit(f"{rsp} = o + "
                      f"{self.trace.stack_region.start + delta + 8}")
            return
        self.emit(f"rsp = {rsp}")
        self.stack_load("rsp", result_var, index)
        self.emit(f"{rsp} = (rsp + 8) & {_M_LIT}")

    def push(self, index: int, value: str) -> None:
        """Push ``value``: ``rsp`` moves first, as in the handler, so a
        faulting store leaves it moved."""
        rsp = self.reg(Register.RSP)
        self.fault_index(index)
        self.emit(f"rsp = ({rsp} - 8) & {_M_LIT}")
        self.emit(f"{rsp} = rsp")
        self.emit(f"_WQ(rsp, {value})")

    def flags_zs(self, size: int = 8) -> None:
        self.emit("zf = 1 if res == 0 else 0")
        self.emit(f"sf = 1 if res & {_SIGN_LIT[size]} else 0")

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

    # -- operand loads and stores -----------------------------------------------
    def load(self, index: int, operand) -> str:
        """Expression of ``read_operand(operand)``: the unsigned value at
        the operand's width.  A memory load sets ``n`` first."""
        cls = type(operand)
        if cls is Reg:
            return self.reg_value(operand)
        if cls is Imm:
            return str(operand.value & SIZE_MASKS[operand.size])
        self.fault_index(index)
        if operand.size == 8:
            return f"_RQ({self.ea(operand)})"
        return f"_RD({self.ea(operand)}, {operand.size})"

    def load_rmw(self, index: int, operand) -> str:
        """:meth:`load` of a read-modify-write destination: a memory
        operand's address is bound once, as ``p``, for the store too."""
        if type(operand) is Mem:
            self.emit(f"p = {self.ea(operand)}")
            self.bound = operand
        return self.load(index, operand)

    def _load_at(self, index: int, operand, mask: int) -> str:
        """``read_operand(operand) & mask``: an immediate folds to a
        literal, a register or memory operand wider than ``mask`` is
        masked, and a narrower one loads as it is."""
        cls = type(operand)
        if cls is Imm:
            return str(operand.value & SIZE_MASKS[operand.size] & mask)
        if mask >= SIZE_MASKS[operand.size]:
            return self.load(index, operand)
        if cls is Reg:
            return f"{self.reg(operand.reg)} & {mask:#x}"
        return f"({self.load(index, operand)}) & {mask:#x}"

    def bind(self, name: str, value: str) -> str:
        """``value`` as an operand of the lines that follow: a trace's
        register local is used as it is, anything else is bound once, as
        ``name``.  (A step's registers are dict subscripts, so they bind.)"""
        if value.isidentifier():
            return value
        self.emit(f"{name} = {value}")
        return name

    def rhs(self, index: int, operand, size: int) -> Tuple[str, str]:
        """``(b, sb)``: the unsigned and signed expressions of a source
        operand read at ``size`` bytes.  An immediate folds to literals and
        a register's local is used as it is; any other load is bound once,
        as ``b``."""
        value = self._load_at(index, operand, SIZE_MASKS[size])
        if type(operand) is Imm:
            number = int(value)
            return value, str(number - ((number & SIGN_BITS[size]) << 1))
        value = self.bind("b", value)
        return value, _signed(value, size)

    def store(self, index: int, operand, expr: str, width: int,
              post: Optional[int] = None) -> None:
        """Emit ``write_operand(operand, expr)`` for a value of at most
        ``width`` bytes: a register write masks to the register's width and
        a memory store to its own.  A memory store is followed by the SMC
        check resuming at ``post`` (None: the caller checks).  An immediate
        destination raises ``write_operand``'s fault after the value is
        computed, so a load in ``expr`` faults first, as in the handler."""
        cls = type(operand)
        if cls is Reg:
            if width > operand.size:
                expr = f"({expr}) & {SIZE_MASKS[operand.size]:#x}"
            self.write_reg_result(operand, expr)
            return
        self.fault_index(index)
        if cls is Imm:
            self.emit(f"v = {expr}")
            message = f"cannot write operand {operand!r}"
            self.emit(f"raise _EE({message!r})")
            return
        if operand.size == 8:
            self.emit(f"_WQ({self.ea(operand)}, {expr})")
        else:
            self.emit(f"_WR({self.ea(operand)}, {expr}, {operand.size})")
        if post is not None:
            self.gen_check(index, post)

    # -- one emitter per mnemonic family ----------------------------------------
    def emit_op(self, index: int, step) -> None:
        """Emit native source for one ``"op"`` step through its mnemonic's
        emitter (:data:`_EMITTERS`)."""
        instruction = step.instruction
        trimmed = _semantics.trim_operands(instruction)
        if trimmed is not instruction:
            step = TraceStep(step.kind, step.address, trimmed, step.post,
                             step.target, step.rsp)
        getattr(self, _EMITTERS[instruction.mnemonic])(index, step)

    def _op_mov(self, index: int, step) -> None:
        """``mov``/``movzx``: the source, masked to a register
        destination's width (memory stores mask themselves)."""
        dst, src = step.instruction.operands
        width = dst.size if type(dst) is Reg else 8
        self.store(index, dst, self._load_at(index, src, SIZE_MASKS[width]),
                   width, step.post)

    def _op_movsx(self, index: int, step) -> None:
        """The source sign-extended to 64 bits, then stored."""
        dst, src = step.instruction.operands
        size = src.size
        self.emit(f"v = {self.load(index, src)}")
        value = "v"
        if size < 8:
            value = (f"((v - {1 << (8 * size)}) & {_M_LIT}) "
                     f"if v & {1 << (8 * size - 1)} else v")
        self.store(index, dst, value, 8, step.post)

    def _op_alu(self, index: int, step) -> None:
        """``add``/``adc``/``sub``/``sbb``/``cmp``/``and``/``or``/``xor``/
        ``test`` at the destination's width; ``cmp`` and ``test`` store
        nothing.  ``adc``/``sbb`` add the carry-in to the source."""
        dst, src = step.instruction.operands
        mnemonic = step.instruction.mnemonic
        size = dst.size
        mlit, slit = _MASK_LIT[size], _SIGN_LIT[size]
        a = self.bind("a", self.load_rmw(index, dst))
        b, sb = self.rhs(index, src, size)
        if mnemonic in (Mnemonic.ADC, Mnemonic.SBB):
            self.emit("c = cf")  # the carry-in, read before cf changes
            b, sb = f"({b} + c)", f"({sb} + c)"
        if mnemonic in (Mnemonic.ADD, Mnemonic.ADC):
            self.emit(f"t = {a} + {b}")
            self.emit(f"res = t & {mlit}")
            self.emit(f"cf = 1 if t > {mlit} else 0")
            self.emit(f"st = {_signed(a, size)} + {sb}")
        elif mnemonic in _ALU_SYMBOL:
            self.emit(f"res = {a} {_ALU_SYMBOL[mnemonic]} {b}")
            self.emit("cf = 0")
        else:  # SUB, SBB, CMP
            self.emit(f"res = ({a} - {b}) & {mlit}")
            self.emit(f"cf = 1 if {a} < {b} else 0")
            self.emit(f"st = {_signed(a, size)} - {sb}")
        if mnemonic in _ALU_SYMBOL:
            self.emit("of = 0")
        else:
            self.emit(f"of = 1 if st < -{slit} or st >= {slit} else 0")
        self.flags_zs(size)
        if mnemonic not in (Mnemonic.CMP, Mnemonic.TEST):
            self.store(index, dst, "res", size, step.post)

    def _op_unary(self, index: int, step) -> None:
        """``inc``/``dec``/``neg`` at the destination's width (``inc`` and
        ``dec`` leave cf alone)."""
        dst = step.instruction.operands[0]
        mnemonic = step.instruction.mnemonic
        size = dst.size
        mask, sign = SIZE_MASKS[size], SIGN_BITS[size]
        a = self.bind("a", self.load_rmw(index, dst))
        if mnemonic is Mnemonic.INC:
            self.emit(f"res = ({a} + 1) & {mask:#x}")
            # of set on signed overflow (0x7fff.. -> 0x8000..)
            self.emit(f"of = 1 if {a} == {sign - 1:#x} else 0")
        elif mnemonic is Mnemonic.DEC:
            self.emit(f"res = ({a} - 1) & {mask:#x}")
            self.emit(f"of = 1 if {a} == {sign:#x} else 0")
        else:
            self.emit(f"res = (-{a}) & {mask:#x}")
            self.emit(f"cf = 1 if {a} else 0")
            self.emit(f"of = 1 if {a} == {sign:#x} else 0")
        self.flags_zs(size)
        self.store(index, dst, "res", size, step.post)

    def _op_not(self, index: int, step) -> None:
        dst = step.instruction.operands[0]
        value = self.load_rmw(index, dst)
        self.store(index, dst, f"(~{value}) & {SIZE_MASKS[dst.size]:#x}",
                   dst.size, step.post)

    def _op_shift(self, index: int, step) -> None:
        """``shl``/``shr``/``sar`` at the destination's width, by an
        immediate count (folded when emitted) or a register or memory one.

        x86 semantics emitted inline: the count is masked by the operand
        width (6 bits for 64-bit operands, 5 otherwise), a masked count of
        zero touches neither flags nor destination, and OF is defined for
        1-bit shifts only (SHL: CF ^ MSB(result); SHR: MSB(original);
        SAR: 0) with wider counts pinned at 0 in every tier.
        """
        dst, src = step.instruction.operands
        size = dst.size
        bits = BIT_WIDTHS[size]
        mask, sign = SIZE_MASKS[size], SIGN_BITS[size]
        wmask = 0x3F if size == 8 else 0x1F
        mnemonic = step.instruction.mnemonic
        value = self.load_rmw(index, dst)
        if type(src) is Imm:
            amount = (src.value & SIZE_MASKS[src.size]) & wmask
            if amount == 0:
                # masked zero count: neither flags nor the destination
                # change, but a memory destination is read (and may fault)
                if type(dst) is Mem:
                    self.emit(f"v = {value}")
                return
            self.emit(f"v = {value}")
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
            self.store(index, dst, "res", size, step.post)
            return
        # a count in a register or memory: the update runs under a nonzero
        # masked count only
        self.emit(f"v = {value}")
        self.emit(f"c = {self._load_at(index, src, wmask)}")
        self.emit("if c:")
        with self.nested():
            if mnemonic is Mnemonic.SHL:
                self.emit(f"res = (v << c) & {mask:#x}")
                if wmask >= bits:  # 1/2-byte operands: counts can exceed width
                    self.emit(f"cf = (v >> ({bits} - c)) & 1 "
                              f"if c <= {bits} else 0")
                else:
                    self.emit(f"cf = (v >> ({bits} - c)) & 1")
                self.emit(f"of = cf ^ (res >> {bits - 1}) if c == 1 else 0")
            elif mnemonic is Mnemonic.SHR:
                self.emit("res = v >> c")
                self.emit("cf = (v >> (c - 1)) & 1")
                self.emit(f"of = v >> {bits - 1} if c == 1 else 0")
            else:
                self.emit(f"s = v - ((v & {sign:#x}) << 1)")
                self.emit(f"res = (s >> c) & {mask:#x}")
                self.emit("cf = (s >> (c - 1)) & 1")
                self.emit("of = 0")
            self.flags_zs(size)
            self.store(index, dst, "res", size, step.post)

    def _op_imul(self, index: int, step) -> None:
        """Signed multiply at the destination's width (the source read at
        that width too)."""
        dst, src = step.instruction.operands
        size = dst.size
        slit = _SIGN_LIT[size]
        a = self.bind("a", self.load_rmw(index, dst))
        _, sb = self.rhs(index, src, size)
        self.emit(f"t = {_signed(a, size)} * {sb}")
        self.emit(f"res = t & {_MASK_LIT[size]}")
        self.emit(f"cf = 0 if -{slit} <= t < {slit} else 1")
        self.emit("of = cf")
        self.flags_zs(size)
        self.store(index, dst, "res", size, step.post)

    def _op_xchg(self, index: int, step) -> None:
        """Both operands read, then the memory operand stored at its
        pre-instruction address before the register write (a faulting
        store leaves the register alone), and the SMC check after a
        store."""
        first, second = step.instruction.operands
        self.emit(f"a = {self.load(index, first)}")
        self.emit(f"b = {self.load(index, second)}")
        if type(second) is Mem:
            self.store(index, second, "a", first.size)
            self.store(index, first, "b", second.size)
        else:
            self.store(index, first, "b", second.size)
            self.store(index, second, "a", first.size)
        if Mem in (type(first), type(second)):
            self.gen_check(index, step.post)

    def _op_idiv(self, index: int, step) -> None:
        """Signed RAX / divisor, truncated toward zero in exact integer
        arithmetic.  A zero divisor and ``INT64_MIN / -1`` raise the
        single-step fault; ``n`` routes it through the ``_PST`` repair."""
        self.fault_index(index)
        self.emit(f"d = {self.load(index, step.instruction.operands[0])}")
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

    def _op_lea(self, index: int, step) -> None:
        dst, src = step.instruction.operands
        if type(src) is not Mem:
            self.fault_index(index)
            self.emit("raise _EE('lea requires a memory source')")
            return
        self.store(index, dst, self.ea(src), 8, step.post)

    def _op_pop(self, index: int, step) -> None:
        dst = step.instruction.operands[0]
        if type(dst) is Reg and dst.size == 8 and dst.reg is not Register.RSP:
            # the load lands in the register at once: nothing else reads
            # it before the rsp update
            self.pop(index, self.reg(dst.reg), step.rsp)
            return
        self.pop(index, "v", step.rsp)
        # as in the handler, a memory destination's address is derived
        # from the popped rsp
        self.store(index, dst, "v", 8, step.post)

    def _op_push(self, index: int, step) -> None:
        src = step.instruction.operands[0]
        value = self.load(index, src)
        if type(src) is not Imm:
            # read before the rsp update: ``push rsp`` stores the old value
            self.emit(f"v = {value}")
            value = "v"
        self.push(index, value)
        self.gen_check(index, step.post)

    def _op_leave(self, index: int, step) -> None:
        rsp, rbp = self.reg(Register.RSP), self.reg(Register.RBP)
        self.emit(f"{rsp} = {rbp}")
        self.pop(index, "v", None)  # rsp's offset is rbp's, unknown
        self.emit(f"{rbp} = v")

    def _op_cmov(self, index: int, step) -> None:
        """A ``mov`` under the condition."""
        self.emit(f"if {_COND_EXPR[step.instruction.condition]}:")
        with self.nested():
            self._op_mov(index, step)

    def _op_set(self, index: int, step) -> None:
        condition = _COND_EXPR[step.instruction.condition]
        self.store(index, step.instruction.operands[0],
                   f"(1 if {condition} else 0)", 1, step.post)

    def _op_cqo(self, index: int, step) -> None:
        self.emit(f"{self.reg(Register.RDX)} = {_M_LIT} "
                  f"if {self.reg(Register.RAX)} & {_H_LIT} else 0")

    def _op_nop(self, index: int, step) -> None:
        return

    def _op_control(self, index: int, step) -> None:
        """``ret``/``jmp``/``jcc``/``call``/``hlt``, in the reference
        handlers' order (a ``call`` reads its target before the push).
        ``post`` is stored only where the transfer keeps it, on a not-taken
        ``jcc`` and ``hlt``, and only when ``rip`` does not hold it yet."""
        instruction = step.instruction
        mnemonic = instruction.mnemonic
        if mnemonic is Mnemonic.HLT:
            if not self.rip_holds_post:
                self.emit(f"_S.rip = {step.post}")
            self.emit("_E.halted = True")
            return
        if mnemonic is Mnemonic.RET:
            self.pop(index, "_S.rip", step.rsp)
            return
        operand = instruction.operands[0]
        target = self.load(index, operand)
        if mnemonic is Mnemonic.CALL:
            if type(operand) is not Imm:
                self.emit(f"t = {target}")
                target = "t"
            self.push(index, str(step.post))
        elif mnemonic is Mnemonic.JCC:
            condition = _COND_EXPR[instruction.condition]
            if self.rip_holds_post:
                self.emit(f"if {condition}:")
                self.emit(f"    _S.rip = {target}")
                return
            target = f"{target} if {condition} else {step.post}"
        self.emit(f"_S.rip = {target}")

    # -- trace step kinds -------------------------------------------------------
    def emit_step(self, index: int, step) -> None:
        """Emit one trace step: an ``op``, a transfer the trace fuses
        (``ret_guard``, ``jmp_fused``, ``call_fused``), or the ``exit``
        transfer, which then breaks to the writeback."""
        self.bound = None
        kind = step.kind
        if kind == "ret_guard":
            self.pop(index, "t", step.rsp)
            self.emit(f"if t != {step.target}:")
            self.emit("    _S.rip = t")
            self.early_exit(index + 1)
        elif kind == "call_fused":
            self.push(index, str(step.post))
            self.gen_check(index, step.target)
        elif kind != "jmp_fused":
            self.emit_op(index, step)
            if kind == "exit":
                self.emit("break")

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
        prologue += [f"    r_{reg.name.lower()} = _R[_K_{reg.name}]"
                     for reg in sorted(self.hoisted)]
        if self.window:
            # the stack window: every constant-offset pop reads inside the
            # stack region, or the trace makes no progress
            stack = trace.stack_region
            low = -min(self.window)
            high = len(stack.data) - 8 - max(self.window)
            prologue += [f"    o = r_rsp - {stack.start}",
                         f"    if not {low} <= o <= {high}:",
                         "        return True"]
        prologue += ["    " + entry for entry in _FLAG_LOADS]
        prologue += ["    n = 0",
                     f"    ex = {trace.length}",
                     "    try:",
                     "        while True:"]
        body = ["            " + line for line in self.lines]

        # a fault: write back, repair rip and steps, and raise memory
        # faults as EmulationError
        repair = ["    except (_ME, _EE) as exc:"]
        repair += ["        " + entry for entry in writeback]
        repair += ["        _E.steps += n",
                   "        _S.rip = _PST[n]",
                   "        if isinstance(exc, _EE):",
                   "            raise",
                   "        raise _EE(str(exc)) from exc"]

        tail = ["    " + entry for entry in writeback]
        tail += ["    _E.steps += ex", "    return"]

        return "\n".join(prologue + body + repair + tail) + "\n"


def compile_trace(emulator, trace) -> Optional[object]:
    """Compile ``trace`` to an exec'd Python function, or None to decline.

    The function takes no arguments.  It runs the trace and returns None,
    or returns True having changed nothing when ``rsp`` is outside the
    trace's stack window.  Declines when a step has no native emitter for
    its shape (the trace then keeps its single-step warm-up path).
    """
    generator = _Codegen(trace)
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


# -- hooked-loop steps ---------------------------------------------------------

class FastPath(NamedTuple):
    """A transfer's concrete fast path, as source.

    ``guard`` is a Python expression and ``kill`` the statements (one per
    line, ``""`` for none) to run when it holds.  Both may read the owner
    ``_O``, the emulator ``_E``, the instruction's address ``_A``, the
    emulator's state ``_S`` and register dict ``_R``, and the names bound in
    ``constants`` (sorted ``(name, value)`` pairs).  A name a guard binds
    with ``:=`` starts with ``_g``.
    """

    guard: str
    kill: str
    constants: Tuple[Tuple[str, object], ...]


class GuardedTransfer:
    """A specialized transfer split at its concrete guard.

    ``transfer(owner, emulator, address)`` is called only when the
    :class:`FastPath`'s guard fails.  The run loop splices the fast path
    into the instruction's compiled step (:func:`compile_step`); calling the
    object directly, as a plain hook does, runs a function compiled once
    from the same source.
    """

    __slots__ = ("fast", "transfer", "_plain")

    def __init__(self, guard: str, kill: str, constants: Dict[str, object],
                 transfer: Callable) -> None:
        self.fast = FastPath(guard, kill, tuple(sorted(constants.items())))
        self.transfer = transfer
        self._plain: Optional[Callable] = None

    def __call__(self, owner, emulator, address: int) -> None:
        plain = self._plain
        if plain is None:
            lines = ["def _make(_T):", "    def _hook(_O, _E, _A):"]
            lines += ["        " + line for line in _guarded_lines(self.fast)]
            lines.append("    return _hook")
            source = "\n".join(lines) + "\n"
            namespace = dict(self.fast.constants)
            exec(compile(source, "<guarded transfer>", "exec"), namespace)
            plain = self._plain = namespace["_make"](self.transfer)
            plain.__source__ = source
        plain(owner, emulator, address)


def _guarded_lines(fast: FastPath) -> List[str]:
    """Bind ``_S`` and ``_R``, then run the kill when the guard holds and
    the transfer ``_T`` otherwise."""
    lines = ["_S = _E.state", "_R = _S.regs"]
    if not fast.kill:
        return lines + [f"if not ({fast.guard}):", "    _T(_O, _E, _A)"]
    return lines + [f"if {fast.guard}:",
                    *("    " + line for line in fast.kill.split("\n")),
                    "else:", "    _T(_O, _E, _A)"]


#: A flag name in emitted source.
_FLAG_NAME = re.compile(r"\b(cf|zf|sf|of)\b")
_FLAGS = frozenset(("cf", "zf", "sf", "of"))

#: Emitted memory accessors -> the :class:`repro.memory.Memory` method a
#: step binds for each.
_ACCESSORS = {"_RQ": "read_qword", "_RD": "read_int", "_WQ": "write_qword",
              "_WR": "write_int"}

#: Source fragments of an emitted line that may fault.
_FAULTING = tuple(f"{name}(" for name in _ACCESSORS) + ("raise ",)


class _StepCodegen(_Codegen):
    """Builds the source of one instruction's hooked-loop step.

    The trace emitters run unchanged over a one-instruction shape, with
    four differences.  Registers are read and written in place in the
    emulator's register dict: one instruction touches a register once or
    twice, so hoisting buys nothing, and a fault leaves exactly the writes
    made before it, as the trace tier's writeback does.  Flags live in
    locals, loaded and stored only when the instruction touches them.  A
    fault needs no step index ``n``: it leaves ``rip`` past the instruction
    and ``steps`` unadvanced, with nothing to repair, because the step
    sets ``rip`` to its ``post`` argument first; so a control transfer
    stores only the ``rip`` it jumps to.  A store needs no SMC check,
    because the run loop checks the region generation at the next fetch.
    A :class:`FastPath` goes ahead of the semantics (:func:`_guarded_lines`).
    """

    rip_holds_post = True

    def __init__(self, instruction, fast: Optional[FastPath]) -> None:
        super().__init__(None)
        self.instruction = instruction
        self.fast = fast

    def reg(self, register: Register) -> str:
        self.hoisted.add(register)
        return f"_R[_K_{register.name}]"

    def fault_index(self, index: int) -> None:
        return

    def gen_check(self, index: int, resume_rip: int) -> None:
        return

    def stack_load(self, address_var: str, result_var: str,
                   index: int) -> None:
        self.emit(f"{result_var} = _RQ({address_var})")

    def step_source(self) -> str:
        instruction = self.instruction
        if len(instruction.operands) < ARITY[instruction.mnemonic]:
            # a decode missing an operand its mnemonic needs
            message = f"unimplemented instruction {instruction}"
            self.emit(f"raise _EE({message!r})")
        else:
            # ``post`` is the step's argument of that name
            self.emit_op(0, TraceStep("op", 0, instruction, "post"))
        body = self.lines
        # a flag is loaded when it is read before an unconditional
        # assignment, or assigned only conditionally; it is stored when
        # assigned.  Flags assigned before a possible fault are loaded and
        # stored on the fault path too, so the fault leaves them as the
        # reference handlers do.
        loads: Set[str] = set()
        stores: Set[str] = set()
        settled: Set[str] = set()
        flags_before_fault = False
        for line in body:
            target, equals, value = line.strip().partition(" = ")
            assigned = target if equals and target in _FLAGS else None
            read = value if assigned else line
            loads.update(name for name in _FLAG_NAME.findall(read)
                         if name not in settled)
            if stores and any(token in line for token in _FAULTING):
                flags_before_fault = True
            if assigned:
                stores.add(assigned)
                if not line.startswith(" "):
                    settled.add(assigned)
        loads |= stores - settled
        if flags_before_fault:
            loads |= stores
        text = "\n".join(body)
        accessed = any(f"{name}(" in text for name in _ACCESSORS)
        for name, method in _ACCESSORS.items():
            text = text.replace(f"{name}(", f"_M.{method}(")
        body = text.split("\n")
        flag_stores = [f"_S.{name} = {name}" for name in sorted(stores)]

        lines = ["def _make(_T):",
                 "    def _step(_O, _E, _A, post):"]
        if self.fast is None:
            lines += ["        if _T is not None:",
                      "            _T(_O, _E, _A)",
                      "        _S = _E.state"]
            if self.hoisted:
                lines.append("        _R = _S.regs")
        else:
            lines += ["        " + line for line in _guarded_lines(self.fast)]
        lines.append("        _S.rip = post")
        if accessed:
            lines.append("        _M = _E.memory")
        lines += [f"        {name} = _S.{name}" for name in sorted(loads)]
        # memory faults re-raise as EmulationError; flags assigned before a
        # possible fault are stored on the way out
        repair = ["    " + line for line in flag_stores] \
            if flags_before_fault else []
        handlers = []
        if accessed:
            handlers += ["except _ME as exc:", *repair,
                         "    raise _EE(str(exc)) from exc"]
        if repair and "raise " in text:
            handlers += ["except _EE:", *repair, "    raise"]
        if handlers:
            lines.append("        try:")
            lines += ["            " + line for line in body]
            lines += ["        " + line for line in handlers]
        else:
            lines += ["        " + line for line in body]
        lines += ["        " + line for line in flag_stores]
        lines += ["    return _step"]
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=1 << 14)
def compile_step(instruction, fast: Optional[FastPath] = None
                 ) -> Callable[[Optional[Callable]], Callable]:
    """The step factory of ``instruction``, with ``fast`` spliced in.

    ``compile_step(instruction)(transfer)`` is a function ``step(owner,
    emulator, address, post)`` that calls ``transfer(owner, emulator,
    address)`` when the transfer is not None, sets ``rip`` to ``post`` and
    runs the instruction's concrete semantics, raising
    :class:`~repro.cpu.state.EmulationError` on a fault with ``rip`` left at
    ``post``.  With the :class:`FastPath` of a :class:`GuardedTransfer`,
    ``compile_step(instruction, fast)(transfer)`` runs ``if <guard>:
    <kill> else: transfer(owner, emulator, address)`` in place of that
    call, so an instruction whose guard holds makes no call into its
    transfer.  The factory depends on the instruction and the fast path
    alone, so equal instructions at many addresses, in many images and
    under many engines share one ``compile()``.
    """
    generator = _StepCodegen(instruction, fast)
    source = generator.step_source()
    namespace = {"_EE": EmulationError, "_ME": MemoryError_}
    for register in generator.hoisted:
        namespace[f"_K_{register.name}"] = register
    if fast is not None:
        namespace.update(fast.constants)
    exec(compile(source, f"<step {instruction}>", "exec"), namespace)
    factory = namespace["_make"]
    factory.__source__ = source  # debugging: dump what actually runs
    return factory


# -- semantic-contract registration -------------------------------------------
# The compiled tier's coverage (see repro.cpu.semantics) is the emitter table
# emit_op dispatches on, so the lint checks the *emitted* flag assignments
# of the method that runs (flag_style="emitted": the checker parses the
# source-text string literals passed to emit()).  A trace whose source
# cannot be generated is declined whole, and keeps its single-step warm-up
# path.
_semantics.register_tier("codegen", __name__, covered=_EMITTERS,
                         flag_style="emitted")
