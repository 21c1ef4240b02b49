"""Trace recording and the closure tier of the fused-trace pipeline.

The interpreter's per-instruction dispatch (address probe, generation check,
budget check, handler lookup) dominates ROP workloads, where the ret-to-ret
control flow makes every gadget a fresh dispatch.  This module discovers
straight-line *traces* at execution time and compiles each one into a flat
list of zero-argument closures with the operands already bound — a
superinstruction executed as one unit by :meth:`Emulator._execute_trace`.

Each trace also records its instruction-by-instruction shape as
:class:`TraceStep` entries; once a trace stays hot past the closure-tier
warm-up, :mod:`repro.cpu.codegen` consumes those records to emit the trace
as generated Python source (the exec-compiled third tier).  The closure
tier remains both the warm-up stage and the permanent home of traces the
codegen declines.

A trace extends through:

* fall-through instructions (ordinary basic-block bodies),
* ``jmp``/``call`` with immediate targets inside the same region, and
* ``ret`` whose return target can be *peeked* from the current stack — the
  ROP case: chains pivot ``rsp`` into ``.ropchains``, so the popped slots are
  section constants and the peek sees exactly what the ``ret`` will pop.

Peeked targets are never trusted: the fused ``ret`` executes its real
semantics and then *guards* on the recorded target.  A mismatching pop (a
rewritten chain slot, a data-dependent branch) simply ends the fused run with
the architectural state fully consistent, and the run loop carries on from
the actual ``rip``.  Conditional branches and indirect jumps end a trace the
same way, so no fused step is ever speculative.

Correctness keying mirrors the decode cache: a trace records its code
region's write ``generation`` and is rebuilt when the region changes
(ROP-materialized and self-modifying code).  Closures that store to memory
additionally re-check the generation *mid-trace*, so a program overwriting
its own upcoming instructions falls back to single-step decode immediately.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.binary.sections import HOST_FUNCTION_LIMIT
from repro.cpu import semantics as _semantics
from repro.cpu.state import CONDITION_TABLE, EmulationError, SIZE_MASKS, to_signed
from repro.isa.instructions import Instruction, Mnemonic
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import Register

_M = (1 << 64) - 1
_M32 = 0xFFFFFFFF
_H = 1 << 63

#: Upper bound on fused instructions per trace.  Long enough to swallow a
#: whole chain block between branch gadgets, short enough that the run
#: loop's ``steps + length <= limit`` pre-check rarely forces single-step.
TRACE_CAP = 64

#: Upper bound on fused instructions per *superblock* (a tail-to-head link
#: of hot compiled traces, see :func:`compose_traces`).  Superblocks grow by
#: appending further traces, so this caps the effective fused length well
#: past :data:`TRACE_CAP` without letting the run loop's budget pre-check
#: (``steps + length <= limit``) fragment long runs near the cap.
SUPERBLOCK_CAP = 512

_RSP = Register.RSP

#: Shared closure for instructions that vanish entirely when fused
#: (immediate jumps whose target simply continues the trace).
_NOOP = lambda: True

#: Mnemonics whose first operand being a plain register means that register
#: is (potentially) written.  Used for the static rsp-delta tracking.
_REG_WRITERS = frozenset(m for m in Mnemonic) - frozenset(
    (Mnemonic.CMP, Mnemonic.TEST, Mnemonic.PUSH, Mnemonic.JMP, Mnemonic.JCC,
     Mnemonic.NOP, Mnemonic.HLT, Mnemonic.RET)
)


class TraceStep:
    """The recorded form of one fused instruction.

    The closure list executes a trace; the step list *describes* it, which is
    what the source-compiling backend (:mod:`repro.cpu.codegen`) consumes to
    emit one Python function per trace.  ``kind`` distinguishes the shapes the
    builder special-cases:

    * ``"op"`` — straight-line instruction (specialized or generic closure).
    * ``"ret_guard"`` — fused ``ret`` guarding on the peeked ``target``.
    * ``"ret_final"`` — terminal ``ret`` (no peeked continuation).
    * ``"jmp_fused"`` — immediate ``jmp`` swallowed by the trace (``target``
      is the next fused address).
    * ``"jmp_imm"`` / ``"jcc_imm"`` / ``"call_fused"`` / ``"call_term"`` —
      immediate-target control transfers (``target`` holds the destination).
    * ``"term_generic"`` — non-immediate control transfer executed through
      the emulator handler (trace-terminal).
    * ``"hlt"`` — halt.
    """

    __slots__ = ("kind", "address", "instruction", "post", "target", "handler")

    def __init__(self, kind: str, address: int, instruction, post: int,
                 target: Optional[int] = None, handler=None) -> None:
        self.kind = kind
        self.address = address
        self.instruction = instruction
        self.post = post
        self.target = target
        self.handler = handler


class Trace:
    """One compiled superinstruction.

    Attributes:
        entry: address the trace starts at.
        ops: zero-argument closures, one per fused instruction; each returns
            True to continue or False to end the fused run (failed ret guard,
            mid-trace self-modification).
        posts: per-instruction post-execution ``rip`` values, used to repair
            ``rip`` when a fused instruction faults (matching single-step,
            which advances ``rip`` before running the handler).
        length: number of fused instructions (``len(ops)``).
        region: the code region every fused instruction was decoded from.
        generation: the region's write generation at build time; the trace is
            stale once they differ.
        final_rip: ``rip`` to install after a complete run when the last
            fused instruction does not set it itself (straight-line tail);
            None when the last instruction is a control transfer.
        steps: per-instruction :class:`TraceStep` records for the codegen
            backend.
        stack_region: the region ``rsp`` pointed into at build time (the
            pop/ret fast-path target), or None.
        runs: closure-tier executions so far (promotion counter).
        compiled: the exec-compiled function once the trace is promoted to
            the source tier, else None.
        compile_failed: True once source compilation was attempted and
            declined, so the closure tier stops retrying.
        parts: constituent :class:`Trace` objects when this trace is a
            superblock (tail-to-head link via :func:`compose_traces`); empty
            for ordinary traces, so truthiness doubles as an is-superblock
            test.
        sb_watch: True while the emulator is tracking this compiled trace's
            exits for superblock link opportunities.
        sb_counts: per-exit-address transition counters while watched.
        sb_tail: True when the trace's exit shape is linkable (anything but
            a halt); captured at promotion time, before the step records are
            freed, and immutable thereafter (``sb_watch`` is the mutable
            "still being tracked" state).
        sb_stale: superblocks only — set by the dispatcher when a seam
            guard failed on its *generation* check (a constituent's code
            region was rewritten).  Such a seam can never pass again, so
            the run loop demotes the composite back to its head
            constituent on the next dispatch.
    """

    __slots__ = ("entry", "ops", "posts", "length", "region", "generation",
                 "final_rip", "steps", "stack_region", "runs", "compiled",
                 "compile_failed", "parts", "sb_watch", "sb_counts",
                 "sb_tail", "sb_stale")

    def __init__(self, entry: int, ops: List[Callable[[], bool]],
                 posts: List[int], region, generation: int,
                 final_rip: Optional[int], steps: Optional[List[TraceStep]] = None,
                 stack_region=None) -> None:
        self.entry = entry
        self.ops = ops
        self.posts = posts
        self.length = len(ops)
        self.region = region
        self.generation = generation
        self.final_rip = final_rip
        self.steps = steps or []
        self.stack_region = stack_region
        self.runs = 0
        self.compiled = None
        self.compile_failed = False
        self.parts: tuple = ()
        self.sb_watch = False
        self.sb_counts: Optional[dict] = None
        self.sb_tail = False
        self.sb_stale = False


# -- effective address helpers -------------------------------------------------

def _ea_factory(operand: Mem, regs) -> Callable[[], int]:
    """Compile a memory operand's effective-address computation."""
    base, index, scale, disp = operand.base, operand.index, operand.scale, operand.disp
    if index is None:
        if base is None:
            address = disp & _M
            return lambda: address
        if disp == 0:
            return lambda: regs[base]
        return lambda: (regs[base] + disp) & _M
    if base is None:
        return lambda: (regs[index] * scale + disp) & _M
    return lambda: (regs[base] + regs[index] * scale + disp) & _M


def _imm_value(operand: Imm) -> int:
    """The unsigned value ``read_operand`` would produce for ``operand``."""
    return operand.value & SIZE_MASKS[operand.size]


# -- specialized closure factories ---------------------------------------------
#
# Every factory must reproduce the corresponding Emulator handler *exactly*,
# including flag updates, sub-register write semantics and the order of state
# mutations around a potential memory fault.  Anything not covered falls back
# to the generic bound-handler closure, so coverage here is a pure
# optimization, never a correctness requirement.

def _fuse_mov(instruction: Instruction, state, regs, memory):
    dst, src = instruction.operands
    dcls, scls = type(dst), type(src)
    if dcls is Reg:
        if dst.size == 8:
            d = dst.reg
            if scls is Imm:
                value = _imm_value(src)
                def op():
                    regs[d] = value
                    return True
                return op
            if scls is Reg:
                s = src.reg
                if src.size == 8:
                    def op():
                        regs[d] = regs[s]
                        return True
                    return op
                smask = SIZE_MASKS[src.size]
                def op():
                    regs[d] = regs[s] & smask
                    return True
                return op
            if scls is Mem:
                ea = _ea_factory(src, regs)
                read_int = memory.read_int
                size = src.size
                def op():
                    regs[d] = read_int(ea(), size)
                    return True
                return op
        elif dst.size == 4:
            d = dst.reg
            if scls is Imm:
                value = _imm_value(src) & _M32
                def op():
                    regs[d] = value
                    return True
                return op
            if scls is Reg and src.size in (4, 8):
                s = src.reg
                def op():
                    regs[d] = regs[s] & _M32
                    return True
                return op
            if scls is Mem:
                ea = _ea_factory(src, regs)
                read_int = memory.read_int
                size = src.size
                def op():
                    regs[d] = read_int(ea(), size) & _M32
                    return True
                return op
    return None


def _fuse_mov_to_mem(instruction: Instruction, state, regs, memory,
                     region, generation, post):
    dst, src = instruction.operands
    if type(dst) is not Mem:
        return None
    scls = type(src)
    ea = _ea_factory(dst, regs)
    write_int = memory.write_int
    size = dst.size
    if scls is Imm:
        value = _imm_value(src)
        def op():
            write_int(ea(), value, size)
            if region.generation != generation:
                state.rip = post
                return False
            return True
        return op
    if scls is Reg:
        s = src.reg
        if src.size == 8:
            def op():
                write_int(ea(), regs[s], size)
                if region.generation != generation:
                    state.rip = post
                    return False
                return True
            return op
        smask = SIZE_MASKS[src.size]
        def op():
            write_int(ea(), regs[s] & smask, size)
            if region.generation != generation:
                state.rip = post
                return False
            return True
        return op
    return None


def _fuse_alu(instruction: Instruction, state, regs):
    """add/sub/cmp/and/or/xor/test with a 64-bit register destination."""
    dst, src = instruction.operands
    if type(dst) is not Reg or dst.size != 8:
        return None
    d = dst.reg
    scls = type(src)
    if scls is Imm:
        b = _imm_value(src)
        s = None
    elif scls is Reg and src.size == 8:
        s = src.reg
        b = None
    else:
        return None
    mnemonic = instruction.mnemonic

    if mnemonic is Mnemonic.ADD:
        if s is None:
            sb = b - ((b & _H) << 1)
            def op():
                a = regs[d]
                total = a + b
                result = total & _M
                regs[d] = result
                state.cf = 1 if total > _M else 0
                st = (a - ((a & _H) << 1)) + sb
                state.of = 1 if (st < -_H or st >= _H) else 0
                state.zf = 1 if result == 0 else 0
                state.sf = 1 if result & _H else 0
                return True
        else:
            def op():
                a = regs[d]
                bv = regs[s]
                total = a + bv
                result = total & _M
                regs[d] = result
                state.cf = 1 if total > _M else 0
                st = (a - ((a & _H) << 1)) + (bv - ((bv & _H) << 1))
                state.of = 1 if (st < -_H or st >= _H) else 0
                state.zf = 1 if result == 0 else 0
                state.sf = 1 if result & _H else 0
                return True
        return op

    if mnemonic in (Mnemonic.SUB, Mnemonic.CMP):
        store = mnemonic is Mnemonic.SUB
        if s is None:
            sb = b - ((b & _H) << 1)
            if store:
                def op():
                    a = regs[d]
                    result = (a - b) & _M
                    regs[d] = result
                    state.cf = 1 if a < b else 0
                    st = (a - ((a & _H) << 1)) - sb
                    state.of = 1 if (st < -_H or st >= _H) else 0
                    state.zf = 1 if result == 0 else 0
                    state.sf = 1 if result & _H else 0
                    return True
            else:
                def op():
                    a = regs[d]
                    result = (a - b) & _M
                    state.cf = 1 if a < b else 0
                    st = (a - ((a & _H) << 1)) - sb
                    state.of = 1 if (st < -_H or st >= _H) else 0
                    state.zf = 1 if result == 0 else 0
                    state.sf = 1 if result & _H else 0
                    return True
        else:
            if store:
                def op():
                    a = regs[d]
                    bv = regs[s]
                    result = (a - bv) & _M
                    regs[d] = result
                    state.cf = 1 if a < bv else 0
                    st = (a - ((a & _H) << 1)) - (bv - ((bv & _H) << 1))
                    state.of = 1 if (st < -_H or st >= _H) else 0
                    state.zf = 1 if result == 0 else 0
                    state.sf = 1 if result & _H else 0
                    return True
            else:
                def op():
                    a = regs[d]
                    bv = regs[s]
                    result = (a - bv) & _M
                    state.cf = 1 if a < bv else 0
                    st = (a - ((a & _H) << 1)) - (bv - ((bv & _H) << 1))
                    state.of = 1 if (st < -_H or st >= _H) else 0
                    state.zf = 1 if result == 0 else 0
                    state.sf = 1 if result & _H else 0
                    return True
        return op

    if mnemonic in (Mnemonic.AND, Mnemonic.OR, Mnemonic.XOR, Mnemonic.TEST):
        store = mnemonic is not Mnemonic.TEST
        kind = mnemonic
        def op():
            a = regs[d]
            bv = b if s is None else regs[s]
            if kind is Mnemonic.XOR:
                result = a ^ bv
            elif kind is Mnemonic.OR:
                result = a | bv
            else:
                result = a & bv
            if store:
                regs[d] = result
            state.cf = 0
            state.of = 0
            state.zf = 1 if result == 0 else 0
            state.sf = 1 if result & _H else 0
            return True
        return op
    return None


def _fuse_incdec(instruction: Instruction, state, regs):
    dst = instruction.operands[0]
    if type(dst) is not Reg or dst.size != 8:
        return None
    d = dst.reg
    if instruction.mnemonic is Mnemonic.INC:
        def op():
            a = regs[d]
            result = (a + 1) & _M
            regs[d] = result
            # cf preserved; of set on signed overflow (0x7fff.. -> 0x8000..)
            state.of = 1 if a == _H - 1 else 0
            state.zf = 1 if result == 0 else 0
            state.sf = 1 if result & _H else 0
            return True
    else:
        def op():
            a = regs[d]
            result = (a - 1) & _M
            regs[d] = result
            state.of = 1 if a == _H else 0
            state.zf = 1 if result == 0 else 0
            state.sf = 1 if result & _H else 0
            return True
    return op


def _fuse_shift(instruction: Instruction, state, regs):
    dst, src = instruction.operands
    if type(dst) is not Reg or dst.size != 8 or type(src) is not Imm:
        return None
    mnemonic = instruction.mnemonic
    d = dst.reg
    amount = _imm_value(src) & 0x3F
    if amount == 0:
        # x86: a masked count of zero modifies neither flags nor the
        # destination — the whole instruction folds away
        return _NOOP
    one = amount == 1  # OF is defined only for 1-bit shifts
    if mnemonic is Mnemonic.SHL:
        def op():
            value = regs[d]
            result = (value << amount) & _M
            regs[d] = result
            carry = (value >> (64 - amount)) & 1
            state.cf = carry
            state.of = carry ^ (result >> 63) if one else 0
            state.zf = 1 if result == 0 else 0
            state.sf = 1 if result & _H else 0
            return True
    elif mnemonic is Mnemonic.SHR:
        def op():
            value = regs[d]
            result = value >> amount
            regs[d] = result
            state.cf = (value >> (amount - 1)) & 1
            state.of = value >> 63 if one else 0
            state.zf = 1 if result == 0 else 0
            state.sf = 1 if result & _H else 0
            return True
    else:  # SAR: arithmetic shift of the signed value; OF always 0
        def op():
            value = regs[d]
            signed = value - ((value & _H) << 1)
            result = (signed >> amount) & _M
            regs[d] = result
            state.cf = (signed >> (amount - 1)) & 1
            state.of = 0
            state.zf = 1 if result == 0 else 0
            state.sf = 1 if result & _H else 0
            return True
    return op


def _fuse_lea(instruction: Instruction, state, regs):
    dst, src = instruction.operands
    if type(dst) is not Reg or dst.size != 8 or type(src) is not Mem:
        return None
    d = dst.reg
    ea = _ea_factory(src, regs)
    return lambda: (regs.__setitem__(d, ea()), True)[1]


def _fuse_cmov(instruction: Instruction, state, regs):
    dst, src = instruction.operands
    if type(dst) is not Reg or dst.size != 8 or type(src) is not Reg or src.size != 8:
        return None
    d, s = dst.reg, src.reg
    predicate = CONDITION_TABLE[instruction.condition]
    def op():
        if predicate(state.cf, state.zf, state.sf, state.of):
            regs[d] = regs[s]
        return True
    return op


def _fuse_set(instruction: Instruction, state, regs):
    dst = instruction.operands[0]
    if type(dst) is not Reg:
        return None
    d = dst.reg
    predicate = CONDITION_TABLE[instruction.condition]
    if dst.size >= 4:
        def op():
            regs[d] = 1 if predicate(state.cf, state.zf, state.sf, state.of) else 0
            return True
        return op
    keep = ~SIZE_MASKS[dst.size] & _M
    def op():
        value = 1 if predicate(state.cf, state.zf, state.sf, state.of) else 0
        regs[d] = (regs[d] & keep) | value
        return True
    return op


def _fuse_push(instruction: Instruction, state, regs, memory, region,
               generation, post):
    src = instruction.operands[0]
    scls = type(src)
    write_int = memory.write_int
    if scls is Reg and src.size == 8:
        s = src.reg
        def op():
            # read before the rsp update: ``push rsp`` stores the old value
            value = regs[s]
            rsp = (regs[_RSP] - 8) & _M
            regs[_RSP] = rsp
            write_int(rsp, value, 8)
            if region.generation != generation:
                state.rip = post
                return False
            return True
        return op
    if scls is Imm:
        value = _imm_value(src)
        def op():
            rsp = (regs[_RSP] - 8) & _M
            regs[_RSP] = rsp
            write_int(rsp, value, 8)
            if region.generation != generation:
                state.rip = post
                return False
            return True
        return op
    return None


# The pop/ret closures below repeat the same qword stack load (bounds-check
# against the pinned stack_region, inline int.from_bytes, read_int fallback)
# instead of sharing a load(rsp) helper.  The duplication is deliberate: pops
# and rets dominate ROP dispatch, and routing the load through one more
# Python call costs ~10% whole-workload throughput (measured on fasta/
# ROP1.00).  Keep all three bodies in lockstep when touching any of them.

def _fuse_pop(instruction: Instruction, state, regs, memory, stack_region):
    dst = instruction.operands[0]
    if type(dst) is not Reg or dst.size != 8:
        return None
    d = dst.reg
    read_int = memory.read_int
    if stack_region is None:
        def op():
            rsp = regs[_RSP]
            value = read_int(rsp, 8)
            regs[_RSP] = (rsp + 8) & _M
            regs[d] = value
            return True
        return op
    start = stack_region.start
    fence = len(stack_region.data) - 8
    def op():
        rsp = regs[_RSP]
        offset = rsp - start
        if 0 <= offset <= fence:
            value = int.from_bytes(stack_region.data[offset:offset + 8],
                                   "little")
        else:
            value = read_int(rsp, 8)
        regs[_RSP] = (rsp + 8) & _M
        regs[d] = value
        return True
    return op


def _ret_guarded(state, regs, memory, expected: int, stack_region):
    read_int = memory.read_int
    if stack_region is None:
        def op():
            rsp = regs[_RSP]
            target = read_int(rsp, 8)
            regs[_RSP] = (rsp + 8) & _M
            state.rip = target
            return target == expected
        return op
    start = stack_region.start
    fence = len(stack_region.data) - 8
    def op():
        rsp = regs[_RSP]
        offset = rsp - start
        if 0 <= offset <= fence:
            target = int.from_bytes(stack_region.data[offset:offset + 8],
                                    "little")
        else:
            target = read_int(rsp, 8)
        regs[_RSP] = (rsp + 8) & _M
        state.rip = target
        return target == expected
    return op


def _ret_terminal(state, regs, memory, stack_region):
    read_int = memory.read_int
    if stack_region is None:
        def op():
            rsp = regs[_RSP]
            state.rip = read_int(rsp, 8)
            regs[_RSP] = (rsp + 8) & _M
            return True
        return op
    start = stack_region.start
    fence = len(stack_region.data) - 8
    def op():
        rsp = regs[_RSP]
        offset = rsp - start
        if 0 <= offset <= fence:
            target = int.from_bytes(stack_region.data[offset:offset + 8],
                                    "little")
        else:
            target = read_int(rsp, 8)
        state.rip = target
        regs[_RSP] = (rsp + 8) & _M
        return True
    return op


def _fuse_neg(instruction: Instruction, state, regs):
    dst = instruction.operands[0]
    if type(dst) is not Reg or dst.size != 8:
        return None
    d = dst.reg
    def op():
        a = regs[d]
        result = (-a) & _M
        regs[d] = result
        state.cf = 1 if a else 0
        state.of = 1 if a == _H else 0
        state.zf = 1 if result == 0 else 0
        state.sf = 1 if result & _H else 0
        return True
    return op


def _call_fused(state, regs, memory, region, generation, post, target):
    """``call imm`` whose target continues inside the trace."""
    write_int = memory.write_int
    def op():
        rsp = (regs[_RSP] - 8) & _M
        regs[_RSP] = rsp
        write_int(rsp, post, 8)
        if region.generation != generation:
            state.rip = target
            return False
        return True
    return op


def _call_terminal(state, regs, memory, post, target):
    """``call imm`` leaving the trace (host functions, other regions)."""
    write_int = memory.write_int
    def op():
        rsp = (regs[_RSP] - 8) & _M
        regs[_RSP] = rsp
        write_int(rsp, post, 8)
        state.rip = target
        return True
    return op


def _jcc_terminal(instruction: Instruction, state, post: int, target: int):
    predicate = CONDITION_TABLE[instruction.condition]
    def op():
        state.rip = target if predicate(state.cf, state.zf, state.sf,
                                        state.of) else post
        return True
    return op


def _generic(handler, instruction):
    """Fallback: the emulator's own bound handler, one dict probe cheaper."""
    def op():
        handler(instruction)
        return True
    return op


def _generic_writer(handler, instruction, state, region, generation, post):
    """Fallback for memory-writing instructions: add the mid-trace SMC check."""
    def op():
        handler(instruction)
        if region.generation != generation:
            state.rip = post
            return False
        return True
    return op


def _generic_terminal(handler, instruction, state, post):
    """Fallback for control transfers: set fall-through rip, then run."""
    def op():
        state.rip = post
        handler(instruction)
        return True
    return op


def _writes_memory(instruction: Instruction) -> bool:
    mnemonic = instruction.mnemonic
    if mnemonic in (Mnemonic.PUSH, Mnemonic.CALL):
        return True
    if mnemonic in (Mnemonic.CMP, Mnemonic.TEST, Mnemonic.JMP, Mnemonic.JCC):
        return False
    operands = instruction.operands
    if operands and isinstance(operands[0], Mem):
        return True
    if mnemonic is Mnemonic.XCHG and any(isinstance(op, Mem) for op in operands):
        return True
    return False


def _specialize(instruction: Instruction, state, regs, memory, region,
                generation, post, stack_region):
    """Return a specialized closure for a straight-line instruction, or None."""
    mnemonic = instruction.mnemonic
    try:
        if mnemonic in (Mnemonic.MOV, Mnemonic.MOVZX):
            op = _fuse_mov(instruction, state, regs, memory)
            if op is not None:
                return op
            return _fuse_mov_to_mem(instruction, state, regs, memory,
                                    region, generation, post)
        if mnemonic in (Mnemonic.ADD, Mnemonic.SUB, Mnemonic.CMP,
                        Mnemonic.AND, Mnemonic.OR, Mnemonic.XOR, Mnemonic.TEST):
            return _fuse_alu(instruction, state, regs)
        if mnemonic is Mnemonic.POP:
            return _fuse_pop(instruction, state, regs, memory, stack_region)
        if mnemonic is Mnemonic.NEG:
            return _fuse_neg(instruction, state, regs)
        if mnemonic is Mnemonic.PUSH:
            return _fuse_push(instruction, state, regs, memory, region,
                              generation, post)
        if mnemonic is Mnemonic.LEA:
            return _fuse_lea(instruction, state, regs)
        if mnemonic in (Mnemonic.INC, Mnemonic.DEC):
            return _fuse_incdec(instruction, state, regs)
        if mnemonic in (Mnemonic.SHL, Mnemonic.SHR, Mnemonic.SAR):
            return _fuse_shift(instruction, state, regs)
        if mnemonic is Mnemonic.CMOV:
            return _fuse_cmov(instruction, state, regs)
        if mnemonic is Mnemonic.SET:
            return _fuse_set(instruction, state, regs)
        if mnemonic is Mnemonic.NOP:
            return lambda: True
    except (KeyError, IndexError):  # malformed operands: leave it generic
        return None
    return None


def _rsp_delta(instruction: Instruction, delta: Optional[int]) -> Optional[int]:
    """Track the static stack-pointer offset across a fused instruction.

    Returns the new byte delta relative to the trace entry's ``rsp``, or None
    once the offset is no longer statically known (the builder then stops
    peeking ret targets).
    """
    if delta is None:
        return None
    mnemonic = instruction.mnemonic
    operands = instruction.operands
    if mnemonic is Mnemonic.PUSH:
        return delta - 8
    if mnemonic is Mnemonic.POP:
        dst = operands[0]
        if isinstance(dst, Reg) and dst.reg is _RSP:
            return None
        return delta + 8
    if mnemonic is Mnemonic.LEAVE:
        return None
    if operands and isinstance(operands[0], Reg) and operands[0].reg is _RSP \
            and mnemonic in _REG_WRITERS:
        if mnemonic in (Mnemonic.ADD, Mnemonic.SUB) and len(operands) == 2 \
                and isinstance(operands[1], Imm) and operands[0].size == 8:
            adjust = to_signed(_imm_value(operands[1]), 8)
            return delta + adjust if mnemonic is Mnemonic.ADD else delta - adjust
        return None
    if mnemonic is Mnemonic.XCHG and any(
            isinstance(op, Reg) and op.reg is _RSP for op in operands):
        return None
    return delta


def build_trace(emulator, entry: int, cap: int = TRACE_CAP) -> Optional[Trace]:
    """Discover and compile the trace starting at ``entry``.

    The walk decodes forward from ``entry`` (re-using the decode cache),
    following immediate jumps/calls and peeking concrete ret targets through
    the statically-tracked ``rsp`` offset.  It never mutates emulator state.
    Returns None when not even one instruction can be fused (undecodable or
    unimplemented entry — single-step will report the precise fault).
    """
    memory = emulator.memory
    region = memory.region_at(entry)
    if region is None:
        return None
    state = emulator.state
    regs = state.regs
    generation = region.generation
    entry_rsp = regs[_RSP]
    #: the region rsp currently points into (the chain section during ROP
    #: dispatch); pop/ret closures inline their loads against it and fall
    #: back to the generic memory path whenever rsp has wandered elsewhere
    stack_region = memory.region_at(entry_rsp)
    host_space_end = HOST_FUNCTION_LIMIT

    ops: List[Callable[[], bool]] = []
    posts: List[int] = []
    steps: List[TraceStep] = []
    final_rip: Optional[int] = None
    delta: Optional[int] = 0
    address = entry

    while len(ops) < cap:
        if not (region.start <= address < region.end):
            final_rip = address
            break
        try:
            instruction, length, _, _, handler, _ = emulator.decode_entry(address)
        except EmulationError:
            final_rip = address
            break
        if handler is None:
            final_rip = address
            break
        mnemonic = instruction.mnemonic
        post = (address + length) & _M

        if mnemonic is Mnemonic.RET:
            target = None
            if delta is not None:
                target = memory.peek_int(entry_rsp + delta)
            if target is not None and region.start <= target < region.end \
                    and target > host_space_end and len(ops) + 1 < cap:
                ops.append(_ret_guarded(state, regs, memory, target,
                                        stack_region))
                posts.append(post)
                steps.append(TraceStep("ret_guard", address, instruction, post,
                                       target))
                delta += 8
                address = target
                continue
            ops.append(_ret_terminal(state, regs, memory, stack_region))
            posts.append(post)
            steps.append(TraceStep("ret_final", address, instruction, post))
            break

        if mnemonic is Mnemonic.JMP:
            operand = instruction.operands[0]
            if type(operand) is Imm:
                target = _imm_value(operand)
                if region.start <= target < region.end and target > host_space_end \
                        and len(ops) + 1 < cap:
                    ops.append(_NOOP)
                    posts.append(target)
                    steps.append(TraceStep("jmp_fused", address, instruction,
                                           target, target))
                    address = target
                    continue
                def op(target=target):
                    state.rip = target
                    return True
                ops.append(op)
                steps.append(TraceStep("jmp_imm", address, instruction, post,
                                       target))
            else:
                ops.append(_generic_terminal(handler, instruction, state, post))
                steps.append(TraceStep("term_generic", address, instruction,
                                       post, handler=handler))
            posts.append(post)
            break

        if mnemonic is Mnemonic.JCC:
            operand = instruction.operands[0]
            if type(operand) is Imm:
                ops.append(_jcc_terminal(instruction, state, post,
                                         _imm_value(operand)))
                steps.append(TraceStep("jcc_imm", address, instruction, post,
                                       _imm_value(operand)))
            else:
                ops.append(_generic_terminal(handler, instruction, state, post))
                steps.append(TraceStep("term_generic", address, instruction,
                                       post, handler=handler))
            posts.append(post)
            break

        if mnemonic is Mnemonic.CALL:
            operand = instruction.operands[0]
            if type(operand) is Imm:
                target = _imm_value(operand)
                if region.start <= target < region.end and target > host_space_end \
                        and len(ops) + 1 < cap:
                    ops.append(_call_fused(state, regs, memory, region,
                                           generation, post, target))
                    posts.append(post)
                    steps.append(TraceStep("call_fused", address, instruction,
                                           post, target))
                    delta = None if delta is None else delta - 8
                    address = target
                    continue
                ops.append(_call_terminal(state, regs, memory, post, target))
                steps.append(TraceStep("call_term", address, instruction, post,
                                       target))
            else:
                ops.append(_generic_terminal(handler, instruction, state, post))
                steps.append(TraceStep("term_generic", address, instruction,
                                       post, handler=handler))
            posts.append(post)
            break

        if mnemonic is Mnemonic.HLT:
            def op(post=post):
                state.rip = post
                emulator.halted = True
                return True
            ops.append(op)
            posts.append(post)
            steps.append(TraceStep("hlt", address, instruction, post))
            break

        op = _specialize(instruction, state, regs, memory, region, generation,
                         post, stack_region)
        if op is None:
            handler_ = handler
            if _writes_memory(instruction):
                op = _generic_writer(handler_, instruction, state, region,
                                     generation, post)
            else:
                op = _generic(handler_, instruction)
        ops.append(op)
        posts.append(post)
        steps.append(TraceStep("op", address, instruction, post,
                               handler=handler))
        delta = _rsp_delta(instruction, delta)
        address = post
    else:
        # cap reached on a straight-line tail: resume at the next address
        final_rip = address

    if not ops:
        return None
    emulator.jit_stats.traces_built += 1
    return Trace(entry, ops, posts, region, generation, final_rip,
                 steps=steps, stack_region=stack_region)


def compose_traces(emulator, parts: List[Trace]) -> Trace:
    """Link compiled traces tail-to-head into one superblock.

    The common ROP-chain shape: a compiled trace's exit (a popped ``ret``
    target, an immediate branch, or the fall-through of a trace capped at
    :data:`TRACE_CAP`) keeps landing on another hot compiled trace's entry.
    The superblock dispatches the constituent compiled functions in
    sequence without returning to the run loop: after each constituent, a
    *seam guard* re-checks exactly what the run loop would have checked —
    that execution actually continued at the next constituent's entry, that
    the emulator has not halted, and that the next constituent's code
    region still carries its build-time write generation.  A failing guard
    simply returns with the architectural state the constituents left, and
    the run loop carries on from the real ``rip``; no seam is ever
    speculative.

    Because every seam keys on its *own* constituent's ``(region,
    generation)`` pair, constituents may span different code regions and
    SMC invalidation stays exactly as precise as it is for the constituent
    traces: rewriting any constituent's code makes precisely the seams (and
    run-loop dispatches) that depend on it fall back.  The composite itself
    advertises the first constituent's region/generation, which is what the
    run loop checks before dispatching it.

    ``parts`` already being superblocks is fine — their constituents are
    flattened, so growth by appending stays one level deep.
    """
    flat: List[Trace] = []
    for part in parts:
        flat.extend(part.parts or (part,))
    first = flat[0]
    state = emulator.state
    head = first.compiled
    seams = tuple((part.entry, part.generation, part.region, part.compiled)
                  for part in flat[1:])

    def run() -> None:
        head()
        for entry, generation, region, fn in seams:
            if state.rip != entry or emulator.halted:
                return
            if region.generation != generation:
                # this seam can never pass again: tell the run loop to
                # demote the composite back to its head constituent
                composite.sb_stale = True
                return
            fn()

    composite = Trace(first.entry, [], [], first.region, first.generation,
                      None, stack_region=first.stack_region)
    composite.length = sum(part.length for part in flat)
    composite.parts = tuple(flat)
    composite.compiled = run
    composite.sb_tail = flat[-1].sb_tail
    composite.sb_watch = composite.sb_tail
    return composite


# -- semantic-contract registration -------------------------------------------
# The closure tier's covered/declined split, validated at import against the
# declarative registry (repro.cpu.semantics) and statically checked by
# ``python -m repro.analysis.lint``.  Covered mnemonics name the fuser
# function(s) whose flag-slot assignments must match the contract; an empty
# entry means "fused inline by build_trace" (trace-terminal control flow and
# NOP, which have no dedicated fuser).  Declined mnemonics deliberately fall
# through to the generic single-step handler closure — rare shapes where a
# specialized closure would not pay for itself.
_semantics.register_tier(
    "closures", __name__,
    covered={
        Mnemonic.MOV: ("_fuse_mov", "_fuse_mov_to_mem"),
        Mnemonic.MOVZX: ("_fuse_mov", "_fuse_mov_to_mem"),
        Mnemonic.ADD: "_fuse_alu",
        Mnemonic.SUB: "_fuse_alu",
        Mnemonic.CMP: "_fuse_alu",
        Mnemonic.AND: "_fuse_alu",
        Mnemonic.OR: "_fuse_alu",
        Mnemonic.XOR: "_fuse_alu",
        Mnemonic.TEST: "_fuse_alu",
        Mnemonic.POP: "_fuse_pop",
        Mnemonic.NEG: "_fuse_neg",
        Mnemonic.PUSH: "_fuse_push",
        Mnemonic.LEA: "_fuse_lea",
        Mnemonic.INC: "_fuse_incdec",
        Mnemonic.DEC: "_fuse_incdec",
        Mnemonic.SHL: "_fuse_shift",
        Mnemonic.SHR: "_fuse_shift",
        Mnemonic.SAR: "_fuse_shift",
        Mnemonic.CMOV: "_fuse_cmov",
        Mnemonic.SET: "_fuse_set",
        Mnemonic.NOP: None,
        Mnemonic.JMP: None,
        Mnemonic.JCC: None,
        Mnemonic.CALL: None,
        Mnemonic.RET: None,
        Mnemonic.HLT: None,
    },
    declined=(Mnemonic.MOVSX, Mnemonic.XCHG, Mnemonic.ADC, Mnemonic.SBB,
              Mnemonic.NOT, Mnemonic.IMUL, Mnemonic.CQO, Mnemonic.IDIV,
              Mnemonic.LEAVE),
    flag_style="attributes")
