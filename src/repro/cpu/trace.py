"""Trace recording for the fused-trace pipeline.

The interpreter's per-instruction dispatch (address probe, generation check,
budget check, handler lookup) dominates ROP workloads, where the ret-to-ret
control flow makes every gadget a fresh dispatch.  This module discovers
straight-line *traces* at execution time and records each one as a list of
:class:`TraceStep` entries — the instruction-by-instruction shape that
:mod:`repro.cpu.codegen` compiles into one Python function per trace.
Until a trace is compiled, :meth:`Emulator._execute_trace` warms it up by
single-stepping along the recorded addresses.

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
(ROP-materialized and self-modifying code).  Fused stores additionally
re-check the generation *mid-trace*, so a program overwriting its own
upcoming instructions falls back to single-step decode immediately.
"""

from __future__ import annotations

from typing import List, Optional

from repro.binary.sections import HOST_FUNCTION_LIMIT
from repro.cpu.state import EmulationError, SIZE_MASKS, to_signed
from repro.isa.instructions import Mnemonic
from repro.isa.operands import Imm, Reg
from repro.isa.registers import Register

_M = (1 << 64) - 1

#: Upper bound on fused instructions per trace.  Long enough to swallow a
#: whole chain block between branch gadgets, short enough that the run
#: loop's ``steps + length <= limit`` pre-check rarely forces single-step.
TRACE_CAP = 64

_RSP = Register.RSP

#: Mnemonics whose first operand being a plain register means that register
#: is (potentially) written.  Used for the static rsp-delta tracking.
_REG_WRITERS = frozenset(m for m in Mnemonic) - frozenset(
    (Mnemonic.CMP, Mnemonic.TEST, Mnemonic.PUSH, Mnemonic.JMP, Mnemonic.JCC,
     Mnemonic.NOP, Mnemonic.HLT, Mnemonic.RET)
)


class TraceStep:
    """The recorded form of one fused instruction.

    ``kind`` distinguishes the shapes the builder special-cases:

    * ``"op"`` — straight-line instruction.
    * ``"ret_guard"`` — fused ``ret`` guarding on the peeked ``target``.
    * ``"ret_final"`` — terminal ``ret`` (no peeked continuation).
    * ``"jmp_fused"`` — immediate ``jmp`` swallowed by the trace (``target``
      is the next fused address).
    * ``"jmp_imm"`` / ``"jcc_imm"`` / ``"call_fused"`` / ``"call_term"`` —
      immediate-target control transfers (``target`` holds the destination).
    * ``"jmp_ind"`` / ``"call_ind"`` — trace-terminal control transfers
      through a register or memory operand (``jmp_ind`` also carries a
      conditional jump through one).
    * ``"hlt"`` — halt.

    ``post`` is the ``rip`` after the instruction (the fused target for
    ``"jmp_fused"``), which is where a fault inside it leaves ``rip``.
    """

    __slots__ = ("kind", "address", "instruction", "post", "target")

    def __init__(self, kind: str, address: int, instruction, post: int,
                 target: Optional[int] = None) -> None:
        self.kind = kind
        self.address = address
        self.instruction = instruction
        self.post = post
        self.target = target


class Trace:
    """One recorded superinstruction.

    Attributes:
        entry: address the trace starts at.
        steps: per-instruction :class:`TraceStep` records; freed once the
            trace is compiled.
        length: number of fused instructions.
        region: the code region every fused instruction was decoded from.
        generation: the region's write generation at build time; the trace is
            stale once they differ.
        final_rip: ``rip`` to install after a complete run when the last
            fused instruction does not set it itself (straight-line tail);
            None when the last instruction is a control transfer.
        stack_region: the region ``rsp`` pointed into at build time (the
            pop/ret fast-path target), or None.
        runs: dispatches so far while uncompiled (promotion counter).
        compiled: the exec-compiled function once the trace is promoted,
            else None.
        compile_failed: True once compilation was attempted and declined,
            so the trace keeps its warm-up path instead of retrying.
    """

    __slots__ = ("entry", "steps", "length", "region", "generation",
                 "final_rip", "stack_region", "runs", "compiled",
                 "compile_failed")

    def __init__(self, entry: int, steps: List[TraceStep], region,
                 generation: int, final_rip: Optional[int],
                 stack_region=None) -> None:
        self.entry = entry
        self.steps = steps
        self.length = len(steps)
        self.region = region
        self.generation = generation
        self.final_rip = final_rip
        self.stack_region = stack_region
        self.runs = 0
        self.compiled = None
        self.compile_failed = False


def _imm_value(operand: Imm) -> int:
    """The unsigned value ``read_operand`` would produce for ``operand``."""
    return operand.value & SIZE_MASKS[operand.size]


def _rsp_delta(instruction, delta: Optional[int]) -> Optional[int]:
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
    """Record the trace starting at ``entry``.

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
    entry_rsp = emulator.state.regs[_RSP]

    def continues(target: int) -> bool:
        """Whether a control transfer to ``target`` can stay in the trace."""
        return region.start <= target < region.end \
            and target > HOST_FUNCTION_LIMIT and len(steps) + 1 < cap

    steps: List[TraceStep] = []
    final_rip: Optional[int] = None
    delta: Optional[int] = 0
    address = entry

    while len(steps) < cap:
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
            if target is not None and continues(target):
                steps.append(TraceStep("ret_guard", address, instruction, post,
                                       target))
                delta += 8
                address = target
                continue
            steps.append(TraceStep("ret_final", address, instruction, post))
            break

        if mnemonic in (Mnemonic.JMP, Mnemonic.JCC, Mnemonic.CALL):
            operand = instruction.operands[0]
            if type(operand) is not Imm:
                kind = "call_ind" if mnemonic is Mnemonic.CALL else "jmp_ind"
                steps.append(TraceStep(kind, address, instruction, post))
                break
            target = _imm_value(operand)
            if mnemonic is Mnemonic.JCC:
                steps.append(TraceStep("jcc_imm", address, instruction, post,
                                       target))
                break
            if continues(target):
                if mnemonic is Mnemonic.JMP:
                    steps.append(TraceStep("jmp_fused", address, instruction,
                                           target, target))
                else:
                    steps.append(TraceStep("call_fused", address, instruction,
                                           post, target))
                    delta = None if delta is None else delta - 8
                address = target
                continue
            kind = "jmp_imm" if mnemonic is Mnemonic.JMP else "call_term"
            steps.append(TraceStep(kind, address, instruction, post, target))
            break

        if mnemonic is Mnemonic.HLT:
            steps.append(TraceStep("hlt", address, instruction, post))
            break

        steps.append(TraceStep("op", address, instruction, post))
        delta = _rsp_delta(instruction, delta)
        address = post
    else:
        # cap reached on a straight-line tail: resume at the next address
        final_rip = address

    if not steps:
        return None
    emulator.jit_stats.traces_built += 1
    #: the region rsp currently points into (the chain section during ROP
    #: dispatch); compiled pop/ret loads inline against it and fall back to
    #: the generic memory path whenever rsp has wandered elsewhere
    stack_region = memory.region_at(entry_rsp)
    return Trace(entry, steps, region, region.generation, final_rip,
                 stack_region=stack_region)
