"""Trace recording for the fused-trace pipeline.

The run loop's per-instruction dispatch (address probe, generation check,
budget check, step call) dominates ROP workloads, where the ret-to-ret
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
the actual ``rip``.  Every other control transfer (a ``ret`` that cannot be
peeked, conditional branches, indirect and out-of-trace jumps and calls,
``hlt``) ends the trace as its ``"exit"`` step, so no fused step is ever
speculative.

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
from repro.isa.effects import EFFECTS, WRITTEN
from repro.isa.instructions import Mnemonic
from repro.isa.operands import Imm, Reg
from repro.isa.registers import Register

_M = (1 << 64) - 1

#: Upper bound on fused instructions per trace.  Long enough to swallow a
#: whole chain block between branch gadgets, short enough that the run
#: loop's ``steps + length <= limit`` pre-check rarely forces single-step.
TRACE_CAP = 64

_RSP = Register.RSP


class TraceStep:
    """The recorded form of one fused instruction.

    ``kind`` names the shapes that exist only in traces:

    * ``"op"`` — straight-line instruction.
    * ``"ret_guard"`` — fused ``ret`` guarding on the peeked ``target``.
    * ``"jmp_fused"`` / ``"call_fused"`` — immediate ``jmp``/``call`` the
      trace swallows (``target`` is the next fused address).
    * ``"exit"`` — the control transfer that ends the trace: ``ret``,
      ``jmp``, ``jcc``, ``call`` or ``hlt``, emitted by the same control
      emitter as a one-instruction step.

    ``post`` is the ``rip`` after the instruction (the fused target for
    ``"jmp_fused"``), which is where a fault inside it leaves ``rip``.
    ``rsp`` is ``rsp``'s byte offset from its value at the trace entry
    when the instruction starts, or None once it is not statically known
    (after ``leave``, ``pop rsp`` or a write of ``rsp`` other than
    ``add``/``sub`` of an immediate).
    """

    __slots__ = ("kind", "address", "instruction", "post", "target", "rsp")

    def __init__(self, kind: str, address: int, instruction, post: int,
                 target: Optional[int] = None,
                 rsp: Optional[int] = None) -> None:
        self.kind = kind
        self.address = address
        self.instruction = instruction
        self.post = post
        self.target = target
        self.rsp = rsp


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
        stack_region: the region ``rsp`` pointed into at build time, or
            None.  A compiled trace reads its pops and ret targets at known
            ``rsp`` offsets straight from this region's bytes, after one
            entry check that every such offset falls inside it (see
            :mod:`repro.cpu.codegen`).
        stack_offset: the entry ``rsp``'s offset into ``stack_region`` at
            build time (None with it).
        runs: dispatches so far while uncompiled (promotion counter).
        compiled: the exec-compiled function once the trace is promoted,
            else None.
        compile_failed: True once compilation was attempted and declined,
            so the trace keeps its warm-up path instead of retrying.
    """

    __slots__ = ("entry", "steps", "length", "region", "generation",
                 "final_rip", "stack_region", "stack_offset", "runs",
                 "compiled", "compile_failed")

    def __init__(self, entry: int, steps: List[TraceStep], region,
                 generation: int, final_rip: Optional[int],
                 stack_region=None, stack_offset: Optional[int] = None
                 ) -> None:
        self.entry = entry
        self.steps = steps
        self.length = len(steps)
        self.region = region
        self.generation = generation
        self.final_rip = final_rip
        self.stack_region = stack_region
        self.stack_offset = stack_offset
        self.runs = 0
        self.compiled = None
        self.compile_failed = False


def _imm_value(operand: Imm) -> int:
    """The unsigned value ``read_operand`` would produce for ``operand``."""
    return operand.value & SIZE_MASKS[operand.size]


def _rsp_delta(instruction, roles, delta: Optional[int]) -> Optional[int]:
    """Track the static stack-pointer offset across a fused instruction
    whose operands play ``roles``.

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
    for role, operand in zip(roles, operands):
        if role in WRITTEN and type(operand) is Reg and operand.reg is _RSP:
            # only ``add``/``sub rsp, imm`` keeps the offset known
            if mnemonic in (Mnemonic.ADD, Mnemonic.SUB) \
                    and len(operands) == 2 and type(operands[1]) is Imm \
                    and operand.size == 8:
                adjust = to_signed(_imm_value(operands[1]), 8)
                return delta + adjust if mnemonic is Mnemonic.ADD else delta - adjust
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
            instruction, length = emulator.decode_entry(address)[:2]
        except EmulationError:
            final_rip = address
            break
        mnemonic = instruction.mnemonic
        effect = EFFECTS[mnemonic]
        if len(instruction.operands) < len(effect.roles):
            # a decode missing an operand: single-step reports the fault
            final_rip = address
            break
        post = (address + length) & _M

        if mnemonic is Mnemonic.RET and delta is not None:
            target = memory.peek_int(entry_rsp + delta)
            if target is not None and continues(target):
                steps.append(TraceStep("ret_guard", address, instruction, post,
                                       target, rsp=delta))
                delta += 8
                address = target
                continue
        elif mnemonic in (Mnemonic.JMP, Mnemonic.CALL) \
                and type(instruction.operands[0]) is Imm:
            target = _imm_value(instruction.operands[0])
            if continues(target):
                if mnemonic is Mnemonic.CALL:
                    steps.append(TraceStep("call_fused", address, instruction,
                                           post, target, rsp=delta))
                    delta = None if delta is None else delta - 8
                else:
                    steps.append(TraceStep("jmp_fused", address, instruction,
                                           target, rsp=delta))
                address = target
                continue
        if effect.control:
            steps.append(TraceStep("exit", address, instruction, post,
                                   rsp=delta))
            break

        steps.append(TraceStep("op", address, instruction, post, rsp=delta))
        delta = _rsp_delta(instruction, effect.roles, delta)
        address = post
    else:
        # cap reached on a straight-line tail: resume at the next address
        final_rip = address

    if not steps:
        return None
    emulator.jit_stats.traces_built += 1
    #: the region rsp currently points into (the chain section during ROP
    #: dispatch).  The compiled trace reads every pop and ret at a known
    #: offset straight from it, once its entry check has found those
    #: offsets inside the region; there is no per-load fallback, so a
    #: dispatch whose rsp fails the check single-steps instead.  Only loads
    #: at unknown offsets (after leave, pop rsp, ...) test their bounds
    #: one by one.
    stack_region = memory.region_at(entry_rsp)
    stack_offset = None if stack_region is None \
        else entry_rsp - stack_region.start
    return Trace(entry, steps, region, region.generation, final_rip,
                 stack_region=stack_region, stack_offset=stack_offset)
