"""Taint-driven simplification (the TDS analog, §III-B1).

TDS records a concrete execution trace, tracks explicit flows from the
program inputs, and applies semantics-preserving simplifications to strip the
obfuscation machinery from the trace: untainted glue (the ROP ``ret``
dispatch, constant shuffling, VM fetch/dispatch code) is dropped while
instructions on the input-to-output path are kept.  The crucial limitation
the paper leans on (§V-C) is reproduced here: constant propagation is not
applied across input-tainted conditional jumps, so P3's input-coupled
recomputations and the implicit flows of the P1-array updates cannot be
simplified away without risking over-simplification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.attacks.engine import SnapshotEngine
from repro.cpu.tracing import TraceEntry, TraceRecorder
from repro.isa.effects import EFFECTS, Role, operand_registers
from repro.isa.instructions import Mnemonic
from repro.isa.operands import Mem, Reg
from repro.isa.registers import ARG_REGISTERS, Register

_MASK64 = (1 << 64) - 1


@dataclass
class SimplificationReport:
    """Outcome of simplifying one recorded trace.

    Attributes:
        trace_length: executed instructions recorded.
        simplified_length: instructions kept after simplification.
        dispatch_removed: ROP/VM dispatch instructions removed (rets, pops of
            gadget addresses, fetch loops not touching tainted data).
        tainted_branches: conditional control transfers whose decision
            depended on tainted data — these block constant propagation and
            are what P3 deliberately multiplies.
        kept_fraction: ``simplified_length / trace_length``.
    """

    trace_length: int
    simplified_length: int
    dispatch_removed: int
    tainted_branches: int

    @property
    def kept_fraction(self) -> float:
        if not self.trace_length:
            return 0.0
        return self.simplified_length / self.trace_length


class TaintDrivenSimplifier(SnapshotEngine):
    """Record and simplify a concrete execution of one function.

    Executions rewind the engine's prepared emulator with
    :meth:`repro.cpu.Emulator.restore` (see
    :class:`repro.attacks.engine.SnapshotEngine`) instead of paying a
    program fork plus a fresh emulator per recorded trace, which is what
    makes sweeping TDS over a configuration grid tractable.
    """

    # -- trace recording -----------------------------------------------------------
    def record(self, arguments: Sequence[int]) -> Tuple[List[TraceEntry], int]:
        """Execute the function concretely and return ``(trace, return_value)``."""
        emulator = self._fork_emulator()
        recorder = TraceRecorder(capture_registers=True)
        self._run_input(emulator, arguments, [recorder._hook])
        return recorder.entries, emulator.state.read_reg(Register.RAX)

    # -- taint propagation over the trace ----------------------------------------------
    def simplify(self, arguments: Sequence[int],
                 tainted_arguments: Optional[Sequence[int]] = None) -> SimplificationReport:
        """Record a trace for ``arguments`` and simplify it.

        ``tainted_arguments`` selects which argument positions are inputs
        (all of them by default).
        """
        trace, _ = self.record(arguments)
        tainted_positions = list(tainted_arguments
                                 if tainted_arguments is not None
                                 else range(len(arguments)))
        tainted_regs: Set[Register] = {ARG_REGISTERS[i] for i in tainted_positions}
        tainted_memory: Set[int] = set()

        kept: List[TraceEntry] = []
        dispatch_removed = 0
        tainted_branches = 0

        for entry in trace:
            instruction = entry.instruction
            m = instruction.mnemonic
            ops = instruction.operands
            roles = EFFECTS[m].roles
            # a written destination (mov's, pop's) takes only its sources' taint
            overwritten = bool(roles) and roles[0] is Role.WRITE
            regs = entry.regs or {}

            def memory_address(operand: Mem) -> int:
                address = operand.disp
                if operand.base is not None:
                    address += regs.get(operand.base, 0)
                if operand.index is not None:
                    address += regs.get(operand.index, 0) * operand.scale
                return address & _MASK64

            source_tainted = False
            for operand in ops[1:] if len(ops) > 1 else ops:
                source_tainted |= bool(operand_registers(operand) & tainted_regs)
                if isinstance(operand, Mem) and memory_address(operand) in tainted_memory:
                    source_tainted = True
            if ops and isinstance(ops[0], Mem):
                if memory_address(ops[0]) in tainted_memory:
                    source_tainted = True
            if ops and isinstance(ops[0], Reg) and not overwritten:
                source_tainted |= ops[0].reg in tainted_regs

            # propagate taint
            if ops:
                destination = ops[0]
                if isinstance(destination, Reg):
                    if m is Mnemonic.POP:
                        address = regs.get(Register.RSP, 0)
                        incoming = address in tainted_memory
                        if incoming:
                            tainted_regs.add(destination.reg)
                        else:
                            tainted_regs.discard(destination.reg)
                    elif source_tainted:
                        tainted_regs.add(destination.reg)
                    elif overwritten:
                        tainted_regs.discard(destination.reg)
                elif isinstance(destination, Mem):
                    address = memory_address(destination)
                    if source_tainted:
                        tainted_memory.add(address)
                    else:
                        tainted_memory.discard(address)
            if m is Mnemonic.PUSH and ops:
                address = (regs.get(Register.RSP, 0) - 8) & _MASK64
                if operand_registers(ops[0]) & tainted_regs:
                    tainted_memory.add(address)
                else:
                    tainted_memory.discard(address)

            # classification: keep tainted computation, drop untainted glue
            is_dispatch = m in (Mnemonic.RET, Mnemonic.CALL, Mnemonic.LEAVE) or (
                m is Mnemonic.POP and not source_tainted) or (
                m is Mnemonic.ADD and ops and isinstance(ops[0], Reg)
                and ops[0].reg is Register.RSP and not source_tainted)
            is_tainted_branch = (m in (Mnemonic.JCC, Mnemonic.CMOV, Mnemonic.SET)
                                 and source_tainted) or (
                m in (Mnemonic.ADD,) and ops and isinstance(ops[0], Reg)
                and ops[0].reg is Register.RSP and source_tainted)
            if is_tainted_branch:
                tainted_branches += 1
            if source_tainted or is_tainted_branch:
                kept.append(entry)
            elif is_dispatch:
                dispatch_removed += 1
            # untainted non-dispatch instructions are simplified away silently

        return SimplificationReport(
            trace_length=len(trace),
            simplified_length=len(kept),
            dispatch_removed=dispatch_removed,
            tainted_branches=tainted_branches,
        )
