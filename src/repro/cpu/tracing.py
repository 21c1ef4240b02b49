"""Execution tracing used by the dynamic deobfuscation attacks.

A :class:`TraceRecorder` attaches to an :class:`repro.cpu.Emulator` and
records every executed instruction with its address and the pre-execution
register snapshot the analyses need (TDS taint tracking, ROPMEMU flag-leak
detection, DSE concolic state updates).

Recorders hook in through ``pre_hooks``.  The emulator has one run loop,
and with hooks installed it fuses nothing (:mod:`repro.cpu.trace`): it runs
one compiled step per instruction and calls every hook before each, so a
recorded trace is always the complete architectural sequence regardless of
``REPRO_TRACE_CACHE``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.isa.instructions import Instruction
from repro.isa.registers import Register


@dataclass(slots=True)
class TraceEntry:
    """One executed instruction.

    Attributes:
        index: position in the trace.
        address: address the instruction was fetched from.
        instruction: the decoded instruction.
        rsp: value of the stack pointer before execution (the ROP virtual PC).
        regs: optional register snapshot before execution.
    """

    index: int
    address: int
    instruction: Instruction
    rsp: int
    regs: Optional[Dict[Register, int]] = None


class TraceRecorder:
    """Records executed instructions from an emulator.

    Args:
        capture_registers: store a full register snapshot per entry.  This is
            what TDS and ROPMEMU need; it is off by default to keep plain
            functional runs cheap.
        limit: maximum number of entries kept (older entries are not dropped;
            recording simply stops, mirroring a bounded trace buffer).
    """

    def __init__(self, capture_registers: bool = False, limit: int = 2_000_000) -> None:
        self.capture_registers = capture_registers
        self.limit = limit
        self.entries: List[TraceEntry] = []

    def attach(self, emulator) -> "TraceRecorder":
        """Register this recorder as a pre-execution hook on ``emulator``."""
        emulator.pre_hooks.append(self._hook)
        return self

    def _hook(self, emulator, address: int, instruction: Instruction) -> None:
        entries = self.entries
        if len(entries) >= self.limit:
            return
        state_regs = emulator.state.regs
        regs = dict(state_regs) if self.capture_registers else None
        entries.append(
            TraceEntry(
                index=len(entries),
                address=address,
                instruction=instruction,
                rsp=state_regs[Register.RSP],
                regs=regs,
            )
        )

    def __len__(self) -> int:
        return len(self.entries)

    def addresses(self) -> List[int]:
        """Return the sequence of executed addresses."""
        return [entry.address for entry in self.entries]
