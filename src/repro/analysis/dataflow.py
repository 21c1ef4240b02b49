"""Forward data-flow analysis identifying input-derived registers.

The P3 predicate (§V-C) must be coupled with *symbolic registers*: live
registers whose value derives from the function's inputs and may concur to
its outputs.  The paper uses angr for this; the reproduction runs a forward
taint analysis over the recovered CFG, tracking both registers and
frame-pointer-relative stack slots (compiled code spills arguments to the
frame immediately, so register-only tracking would lose everything).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from repro.analysis.cfg_recovery import FunctionCFG
from repro.isa.effects import EFFECTS, Role
from repro.isa.instructions import Instruction, Mnemonic
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import ARG_REGISTERS, CALLER_SAVED, Register


@dataclass(frozen=True)
class TaintState:
    """Immutable taint fact: tainted registers and tainted frame slots."""

    registers: frozenset
    slots: frozenset

    def union(self, other: "TaintState") -> "TaintState":
        return TaintState(self.registers | other.registers, self.slots | other.slots)


def _operand_tainted(operand, state: TaintState) -> bool:
    if isinstance(operand, Reg):
        return operand.reg in state.registers
    if isinstance(operand, Imm):
        return False
    if isinstance(operand, Mem):
        if operand.base is Register.RBP and operand.index is None:
            return operand.disp in state.slots
        # loads through a tainted pointer produce tainted data
        regs = {r for r in (operand.base, operand.index) if r is not None}
        return bool(regs & state.registers)
    return False


def _transfer(instruction: Instruction, state: TaintState) -> TaintState:
    """The taint state after ``instruction``, by its destination's role: a
    read leaves the state alone, a write gives the destination its sources'
    taint and a read-modify-write its own taint or theirs."""
    registers = set(state.registers)
    slots = set(state.slots)
    if instruction.mnemonic is Mnemonic.CALL:
        # conservatively: the return value is tainted if any argument register is
        tainted_args = any(r in registers for r in ARG_REGISTERS)
        for reg in CALLER_SAVED:
            registers.discard(reg)
        if tainted_args:
            registers.add(Register.RAX)
        return TaintState(frozenset(registers), frozenset(slots))
    roles = EFFECTS[instruction.mnemonic].roles
    ops = instruction.operands
    if not ops or not roles or roles[0] is Role.READ:
        return state

    destination = ops[0]
    tainted = any(_operand_tainted(source, state) for source in ops[1:len(roles)])
    if roles[0] is Role.MODIFY:
        tainted = tainted or _operand_tainted(destination, state)

    if isinstance(destination, Reg):
        if tainted:
            registers.add(destination.reg)
        else:
            registers.discard(destination.reg)
    elif isinstance(destination, Mem) and destination.base is Register.RBP and destination.index is None:
        if tainted:
            slots.add(destination.disp)
        else:
            slots.discard(destination.disp)
    return TaintState(frozenset(registers), frozenset(slots))


def compute_symbolic_registers(cfg: FunctionCFG) -> Dict[int, Set[Register]]:
    """Return, per instruction address, the set of input-derived registers.

    The entry state taints the argument registers.  The result maps every
    instruction address to the registers tainted *before* that instruction
    executes, which is where P3 insertion consults it.
    """
    entry_state = TaintState(frozenset(ARG_REGISTERS), frozenset())
    in_states: Dict[int, TaintState] = {cfg.entry: entry_state}
    empty = TaintState(frozenset(), frozenset())

    changed = True
    while changed:
        changed = False
        for block in cfg.block_order():
            state = in_states.get(block.start, empty if block.start != cfg.entry else entry_state)
            for _, instruction in block.instructions:
                state = _transfer(instruction, state)
            for successor in block.successors:
                merged = in_states.get(successor, None)
                new = state if merged is None else merged.union(state)
                if new != merged:
                    in_states[successor] = new
                    changed = True

    per_instruction: Dict[int, Set[Register]] = {}
    for block in cfg.block_order():
        state = in_states.get(block.start, empty if block.start != cfg.entry else entry_state)
        for address, instruction in block.instructions:
            per_instruction[address] = set(state.registers)
            state = _transfer(instruction, state)
    return per_instruction
