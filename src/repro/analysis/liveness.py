"""Register and flag liveness analysis over a recovered CFG.

The rewriter annotates every roplet with the registers live after the
original instruction (§IV-B1); the chain crafter then draws scratch registers
only from the dead ones and preserves the status register exactly where a
later instruction may read it (§IV-B2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.analysis.cfg_recovery import FunctionCFG
from repro.isa.effects import instruction_uses_defs
from repro.isa.registers import Register


@dataclass
class LivenessResult:
    """Per-instruction liveness facts.

    Attributes:
        live_after: registers live immediately after each instruction address.
        live_before: registers live immediately before each instruction address.
        flags_live_after: addresses after which the condition flags may still
            be read before being redefined.
    """

    live_after: Dict[int, Set[Register]]
    live_before: Dict[int, Set[Register]]
    flags_live_after: Set[int]

    def dead_registers(self, address: int, exclude: Tuple[Register, ...] = ()) -> List[Register]:
        """Registers that are dead after ``address`` (usable as scratch)."""
        live = self.live_after.get(address, set())
        reserved = {Register.RSP, Register.RBP, *exclude}
        return [reg for reg in Register if reg not in live and reg not in reserved]


def compute_liveness(cfg: FunctionCFG) -> LivenessResult:
    """Run a backward may-liveness fixpoint over ``cfg``."""
    # block-level use/def summaries computed per instruction during iteration
    block_live_out: Dict[int, Set[Register]] = {start: set() for start in cfg.blocks}
    exit_live = {Register.RAX, Register.RSP, Register.RBP}

    changed = True
    while changed:
        changed = False
        for block in cfg.block_order():
            live_out: Set[Register] = set()
            if block.is_exit:
                live_out |= exit_live
            for successor in block.successors:
                if successor in cfg.blocks:
                    # live-in of successor = computed by walking it backwards
                    live_out |= _block_live_in(cfg.blocks[successor], block_live_out[successor])
            if live_out != block_live_out[block.start]:
                block_live_out[block.start] = live_out
                changed = True

    live_after: Dict[int, Set[Register]] = {}
    live_before: Dict[int, Set[Register]] = {}
    for block in cfg.block_order():
        live = set(block_live_out[block.start])
        if block.is_exit:
            live |= exit_live
        for address, instruction in reversed(block.instructions):
            live_after[address] = set(live)
            uses, defs = instruction_uses_defs(instruction)
            live = (live - defs) | uses
            live_before[address] = set(live)

    flags_live_after = _compute_flag_liveness(cfg)
    return LivenessResult(live_after=live_after, live_before=live_before,
                          flags_live_after=flags_live_after)


def _block_live_in(block, live_out: Set[Register]) -> Set[Register]:
    live = set(live_out)
    for _, instruction in reversed(block.instructions):
        uses, defs = instruction_uses_defs(instruction)
        live = (live - defs) | uses
    return live


def _compute_flag_liveness(cfg: FunctionCFG) -> Set[int]:
    """Addresses after which flags may be read before being rewritten.

    A simple backward pass per block plus a conservative cross-block rule:
    flags are considered live at a block's end if any successor block reads
    flags before writing them.
    """
    reads_first: Dict[int, bool] = {}
    for block in cfg.block_order():
        state = None
        for _, instruction in block.instructions:
            if instruction.reads_flags():
                state = True
                break
            if instruction.writes_flags():
                state = False
                break
        reads_first[block.start] = bool(state)

    flags_live: Set[int] = set()
    for block in cfg.block_order():
        live = any(reads_first.get(s, False) for s in block.successors)
        for address, instruction in reversed(block.instructions):
            if live:
                flags_live.add(address)
            if instruction.writes_flags():
                live = False
            if instruction.reads_flags():
                live = True
    return flags_live
