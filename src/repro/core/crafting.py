"""Chain crafting: lowering roplets to gadget sequences (Figure 2, stage 2).

The :class:`ChainCrafter` walks a translated function block by block in the
original layout order and emits chain elements for every roplet, drawing
gadgets from the :class:`repro.gadgets.GadgetPool`.  Scratch registers are
taken from registers that are dead around the roplet; when none are left the
crafter spills one register to the single data-section spill slot, and fails
with :class:`RewriteError` when even that is not enough — the same failure
mode the paper reports for 40 coreutils functions (§VII-C1).

Strengthening predicates hook in here: P1 replaces the branch-displacement
loads, P2 prepends perturbations to branch target blocks, P3 injects
state-widening templates at a fraction of program points, and gadget
confusion disguises immediates and misaligns the chain.  The ROPfuscator
layers hook in here too: opaque-constant materialization rewrites eligible
immediates and gadget-slot addresses into run-time recombinations
(:mod:`repro.core.predicates.opaque`), and instruction hiding wraps eligible
roplet lowerings inside opaque predicate bodies
(:mod:`repro.core.predicates.hiding`).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.chain import (
    Chain,
    DeltaSlot,
    DisguiseBaseSlot,
    DisguisedSlot,
    GadgetSlot,
    JunkSlot,
    RawPadding,
    ValueSlot,
)
from repro.core.config import RopConfig
from repro.core.predicates.hiding import emit_hidden
from repro.core.predicates.opaque import emit_opaque_gadget, emit_opaque_value
from repro.core.predicates.p1_array import OpaqueArray
from repro.core.predicates.p2_datadep import P2Perturbation, plan_p2, emit_p2
from repro.core.predicates.p3_state import emit_p3
from repro.core.roplets import Roplet, RopletKind
from repro.core.translation import TranslatedFunction
from repro.gadgets.gadget import Gadget
from repro.gadgets.kinds import ALU_KINDS, KINDS
from repro.gadgets.pool import GadgetPool, GadgetPoolError
from repro.isa.instructions import Mnemonic
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import Register

_MASK64 = (1 << 64) - 1


class RewriteError(Exception):
    """Raised when a function cannot be rewritten into a ROP chain."""


#: Preferred scratch register order (rarely-live registers first).
_SCRATCH_ORDER = (
    Register.R12, Register.R13, Register.R14, Register.R15, Register.RBX,
    Register.R10, Register.R11, Register.RDX, Register.R9, Register.R8,
    Register.RDI, Register.RSI, Register.RCX, Register.RAX,
)


class ChainCrafter:
    """Builds the ROP chain of one translated function."""

    def __init__(self, pool: GadgetPool, config: RopConfig, ss_address: int,
                 spill_slot: int, opaque_array: Optional[OpaqueArray] = None,
                 rng: Optional[random.Random] = None) -> None:
        self.pool = pool
        self.config = config
        self.ss_address = ss_address
        self.spill_slot = spill_slot
        self.opaque_array = opaque_array
        self.rng = rng or random.Random(config.seed)
        self.chain: Chain = Chain("")
        self._label_counter = 0
        self._pair_counter = 0
        self._p3_instances = 0
        self._branch_ordinal = 0
        #: the label a branch's displacement is relative to, placed right
        #: after the branch's ``add rsp`` gadget
        self._pending_anchor = ""
        #: registers pinned across nested lowerings (instruction hiding
        #: reserves its guard here); scratch() and emit_gadget() honor it
        self._reserved: frozenset = frozenset()
        #: the roplet currently being lowered (extraction sources)
        self._current_roplet: Optional[Roplet] = None
        #: opaque-constant bookkeeping (repro.core.predicates.opaque)
        self._opaque_ordinal = 0
        self._opaque_values = 0
        self._opaque_slots = 0
        self._hidden_instances = 0
        self._in_opaque = False
        self._opaque_gadget_pending = False

    # ------------------------------------------------------------------ utils
    def _fresh_label(self, hint: str) -> str:
        self._label_counter += 1
        return f"{hint}_{self._label_counter}"

    def block_label(self, address: int) -> str:
        """The chain label of the block starting at ``address``."""
        return f"blk_{address:#x}"

    def free_registers(self, avoid, exclude: Sequence[Register] = ()) -> List[Register]:
        """Registers usable as scratch without spilling, in preference order.

        A register is free unless it is in ``avoid`` or ``exclude``, reserved
        across a nested lowering, or ``rsp``/``rbp``.
        """
        blocked = set(avoid) | set(exclude) | set(self._reserved) \
            | {Register.RSP, Register.RBP}
        return [r for r in _SCRATCH_ORDER if r not in blocked]

    def scratch(self, avoid: Set[Register], count: int,
                exclude: Sequence[Register] = ()) -> Tuple[List[Register], List[Register]]:
        """Pick ``count`` scratch registers not in ``avoid``/``exclude``.

        Returns ``(registers, spilled)``; ``spilled`` registers were saved to
        the spill slot and must be restored via :meth:`restore` once the
        roplet's lowering is complete.

        Raises:
            RewriteError: when the registers cannot be provided even with the
                single spill slot (the paper's register-pressure failure).
        """
        free = self.free_registers(avoid, exclude)
        if len(free) >= count:
            return free[:count], []
        # spill fallback: one slot only
        needed = count - len(free)
        if needed > 1:
            raise RewriteError(
                f"register pressure: need {count} scratch registers, "
                f"{len(free)} free and only one spill slot available"
            )
        victims = [r for r in _SCRATCH_ORDER if r in avoid and r not in exclude]
        if not victims:
            raise RewriteError("register pressure: no spillable register available")
        victim = victims[-1]
        self.emit_gadget("spill", frozenset(), src=victim, slot=self.spill_slot)
        return free + [victim], [victim]

    def restore(self, spilled: Sequence[Register]) -> None:
        """Restore registers previously spilled by :meth:`scratch`."""
        for reg in spilled:
            self.emit_gadget("unspill", frozenset(), dst=reg, slot=self.spill_slot)

    # ------------------------------------------------------------- emission
    def emit_gadget(self, kind: str, avoid, operand=None, **params) -> Gadget:
        """Emit one gadget slot plus the chain slots its pops consume.

        ``operand`` fills the slot popped into ``params['dst']`` for ``pop``
        gadgets; every other popped register receives a junk slot.

        When an opaque gadget slot is pending (set per eligible roplet by
        :meth:`craft`), the first real gadget emitted is materialized through
        :func:`repro.core.predicates.opaque.emit_opaque_gadget` instead of a
        literal address slot; its pops follow the opaque slot as usual.
        """
        avoid = frozenset(avoid) | self._reserved
        try:
            gadget = self.pool.ensure(kind, avoid=avoid, **params)
        except GadgetPoolError as exc:
            raise RewriteError(str(exc)) from exc
        emitted_opaque = False
        if self._opaque_gadget_pending and not self._in_opaque \
                and kind not in ("spill", "unspill"):
            self._opaque_gadget_pending = False
            # the operands, implicit ones included, the materializer must
            # not clobber
            param_regs = frozenset(v for v in params.values()
                                   if isinstance(v, Register)) | KINDS[kind].implicit
            emitted_opaque = emit_opaque_gadget(self, gadget,
                                                avoid | param_regs)
        if not emitted_opaque:
            self.chain.append(GadgetSlot(gadget))
        operand_pending = operand is not None and kind == "pop"
        for reg in gadget.pops:
            if operand_pending and reg == params.get("dst"):
                self.chain.append(operand)
                operand_pending = False
            else:
                self.chain.append(JunkSlot())
        if operand_pending:
            raise RewriteError(f"gadget for {kind} did not pop its operand register")
        return gadget

    def emit_constant(self, dst: Register, element, avoid,
                      allow_disguise: bool = True,
                      allow_opaque: bool = False) -> None:
        """Load a constant (or symbolic displacement) into ``dst``.

        With gadget confusion enabled the immediate is sometimes split across
        two address-looking slots recovered by a ``sub`` gadget (§V-D).

        With opaque constants enabled *and* ``allow_opaque``, the immediate
        is sometimes recombined at run time from the P1 opaque array so its
        literal never appears in the chain.  Callers only pass
        ``allow_opaque=True`` for pure data values at flag-safe sites: the
        recombination clobbers flags, and opaquifying a value later used as a
        memory *address* would force the attack-side shadow tracker to
        concretize, needlessly collapsing the DSE exactness envelope.
        """
        if isinstance(element, int):
            element = ValueSlot(element & _MASK64)
        use_opaque = (
            self.config.opaque_constants and allow_opaque
            and not self._in_opaque and isinstance(element, ValueSlot)
            and self.rng.random() < self.config.opaque_fraction
        )
        if use_opaque and emit_opaque_value(self, dst, element, avoid):
            return
        use_disguise = (
            self.config.gadget_confusion and allow_disguise
            and len(self.pool) and self.rng.random() < 0.4
        )
        if use_disguise:
            free = self.free_registers(avoid, exclude=[dst])
            if free:
                helper = free[0]
                self._pair_counter += 1
                pair = self._pair_counter
                work = frozenset(avoid) | {dst, helper}
                self.emit_gadget("pop", work, operand=DisguisedSlot(element, pair), dst=dst)
                self.emit_gadget("pop", work, operand=DisguiseBaseSlot(pair), dst=helper)
                self.emit_gadget("sub_rr", work, dst=dst, src=helper)
                return
        self.emit_gadget("pop", avoid, operand=element, dst=dst)

    def emit_cell_address(self, dst: Register, avoid) -> None:
        """Load the address of the current ``other_rsp`` cell into ``dst``.

        This is the ``pop reg, ss ; add reg, [reg]`` idiom used throughout
        §IV-B2: the first cell of the stack-switching array holds the byte
        offset of the innermost active frame's cell.
        """
        self.emit_constant(dst, ValueSlot(self.ss_address), avoid)
        self.emit_gadget("add_r_mem", avoid, dst=dst)

    # ----------------------------------------------------------- main entry
    def craft(self, translated: TranslatedFunction) -> Chain:
        """Lower ``translated`` into a complete chain."""
        self.chain = Chain(translated.name)
        p2_plan: Dict[int, List[P2Perturbation]] = {}
        if self.config.p2_enabled:
            p2_plan = plan_p2(translated)

        blocks = translated.block_order()
        for block in blocks:
            self.chain.label(self.block_label(block.start))
            for perturbation in p2_plan.get(block.start, []):
                first = block.roplets[0] if block.roplets else None
                flags_needed = bool(first and first.instruction.reads_flags())
                if not flags_needed:
                    emit_p2(self, perturbation,
                            avoid=first.avoid_set() if first else frozenset())
            for roplet in block.roplets:
                self._current_roplet = roplet
                self._maybe_insert_p3(roplet)
                self._maybe_insert_unaligned_update(roplet)
                self._maybe_request_opaque_gadget(roplet)
                if not self._maybe_hide(roplet):
                    self._lower_roplet(roplet)
                self._opaque_gadget_pending = False
        return self.chain

    # ------------------------------------------------------------ predicates
    def _maybe_insert_p3(self, roplet: Roplet) -> None:
        if not self.config.p3_enabled or self.config.p3_fraction <= 0:
            return
        if not self._flag_safe(roplet) or not roplet.symbolic_registers:
            return
        if self.rng.random() >= self.config.p3_fraction:
            return
        variant = self.config.p3_variant
        if variant == "mixed":
            variant = "loop" if self.rng.random() < 0.5 else "array"
        if variant == "array" and (self.opaque_array is None or self.config.read_only_chains):
            variant = "loop"
        try:
            emit_p3(self, roplet, variant)
            self._p3_instances += 1
        except RewriteError:
            # not enough scratch registers at this point: skip the instance,
            # composition is opportunistic (§V-C)
            pass

    def _flag_safe(self, roplet: Roplet) -> bool:
        return not roplet.flags_live_after \
            and not roplet.instruction.reads_flags()

    def _maybe_request_opaque_gadget(self, roplet: Roplet) -> None:
        """Arm the opaque gadget-address form for this roplet's first gadget.

        The materializer clobbers flags and writes the chain, so eligibility
        requires a flag-safe roplet, a placed opaque array and writable
        chains; :meth:`emit_gadget` consumes the request.
        """
        if not self.config.opaque_constants or self.config.read_only_chains:
            return
        if self.opaque_array is None or self.opaque_array.address is None:
            return
        if not self._flag_safe(roplet):
            return
        if self.rng.random() >= self.config.opaque_fraction:
            return
        self._opaque_gadget_pending = True

    def _maybe_hide(self, roplet: Roplet) -> bool:
        """Lower ``roplet`` inside an opaque predicate body (§V-B coupling).

        Returns True when the hidden lowering was emitted.  Only pure
        data-movement/ALU roplets at flag-safe points are eligible: the
        prologue/epilogue clobber flags, and the epilogue must execute right
        after the real gadgets (a branching lowering would skip it).
        """
        if not self.config.instruction_hiding:
            return False
        if roplet.kind not in (RopletKind.DATA_MOVEMENT, RopletKind.ALU):
            return False
        if not self._flag_safe(roplet):
            return False
        if self.opaque_array is None or self.opaque_array.address is None:
            return False
        if self.rng.random() >= self.config.hiding_fraction:
            return False
        entered = [False]

        def lower() -> None:
            entered[0] = True
            self._lower_roplet(roplet)

        try:
            emit_hidden(self, roplet, lower)
            return True
        except RewriteError:
            if entered[0]:
                # the real gadgets are (partially) emitted: re-lowering
                # would duplicate them, so the failure must propagate
                raise
            # scratch pressure before anything was emitted: composition is
            # opportunistic, fall back to the plain lowering
            return False

    def _maybe_insert_unaligned_update(self, roplet: Roplet) -> None:
        if not self.config.gadget_confusion or not self._flag_safe(roplet):
            return
        if self.rng.random() >= 0.08:
            return
        avoid = roplet.avoid_set()
        try:
            regs, spilled = self.scratch(avoid, 1)
        except RewriteError:
            return
        eta = self.rng.choice([3, 5, 9, 11, 13])
        self.emit_constant(regs[0], ValueSlot(eta), avoid, allow_disguise=False)
        self.emit_gadget("add_rsp_r", avoid, src=regs[0])
        self.chain.append(RawPadding(eta))
        self.restore(spilled)

    # ------------------------------------------------------------- lowering
    def _lower_roplet(self, roplet: Roplet) -> None:
        kind = roplet.kind
        if kind is RopletKind.INTRA_TRANSFER:
            self._lower_intra_transfer(roplet)
        elif kind is RopletKind.INTER_TRANSFER:
            self._lower_call(roplet)
        elif kind is RopletKind.EPILOGUE:
            self._lower_epilogue(roplet)
        elif kind is RopletKind.DIRECT_STACK:
            self._lower_direct_stack(roplet)
        elif kind is RopletKind.STACK_POINTER_REF:
            self._lower_stack_pointer_ref(roplet)
        elif kind in (RopletKind.DATA_MOVEMENT, RopletKind.ALU):
            self._lower_generic(roplet)
        else:
            raise RewriteError(f"unsupported roplet kind {kind}")

    # -- branches -------------------------------------------------------------
    def _emit_displacement(self, dst: Register, target_address: int, roplet: Roplet,
                           avoid) -> None:
        """Load the chain displacement for a branch into ``dst`` (P1-aware)."""
        anchor = self._fresh_label("anchor")
        self._pending_anchor = anchor
        target_label = self.block_label(target_address)
        if self.config.p1_enabled and self.opaque_array is not None:
            ordinal = self._branch_ordinal % self.config.p1_branches
            self._branch_ordinal += 1
            fixed = self.opaque_array.fixed_part(ordinal)
            delta = DeltaSlot(target=target_label, anchor=anchor, subtract=fixed)
            work = frozenset(avoid) | {dst}
            self.opaque_array.emit_extraction(self, dst, ordinal, roplet, work)
            regs, spilled = self.scratch(work, 1, exclude=[dst])
            if spilled:
                raise RewriteError("register pressure in P1 branch encoding")
            work = work | {regs[0]}
            self.emit_constant(regs[0], delta, work, allow_disguise=False)
            self.emit_gadget("add_rr", work, dst=dst, src=regs[0])
        else:
            self._branch_ordinal += 1
            delta = DeltaSlot(target=target_label, anchor=anchor)
            self.emit_constant(dst, delta, avoid, allow_disguise=self.config.gadget_confusion)

    def _lower_intra_transfer(self, roplet: Roplet) -> None:
        avoid = roplet.avoid_set()
        target = roplet.branch_target
        if roplet.instruction.mnemonic is Mnemonic.JMP:
            regs, spilled = self.scratch(avoid, 1)
            if spilled:
                raise RewriteError("register pressure at unconditional branch")
            self._emit_displacement(regs[0], target, roplet, avoid)
            self.emit_gadget("add_rsp_r", avoid, src=regs[0])
            self.chain.label(self._pending_anchor)
            return
        # conditional transfer: leak the flag into a register first (Figure 1
        # idiom), then mask the displacement with it.
        regs, spilled = self.scratch(avoid, 2)
        if spilled:
            raise RewriteError("register pressure at conditional branch")
        cond_reg, disp_reg = regs
        work = frozenset(avoid) | {cond_reg, disp_reg}
        self.emit_gadget("set", work, cc=roplet.condition, dst=cond_reg)
        self.emit_gadget("movzx_rr1", work, dst=cond_reg, src=cond_reg)
        self.emit_gadget("neg", work, dst=cond_reg)
        self._emit_displacement(disp_reg, target, roplet, work)
        self.emit_gadget("and_rr", work, dst=disp_reg, src=cond_reg)
        self.emit_gadget("add_rsp_r", work, src=disp_reg)
        self.chain.label(self._pending_anchor)

    # -- calls ---------------------------------------------------------------
    def _lower_call(self, roplet: Roplet) -> None:
        avoid = roplet.avoid_set()
        target = roplet.instruction.operands[0]
        regs, spilled = self.scratch(avoid, 5)
        if spilled:
            # a spilled register cannot survive the call protocol
            raise RewriteError("register pressure at call site")
        cell, other, retg, const8, callee = regs
        work = frozenset(avoid) | set(regs)
        self.emit_cell_address(cell, work)
        self.emit_constant(const8, ValueSlot(8), work)
        self.emit_gadget("sub_mem_r", work, dst=cell, src=const8)
        self.emit_gadget("load8", work, dst=other, src=cell)
        func_ret = self.pool.ensure("func_ret", ss=self.ss_address)
        self.emit_constant(retg, ValueSlot(func_ret.address), work)
        self.emit_gadget("store8", work, dst=other, src=retg)
        if isinstance(target, Imm):
            self.emit_constant(callee, ValueSlot(target.value), work)
        elif isinstance(target, Reg):
            self.emit_gadget("mov_rr", work, dst=callee, src=target.reg)
        else:
            raise RewriteError(f"unsupported call target {target}")
        self.emit_gadget("xchg_rsp_mem_jmp", work, mem=cell, target=callee)

    # -- epilogue --------------------------------------------------------------
    def _lower_epilogue(self, roplet: Roplet) -> None:
        avoid = roplet.avoid_set()
        if roplet.instruction.mnemonic is Mnemonic.LEAVE:
            regs, spilled = self.scratch(avoid, 3)
            cell, cursor, const8 = regs
            work = frozenset(avoid) | set(regs)
            self.emit_cell_address(cell, work)
            self.emit_gadget("mov_rr", work, dst=cursor, src=Register.RBP)
            self.emit_gadget("load8", work, dst=Register.RBP, src=cursor)
            self.emit_constant(const8, ValueSlot(8), work)
            self.emit_gadget("add_rr", work, dst=cursor, src=const8)
            self.emit_gadget("store8", work, dst=cell, src=cursor)
            self.restore(spilled)
            return
        # ret: unpivot and return to the native caller (§A "from ROP to native")
        regs, spilled = self.scratch(avoid, 2)
        if spilled:
            raise RewriteError("register pressure at function epilogue")
        cell, const8 = regs
        work = frozenset(avoid) | set(regs)
        self.emit_constant(cell, ValueSlot(self.ss_address), work, allow_disguise=False)
        self.emit_constant(const8, ValueSlot(8), work, allow_disguise=False)
        self.emit_gadget("sub_mem_r", work, dst=cell, src=const8)
        self.emit_gadget("add_r_mem", work, dst=cell)
        self.emit_gadget("add_rr", work, dst=cell, src=const8)
        self.emit_gadget("mov_rsp_mem", work, src=cell)

    # -- direct stack accesses --------------------------------------------------
    def _lower_direct_stack(self, roplet: Roplet) -> None:
        avoid = roplet.avoid_set()
        instruction = roplet.instruction
        operand = instruction.operands[0]
        if instruction.mnemonic is Mnemonic.PUSH:
            regs, spilled = self.scratch(avoid, 3)
            cell, cursor, const8 = regs
            work = frozenset(avoid) | set(regs)
            self.emit_cell_address(cell, work)
            self.emit_gadget("load8", work, dst=cursor, src=cell)
            self.emit_constant(const8, ValueSlot(8), work)
            self.emit_gadget("sub_rr", work, dst=cursor, src=const8)
            self.emit_gadget("store8", work, dst=cell, src=cursor)
            if isinstance(operand, Reg):
                source = operand.reg
            elif isinstance(operand, Imm):
                extra, extra_spilled = self.scratch(work, 1)
                spilled += extra_spilled
                source = extra[0]
                work = work | {source}
                self.emit_constant(source, ValueSlot(operand.value), work,
                                   allow_opaque=True)
            else:
                raise RewriteError(f"unsupported push operand {operand}")
            self.emit_gadget("store8", work, dst=cursor, src=source)
            self.restore(spilled)
            return
        # pop DST
        if not isinstance(operand, Reg):
            raise RewriteError(f"unsupported pop operand {operand}")
        destination = operand.reg
        regs, spilled = self.scratch(avoid, 3, exclude=[destination])
        cell, cursor, const8 = regs
        work = frozenset(avoid) | set(regs) | {destination}
        self.emit_cell_address(cell, work)
        self.emit_gadget("load8", work, dst=cursor, src=cell)
        self.emit_gadget("load8", work, dst=destination, src=cursor)
        self.emit_constant(const8, ValueSlot(8), work)
        self.emit_gadget("add_rr", work, dst=cursor, src=const8)
        self.emit_gadget("store8", work, dst=cell, src=cursor)
        self.restore(spilled)

    # -- explicit rsp references -------------------------------------------------
    def _lower_stack_pointer_ref(self, roplet: Roplet) -> None:
        avoid = roplet.avoid_set()
        instruction = roplet.instruction
        m = instruction.mnemonic
        ops = instruction.operands

        def is_rsp_reg(op) -> bool:
            return isinstance(op, Reg) and op.reg is Register.RSP

        # mov REG, rsp
        if m is Mnemonic.MOV and isinstance(ops[0], Reg) and is_rsp_reg(ops[1]):
            regs, spilled = self.scratch(avoid, 1, exclude=[ops[0].reg])
            work = frozenset(avoid) | set(regs) | {ops[0].reg}
            self.emit_cell_address(regs[0], work)
            self.emit_gadget("load8", work, dst=ops[0].reg, src=regs[0])
            self.restore(spilled)
            return
        # mov rsp, REG
        if m is Mnemonic.MOV and is_rsp_reg(ops[0]) and isinstance(ops[1], Reg):
            regs, spilled = self.scratch(avoid, 1, exclude=[ops[1].reg])
            work = frozenset(avoid) | set(regs)
            self.emit_cell_address(regs[0], work)
            self.emit_gadget("store8", work, dst=regs[0], src=ops[1].reg)
            self.restore(spilled)
            return
        # add/sub rsp, imm|reg
        if m in (Mnemonic.ADD, Mnemonic.SUB) and is_rsp_reg(ops[0]):
            regs, spilled = self.scratch(avoid, 3)
            cell, cursor, amount = regs
            work = frozenset(avoid) | set(regs)
            self.emit_cell_address(cell, work)
            self.emit_gadget("load8", work, dst=cursor, src=cell)
            if isinstance(ops[1], Imm):
                self.emit_constant(amount, ValueSlot(ops[1].value), work)
            elif isinstance(ops[1], Reg):
                amount = ops[1].reg
            else:
                raise RewriteError(f"unsupported rsp arithmetic operand {ops[1]}")
            kind = "add_rr" if m is Mnemonic.ADD else "sub_rr"
            self.emit_gadget(kind, work, dst=cursor, src=amount)
            self.emit_gadget("store8", work, dst=cell, src=cursor)
            self.restore(spilled)
            return
        # lea REG, [rsp + disp]
        if m is Mnemonic.LEA and isinstance(ops[0], Reg) and isinstance(ops[1], Mem) \
                and ops[1].base is Register.RSP and ops[1].index is None:
            destination = ops[0].reg
            regs, spilled = self.scratch(avoid, 2, exclude=[destination])
            work = frozenset(avoid) | set(regs) | {destination}
            self.emit_cell_address(regs[0], work)
            self.emit_gadget("load8", work, dst=destination, src=regs[0])
            if ops[1].disp:
                self.emit_constant(regs[1], ValueSlot(ops[1].disp & _MASK64), work)
                self.emit_gadget("add_rr", work, dst=destination, src=regs[1])
            self.restore(spilled)
            return
        # memory accesses through rsp: rebase on the other_rsp value
        if m in (Mnemonic.MOV, Mnemonic.MOVZX) and any(
                isinstance(op, Mem) and op.base is Register.RSP for op in ops):
            self._lower_rsp_memory_access(roplet)
            return
        raise RewriteError(f"unsupported stack pointer reference {instruction}")

    def _lower_rsp_memory_access(self, roplet: Roplet) -> None:
        avoid = roplet.avoid_set()
        instruction = roplet.instruction
        ops = instruction.operands
        mem = next(op for op in ops if isinstance(op, Mem))
        other = next(op for op in ops if not isinstance(op, Mem))
        is_load = isinstance(ops[0], Reg)
        exclude = [other.reg] if isinstance(other, Reg) else []
        regs, spilled = self.scratch(avoid, 2, exclude=exclude)
        address_reg, disp_reg = regs
        work = frozenset(avoid) | set(regs) | set(exclude)
        self.emit_cell_address(address_reg, work)
        self.emit_gadget("load8", work, dst=address_reg, src=address_reg)
        if mem.disp:
            self.emit_constant(disp_reg, ValueSlot(mem.disp & _MASK64), work)
            self.emit_gadget("add_rr", work, dst=address_reg, src=disp_reg)
        if is_load:
            self.emit_gadget(f"load{mem.size}", work, dst=other.reg, src=address_reg)
        else:
            self.emit_gadget(f"store{mem.size}", work, dst=address_reg, src=other.reg)
        self.restore(spilled)

    # -- data movement and ALU -----------------------------------------------------
    def _lower_generic(self, roplet: Roplet) -> None:
        avoid = roplet.avoid_set()
        instruction = roplet.instruction
        m = instruction.mnemonic
        ops = instruction.operands
        flag_safe = not roplet.flags_live_after

        if m is Mnemonic.NOP:
            return
        if m is Mnemonic.MOV and isinstance(ops[0], Reg) and isinstance(ops[1], Reg):
            self.emit_gadget("mov_rr", avoid, dst=ops[0].reg, src=ops[1].reg)
            return
        if m is Mnemonic.MOV and isinstance(ops[0], Reg) and isinstance(ops[1], Imm):
            self.emit_constant(ops[0].reg, ValueSlot(ops[1].value), avoid,
                               allow_disguise=flag_safe,
                               allow_opaque=flag_safe)
            return
        if m in (Mnemonic.MOV, Mnemonic.MOVZX) and isinstance(ops[0], Reg) \
                and isinstance(ops[1], Mem):
            self._emit_memory_load(ops[0].reg, ops[1], avoid, flag_safe)
            return
        if m is Mnemonic.MOV and isinstance(ops[0], Mem) and isinstance(ops[1], Reg):
            self._emit_memory_store(ops[0], ops[1].reg, avoid, flag_safe)
            return
        if m is Mnemonic.MOV and isinstance(ops[0], Mem) and isinstance(ops[1], Imm):
            regs, spilled = self.scratch(avoid, 1)
            self.emit_constant(regs[0], ValueSlot(ops[1].value), avoid,
                               allow_disguise=flag_safe,
                               allow_opaque=flag_safe and not spilled)
            self._emit_memory_store(ops[0], regs[0], avoid | {regs[0]}, flag_safe)
            self.restore(spilled)
            return
        if m is Mnemonic.MOVZX and isinstance(ops[0], Reg) and isinstance(ops[1], Reg):
            self.emit_gadget("movzx_rr1", avoid, dst=ops[0].reg, src=ops[1].reg)
            return
        if m is Mnemonic.MOVSX and isinstance(ops[0], Reg) and isinstance(ops[1], Reg):
            self.emit_gadget("movsx_rr1", avoid, dst=ops[0].reg, src=ops[1].reg)
            return
        if m is Mnemonic.LEA and isinstance(ops[0], Reg) and isinstance(ops[1], Mem):
            mem = ops[1]
            if mem.index is not None:
                raise RewriteError(f"indexed lea at {roplet.address:#x} is not supported")
            destination = ops[0].reg
            self.emit_constant(destination, ValueSlot(mem.disp & _MASK64), avoid,
                               allow_disguise=flag_safe)
            if mem.base is not None:
                self.emit_gadget("add_rr", avoid, dst=destination, src=mem.base)
            return
        if m is Mnemonic.SET and isinstance(ops[0], Reg):
            self.emit_gadget("set", avoid, cc=instruction.condition, dst=ops[0].reg)
            return
        if m is Mnemonic.CMOV and isinstance(ops[0], Reg) and isinstance(ops[1], Reg):
            self.emit_gadget("cmov", avoid, cc=instruction.condition,
                             dst=ops[0].reg, src=ops[1].reg)
            return
        if m is Mnemonic.CQO:
            self.emit_gadget("cqo", avoid)
            return
        if m is Mnemonic.IDIV and isinstance(ops[0], Reg):
            self.emit_gadget("idiv", avoid, src=ops[0].reg)
            return
        if m in (Mnemonic.NEG, Mnemonic.NOT) and isinstance(ops[0], Reg):
            self.emit_gadget(m.value, avoid, dst=ops[0].reg)
            return
        if m in (Mnemonic.INC, Mnemonic.DEC) and isinstance(ops[0], Reg):
            regs, spilled = self.scratch(avoid, 1, exclude=[ops[0].reg])
            self.emit_constant(regs[0], ValueSlot(1), avoid,
                               allow_disguise=flag_safe,
                               allow_opaque=flag_safe)
            kind = "add_rr" if m is Mnemonic.INC else "sub_rr"
            self.emit_gadget(kind, avoid, dst=ops[0].reg, src=regs[0])
            self.restore(spilled)
            return
        if m in ALU_KINDS and isinstance(ops[0], Reg):
            if isinstance(ops[1], Reg):
                self.emit_gadget(ALU_KINDS[m], avoid, dst=ops[0].reg, src=ops[1].reg)
                return
            if isinstance(ops[1], Imm):
                regs, spilled = self.scratch(avoid, 1, exclude=[ops[0].reg])
                # the recombination clobbers flags before the ALU op sets its
                # own, which only ADC/SBB (carry consumers) can observe
                self.emit_constant(regs[0], ValueSlot(ops[1].value), avoid,
                                   allow_disguise=False,
                                   allow_opaque=m not in (Mnemonic.ADC,
                                                          Mnemonic.SBB))
                self.emit_gadget(ALU_KINDS[m], avoid, dst=ops[0].reg, src=regs[0])
                self.restore(spilled)
                return
            if isinstance(ops[1], Mem):
                regs, spilled = self.scratch(avoid, 1, exclude=[ops[0].reg])
                self._emit_memory_load(regs[0], ops[1], avoid | {ops[0].reg}, False)
                self.emit_gadget(ALU_KINDS[m], avoid, dst=ops[0].reg, src=regs[0])
                self.restore(spilled)
                return
        raise RewriteError(f"unsupported instruction {instruction} at {roplet.address:#x}")

    def _emit_memory_load(self, destination: Register, mem: Mem, avoid,
                          flag_safe: bool) -> None:
        if mem.index is not None:
            raise RewriteError("indexed memory operands are not supported")
        if mem.base is None:
            # absolute address
            self.emit_constant(destination, ValueSlot(mem.disp & _MASK64), avoid,
                               allow_disguise=flag_safe)
            self.emit_gadget(f"load{mem.size}", avoid, dst=destination, src=destination)
            return
        if mem.disp == 0:
            self.emit_gadget(f"load{mem.size}", avoid, dst=destination, src=mem.base)
            return
        if destination != mem.base:
            self.emit_constant(destination, ValueSlot(mem.disp & _MASK64), avoid,
                               allow_disguise=flag_safe)
            self.emit_gadget("add_rr", avoid, dst=destination, src=mem.base)
            self.emit_gadget(f"load{mem.size}", avoid, dst=destination, src=destination)
            return
        regs, spilled = self.scratch(avoid, 1, exclude=[destination, mem.base])
        self.emit_constant(regs[0], ValueSlot(mem.disp & _MASK64), avoid,
                           allow_disguise=flag_safe)
        self.emit_gadget("add_rr", avoid, dst=regs[0], src=mem.base)
        self.emit_gadget(f"load{mem.size}", avoid, dst=destination, src=regs[0])
        self.restore(spilled)

    def _emit_memory_store(self, mem: Mem, source: Register, avoid,
                           flag_safe: bool) -> None:
        if mem.index is not None:
            raise RewriteError("indexed memory operands are not supported")
        if mem.base is not None and mem.disp == 0:
            self.emit_gadget(f"store{mem.size}", avoid, dst=mem.base, src=source)
            return
        regs, spilled = self.scratch(avoid, 1, exclude=[source] + ([mem.base] if mem.base else []))
        address_reg = regs[0]
        self.emit_constant(address_reg, ValueSlot(mem.disp & _MASK64), avoid,
                           allow_disguise=flag_safe)
        if mem.base is not None:
            self.emit_gadget("add_rr", avoid, dst=address_reg, src=mem.base)
        self.emit_gadget(f"store{mem.size}", avoid, dst=address_reg, src=source)
        self.restore(spilled)
