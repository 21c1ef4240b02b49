"""Shadow (symbolic) execution alongside the concrete emulator.

The :class:`ShadowTracker` hooks an :class:`repro.cpu.Emulator` and mirrors
every executed instruction over symbolic expressions: registers and memory
locations whose value derives from the designated input symbols carry an
expression, everything else stays concrete.  When a branch decision (or a
chain-pointer update, for ROP-encoded branches) depends on a symbolic value,
the tracker records a :class:`PathConstraint` — the raw material both the DSE
and the SE engines feed to the solver.

The mirror runs as *specialized transfers* (:func:`specialize`): one per
decoded instruction, built by the builder registered for its mnemonic, that
the emulator binds into the instruction's compiled step.  Most transfers
carry a concrete guard (nothing the instruction reads is symbolic) and the
kill effects that are all an instruction passing it needs, both derived
from the effect table, as Python source the step inlines; only when the
guard fails does the step call the instruction's symbolic transfer.  So the instructions that read no symbolic
state, most of them, make no call into this module.  The memory shadow is
indexed by 8-byte word, so a guard's probe of the bytes an access reads is
a dict lookup or two.

The tracker's state format is this module's own: the backtracking DSE
explorer asks the tracker whether a fork of its state is
:meth:`~ShadowTracker.resumable` and has it :meth:`~ShadowTracker.repair` a
restored machine, and reads nothing else but the branch records.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.attacks.solver.expr import (
    BinExpr,
    ConstExpr,
    Expression,
    SelectExpr,
    SymExpr,
    UnExpr,
    apply_binary,
)
from repro.attacks.solver.solver import PathConstraint
from repro.cpu import semantics as _semantics
from repro.cpu.codegen import GuardedTransfer
from repro.cpu.emulator import SpecializedHook
from repro.cpu.host import host_function_address, is_host_address
from repro.cpu.state import EmulationError, SIZE_MASKS
from repro.isa.effects import ARITY, EFFECTS, WRITTEN, Role
from repro.isa.flags import Flag
from repro.isa.instructions import Instruction, Mnemonic
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import CALLER_SAVED, Register
from repro.memory import MemoryError_

_MASK64 = (1 << 64) - 1

#: Bytes one page-model select snapshots around a symbolic-address read.
_PAGE_SIZE = 256
#: Deeper expressions are given up on (concretized).
_MAX_DEPTH = 512

#: Condition-code -> comparison operator used when the flag source is a ``cmp``.
_CMP_CONDITIONS = {
    "e": "eq", "ne": "ne",
    "l": "slt", "le": "sle", "g": "sgt", "ge": "sge",
    "b": "ult", "be": "ule", "a": "ugt", "ae": "uge",
}
#: Condition-code -> operator comparing any other flag source's result with 0.
_RESULT_CONDITIONS = dict(_CMP_CONDITIONS, s="slt", ns="sge")

_ALU_OPERATORS = {
    Mnemonic.ADD: "add", Mnemonic.SUB: "sub", Mnemonic.AND: "and",
    Mnemonic.OR: "or", Mnemonic.XOR: "xor", Mnemonic.IMUL: "mul",
    Mnemonic.SHL: "shl", Mnemonic.SHR: "shr", Mnemonic.SAR: "sar",
}

#: Addresses of the host functions that read or write guest memory directly.
_MEMORY_TOUCHING_HOSTS = frozenset(
    host_function_address(name) for name in ("memcpy", "memset", "strlen", "puts"))

#: The flags of an instruction that reads CF alone (adc/sbb).
_CF = frozenset({Flag.CF.value})

_ONE = ConstExpr(1)
_ZERO = ConstExpr(0)
_EIGHT = ConstExpr(8)


@dataclass
class BranchRecord:
    """A recorded symbolic branch decision.

    Attributes:
        address: address of the deciding instruction.
        constraint: the path constraint describing the decision actually taken.
        kind: ``"jcc"`` for flag branches, ``"pointer"`` for symbolic values
            concretized into the stack/instruction pointer (ROP branches).
        pinned: the concrete target a pointer record pins its value to
            (None for ``"jcc"``): sibling chains pin different targets at
            the same address with the same ``expected``.
    """

    address: int
    constraint: PathConstraint
    kind: str
    pinned: Optional[int] = None


#: The flag record, ``(recipe, result, left, right, size)``: what the last
#: flag write computed, a plain tuple because symbolic transfers build one
#: per flag write.  Conditions compare ``left`` with ``right`` after a
#: ``"sub"`` (cmp/sub) and ``result`` with zero after anything else.
#: ``recipe`` names how :meth:`ShadowTracker.repair` recomputes the flags
#: under another assignment: ``"sub"``/``"add"`` from ``left`` and
#: ``right``, ``"logic"`` from ``result``, ``"concrete"`` when the write had
#: no symbolic input (a restored snapshot's flags are already exact), or
#: None when they are not exactly reproducible.  ``size``, the operand
#: width, is read only under a recipe; records without one carry 8.
_Flags = Tuple[Optional[str], Optional[Expression], Optional[Expression],
              Optional[Expression], int]

#: The flags of a write with no symbolic input.  Nothing downstream can tell
#: them from a recipe over the concrete operand values: the flags are
#: input-independent, and a restored snapshot already carries them.
_CONCRETE_FLAGS: _Flags = ("concrete", _ZERO, None, None, 8)
#: Input-independent flags without a repair recipe: the flags at the entry,
#: and those of an inc/dec that keeps an input-dependent CF.
_UNREPAIRABLE_FLAGS: _Flags = (None, _ZERO, None, None, 8)


class ShadowTracker:
    """Symbolic mirror of a concrete execution.

    Beyond the path constraints, the tracker maintains the bookkeeping the
    backtracking DSE explorer needs to resume an execution from a mid-path
    snapshot under a *different* input assignment (:meth:`resumable`,
    :meth:`repair`):

    * :attr:`repair_exact` stays True while the shadow state exactly
      characterizes every input-dependent bit of the machine — re-evaluating
      the register and memory shadows under a new assignment then
      reconstructs the state a rerun from the entry would have reached.
      Depth-truncated expressions, symbolic-address memory accesses (whose
      concretization loses the input dependence), host calls over symbolic
      arguments and partial-register merges the shadow cannot model all
      clear it.
    * :attr:`constraints_exact` stays True while every recorded constraint's
      *expression* semantics exactly match the concrete branch semantics
      (sub-64-bit signed comparisons, for example, do not), so a solver
      assignment that satisfies a prefix provably drives a rerun down it.
    * :attr:`flags` is the flag record (``_Flags``): the symbolic flag
      source and how to recompute the concrete CPU flags from it.
    * :attr:`branch_observer`, when set, is invoked as ``observer(kind,
      address)`` at the exact point a :class:`BranchRecord` is about to be
      recorded — *before* the record is appended and before the hook mutates
      any shadow state for that instruction.  This is the capture point the
      backtracking DSE explorer snapshots at: ``cmov`` and pointer (ROP)
      records update destination shadows in the same hook call, so a
      snapshot taken after the hook could not be unwound to the pre-branch
      state, while the observer sees it directly.  Observers are
      deliberately not copied by :meth:`fork` (a stored fork must not
      capture into a dead pool).
    * ``stable_ranges`` are memory regions the obfuscator guarantees are
      runtime-constant (the opaque predicate arrays, recorded by the
      rewriter under ``image.metadata["rop_stable_ranges"]``).  A
      symbolic-address *read* that falls inside one is modeled exactly as a
      :class:`SelectExpr` over the whole region instead of being
      concretized, so opaque-constant extraction loads do not collapse
      :attr:`repair_exact`.  Any write into a range (or a memory-touching
      host call) conservatively retires it.
    """

    def __init__(self, memory_model: str = "concretize",
                 stable_ranges: Sequence[Tuple[int, int]] = ()) -> None:
        if memory_model not in ("concretize", "page"):
            raise ValueError("memory_model must be 'concretize' or 'page'")
        self.memory_model = memory_model
        #: regions guaranteed constant at run time; retired on any write
        self._stable_ranges: Tuple[Tuple[int, int], ...] = tuple(
            (int(start), int(end)) for start, end in stable_ranges)
        self._stable_snapshots: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self.register_exprs: Dict[Register, Expression] = {}
        self.memory_exprs: Dict[Tuple[int, int], Expression] = {}
        #: word index: ``address >> 3`` -> the ``memory_exprs`` keys with a
        #: byte in that 8-byte word, so an overlap probe costs a dict lookup
        #: per word the access spans (tuples: :meth:`fork` copies the dict)
        self._words: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        self.flags: _Flags = _UNREPAIRABLE_FLAGS
        #: CF's shadow: None while CF is input-independent, else its
        #: expression, or ``_UNMODELED_CARRY`` when the shadow cannot model
        #: it.  Kept apart from :attr:`flags` because inc/dec keep CF.
        self.carry_expr: Optional[Expression] = None
        self.branches: List[BranchRecord] = []
        self.repair_exact = memory_model == "concretize"
        self.constraints_exact = True
        #: ``observer(kind, address)`` called right before a branch record
        #: is appended (kinds: "jcc", "cmov", "pointer"); see class docs.
        self.branch_observer: Optional[Callable[[str, int], None]] = None

    @property
    def hook(self) -> SpecializedHook:
        """The pre-execution hook to install on the emulator: it runs each
        instruction's specialized transfer (see :func:`specialize`).  Built
        per access, so the tracker holds no reference cycle through it."""
        return SpecializedHook(self, specialize)

    def fork(self) -> "ShadowTracker":
        """Return an independent copy of the tracker state.

        Expressions are immutable, so forking is a handful of shallow dict
        and list copies — the shadow half of a mid-path branch snapshot.
        """
        clone = copy.copy(self)
        clone._stable_snapshots = dict(self._stable_snapshots)
        clone.register_exprs = dict(self.register_exprs)
        clone.memory_exprs = dict(self.memory_exprs)
        clone._words = dict(self._words)
        clone.branches = list(self.branches)
        clone.branch_observer = None
        return clone

    # -- symbol introduction ----------------------------------------------------
    def set_register_symbol(self, register: Register, expression: Expression) -> None:
        """Mark a register as holding a symbolic input value."""
        self.register_exprs[register] = expression

    def set_memory_symbol(self, address: int, size: int, expression: Expression) -> None:
        """Mark a memory location as holding a symbolic input value."""
        self._set_memory_expr((address, size), expression)

    # -- resuming under another assignment ----------------------------------------
    def resumable(self) -> bool:
        """True while a fork of this state, restored with the machine and
        :meth:`repair`-ed for another assignment, continues exactly as a
        rerun from the entry under that assignment would."""
        return (self.repair_exact and self.constraints_exact
                and self.flags[0] is not None)

    def repair(self, emulator, assignment: Dict[str, int]) -> None:
        """Rewrite ``emulator``'s input-dependent state for ``assignment``.

        Every input-dependent register, memory location and CPU flag carries
        a shadow, so re-evaluating the shadows under ``assignment``
        reconstructs the state a rerun from the entry would have reached
        here, while :meth:`resumable` holds.  Raises ``ValueError``,
        ``MemoryError_`` or ``EmulationError`` on an un-evaluable
        expression or an unwritable location.
        """
        regs = emulator.state.regs
        for register, expression in self.register_exprs.items():
            regs[register] = expression.evaluate(assignment) & _MASK64
        memory = emulator.memory
        for (address, size), expression in self.memory_exprs.items():
            memory.write_int(address, expression.evaluate(assignment), size)
        recipe, result, left, right, size = self.flags
        if recipe == "sub":
            emulator._set_sub_flags(left.evaluate(assignment),
                                    right.evaluate(assignment), 0, size)
        elif recipe == "add":
            emulator._set_add_flags(left.evaluate(assignment),
                                    right.evaluate(assignment), 0, size)
        elif recipe == "logic":
            emulator._set_logic_flags(result.evaluate(assignment), size)
        # "concrete": the last flag write had no symbolic input, so the
        # restored flags are input-independent and already exact — common
        # at pointer (ROP) branch points, which do not go through the flags

    # -- memory shadow ----------------------------------------------------------------
    def _bounded(self, expression: Expression) -> Expression:
        if expression.depth() > _MAX_DEPTH:
            # giving up loses the input dependence: state repair is no
            # longer exact from here on
            self.repair_exact = False
            return _ZERO  # give up on unwieldy expressions (concretize)
        return expression

    def _set_memory_expr(self, key: Tuple[int, int],
                         expression: Optional[Expression]) -> None:
        """Insert or remove a ``memory_exprs`` entry, keeping the word index."""
        address, size = key
        words = self._words
        span = range(address >> 3, ((address + size - 1) >> 3) + 1)
        if expression is None:
            if self.memory_exprs.pop(key, None) is not None:
                for word in span:
                    rest = tuple(other for other in words[word] if other != key)
                    if rest:
                        words[word] = rest
                    else:
                        del words[word]
            return
        if key not in self.memory_exprs:
            for word in span:
                words[word] = words.get(word, ()) + (key,)
        self.memory_exprs[key] = expression

    def _entries_over(self, address: int, size: int) -> List[Tuple[int, int]]:
        """The ``memory_exprs`` keys with a byte in ``[address, address+size)``."""
        end = address + size
        words = self._words
        found: List[Tuple[int, int]] = []
        for word in range(address >> 3, ((end - 1) >> 3) + 1):
            for key in words.get(word, ()):
                start, width = key
                if start < end and address < start + width and key not in found:
                    found.append(key)
        return found

    def _overlapping_memory(self, address: int, size: int) -> List[Tuple[int, int]]:
        """The keys of the entries other than ``(address, size)`` with a
        byte in ``[address, address+size)`` (empty, hence false, when none)."""
        key = (address, size)
        return [other for other in self._entries_over(address, size)
                if other != key]

    def load(self, emulator, address: int, size: int,
             address_expr: Optional[Expression]) -> Optional[Expression]:
        """Shadow of a load from ``[address, address+size)``, or None when
        the loaded value is concrete.  ``address_expr`` is the address's
        expression when it is input-dependent."""
        if address_expr is not None:
            select = self._stable_select(emulator, address, address_expr, size)
            if select is not None:
                # the read falls in a runtime-constant region: the select
                # over the full region keeps the input dependence, so state
                # repair stays exact
                return select
            if self.memory_model == "page":
                return self._page_select(emulator, address, address_expr, size)
            # concretizing a symbolic-address read drops the address's
            # input dependence from the loaded value
            self.repair_exact = False
        expression = self.memory_exprs.get((address, size))
        if expression is None and self.repair_exact \
                and self._overlapping_memory(address, size):
            # a wider/narrower symbolic entry covers these bytes: the
            # exact-key miss silently concretizes input-tainted data
            self.repair_exact = False
        return expression

    def store(self, address: int, size: int, expression: Optional[Expression],
              symbolic_address: bool) -> None:
        """Shadow of a store to ``[address, address+size)`` of
        ``expression`` (None: a concrete value).  ``symbolic_address``: the
        address is input-dependent, pinned to this execution's concrete
        choice.  Every other entry the store overlaps is dropped, since
        its bytes no longer hold what it describes; the bytes it kept
        outside the store go unshadowed, so an overlap ends
        ``repair_exact``.

        ``ret`` also drops its dead return slot here, after a read.  That is
        sound: retiring a stable range only gives up selects, and an overlap
        only drops entries and clears the exactness claim.  It changes
        nothing in practice, since the store that made the slot symbolic
        already retired any range over it and dropped what it overlapped."""
        self._invalidate_stable(address, size)
        overlapped = self._overlapping_memory(address, size)
        if symbolic_address or overlapped:
            self.repair_exact = False
        for key in overlapped:
            self._set_memory_expr(key, None)
        self._set_memory_expr((address, size), expression)

    def _address_expr(self, emulator, operand: Mem) -> Optional[Expression]:
        """Expression of a memory operand's address, or None when concrete."""
        registers = self.register_exprs
        base, index = operand.base, operand.index
        if base not in registers and index not in registers:
            return None
        parts: List[Expression] = []
        if base is not None:
            parts.append(registers.get(base)
                         or ConstExpr(emulator.state.read_reg(base)))
        if index is not None:
            expression = registers.get(index)
            if expression is not None:
                parts.append(BinExpr("mul", expression, ConstExpr(operand.scale)))
            else:
                parts.append(ConstExpr(emulator.state.read_reg(index) * operand.scale))
        if operand.disp:
            parts.append(ConstExpr(operand.disp & _MASK64))
        expression = parts[0]
        for part in parts[1:]:
            expression = BinExpr("add", expression, part)
        return expression

    def _stable_select(self, emulator, address: int, address_expr: Expression,
                       size: int) -> Optional[Expression]:
        """Select over a runtime-constant region, or None when outside one.

        The snapshot covers the *entire* region (not one page), so any
        assignment whose index stays inside the region — the opaque
        extraction masks its index to guarantee exactly that — evaluates to
        the bytes the machine would actually load.
        """
        for start, end in self._stable_ranges:
            if start <= address and address + size <= end:
                key = (start, end)
                snapshot = self._stable_snapshots.get(key)
                if snapshot is None:
                    try:
                        snapshot = tuple(emulator.memory.read(start, end - start))
                    except MemoryError_:  # unmapped: let the caller concretize
                        return None
                    self._stable_snapshots[key] = snapshot
                return SelectExpr(base_address=start, snapshot=snapshot,
                                  index=address_expr, size=size)
        return None

    def _invalidate_stable(self, address: int, size: int) -> None:
        """Retire every stable range a write to ``[address, address+size)`` hits."""
        if not self._stable_ranges:
            return
        kept = []
        for start, end in self._stable_ranges:
            if address < end and address + size > start:
                self._stable_snapshots.pop((start, end), None)
            else:
                kept.append((start, end))
        self._stable_ranges = tuple(kept)

    def _page_select(self, emulator, address: int, address_expr: Expression,
                     size: int) -> Expression:
        base = address - (address % _PAGE_SIZE)
        try:
            snapshot = tuple(emulator.memory.read(base, _PAGE_SIZE))
        except MemoryError_:  # unmapped page: fall back to the concrete byte
            return self.memory_exprs.get((address, size)) or _ZERO
        return SelectExpr(base_address=base, snapshot=snapshot, index=address_expr, size=size)

    # -- condition expressions -------------------------------------------------------
    def _condition_expr(self, condition: str) -> Optional[Expression]:
        recipe, result, left, right, _ = self.flags
        if recipe == "sub":
            operator = _CMP_CONDITIONS.get(condition)
        else:
            operator, left, right = _RESULT_CONDITIONS.get(condition), result, _ZERO
        return None if operator is None else BinExpr(operator, left, right)

    def _flags_symbolic(self) -> bool:
        recipe, result, left, right, _ = self.flags
        if recipe == "sub":
            return bool(left.symbols() or right.symbols())
        return bool(result.symbols())

    def _condition_exact(self, condition: str) -> bool:
        """True when the condition's expression semantics match the concrete
        flag semantics exactly (expressions compare at 64 bits, so signed
        predicates over narrower flag sources do not)."""
        recipe, _, _, _, size = self.flags
        if recipe == "sub":
            # operands are width-masked, so unsigned/equality predicates are
            # width-independent; signed ones need the full 64-bit width
            return condition in ("e", "ne", "b", "be", "a", "ae") or size == 8
        if recipe == "logic":
            return condition in ("e", "ne") or size == 8
        if recipe == "add":
            # the 64-bit sum of masked operands can carry past the operand
            # width, so only full-width equality survives
            return size == 8 and condition in ("e", "ne")
        return False

    def _record(self, address: int, predicate: Expression, taken: bool,
                kind: str = "jcc", pinned: Optional[int] = None) -> None:
        self.branches.append(BranchRecord(
            address=address, constraint=PathConstraint(predicate, taken),
            kind=kind, pinned=pinned))

    def path_constraints(self) -> List[PathConstraint]:
        """Constraints of the executed path, in decision order."""
        return [record.constraint for record in self.branches]


# -- specialized shadow transfers ---------------------------------------------
# Every instruction's shadow update is built once per decoded instruction by
# the builder registered for its mnemonic, with operands, widths,
# effective-address arithmetic and masked immediate shift counts already
# resolved (as :mod:`repro.cpu.codegen` folds them into source).  Most
# builders split it at a *concrete guard* that :func:`_guard` derives from
# the effect table (:data:`repro.isa.effects.EFFECTS`): no register the
# machine reads has a shadow expression, no byte of a memory operand or of
# the implicit stack slot has a ``memory_exprs`` entry, and the flags it
# reads are concrete.  The guard and the *kill effects*, all that an
# instruction passing it needs (the shadows of the registers it writes
# dropped, with the narrow-merge rule on ``repair_exact``, stable ranges
# retired by its stores, the concrete flag record), are Python source
# (:class:`_Fast`) that the emulator splices into the instruction's compiled
# step, so most hooked instructions make no call into this module.  A
# builder writes the symbolic transfer the step calls when the guard fails
# (expressions, path constraints, observer calls and exactness updates, with
# memory traffic through the tracker's one load and one store path) and
# only the special cases the table cannot state, each with its reason.  A
# symbolic transfer is exact on concrete inputs too, so a guard may be
# stricter than the fast path needs.  Transfers take the tracker as an
# argument, so one serves every tracker running on the same emulator.

#: ``transfer(tracker, emulator, address)``: one instruction's shadow update,
#: called right before the emulator executes it.
Transfer = Callable[[ShadowTracker, object, int], None]

#: Mnemonic -> builder returning the instruction's transfer (None when the
#: instruction never touches shadow state).
_BUILDERS: Dict[Mnemonic, Callable[[Instruction], Optional[Transfer]]] = {}

#: ``carry_expr`` of an input-dependent CF the shadow does not model: the
#: carry-out of a symbolic add, adc/sbb, imul or shift.  Its symbol makes
#: every CF consumer take its symbolic path; it never enters an expression.
_UNMODELED_CARRY = SymExpr("<unmodeled carry>")


@lru_cache(maxsize=1 << 14)
def specialize(instruction: Instruction) -> Optional[Transfer]:
    """The specialized shadow transfer of ``instruction``, or None.

    Most transfers are :class:`~repro.cpu.codegen.GuardedTransfer` objects,
    whose concrete fast path the emulator inlines into the compiled step.
    A transfer depends on the instruction alone, so equal instructions —
    the same gadget at many chain positions, or in many images — share one
    (the emulator additionally caches it per decoded address).  Decoded
    operands past the ones the mnemonic reads are dropped first, as the
    machine ignores them; a decode missing an operand, which the machine
    does not execute, gets None.
    """
    instruction = _semantics.trim_operands(instruction)
    if len(instruction.operands) < ARITY[instruction.mnemonic]:
        return None
    return _BUILDERS[instruction.mnemonic](instruction)


def _builds(*mnemonics: Mnemonic):
    def register(builder):
        for mnemonic in mnemonics:
            _BUILDERS[mnemonic] = builder
        return builder
    return register


# -- operand plumbing ----------------------------------------------------------

def _effective_address(operand: Mem) -> Callable[[dict], int]:
    """``address(regs)`` of a memory operand (``Emulator.effective_address``)."""
    base, index, scale, disp = operand.base, operand.index, operand.scale, operand.disp
    if index is None:
        if base is None:
            constant = disp & _MASK64
            return lambda regs: constant
        return lambda regs: (regs[base] + disp) & _MASK64
    if base is None:
        return lambda regs: (regs[index] * scale + disp) & _MASK64
    return lambda regs: (regs[base] + regs[index] * scale + disp) & _MASK64


def _unshadowed(t: ShadowTracker, address: int, size: int) -> bool:
    """True when no shadow entry covers a byte of ``[address, address+size)``
    (the exact test behind a guard's word probe)."""
    return not t._entries_over(address, size)


class _Fast:
    """The source of one transfer's concrete fast path.

    Guard clauses (joined by ``and``), kill lines and the constants they
    name, in the vocabulary of :class:`repro.cpu.codegen.FastPath`: the
    tracker is ``_O``, the emulator ``_E``, its register dict ``_R``.
    :func:`_guard` fills one from the effect table.
    """

    def __init__(self) -> None:
        self.clauses: List[str] = []
        self.kills: List[str] = []
        self.constants: Dict[str, object] = {}
        #: address source -> the name a guard clause bound it to, which a
        #: kill line reuses (a kill runs after every clause held)
        self._bound: Dict[str, str] = {}

    def name(self, name: str, value: object) -> str:
        self.constants[name] = value
        return name

    def operand(self, operand) -> str:
        """A constant naming ``operand`` (for ``_E.read_operand``)."""
        return self.name(f"_P{len(self.constants)}", operand)

    def reg(self, register: Register) -> str:
        """A constant naming ``register``."""
        return self.name(f"_K_{register.name}", register)

    def value(self, register: Register) -> str:
        """Source of ``register``'s machine value."""
        return f"_R[{self.reg(register)}]"

    def address(self, operand: Mem) -> str:
        """Source of a memory operand's address (:func:`_effective_address`)."""
        base, index, disp = operand.base, operand.index, operand.disp
        if base is None and index is None:
            return str(disp & _MASK64)
        if index is None and not disp:
            return self.value(base)
        parts = [] if base is None else [self.value(base)]
        if index is not None:
            parts.append(f"{self.value(index)} * {operand.scale}")
        if disp:
            parts.append(str(disp))
        return f"({' + '.join(parts)}) & {_MASK64:#x}"

    def unshadowed(self, address: str, size: int) -> None:
        """Guard: no shadow entry covers ``[address, address+size)``.  A
        word-index probe per word the access spans, so a miss costs a dict
        lookup or two; :func:`_unshadowed` settles a hit exactly."""
        bound = self._bound.setdefault(address, f"_g{len(self._bound)}")
        probe = f"({bound} := {address}) >> 3 not in _O._words"
        if size > 1:
            probe += f" and ({bound} + {size - 1}) >> 3 not in _O._words"
        self.name("_unshadowed", _unshadowed)
        self.clauses.append(f"({probe} or _unshadowed(_O, {bound}, {size}))")

    def retire(self, address: str, size: int) -> List[str]:
        """Kill lines retiring the stable ranges a store hits."""
        address = self._bound.get(address, address)
        return ["if _O._stable_ranges:",
                f"    _O._invalidate_stable({address}, {size})"]

    def build(self, symbolic: Transfer) -> Optional[Transfer]:
        """The guarded transfer, or None when no guard or kill was added."""
        if not self.clauses and not self.kills:
            return None
        return GuardedTransfer(" and ".join(self.clauses) or "True",
                               "\n".join(self.kills), self.constants, symbolic)


def _guard(instruction: Instruction) -> _Fast:
    """The concrete guard and kill of ``instruction``, from :data:`EFFECTS`.

    The guard: no register the machine reads (a register operand in a
    reading role, a memory operand's address registers, the implicit uses)
    has a shadow; no byte of a memory operand, a store's too (a fast store
    assumes shadow-free bytes), or of the implicit stack slot is shadowed;
    the flags read are concrete.  CF has a shadow of its own,
    ``carry_expr``, so an instruction that reads CF alone checks that
    instead of the flag record.  The kill: the registers written that the
    guard did not check lose their shadows (a narrow write merging into the
    dropped symbolic upper bits ends ``repair_exact``); the stable ranges
    the stores hit retire; a flag write sets the concrete flag record, and
    clears ``carry_expr`` when it writes CF.  The calling-convention
    registers are left to the builders: the machine touches none of them.
    """
    effect = EFFECTS[instruction.mnemonic]
    fast = _Fast()
    if effect.flags_read == _CF:
        fast.clauses.append("_O.carry_expr is None")
    elif effect.flags_read:
        fast.clauses.append(
            f"_O.flags is {fast.name('_CONCRETE_FLAGS', _CONCRETE_FLAGS)}")
    read = [register for register in Register if register in effect.uses]
    written = [Reg(register) for register in Register if register in effect.defs]
    accesses = []
    operands = list(zip(effect.roles, instruction.operands))
    if effect.slot is not None:
        operands.append((effect.slot.role, effect.slot.operand))
    for role, operand in operands:
        if type(operand) is Reg:
            if role is not Role.WRITE:
                read.append(operand.reg)
            if role in WRITTEN:
                written.append(operand)
        elif type(operand) is Mem:
            read += [r for r in (operand.base, operand.index) if r is not None]
            if role is not Role.ADDRESS:
                accesses.append((fast.address(operand), operand.size, role))
    read = list(dict.fromkeys(read))
    for register in read:
        fast.clauses.append(f"{fast.reg(register)} not in _O.register_exprs")
    for address, size, _ in accesses:
        fast.unshadowed(address, size)
    for destination in written:
        if destination.reg in read:
            continue  # the guard found no shadow to drop
        pop = f"_O.register_exprs.pop({fast.reg(destination.reg)}, None)"
        if destination.size < 4:
            fast.kills += [f"if {pop} is not None:", "    _O.repair_exact = False"]
        else:
            fast.kills.append(pop)
    for address, size, role in accesses:
        if role in WRITTEN:
            fast.kills += fast.retire(address, size)
    if effect.flags_written:
        fast.kills.append(
            f"_O.flags = {fast.name('_CONCRETE_FLAGS', _CONCRETE_FLAGS)}")
        if Flag.CF.value in effect.flags_written:
            fast.kills.append("_O.carry_expr = None")
    return fast


def _reader(operand):
    """``read(tracker, emulator)``: the operand's shadow expression, or None
    while it is concrete."""
    if type(operand) is Reg:
        register = operand.reg
        if operand.size < 8:
            mask = ConstExpr(SIZE_MASKS[operand.size])

            def read(t, emulator) -> Optional[Expression]:
                expression = t.register_exprs.get(register)
                if expression is None:
                    return None
                return BinExpr("and", expression, mask)

            return read
        return lambda t, emulator: t.register_exprs.get(register)
    if type(operand) is Mem:
        address_of, size = _effective_address(operand), operand.size
        return lambda t, emulator: t.load(
            emulator, address_of(emulator.state.regs), size,
            t._address_expr(emulator, operand))
    return lambda t, emulator: None


def _valuer(operand):
    """``value(emulator, expression)``: the expression, or the operand's
    concrete value as a constant when it has none."""
    if type(operand) is Imm:
        constant = ConstExpr(operand.value & SIZE_MASKS[operand.size])
        return lambda emulator, expression: expression or constant
    return lambda emulator, expression: expression or ConstExpr(
        emulator.read_operand(operand))
def _writer(destination):
    """``write(tracker, emulator, expression=None)``: install the shadow of
    a write to ``destination`` (None: the written value is concrete)."""
    if type(destination) is Mem:
        address_of, size = _effective_address(destination), destination.size
        address_registers = tuple(r for r in (destination.base, destination.index)
                                  if r is not None)
        mask_expr = ConstExpr(SIZE_MASKS[size])

        def store(t, emulator, expression=None) -> None:
            if expression is not None:
                if size < 8:
                    expression = BinExpr("and", expression, mask_expr)
                expression = t._bounded(expression)
            t.store(address_of(emulator.state.regs), size, expression,
                    not t.register_exprs.keys().isdisjoint(address_registers))

        return store
    if type(destination) is not Reg:
        return lambda t, emulator, expression: None
    register, size = destination.reg, destination.size
    if size == 8:
        def write(t, emulator, expression=None) -> None:
            if expression is None:
                t.register_exprs.pop(register, None)
            else:
                t.register_exprs[register] = t._bounded(expression)

        return write
    mask = SIZE_MASKS[size]
    mask_expr, keep, narrow = ConstExpr(mask), ~mask & _MASK64, size < 4

    def write_sized(t, emulator, expression=None) -> None:
        if expression is None:
            if t.register_exprs.pop(register, None) is not None and narrow:
                # a narrow concrete write merges into symbolic upper bits
                # the shadow just dropped wholesale
                t.repair_exact = False
            return
        # mask so the stored expression equals the full register value
        # after the (zero-extending or merging) write
        expression = BinExpr("and", expression, mask_expr)
        if narrow:
            # 1/2-byte writes merge into the register's upper bits.  A
            # concrete upper half is input-independent (anything
            # input-dependent the shadow dropped has already cleared
            # repair_exact), so the merge is exactly ``upper | (expr &
            # mask)``; only a merge into *symbolic* upper bits stays
            # unmodeled.
            if t.register_exprs.get(register) is not None:
                t.repair_exact = False
            else:
                upper = emulator.state.regs[register] & keep
                if upper:
                    expression = BinExpr("or", ConstExpr(upper), expression)
        t.register_exprs[register] = t._bounded(expression)

    return write_sized



# -- builders ------------------------------------------------------------------

@_builds(Mnemonic.NOP, Mnemonic.HLT)
def _build_inert(instruction: Instruction) -> Optional[Transfer]:
    return None


@_builds(Mnemonic.MOV, Mnemonic.MOVZX, Mnemonic.MOVSX)
def _build_move(instruction: Instruction) -> Optional[Transfer]:
    destination, source = instruction.operands
    read, write = _reader(source), _writer(destination)
    width = getattr(source, "size", 8)
    extend = instruction.mnemonic is not Mnemonic.MOV and width < 8
    signed = instruction.mnemonic is Mnemonic.MOVSX
    if extend:
        mask = ConstExpr(SIZE_MASKS[width])
        sign = ConstExpr(1 << (8 * width - 1))

    def symbolic(t, emulator, address) -> None:
        expression = read(t, emulator)
        if expression is not None:
            if extend:
                expression = BinExpr("and", expression, mask)
                if signed:
                    # sign-extend: (x ^ sign_bit) - sign_bit over the
                    # zero-extended value
                    expression = BinExpr("sub", BinExpr("xor", expression, sign),
                                         sign)
        write(t, emulator, expression)

    return _guard(instruction).build(symbolic)


@_builds(Mnemonic.LEA)
def _build_lea(instruction: Instruction) -> Optional[Transfer]:
    destination, source = instruction.operands
    if type(source) is not Mem:
        return None  # no address to take: the machine faults
    write = _writer(destination)

    def symbolic(t, emulator, address) -> None:
        write(t, emulator, t._address_expr(emulator, source))

    return _guard(instruction).build(symbolic)


@_builds(Mnemonic.XCHG)
def _build_xchg(instruction: Instruction) -> Optional[Transfer]:
    first, second = instruction.operands
    read_first, read_second = _reader(first), _reader(second)
    write_first, write_second = _writer(first), _writer(second)

    store_first = type(second) is Mem

    def symbolic(t, emulator, address) -> None:
        first_expr = read_first(t, emulator)
        second_expr = read_second(t, emulator)
        if store_first:
            # the store's address (and whether it is input-dependent) comes
            # from the pre-instruction registers, as on x86
            write_second(t, emulator, first_expr)
            write_first(t, emulator, second_expr)
        else:
            write_first(t, emulator, second_expr)
            write_second(t, emulator, first_expr)

    return _guard(instruction).build(symbolic)


_WRITE_RSP, _WRITE_RBP = _writer(Reg(Register.RSP)), _writer(Reg(Register.RBP))


@_builds(Mnemonic.PUSH)
def _build_push(instruction: Instruction) -> Optional[Transfer]:
    read = _reader(instruction.operands[0])

    def symbolic(t, emulator, address) -> None:
        # a symbolic rsp makes the concrete slot address input-dependent,
        # and its shadow moves down one slot with the machine's rsp
        stack = t.register_exprs.get(Register.RSP)
        t.store(emulator.state.regs[Register.RSP] - 8, 8, read(t, emulator),
                stack is not None)
        if stack is not None:
            _WRITE_RSP(t, emulator, BinExpr("sub", stack, _EIGHT))

    return _guard(instruction).build(symbolic)


@_builds(Mnemonic.POP)
def _build_pop(instruction: Instruction) -> Optional[Transfer]:
    destination = instruction.operands[0]
    write = _writer(destination)

    def symbolic(t, emulator, address) -> None:
        stack = t.register_exprs.get(Register.RSP)
        value = t.load(emulator, emulator.state.regs[Register.RSP], 8, stack)
        if stack is not None:
            # rsp's shadow moves up one slot with the machine's rsp, before
            # the destination write (``pop rsp`` keeps the loaded value)
            _WRITE_RSP(t, emulator, BinExpr("add", stack, _EIGHT))
        write(t, emulator, value)

    if type(destination) is not Reg:
        # a memory destination is addressed after rsp moves, so a guard
        # over the pre-instruction registers would probe the wrong bytes
        return symbolic
    return _guard(instruction).build(symbolic)


@_builds(Mnemonic.LEAVE)
def _build_leave(instruction: Instruction) -> Optional[Transfer]:
    return _guard(instruction).build(_leave)


def _leave(t: ShadowTracker, emulator, address: int) -> None:
    # ``mov rsp, rbp; pop rbp``: the saved rbp is loaded from where rbp
    # points, and rsp ends one slot above it
    frame = t.register_exprs.get(Register.RBP)
    saved = t.load(emulator, emulator.state.regs[Register.RBP], 8, frame)
    _WRITE_RSP(t, emulator, None if frame is None else BinExpr("add", frame, _EIGHT))
    _WRITE_RBP(t, emulator, saved)


@_builds(Mnemonic.CMP, Mnemonic.TEST)
def _build_compare(instruction: Instruction) -> Optional[Transfer]:
    left, right = instruction.operands
    read_left, read_right = _reader(left), _reader(right)
    left_value, right_value = _valuer(left), _valuer(right)
    size = getattr(left, "size", 8)
    is_cmp = instruction.mnemonic is Mnemonic.CMP

    def symbolic(t, emulator, address) -> None:
        a = left_value(emulator, read_left(t, emulator))
        b = right_value(emulator, read_right(t, emulator))
        if is_cmp:
            t.flags = ("sub", None, a, b, size)
            t.carry_expr = BinExpr("ult", a, b)
        else:
            t.flags = ("logic", BinExpr("and", a, b), None, None, size)
            t.carry_expr = None

    fast = _guard(instruction)
    # the symbolic path loads its operands before it sets the flags, so an
    # unmapped operand faults with the flag record untouched either way
    fast.kills[:0] = [f"_E.read_operand({fast.operand(operand)})"
                      for operand in (left, right) if type(operand) is Mem]
    return fast.build(symbolic)


def _alu_symbolic(instruction: Instruction) -> Transfer:
    """Symbolic transfer of a two-operand ALU op (shifts included)."""
    m = instruction.mnemonic
    destination, source = instruction.operands
    size = getattr(destination, "size", 8)
    operator = _ALU_OPERATORS[m]
    shift = m in (Mnemonic.SHL, Mnemonic.SHR, Mnemonic.SAR)
    width_mask = 0x3F if size == 8 else 0x1F
    to_rsp = type(destination) is Reg and destination.reg is Register.RSP
    read_left, read_right = _reader(destination), _reader(source)
    left_value, right_value = _valuer(destination), _valuer(source)
    write = _writer(destination)
    recipe = {Mnemonic.SUB: "sub", Mnemonic.ADD: "add", Mnemonic.AND: "logic",
              Mnemonic.OR: "logic", Mnemonic.XOR: "logic"}.get(m)
    sub_width_sar = m is Mnemonic.SAR and size < 8

    def symbolic(t, emulator, address) -> None:
        count = 0
        if shift:
            count = emulator.read_operand(source) & width_mask
            if count == 0:
                if read_right(t, emulator) is not None:
                    t.repair_exact = False
                    t.constraints_exact = False
                return
        left_expr = read_left(t, emulator)
        right_expr = read_right(t, emulator)
        if left_expr is None and right_expr is None:
            write(t, emulator, None)
            t.flags, t.carry_expr = _CONCRETE_FLAGS, None
            return
        left = left_value(emulator, left_expr)
        right = right_value(emulator, right_expr)
        if shift and right_expr is None:
            # bake the *width-masked* concrete count into the expression:
            # its fixed 6-bit shift mask would otherwise diverge from the
            # machine's width-dependent one for counts 32-63 on sub-width
            # operands
            right = ConstExpr(count)
        expression = BinExpr(operator, left, right)
        if to_rsp and t.branch_observer is not None:
            # a pointer (ROP) branch record is imminent: let the observer
            # capture before this op's flag/shadow bookkeeping lands
            t.branch_observer("pointer", address)
        if recipe is None:
            # imul/shifts set carry/overflow the repair recipes do not
            # model, hence no recipe
            if shift and right_expr is not None:
                # the expressions' fixed 6-bit count mask models neither the
                # width-dependent mask nor a count reassigned to (or away
                # from) zero
                t.repair_exact = False
            if sub_width_sar and left_expr is not None:
                # the expression sign-extends at 64 bits, the machine at the
                # operand width
                t.repair_exact = False
        if to_rsp:
            # symbolic values flowing into the stack pointer are ROP
            # branches: concretize and record the decision (§III-B,
            # S2E-style)
            target = apply_binary(operator, emulator.read_operand(destination),
                                  emulator.read_operand(source))
            t._record(address, BinExpr("eq", expression, ConstExpr(target)),
                      True, "pointer", target)
            write(t, emulator, None)
        else:
            write(t, emulator, expression)
        t.flags = (recipe, expression, left, right, size)
        if recipe == "sub":
            t.carry_expr = BinExpr("ult", left, right)
        else:
            # logic ops clear CF; add, imul and shifts set it from the input
            t.carry_expr = None if recipe == "logic" else _UNMODELED_CARRY

    return symbolic


@_builds(Mnemonic.ADD, Mnemonic.SUB, Mnemonic.AND, Mnemonic.OR, Mnemonic.XOR,
         Mnemonic.IMUL)
def _build_alu(instruction: Instruction) -> Optional[Transfer]:
    return _guard(instruction).build(_alu_symbolic(instruction))


@_builds(Mnemonic.SHL, Mnemonic.SHR, Mnemonic.SAR)
def _build_shift(instruction: Instruction) -> Optional[Transfer]:
    destination, count_operand = instruction.operands
    # x86 masks the count by the operand width, and a masked count of zero
    # modifies neither the destination nor any flag
    width_mask = 0x3F if getattr(destination, "size", 8) == 8 else 0x1F
    fast = _guard(instruction)
    if type(count_operand) is Imm:
        if not count_operand.value & SIZE_MASKS[count_operand.size] & width_mask:
            return None
    else:
        # a zero count takes the symbolic transfer's no-op early-out
        fast.clauses.append(
            f"_E.read_operand({fast.operand(count_operand)}) & {width_mask}")
    return fast.build(_alu_symbolic(instruction))


@_builds(Mnemonic.ADC, Mnemonic.SBB)
def _build_carry(instruction: Instruction) -> Optional[Transfer]:
    destination, source = instruction.operands
    read_left, read_right = _reader(destination), _reader(source)
    left_value, right_value = _valuer(destination), _valuer(source)
    write = _writer(destination)
    operator = "add" if instruction.mnemonic is Mnemonic.ADC else "sub"

    def symbolic(t, emulator, address) -> None:
        left_expr = read_left(t, emulator)
        right_expr = read_right(t, emulator)
        carry = t.carry_expr
        if left_expr is None and right_expr is None and (
                carry is None or not carry.symbols()):
            write(t, emulator, None)
            t.flags, t.carry_expr = _CONCRETE_FLAGS, None
            return
        left = left_value(emulator, left_expr)
        right = right_value(emulator, right_expr)
        if carry is None or carry is _UNMODELED_CARRY:
            if carry is not None:
                # concretizing an input-dependent carry loses its dependence
                t.repair_exact = False
            carry = ConstExpr(emulator.state.cf)
        expression = BinExpr(operator, BinExpr(operator, left, right), carry)
        write(t, emulator, expression)
        t.flags = (None, expression, None, None, 8)
        t.carry_expr = _UNMODELED_CARRY

    return _guard(instruction).build(symbolic)


@_builds(Mnemonic.NEG, Mnemonic.NOT)
def _build_unary(instruction: Instruction) -> Optional[Transfer]:
    destination = instruction.operands[0]
    read, write = _reader(destination), _writer(destination)
    negate = instruction.mnemonic is Mnemonic.NEG

    def symbolic(t, emulator, address) -> None:
        expression = read(t, emulator)
        if expression is None:
            write(t, emulator, None)
            if negate:
                t.flags, t.carry_expr = _CONCRETE_FLAGS, None
            return
        result = UnExpr("neg" if negate else "not", expression)
        write(t, emulator, result)
        if negate:
            t.flags = (None, result, None, None, 8)
            t.carry_expr = BinExpr("ne", expression, _ZERO)

    return _guard(instruction).build(symbolic)


def _step_flags(t: ShadowTracker) -> None:
    """Flags of an inc/dec with no symbolic input."""
    # inc/dec leave CF alone, so a symbolic carry survives a concrete
    # increment: the architectural CF is then input-dependent in a way no
    # flag record can express
    carry = t.carry_expr
    if carry is not None and carry.symbols():
        t.flags = _UNREPAIRABLE_FLAGS
        t.repair_exact = False
    else:
        t.flags = _CONCRETE_FLAGS


@_builds(Mnemonic.INC, Mnemonic.DEC)
def _build_step(instruction: Instruction) -> Optional[Transfer]:
    destination = instruction.operands[0]
    read, write = _reader(destination), _writer(destination)
    operator = "add" if instruction.mnemonic is Mnemonic.INC else "sub"

    def symbolic(t, emulator, address) -> None:
        expression = read(t, emulator)
        if expression is None:
            write(t, emulator, None)
            _step_flags(t)
            return
        result = BinExpr(operator, expression, _ONE)
        write(t, emulator, result)
        t.flags = (None, result, None, None, 8)

    fast = _guard(instruction)
    # inc/dec keep CF, so the concrete flag record the kill sets is exact
    # only while CF has no shadow
    fast.clauses.append("_O.carry_expr is None")
    return fast.build(symbolic)


@_builds(Mnemonic.SET)
def _build_set(instruction: Instruction) -> Optional[Transfer]:
    condition = instruction.condition
    write = _writer(instruction.operands[0])

    def symbolic(t, emulator, address) -> None:
        expression = None
        if t._flags_symbolic():
            expression = t._condition_expr(condition)
            if expression is None or not t._condition_exact(condition):
                # the written 0/1 is input-dependent but the shadow's model
                # of it is missing or only approximate
                t.repair_exact = False
        write(t, emulator, expression)

    return _guard(instruction).build(symbolic)


@_builds(Mnemonic.CMOV)
def _build_cmov(instruction: Instruction) -> Optional[Transfer]:
    destination, source = instruction.operands
    condition = instruction.condition
    read, write = _reader(source), _writer(destination)

    def symbolic(t, emulator, address) -> None:
        if t._flags_symbolic():
            predicate = t._condition_expr(condition)
            taken = emulator.state.condition(condition)
            if predicate is not None:
                if t.branch_observer is not None:
                    # capture before the exactness update and before the
                    # select mutates the destination shadow below
                    t.branch_observer("cmov", address)
                if not t._condition_exact(condition):
                    t.constraints_exact = False
                t._record(address, predicate, taken)
            else:
                # an input-dependent select went unrecorded
                t.constraints_exact = False
        if emulator.state.condition(condition):
            write(t, emulator, read(t, emulator))

    fast = _guard(instruction)
    if fast.kills:
        # a false cmov stores nothing
        fast.kills = [f"if _S.condition({condition!r}):",
                      *("    " + line for line in fast.kills)]
    return fast.build(symbolic)


@_builds(Mnemonic.JCC)
def _build_jcc(instruction: Instruction) -> Optional[Transfer]:
    condition = instruction.condition

    def symbolic(t, emulator, address) -> None:
        if not t._flags_symbolic():
            return
        predicate = t._condition_expr(condition)
        if predicate is None:
            # an input-dependent branch went unrecorded
            t.constraints_exact = False
            return
        if t.branch_observer is not None:
            t.branch_observer("jcc", address)
        if not t._condition_exact(condition):
            t.constraints_exact = False
        t._record(address, predicate, emulator.state.condition(condition))

    return _guard(instruction).build(symbolic)


@_builds(Mnemonic.CQO)
def _build_cqo(instruction: Instruction) -> Optional[Transfer]:
    return _guard(instruction).build(_cqo)


def _cqo(t: ShadowTracker, emulator, address: int) -> None:
    rax = t.register_exprs.get(Register.RAX)
    if rax is None:
        t.register_exprs.pop(Register.RDX, None)
    else:
        t.register_exprs[Register.RDX] = BinExpr("sar", rax, ConstExpr(63))


@_builds(Mnemonic.IDIV)
def _build_idiv(instruction: Instruction) -> Optional[Transfer]:
    # no fast path: the transfer must first learn whether the machine
    # faults (#DE), which a guard over the shadow cannot tell
    divisor_operand = instruction.operands[0]
    read, value = _reader(divisor_operand), _valuer(divisor_operand)

    def transfer(t, emulator, address) -> None:
        try:
            divisor = emulator.read_operand(divisor_operand)
        except EmulationError:
            return  # the machine faults on the same read
        if not divisor or (divisor == _MASK64 and
                           emulator.state.regs[Register.RAX] == 1 << 63):
            # a zero divisor or INT64_MIN / -1: the machine raises #DE and
            # writes nothing, so neither does the shadow
            return
        dividend = t.register_exprs.get(Register.RAX)
        divisor = read(t, emulator)
        if divisor is not None:
            # a different assignment may drive the divisor to zero, where the
            # concrete machine faults but the expression yields 0
            t.repair_exact = False
        if dividend is None and divisor is None:
            t.register_exprs.pop(Register.RAX, None)
            t.register_exprs.pop(Register.RDX, None)
            return
        left = dividend if dividend is not None else ConstExpr(
            emulator.state.regs[Register.RAX])
        right = value(emulator, divisor)
        t.register_exprs[Register.RAX] = BinExpr("div", left, right)
        t.register_exprs[Register.RDX] = BinExpr("mod", left, right)

    return transfer


@_builds(Mnemonic.JMP)
def _build_jmp(instruction: Instruction) -> Optional[Transfer]:
    if type(instruction.operands[0]) is not Reg:
        return None  # only a register target carries a shadow here
    return _guard(instruction).build(_unpinned_jump)


def _unpinned_jump(t: ShadowTracker, emulator, address: int) -> None:
    # input-dependent control transfer with no recorded constraint: the
    # prefix no longer pins the path
    t.constraints_exact = False


@_builds(Mnemonic.RET)
def _build_ret(instruction: Instruction) -> Optional[Transfer]:
    return _guard(instruction).build(_ret)


def _ret(t: ShadowTracker, emulator, address: int) -> None:
    stack = t.register_exprs.get(Register.RSP)
    slot = emulator.state.regs[Register.RSP]
    expression = t.memory_exprs.get((slot, 8))
    if expression is not None and expression.symbols():
        # a symbolic return slot is an opaque-materialized gadget address
        # (the +OC layer stores the recombined value into the chain right
        # before this ret pops it): record the concrete target as a pinned
        # pointer decision, exactly like a symbolic ``add rsp`` chain-pointer
        # update
        if t.branch_observer is not None:
            t.branch_observer("pointer", address)
        target = int.from_bytes(bytes(emulator.memory.read(slot, 8)), "little")
        t._record(address, BinExpr("eq", expression, ConstExpr(target)), True,
                  "pointer", target)
        # the constraint pins the popped value to its concrete target, so
        # dropping the (now dead) slot shadow is exact
        t.store(slot, 8, None, False)
    if stack is not None:
        # the target comes from an input-dependent slot, a choice no
        # recorded constraint pins; rsp's shadow moves up with the machine's
        t.constraints_exact = False
        _WRITE_RSP(t, emulator, BinExpr("add", stack, _EIGHT))


@_builds(Mnemonic.CALL)
def _build_call(instruction: Instruction) -> Optional[Transfer]:
    target_operand = instruction.operands[0]

    def transfer(t, emulator, address) -> None:
        # calls into host runtime functions are not instrumented: clear the
        # caller-saved shadows they may clobber (the return value of a host
        # call over symbolic arguments is treated as concrete, which matches
        # how the runtime functions are used by the workloads).  Calls into
        # compiled mini-C code keep executing under the shadow, so their
        # shadows propagate naturally and nothing is cleared.
        if type(target_operand) is Reg \
                and target_operand.reg in t.register_exprs:
            # input-dependent control transfer with no recorded constraint
            t.constraints_exact = False
        # the call implicitly pushes its (concrete, path-determined) return
        # address: drop any shadow entry aliasing that slot, or a later
        # state repair would clobber the live return address with a stale
        # expression
        stack = t.register_exprs.get(Register.RSP)
        t.store((emulator.state.regs[Register.RSP] - 8) & _MASK64, 8, None,
                stack is not None)

        target = None
        if type(target_operand) is Imm:
            target = target_operand.value
        elif type(target_operand) is Reg:
            target = emulator.state.regs[target_operand.reg]
        if target is None or not is_host_address(target):
            if stack is not None:
                # the callee runs one slot down, as the machine's rsp does
                # (a host function pops its return address unhooked)
                _WRITE_RSP(t, emulator, BinExpr("sub", stack, _EIGHT))
            return
        if target in _MEMORY_TOUCHING_HOSTS:
            # the host may write anywhere in guest memory: retire every
            # stable region
            t._invalidate_stable(0, 1 << 64)
        # host side effects (heap cursor, output, return value) over symbolic
        # arguments are concretized, and dropping a symbolic caller-saved
        # shadow loses a live dependence
        if any(reg in t.register_exprs for reg in CALLER_SAVED):
            t.repair_exact = False
        elif t.memory_exprs and target in _MEMORY_TOUCHING_HOSTS:
            # memcpy/memset/strlen/puts read or write guest memory directly:
            # symbolic bytes flow through (or get clobbered) without any
            # shadow update
            t.repair_exact = False
        for reg in CALLER_SAVED:
            t.register_exprs.pop(reg, None)

    if type(target_operand) is not Imm or is_host_address(target_operand.value):
        # no fast path: a host call's effects depend on the runtime
        # function, and an indirect call may reach one
        return transfer
    return _guard(instruction).build(transfer)


# -- semantic-contract registration -------------------------------------------
# The shadow's coverage is its builder table: every mnemonic maps to the
# builder that specializes it (the shift builder carries the same masked
# zero-count early-out as the concrete tiers).  Flags are modelled as
# expressions rather than assignments to the architectural slots, so only
# the coverage and the zero-count guard are statically checkable
# (flag_style="none"); expression fidelity is carried by the dynamic
# soundness oracle and the DSE differential tests.
_semantics.register_tier(
    "shadow", __name__,
    covered={mnemonic: builder.__name__
             for mnemonic, builder in _BUILDERS.items()},
    flag_style="none")
