"""Shadow (symbolic) execution alongside the concrete emulator.

The :class:`ShadowTracker` hooks an :class:`repro.cpu.Emulator` and mirrors
every executed instruction over symbolic expressions: registers and memory
locations whose value derives from the designated input symbols carry an
expression, everything else stays concrete.  When a branch decision (or a
chain-pointer update, for ROP-encoded branches) depends on a symbolic value,
the tracker records a :class:`PathConstraint` — the raw material both the DSE
and the SE engines feed to the solver.

The mirror runs as *specialized transfers* (:func:`specialize`): one closure
per decoded instruction, built by the builder registered for its mnemonic,
that the emulator caches next to the instruction's handler.  A transfer's
cheap concrete guard lets the instructions that read no symbolic state —
most of them — skip expression building altogether.
"""

from __future__ import annotations

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
)
from repro.attacks.solver.solver import PathConstraint
from repro.cpu import semantics as _semantics
from repro.cpu.emulator import SpecializedHook
from repro.cpu.host import host_function_address, is_host_address
from repro.cpu.state import SIZE_MASKS
from repro.isa.instructions import Instruction, Mnemonic
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import CALLER_SAVED, Register
from repro.memory import MemoryError_

_MASK64 = (1 << 64) - 1

#: Condition-code -> comparison operator used when the flag source is a ``cmp``.
_CMP_CONDITIONS = {
    "e": "eq", "ne": "ne",
    "l": "slt", "le": "sle", "g": "sgt", "ge": "sge",
    "b": "ult", "be": "ule", "a": "ugt", "ae": "uge",
}

_ALU_OPERATORS = {
    Mnemonic.ADD: "add", Mnemonic.SUB: "sub", Mnemonic.AND: "and",
    Mnemonic.OR: "or", Mnemonic.XOR: "xor", Mnemonic.IMUL: "mul",
    Mnemonic.SHL: "shl", Mnemonic.SHR: "shr", Mnemonic.SAR: "sar",
}

#: Addresses of the host functions that read or write guest memory directly.
_MEMORY_TOUCHING_HOSTS = frozenset(
    host_function_address(name) for name in ("memcpy", "memset", "strlen", "puts"))


@dataclass
class BranchRecord:
    """A recorded symbolic branch decision.

    Attributes:
        address: address of the deciding instruction.
        constraint: the path constraint describing the decision actually taken.
        kind: ``"jcc"`` for flag branches, ``"pointer"`` for symbolic values
            concretized into the stack/instruction pointer (ROP branches).
    """

    address: int
    constraint: PathConstraint
    kind: str


class ShadowTracker:
    """Symbolic mirror of a concrete execution.

    Beyond the path constraints, the tracker maintains the bookkeeping the
    backtracking DSE explorer needs to resume an execution from a mid-path
    snapshot under a *different* input assignment:

    * :attr:`repair_exact` stays True while the shadow state exactly
      characterizes every input-dependent bit of the machine — re-evaluating
      :attr:`register_exprs` / :attr:`memory_exprs` under a new assignment
      then reconstructs the state a rerun from the entry would have reached.
      Depth-truncated expressions, symbolic-address memory accesses (whose
      concretization loses the input dependence), host calls over symbolic
      arguments and partial-register merges the shadow cannot model all
      clear it.
    * :attr:`constraints_exact` stays True while every recorded constraint's
      *expression* semantics exactly match the concrete branch semantics
      (sub-64-bit signed comparisons, for example, do not), so a solver
      assignment that satisfies a prefix provably drives a rerun down it.
    * :attr:`flag_repair` describes how to recompute the concrete CPU flags
      from the current symbolic flag source (``("sub"|"add", left, right,
      size)`` or ``("logic", expr, size)``), ``("concrete",)`` when the last
      flag-setting instruction had no symbolic inputs (the restored flags
      are already exact), or None when it is not exactly reproducible.
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

    def __init__(self, memory_model: str = "concretize", page_size: int = 256,
                 max_expression_depth: int = 512,
                 stable_ranges: Sequence[Tuple[int, int]] = ()) -> None:
        if memory_model not in ("concretize", "page"):
            raise ValueError("memory_model must be 'concretize' or 'page'")
        self.memory_model = memory_model
        self.page_size = page_size
        self.max_expression_depth = max_expression_depth
        #: regions guaranteed constant at run time; retired on any write
        self._stable_ranges: Tuple[Tuple[int, int], ...] = tuple(
            (int(start), int(end)) for start, end in stable_ranges)
        self._stable_snapshots: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self.register_exprs: Dict[Register, Expression] = {}
        self.memory_exprs: Dict[Tuple[int, int], Expression] = {}
        #: byte address -> owning ``memory_exprs`` key, so overlap probes in
        #: the per-instruction hook cost O(access width), not O(entries)
        self._memory_bytes: Dict[int, Tuple[int, int]] = {}
        #: last flag-setting operation: ("cmp", a, b) or ("result", expr)
        self.flag_state: Optional[Tuple] = None
        #: CF's shadow: None while CF is input-independent, else its
        #: expression, or ``_UNMODELED_CARRY`` when the shadow cannot model it
        self.carry_expr: Optional[Expression] = None
        self.branches: List[BranchRecord] = []
        self.symbolic_instruction_count = 0
        self.flag_repair: Optional[Tuple] = None
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
        clone = ShadowTracker(memory_model=self.memory_model,
                              page_size=self.page_size,
                              max_expression_depth=self.max_expression_depth)
        clone._stable_ranges = self._stable_ranges
        clone._stable_snapshots = dict(self._stable_snapshots)
        clone.register_exprs = dict(self.register_exprs)
        clone.memory_exprs = dict(self.memory_exprs)
        clone._memory_bytes = dict(self._memory_bytes)
        clone.flag_state = self.flag_state
        clone.carry_expr = self.carry_expr
        clone.branches = list(self.branches)
        clone.symbolic_instruction_count = self.symbolic_instruction_count
        clone.flag_repair = self.flag_repair
        clone.repair_exact = self.repair_exact
        clone.constraints_exact = self.constraints_exact
        return clone

    # -- symbol introduction ----------------------------------------------------
    def set_register_symbol(self, register: Register, expression: Expression) -> None:
        """Mark a register as holding a symbolic input value."""
        self.register_exprs[register] = expression

    def set_memory_symbol(self, address: int, size: int, expression: Expression) -> None:
        """Mark a memory location as holding a symbolic input value."""
        self._set_memory_expr((address, size), expression)

    # -- small helpers -------------------------------------------------------------
    def _bounded(self, expression: Expression) -> Expression:
        if expression.depth() > self.max_expression_depth:
            # giving up loses the input dependence: state repair is no
            # longer exact from here on
            self.repair_exact = False
            return ConstExpr(0)  # give up on unwieldy expressions (concretize)
        return expression

    def _set_memory_expr(self, key: Tuple[int, int],
                         expression: Optional[Expression]) -> None:
        """Insert or remove a ``memory_exprs`` entry, keeping the byte map."""
        address, size = key
        if expression is None:
            if self.memory_exprs.pop(key, None) is not None:
                for byte in range(address, address + size):
                    self._memory_bytes.pop(byte, None)
            return
        if key not in self.memory_exprs:
            for byte in range(address, address + size):
                self._memory_bytes[byte] = key
        self.memory_exprs[key] = expression

    def _overlapping_memory(self, address: int, size: int,
                            key: Tuple[int, int]) -> bool:
        """True when ``[address, address+size)`` overlaps a foreign entry."""
        bytes_map = self._memory_bytes
        for byte in range(address, address + size):
            owner = bytes_map.get(byte)
            if owner is not None and owner != key:
                return True
        return False

    def _load_expr(self, emulator, operand: Mem) -> Optional[Expression]:
        """Expression of a memory operand, or None when it is concrete."""
        address = emulator.effective_address(operand)
        symbolic_address = self._address_expr(emulator, operand)
        if symbolic_address is not None:
            select = self._stable_select(emulator, address,
                                         symbolic_address, operand.size)
            if select is not None:
                # the read falls in a runtime-constant region: the select
                # over the full region keeps the input dependence, so state
                # repair stays exact
                return select
            if self.memory_model == "page":
                return self._page_select(emulator, address, symbolic_address,
                                         operand.size)
            # concretizing a symbolic-address read drops the address's
            # input dependence from the loaded value
            self.repair_exact = False
        expression = self.memory_exprs.get((address, operand.size))
        if expression is None and self.repair_exact \
                and self._overlapping_memory(address, operand.size,
                                             (address, operand.size)):
            # a wider/narrower symbolic entry covers these bytes: the
            # exact-key miss silently concretizes input-tainted data
            self.repair_exact = False
        return expression

    def _address_expr(self, emulator, operand: Mem) -> Optional[Expression]:
        parts: List[Expression] = []
        symbolic = False
        if operand.base is not None:
            expression = self.register_exprs.get(operand.base)
            if expression is not None:
                symbolic = True
                parts.append(expression)
            else:
                parts.append(ConstExpr(emulator.state.read_reg(operand.base)))
        if operand.index is not None:
            expression = self.register_exprs.get(operand.index)
            scale = ConstExpr(operand.scale)
            if expression is not None:
                symbolic = True
                parts.append(BinExpr("mul", expression, scale))
            else:
                parts.append(ConstExpr(emulator.state.read_reg(operand.index) * operand.scale))
        if operand.disp:
            parts.append(ConstExpr(operand.disp & _MASK64))
        if not symbolic or not parts:
            return None
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
        base = address - (address % self.page_size)
        try:
            snapshot = tuple(emulator.memory.read(base, self.page_size))
        except MemoryError_:  # unmapped page: fall back to the concrete byte
            return self.memory_exprs.get((address, size)) or ConstExpr(0)
        return SelectExpr(base_address=base, snapshot=snapshot, index=address_expr, size=size)

    def _store_expr(self, emulator, operand: Mem,
                    expression: Optional[Expression]) -> None:
        """Install the shadow of a store to a memory operand."""
        address = emulator.effective_address(operand)
        self._invalidate_stable(address, operand.size)
        if self._address_expr(emulator, operand) is not None \
                and self.memory_model != "page":
            # the store lands at an input-dependent address the shadow
            # pinned to this execution's concrete choice
            self.repair_exact = False
        key = (address, operand.size)
        if self.repair_exact and self._overlapping_memory(
                address, operand.size, key):
            self.repair_exact = False
        if expression is not None and operand.size < 8:
            expression = BinExpr("and", expression,
                                 ConstExpr(SIZE_MASKS[operand.size]))
        self._set_memory_expr(
            key, None if expression is None else self._bounded(expression))

    # -- condition expressions -------------------------------------------------------
    def _condition_expr(self, condition: str) -> Optional[Expression]:
        if self.flag_state is None:
            return None
        kind = self.flag_state[0]
        if kind == "cmp":
            _, left, right = self.flag_state
            operator = _CMP_CONDITIONS.get(condition)
            if operator is None:
                return None
            return BinExpr(operator, left, right)
        if kind == "result":
            result = self.flag_state[1]
            if condition == "e":
                return BinExpr("eq", result, ConstExpr(0))
            if condition == "ne":
                return BinExpr("ne", result, ConstExpr(0))
            if condition == "s":
                return BinExpr("slt", result, ConstExpr(0))
            if condition == "ns":
                return BinExpr("sge", result, ConstExpr(0))
            if condition in ("l", "g", "le", "ge", "b", "a", "be", "ae"):
                return BinExpr(_CMP_CONDITIONS[condition], result, ConstExpr(0))
        return None

    def _flags_symbolic(self) -> bool:
        if self.flag_state is None:
            return False
        if self.flag_state[0] == "cmp":
            return bool(self.flag_state[1].symbols() or self.flag_state[2].symbols())
        return bool(self.flag_state[1].symbols())

    def _condition_exact(self, condition: str) -> bool:
        """True when the condition's expression semantics match the concrete
        flag semantics exactly (expressions compare at 64 bits, so signed
        predicates over narrower flag sources do not)."""
        repair = self.flag_repair
        if repair is None or repair[0] == "concrete":
            return False
        kind, size = repair[0], repair[-1]
        if kind == "sub":
            # operands are width-masked, so unsigned/equality predicates are
            # width-independent; signed ones need the full 64-bit width
            return condition in ("e", "ne", "b", "be", "a", "ae") or size == 8
        if kind == "logic":
            return condition in ("e", "ne") or size == 8
        if kind == "add":
            # the 64-bit sum of masked operands can carry past the operand
            # width, so only full-width equality survives
            return size == 8 and condition in ("e", "ne")
        return False

    def path_constraints(self) -> List[PathConstraint]:
        """Constraints of the executed path, in decision order."""
        return [record.constraint for record in self.branches]






# -- specialized shadow transfers ---------------------------------------------
# Every instruction's shadow update is a closure built once per decoded
# instruction by the builder registered for its mnemonic, with operands,
# widths, effective-address arithmetic and masked immediate shift counts
# already resolved (as :mod:`repro.cpu.codegen` folds them into source).  A
# transfer first runs a cheap *concrete guard*: no register it reads (source
# or address) has a shadow expression, no byte it reads has a
# ``memory_exprs`` entry, and the flags or carry it consumes are concrete.
# Most hooked instructions pass it, and then only the kill effects apply —
# destination shadows dropped, stable ranges retired by stores, the
# narrow-merge rule on ``repair_exact``, and the concrete flag recipe.
# Otherwise the instruction's symbolic transfer builds its expressions,
# path constraints, observer calls and exactness updates.  Transfers take
# the tracker as an argument, so one closure serves every tracker running on
# the same emulator.

#: ``transfer(tracker, emulator, address)``: one instruction's shadow update,
#: called right before the emulator executes it.
Transfer = Callable[[ShadowTracker, object, int], None]

#: Mnemonic -> builder returning the instruction's transfer (None when the
#: instruction never touches shadow state).
_BUILDERS: Dict[Mnemonic, Callable[[Instruction], Optional[Transfer]]] = {}

_ONE = ConstExpr(1)
_ZERO = ConstExpr(0)

#: ``carry_expr`` of an input-dependent CF the shadow does not model: the
#: carry-out of a symbolic add, adc/sbb, imul or shift.  Its symbol makes
#: every CF consumer take its symbolic path; it never enters an expression.
_UNMODELED_CARRY = SymExpr("<unmodeled carry>")

#: The flag source and repair recipe of a flag write with no symbolic input.
#: Nothing downstream can tell them from a recipe over the concrete operand
#: values: the flags are input-independent, and a restored snapshot already
#: carries them.
_CONCRETE_FLAGS = ("result", _ZERO)
_CONCRETE_REPAIR = ("concrete",)


@lru_cache(maxsize=1 << 14)
def specialize(instruction: Instruction) -> Optional[Transfer]:
    """The specialized shadow transfer of ``instruction``, or None.

    A transfer depends on the instruction alone, so equal instructions —
    the same gadget at many chain positions, or in many images — share one
    (the emulator additionally caches it per decoded address).
    """
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


def _guard(*operands):
    """Concrete guard ``guard(tracker, emulator)`` over the operands an
    instruction reads, or None when none of them can be symbolic.

    A register operand reads its register; a memory operand reads its
    address registers and its bytes.  (Pass a store destination too: the
    fast kill of a store assumes a concrete address and shadow-free bytes.)
    """
    registers: List[Register] = []
    memories = []
    for operand in operands:
        if type(operand) is Reg:
            registers.append(operand.reg)
        elif type(operand) is Mem:
            registers.extend(r for r in (operand.base, operand.index)
                             if r is not None)
            memories.append((_effective_address(operand), operand.size))
    read = tuple(dict.fromkeys(registers))
    if not memories:
        if not read:
            return None
        if len(read) == 1:
            (register,) = read
            return lambda t, emulator: register not in t.register_exprs
        return lambda t, emulator: t.register_exprs.keys().isdisjoint(read)

    def guard(t, emulator) -> bool:
        if not t.register_exprs.keys().isdisjoint(read):
            return False
        if not t.memory_exprs:
            return True
        regs = emulator.state.regs
        return all(_unshadowed(t, address_of(regs), size)
                   for address_of, size in memories)

    return guard


def _unshadowed(t: ShadowTracker, address: int, size: int) -> bool:
    """True when no shadow entry covers a byte of ``[address, address+size)``."""
    entries = t.memory_exprs
    return not entries or ((address, size) not in entries and
                           t._memory_bytes.keys().isdisjoint(
                               range(address, address + size)))


def _store(operand):
    """``operand`` when it is a memory destination (to guard), else None."""
    return operand if type(operand) is Mem else None


def _kill(destination):
    """Fast effect of a concrete write to ``destination`` (guarded when in
    memory): drop a register shadow, or retire the stable ranges a store
    hits.  None when there is nothing to do."""
    if type(destination) is Reg:
        return _writer(destination)
    if type(destination) is Mem:
        address_of, size = _effective_address(destination), destination.size

        def retire(t, emulator) -> None:
            if t._stable_ranges:
                t._invalidate_stable(address_of(emulator.state.regs), size)

        return retire
    return None


def _concrete_flags(t: ShadowTracker, emulator) -> None:
    t.flag_state = _CONCRETE_FLAGS
    t.carry_expr = None
    t.flag_repair = _CONCRETE_REPAIR


def _concrete_result(destination):
    """Fast effect of a flag-setting op with no symbolic input: the
    (guarded, hence shadow-free) destination stays concrete and the flags
    get the concrete recipe."""
    if type(destination) is not Mem:
        return _concrete_flags
    retire = _kill(destination)

    def concrete(t, emulator) -> None:
        retire(t, emulator)
        _concrete_flags(t, emulator)

    return concrete


def _flags_concrete(t: ShadowTracker) -> bool:
    state = t.flag_state
    return state is None or state is _CONCRETE_FLAGS or not t._flags_symbolic()


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
        return lambda t, emulator: t._load_expr(emulator, operand)
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
        return lambda t, emulator, expression: t._store_expr(
            emulator, destination, expression)
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


def _transfer(guard, fast, symbolic: Transfer) -> Optional[Transfer]:
    """Run ``fast(tracker, emulator)`` when ``guard`` passes (always, when
    it is None) and ``symbolic`` otherwise."""
    if guard is None:
        if fast is None:
            return None
        return lambda t, emulator, address: fast(t, emulator)
    if fast is None:
        def transfer(t, emulator, address) -> None:
            if not guard(t, emulator):
                symbolic(t, emulator, address)
        return transfer

    def transfer(t, emulator, address) -> None:
        if guard(t, emulator):
            fast(t, emulator)
        else:
            symbolic(t, emulator, address)
    return transfer


# -- builders ------------------------------------------------------------------

@_builds(Mnemonic.NOP, Mnemonic.HLT, Mnemonic.LEAVE)
def _build_inert(instruction: Instruction) -> Optional[Transfer]:
    return None


@_builds(Mnemonic.MOV, Mnemonic.MOVZX, Mnemonic.MOVSX)
def _build_move(instruction: Instruction) -> Optional[Transfer]:
    if len(instruction.operands) != 2:
        return None
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
            t.symbolic_instruction_count += 1
        write(t, emulator, expression)

    return _transfer(_guard(source, _store(destination)), _kill(destination),
                     symbolic)


@_builds(Mnemonic.LEA)
def _build_lea(instruction: Instruction) -> Optional[Transfer]:
    operands = instruction.operands
    if len(operands) != 2 or type(operands[1]) is not Mem:
        return None
    destination, source = operands
    write = _writer(destination)

    def symbolic(t, emulator, address) -> None:
        write(t, emulator, t._address_expr(emulator, source))

    # lea reads only the address registers, never the addressed bytes
    address_registers = [Reg(r) for r in (source.base, source.index)
                         if r is not None]
    return _transfer(_guard(*address_registers, _store(destination)),
                     _kill(destination), symbolic)


@_builds(Mnemonic.XCHG)
def _build_xchg(instruction: Instruction) -> Optional[Transfer]:
    if len(instruction.operands) != 2:
        return None
    first, second = instruction.operands
    read_first, read_second = _reader(first), _reader(second)
    write_first, write_second = _writer(first), _writer(second)

    def symbolic(t, emulator, address) -> None:
        first_expr = read_first(t, emulator)
        second_expr = read_second(t, emulator)
        write_first(t, emulator, second_expr)
        write_second(t, emulator, first_expr)

    # guarded register operands carry no shadow to drop
    retires = [retire for retire in (_kill(_store(first)), _kill(_store(second)))
               if retire is not None]

    def fast(t, emulator) -> None:
        for retire in retires:
            retire(t, emulator)

    return _transfer(_guard(first, second), fast if retires else None,
                     symbolic)


@_builds(Mnemonic.PUSH)
def _build_push(instruction: Instruction) -> Optional[Transfer]:
    if not instruction.operands:
        return None
    source = instruction.operands[0]
    read, guard = _reader(source), _guard(source)

    def symbolic(t, emulator, address) -> None:
        if Register.RSP in t.register_exprs:
            # the concrete slot address is itself input-dependent
            t.repair_exact = False
        expression = read(t, emulator)
        destination = emulator.state.regs[Register.RSP] - 8
        t._invalidate_stable(destination, 8)
        if t.repair_exact and t._overlapping_memory(
                destination, 8, (destination, 8)):
            t.repair_exact = False
        t._set_memory_expr((destination, 8), expression)

    def transfer(t, emulator, address) -> None:
        if Register.RSP not in t.register_exprs \
                and (guard is None or guard(t, emulator)):
            destination = emulator.state.regs[Register.RSP] - 8
            if _unshadowed(t, destination, 8):
                if t._stable_ranges:
                    t._invalidate_stable(destination, 8)
                return
        symbolic(t, emulator, address)

    return transfer


@_builds(Mnemonic.POP)
def _build_pop(instruction: Instruction) -> Optional[Transfer]:
    if not instruction.operands:
        return None
    destination = instruction.operands[0]
    write = _writer(destination)

    def symbolic(t, emulator, address) -> None:
        if Register.RSP in t.register_exprs:
            t.repair_exact = False
        source = emulator.state.regs[Register.RSP]
        expression = t.memory_exprs.get((source, 8))
        if expression is None and t.repair_exact \
                and t._overlapping_memory(source, 8, (source, 8)):
            t.repair_exact = False
        write(t, emulator, expression)

    if type(destination) is not Reg:
        return symbolic
    drop = _kill(destination)

    def transfer(t, emulator, address) -> None:
        if Register.RSP not in t.register_exprs and _unshadowed(
                t, emulator.state.regs[Register.RSP], 8):
            drop(t, emulator)
        else:
            symbolic(t, emulator, address)

    return transfer


@_builds(Mnemonic.CMP, Mnemonic.TEST)
def _build_compare(instruction: Instruction) -> Optional[Transfer]:
    if len(instruction.operands) != 2:
        return None
    left, right = instruction.operands
    read_left, read_right = _reader(left), _reader(right)
    left_value, right_value = _valuer(left), _valuer(right)
    size = getattr(left, "size", 8)
    is_cmp = instruction.mnemonic is Mnemonic.CMP

    def symbolic(t, emulator, address) -> None:
        a = left_value(emulator, read_left(t, emulator))
        b = right_value(emulator, read_right(t, emulator))
        if is_cmp:
            t.flag_state = ("cmp", a, b)
            t.carry_expr = BinExpr("ult", a, b)
            t.flag_repair = ("sub", a, b, size)
        else:
            result = BinExpr("and", a, b)
            t.flag_state = ("result", result)
            t.carry_expr = None
            t.flag_repair = ("logic", result, size)

    loads = [operand for operand in (left, right) if type(operand) is Mem]
    if loads:
        def fast(t, emulator) -> None:
            for operand in loads:
                # the symbolic path loads its operands too, so an unmapped
                # operand faults here, before rip advances, either way
                emulator.read_operand(operand)
            _concrete_flags(t, emulator)
    else:
        fast = _concrete_flags
    return _transfer(_guard(left, right), fast, symbolic)


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
            _concrete_flags(t, emulator)
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
        if recipe == "logic":
            t.flag_repair = ("logic", expression, size)
        elif recipe is not None:
            t.flag_repair = (recipe, left, right, size)
        else:
            # imul/shifts set carry/overflow the repair recipes do not model
            t.flag_repair = None
            if shift and right_expr is not None:
                # the expressions' fixed 6-bit count mask models neither the
                # width-dependent mask nor a count reassigned to (or away
                # from) zero
                t.repair_exact = False
            if sub_width_sar and left_expr is not None:
                # the expression sign-extends at 64 bits, the machine at the
                # operand width
                t.repair_exact = False
        t.symbolic_instruction_count += 1
        if to_rsp:
            # symbolic values flowing into the stack pointer are ROP
            # branches: concretize and record the decision (§III-B,
            # S2E-style)
            concrete = ConstExpr(BinExpr(
                operator, ConstExpr(emulator.read_operand(destination)),
                ConstExpr(emulator.read_operand(source))).evaluate({}))
            t.branches.append(BranchRecord(
                address=address,
                constraint=PathConstraint(BinExpr("eq", expression, concrete),
                                          True),
                kind="pointer"))
            write(t, emulator, None)
        else:
            write(t, emulator, expression)
        if recipe == "sub":
            t.flag_state = ("cmp", left, right)
            t.carry_expr = BinExpr("ult", left, right)
        else:
            t.flag_state = ("result", expression)
            # logic ops clear CF; add, imul and shifts set it from the input
            t.carry_expr = None if recipe == "logic" else _UNMODELED_CARRY

    return symbolic


@_builds(Mnemonic.ADD, Mnemonic.SUB, Mnemonic.AND, Mnemonic.OR, Mnemonic.XOR,
         Mnemonic.IMUL)
def _build_alu(instruction: Instruction) -> Optional[Transfer]:
    if len(instruction.operands) != 2:
        return None
    destination, source = instruction.operands
    return _transfer(_guard(destination, source),
                     _concrete_result(destination),
                     _alu_symbolic(instruction))


@_builds(Mnemonic.SHL, Mnemonic.SHR, Mnemonic.SAR)
def _build_shift(instruction: Instruction) -> Optional[Transfer]:
    if len(instruction.operands) != 2:
        return None
    destination, count_operand = instruction.operands
    # x86 masks the count by the operand width, and a masked count of zero
    # modifies neither the destination nor any flag
    width_mask = 0x3F if getattr(destination, "size", 8) == 8 else 0x1F
    concrete = _concrete_result(destination)
    symbolic = _alu_symbolic(instruction)
    if type(count_operand) is Imm:
        count = count_operand.value & SIZE_MASKS[count_operand.size] & width_mask
        if count == 0:
            return None
        return _transfer(_guard(destination), concrete, symbolic)
    guard = _guard(destination, count_operand)

    def transfer(t, emulator, address) -> None:
        if not guard(t, emulator):
            symbolic(t, emulator, address)
        elif emulator.read_operand(count_operand) & width_mask:
            concrete(t, emulator)

    return transfer


@_builds(Mnemonic.ADC, Mnemonic.SBB)
def _build_carry(instruction: Instruction) -> Optional[Transfer]:
    if len(instruction.operands) != 2:
        return None
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
            _concrete_flags(t, emulator)
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
        t.flag_state = ("result", expression)
        t.carry_expr = _UNMODELED_CARRY
        t.flag_repair = None

    guard = _guard(destination, source)
    concrete = _concrete_result(destination)

    def transfer(t, emulator, address) -> None:
        carry = t.carry_expr
        if (carry is None or not carry.symbols()) \
                and (guard is None or guard(t, emulator)):
            concrete(t, emulator)
        else:
            symbolic(t, emulator, address)

    return transfer


@_builds(Mnemonic.NEG, Mnemonic.NOT)
def _build_unary(instruction: Instruction) -> Optional[Transfer]:
    if not instruction.operands:
        return None
    destination = instruction.operands[0]
    read, write = _reader(destination), _writer(destination)
    negate = instruction.mnemonic is Mnemonic.NEG

    def symbolic(t, emulator, address) -> None:
        expression = read(t, emulator)
        if expression is None:
            write(t, emulator, None)
            if negate:
                _concrete_flags(t, emulator)
            return
        result = UnExpr("neg" if negate else "not", expression)
        write(t, emulator, result)
        if negate:
            t.flag_state = ("result", result)
            t.carry_expr = BinExpr("ne", expression, _ZERO)
            t.flag_repair = None

    fast = (_concrete_result(destination) if negate
            else _kill(_store(destination)))
    return _transfer(_guard(destination), fast, symbolic)


def _step_flags(t: ShadowTracker, emulator) -> None:
    """Flags of an inc/dec with no symbolic input."""
    # inc/dec leave CF alone, so a symbolic carry survives a concrete
    # increment: the architectural CF is then input-dependent in a way
    # neither the flag_state nor the repair recipes can express
    carry = t.carry_expr
    if carry is not None and carry.symbols():
        t.flag_repair = None
        t.repair_exact = False
    else:
        t.flag_repair = _CONCRETE_REPAIR
    t.flag_state = _CONCRETE_FLAGS


@_builds(Mnemonic.INC, Mnemonic.DEC)
def _build_step(instruction: Instruction) -> Optional[Transfer]:
    if not instruction.operands:
        return None
    destination = instruction.operands[0]
    read, write = _reader(destination), _writer(destination)
    operator = "add" if instruction.mnemonic is Mnemonic.INC else "sub"

    def symbolic(t, emulator, address) -> None:
        expression = read(t, emulator)
        if expression is None:
            write(t, emulator, None)
            _step_flags(t, emulator)
            return
        result = BinExpr(operator, expression, _ONE)
        write(t, emulator, result)
        t.flag_state = ("result", result)
        t.flag_repair = None

    retire = _kill(_store(destination))
    if retire is None:
        fast = _step_flags
    else:
        def fast(t, emulator) -> None:
            retire(t, emulator)
            _step_flags(t, emulator)
    return _transfer(_guard(destination), fast, symbolic)


@_builds(Mnemonic.SET)
def _build_set(instruction: Instruction) -> Optional[Transfer]:
    if not instruction.operands:
        return None
    destination = instruction.operands[0]
    condition = instruction.condition
    write = _writer(destination)

    def symbolic(t, emulator, address) -> None:
        expression = None
        if t._flags_symbolic():
            expression = t._condition_expr(condition)
            if expression is None or not t._condition_exact(condition):
                # the written 0/1 is input-dependent but the shadow's model
                # of it is missing or only approximate
                t.repair_exact = False
        write(t, emulator, expression)

    guard, kill = _guard(_store(destination)), _kill(destination)

    def transfer(t, emulator, address) -> None:
        if _flags_concrete(t) and (guard is None or guard(t, emulator)):
            if kill is not None:
                kill(t, emulator)
        else:
            symbolic(t, emulator, address)

    return transfer


@_builds(Mnemonic.CMOV)
def _build_cmov(instruction: Instruction) -> Optional[Transfer]:
    if len(instruction.operands) != 2:
        return None
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
                t.branches.append(BranchRecord(
                    address=address,
                    constraint=PathConstraint(predicate, taken), kind="jcc"))
            else:
                # an input-dependent select went unrecorded
                t.constraints_exact = False
        if emulator.state.condition(condition):
            write(t, emulator, read(t, emulator))

    guard, kill = _guard(source, _store(destination)), _kill(destination)

    def transfer(t, emulator, address) -> None:
        if _flags_concrete(t):
            if not emulator.state.condition(condition):
                return
            if guard is None or guard(t, emulator):
                if kill is not None:
                    kill(t, emulator)
                return
        symbolic(t, emulator, address)

    return transfer


@_builds(Mnemonic.JCC)
def _build_jcc(instruction: Instruction) -> Optional[Transfer]:
    if not instruction.operands:
        return None
    condition = instruction.condition

    def transfer(t, emulator, address) -> None:
        if _flags_concrete(t):
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
        t.branches.append(BranchRecord(
            address=address,
            constraint=PathConstraint(predicate,
                                      emulator.state.condition(condition)),
            kind="jcc"))

    return transfer


@_builds(Mnemonic.CQO)
def _build_cqo(instruction: Instruction) -> Optional[Transfer]:
    return _cqo


def _cqo(t: ShadowTracker, emulator, address: int) -> None:
    rax = t.register_exprs.get(Register.RAX)
    if rax is None:
        t.register_exprs.pop(Register.RDX, None)
    else:
        t.register_exprs[Register.RDX] = BinExpr("sar", rax, ConstExpr(63))


@_builds(Mnemonic.IDIV)
def _build_idiv(instruction: Instruction) -> Optional[Transfer]:
    if not instruction.operands:
        return None
    divisor_operand = instruction.operands[0]
    read, value = _reader(divisor_operand), _valuer(divisor_operand)

    def symbolic(t, emulator, address) -> None:
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

    def fast(t, emulator) -> None:
        t.register_exprs.pop(Register.RDX, None)

    return _transfer(_guard(Reg(Register.RAX), divisor_operand), fast,
                     symbolic)


@_builds(Mnemonic.JMP)
def _build_jmp(instruction: Instruction) -> Optional[Transfer]:
    operands = instruction.operands
    if not operands or type(operands[0]) is not Reg:
        return None
    target = operands[0].reg

    def transfer(t, emulator, address) -> None:
        if target in t.register_exprs:
            # input-dependent control transfer with no recorded constraint:
            # the prefix no longer pins the path
            t.constraints_exact = False

    return transfer


@_builds(Mnemonic.RET)
def _build_ret(instruction: Instruction) -> Optional[Transfer]:
    return _ret


def _ret(t: ShadowTracker, emulator, address: int) -> None:
    entries = t.memory_exprs
    if not entries:
        return
    # a symbolic return slot is an opaque-materialized gadget address (the
    # +OC layer stores the recombined value into the chain right before this
    # ret pops it): record the concrete target as a pinned pointer decision,
    # exactly like a symbolic ``add rsp`` chain-pointer update
    slot = emulator.state.regs[Register.RSP] & _MASK64
    expression = entries.get((slot, 8))
    if expression is None or not expression.symbols():
        return
    if t.branch_observer is not None:
        t.branch_observer("pointer", address)
    target = int.from_bytes(bytes(emulator.memory.read(slot, 8)), "little")
    t.branches.append(BranchRecord(
        address=address,
        constraint=PathConstraint(BinExpr("eq", expression, ConstExpr(target)),
                                  True),
        kind="pointer"))
    t.symbolic_instruction_count += 1
    # the constraint pins the popped value to its concrete target, so
    # dropping the (now dead) slot shadow is exact
    t._set_memory_expr((slot, 8), None)


@_builds(Mnemonic.CALL)
def _build_call(instruction: Instruction) -> Optional[Transfer]:
    operands = instruction.operands
    if not operands:
        return None
    target_operand = operands[0]

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
        if Register.RSP in t.register_exprs:
            t.repair_exact = False
        slot = (emulator.state.regs[Register.RSP] - 8) & _MASK64
        t._invalidate_stable(slot, 8)
        if t.repair_exact and t._overlapping_memory(slot, 8, (slot, 8)):
            t.repair_exact = False
        t._set_memory_expr((slot, 8), None)

        if type(target_operand) is Imm:
            target = target_operand.value
        elif type(target_operand) is Reg:
            target = emulator.state.regs[target_operand.reg]
        else:
            return
        if not is_host_address(target):
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

    return transfer


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
    declined=(), flag_style="none")
