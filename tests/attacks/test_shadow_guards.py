"""The shadow's derived guards are never looser than the hand-written ones.

Each guarded transfer's concrete guard and kill are derived from the effect
table (:data:`repro.isa.effects.EFFECTS`).  Before that, every builder in
:mod:`repro.attacks.shadow` stated them by hand; ``_legacy_fast`` below is
those fast paths, frozen.  A checking transfer runs ahead of each hooked
instruction, on live state, over the eight golden Table II requests and
over the operand grid of ``tests/cpu/test_hooked_steps.py``:

* wherever the derived guard holds, the frozen one holds too;
* where both hold, the two kills leave the same tracker state;
* where only the frozen guard holds, the instruction counts as a case where
  the derived guard is stricter (sound, only slower); those counts are
  pinned in ``_STRICTER``.  By construction the derived guard is stricter
  on a ``leave`` under a symbolic ``rsp``, a ``ret`` whose slot a shadow
  entry only overlaps, and a ``cmov`` into a symbolic register; none of
  them runs in these programs.

``None`` (no transfer) counts as a guard that always holds with no kill, a
transfer without a fast path as a guard that never holds.
"""

from collections import Counter
from typing import Dict, List, Optional, Tuple

import pytest

from repro.attacks import shadow
from repro.attacks.shadow import ShadowTracker, _CONCRETE_FLAGS, _unshadowed
from repro.attacks.solver.expr import SymExpr
from repro.cpu import Emulator
from repro.cpu.codegen import GuardedTransfer
from repro.cpu.host import is_host_address
from repro.cpu.semantics import trim_operands
from repro.cpu.state import EmulationError, SIZE_MASKS
from repro.isa.instructions import Instruction, Mnemonic
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import Register
from tests.attacks.test_shadow_transfer_counts import run_golden_requests
from tests.cpu.test_codegen_tiers import _BLOB, _BLOB_SIZE, build_program, start_call
from tests.cpu.test_hooked_steps import _MASK64, _OPERAND_SHAPES

# -- the frozen hand-written fast paths ---------------------------------------


class _LegacyFast:
    """The hand-written fast-path vocabulary, as it stood."""

    def __init__(self) -> None:
        self.clauses: List[str] = []
        self.kills: List[str] = []
        self.constants: Dict[str, object] = {}
        self._bound: Dict[str, str] = {}

    def name(self, name, value):
        self.constants[name] = value
        return name

    def operand(self, operand):
        return self.name(f"_P{len(self.constants)}", operand)

    def reg(self, register):
        return self.name(f"_K_{register.name}", register)

    def value(self, register):
        return f"_R[{self.reg(register)}]"

    def address(self, operand):
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

    def reads(self, *operands):
        registers, memories = [], []
        for operand in operands:
            if type(operand) is Reg:
                registers.append(operand.reg)
            elif type(operand) is Mem:
                registers.extend(r for r in (operand.base, operand.index)
                                 if r is not None)
                memories.append(operand)
        for register in dict.fromkeys(registers):
            self.clauses.append(f"{self.reg(register)} not in _O.register_exprs")
        for operand in memories:
            self.unshadowed(self.address(operand), operand.size)

    def unshadowed(self, address, size):
        bound = self._bound.setdefault(address, f"_g{len(self._bound)}")
        probe = f"({bound} := {address}) >> 3 not in _O._words"
        if size > 1:
            probe += f" and ({bound} + {size - 1}) >> 3 not in _O._words"
        self.name("_unshadowed", _unshadowed)
        self.clauses.append(f"({probe} or _unshadowed(_O, {bound}, {size}))")

    def flags_concrete(self):
        self.clauses.append(
            f"_O.flags is {self.name('_CONCRETE_FLAGS', _CONCRETE_FLAGS)}")

    def drop(self, destination):
        if type(destination) is Reg:
            pop = f"_O.register_exprs.pop({self.reg(destination.reg)}, None)"
            if destination.size < 4:
                return [f"if {pop} is not None:", "    _O.repair_exact = False"]
            return [pop]
        if type(destination) is Mem:
            return self.retire(self.address(destination), destination.size)
        return []

    def retire(self, address, size):
        address = self._bound.get(address, address)
        return ["if _O._stable_ranges:",
                f"    _O._invalidate_stable({address}, {size})"]

    def concrete_result(self, destination):
        if type(destination) is Mem:
            self.kills += self.drop(destination)
        self.kills += [
            f"_O.flags = {self.name('_CONCRETE_FLAGS', _CONCRETE_FLAGS)}",
            "_O.carry_expr = None"]


def _store(operand):
    return operand if type(operand) is Mem else None


#: A legacy verdict: None (no transfer), "plain" (no fast path) or the
#: fast path's ``(guard, kill, constants)``.
_Legacy = Optional[object]


def _legacy_fast(instruction: Instruction) -> _Legacy:
    """The hand-written builders' fast path of ``instruction``."""
    instruction = trim_operands(instruction)
    m, ops = instruction.mnemonic, instruction.operands
    fast = _LegacyFast()
    binary = {Mnemonic.MOV, Mnemonic.MOVZX, Mnemonic.MOVSX, Mnemonic.LEA,
              Mnemonic.XCHG, Mnemonic.CMP, Mnemonic.TEST, Mnemonic.ADD,
              Mnemonic.SUB, Mnemonic.AND, Mnemonic.OR, Mnemonic.XOR,
              Mnemonic.IMUL, Mnemonic.SHL, Mnemonic.SHR, Mnemonic.SAR,
              Mnemonic.ADC, Mnemonic.SBB, Mnemonic.CMOV}
    unary = {Mnemonic.PUSH, Mnemonic.POP, Mnemonic.NEG, Mnemonic.NOT,
             Mnemonic.INC, Mnemonic.DEC, Mnemonic.SET, Mnemonic.JCC,
             Mnemonic.IDIV, Mnemonic.JMP, Mnemonic.CALL}
    if m in (Mnemonic.NOP, Mnemonic.HLT) or (m in binary and len(ops) != 2) \
            or (m in unary and not ops):
        return None
    if m in (Mnemonic.MOV, Mnemonic.MOVZX, Mnemonic.MOVSX):
        destination, source = ops
        fast.reads(source, _store(destination))
        fast.kills += fast.drop(destination)
    elif m is Mnemonic.LEA:
        destination, source = ops
        if type(source) is not Mem:
            return None
        fast.reads(*(Reg(r) for r in (source.base, source.index) if r is not None),
                   _store(destination))
        fast.kills += fast.drop(destination)
    elif m is Mnemonic.XCHG:
        fast.reads(*ops)
        for operand in ops:
            if type(operand) is Mem:
                fast.kills += fast.drop(operand)
    elif m is Mnemonic.PUSH:
        fast.reads(Reg(Register.RSP), ops[0])
        slot = f"{fast.value(Register.RSP)} - 8"
        fast.unshadowed(slot, 8)
        fast.kills += fast.retire(slot, 8)
    elif m is Mnemonic.POP:
        if type(ops[0]) is not Reg:
            return "plain"
        fast.reads(Reg(Register.RSP))
        fast.unshadowed(fast.value(Register.RSP), 8)
        fast.kills += fast.drop(ops[0])
    elif m is Mnemonic.LEAVE:
        fast.reads(Reg(Register.RBP))
        fast.unshadowed(fast.value(Register.RBP), 8)
        fast.kills += fast.drop(Reg(Register.RSP))
    elif m in (Mnemonic.CMP, Mnemonic.TEST):
        fast.reads(*ops)
        for operand in ops:
            if type(operand) is Mem:
                fast.kills.append(f"_E.read_operand({fast.operand(operand)})")
        fast.concrete_result(None)
    elif m in (Mnemonic.ADD, Mnemonic.SUB, Mnemonic.AND, Mnemonic.OR,
               Mnemonic.XOR, Mnemonic.IMUL):
        fast.reads(*ops)
        fast.concrete_result(ops[0])
    elif m in (Mnemonic.SHL, Mnemonic.SHR, Mnemonic.SAR):
        destination, count_operand = ops
        width_mask = 0x3F if getattr(destination, "size", 8) == 8 else 0x1F
        if type(count_operand) is Imm:
            if not count_operand.value & SIZE_MASKS[count_operand.size] & width_mask:
                return None
            fast.reads(destination)
        else:
            fast.reads(destination, count_operand)
            fast.clauses.append(
                f"_E.read_operand({fast.operand(count_operand)}) & {width_mask}")
        fast.concrete_result(destination)
    elif m in (Mnemonic.ADC, Mnemonic.SBB):
        fast.clauses.append("_O.carry_expr is None")
        fast.reads(*ops)
        fast.concrete_result(ops[0])
    elif m in (Mnemonic.NEG, Mnemonic.NOT):
        fast.reads(ops[0])
        if m is Mnemonic.NEG:
            fast.concrete_result(ops[0])
        else:
            fast.kills += fast.drop(_store(ops[0]))
    elif m in (Mnemonic.INC, Mnemonic.DEC):
        fast.reads(ops[0])
        fast.clauses.append("_O.carry_expr is None")
        fast.kills += fast.drop(_store(ops[0]))
        fast.kills.append(f"_O.flags = {fast.name('_CONCRETE_FLAGS', _CONCRETE_FLAGS)}")
    elif m is Mnemonic.SET:
        fast.flags_concrete()
        fast.reads(_store(ops[0]))
        fast.kills += fast.drop(ops[0])
    elif m is Mnemonic.CMOV:
        destination, source = ops
        fast.flags_concrete()
        fast.reads(source, _store(destination))
        drop = fast.drop(destination)
        if drop:
            fast.kills.append(f"if _S.condition({instruction.condition!r}):")
            fast.kills += ["    " + line for line in drop]
    elif m is Mnemonic.JCC:
        fast.flags_concrete()
    elif m is Mnemonic.CQO:
        fast.reads(Reg(Register.RAX))
        fast.kills += fast.drop(Reg(Register.RDX))
    elif m is Mnemonic.IDIV:
        return "plain"
    elif m is Mnemonic.JMP:
        if type(ops[0]) is not Reg:
            return None
        fast.reads(ops[0])
    elif m is Mnemonic.RET:
        fast.reads(Reg(Register.RSP))
        fast.clauses.append(f"({fast.value(Register.RSP)}, 8) not in _O.memory_exprs")
    elif m is Mnemonic.CALL:
        if type(ops[0]) is not Imm or is_host_address(ops[0].value):
            return "plain"
        fast.reads(Reg(Register.RSP))
        slot = f"({fast.value(Register.RSP)} - 8) & {_MASK64:#x}"
        fast.unshadowed(slot, 8)
        fast.kills += fast.retire(slot, 8)
    if not fast.clauses and not fast.kills:
        return None
    return (" and ".join(fast.clauses) or "True", "\n".join(fast.kills),
            tuple(sorted(fast.constants.items())))


# -- running a fast path on live state ----------------------------------------


class _Path:
    """A fast path as two functions: ``holds(O, E, A)`` evaluates the guard
    (True, False or ``EmulationError`` when it faults), ``kill(O, E, A)``
    runs guard and kill and returns whether the guard held."""

    def __init__(self, verdict) -> None:
        if verdict is None:
            verdict = ("True", "", ())
        elif verdict == "plain":
            verdict = ("False", "", ())
        guard, kill, constants = verdict
        self.key = verdict
        body = ["_S = _E.state", "_R = _S.regs", f"if not ({guard}):",
                "    return False", *kill.split("\n"), "return True"]
        source = ("def _holds(_O, _E, _A):\n    _S = _E.state\n    _R = _S.regs\n"
                  f"    return bool({guard})\n"
                  "def _kill(_O, _E, _A):\n"
                  + "".join(f"    {line}\n" for line in body if line))
        namespace = dict(constants)
        exec(compile(source, "<fast path>", "exec"), namespace)
        self._holds, self.kill = namespace["_holds"], namespace["_kill"]

    def holds(self, owner, emulator, address):
        try:
            return self._holds(owner, emulator, address)
        except EmulationError:  # a count load faults, as in the step
            return EmulationError


def _derived(transfer) -> _Path:
    if transfer is None:
        return _Path(None)
    if type(transfer) is not GuardedTransfer:
        return _Path("plain")
    fast = transfer.fast
    return _Path((fast.guard, fast.kill, fast.constants))


def _state(tracker: ShadowTracker) -> dict:
    return {name: value for name, value in vars(tracker).items()
            if name != "branch_observer"}


class GuardChecker:
    """Wraps every shadow transfer in a check of derived against frozen."""

    def __init__(self) -> None:
        self.checked: Counter = Counter()
        #: mnemonic -> instructions where only the frozen guard held
        self.stricter: Counter = Counter()

    def wrap(self, instruction: Instruction, transfer):
        legacy = _Path(_legacy_fast(instruction))
        derived = _derived(transfer)
        same_kill = legacy.key == derived.key
        name = instruction.mnemonic.name

        def checked(owner, emulator, address):
            self.checked[name] += 1
            holds = derived.holds(owner, emulator, address)
            held = legacy.holds(owner, emulator, address)
            if holds is True:
                assert held is True, f"derived guard looser at {instruction}"
                if not same_kill:
                    old, new = owner.fork(), owner.fork()
                    assert legacy.kill(old, emulator, address)
                    assert derived.kill(new, emulator, address)
                    assert _state(new) == _state(old), f"kills differ at {instruction}"
            elif held is True:
                self.stricter[name] += 1
            if transfer is not None:
                transfer(owner, emulator, address)

        return checked


#: Mnemonic -> hooked instructions where the derived guard failed and the
#: frozen one held, in each test below.
_STRICTER: Dict[str, int] = {}


def test_derived_guards_on_the_golden_requests():
    checker = GuardChecker()
    run_golden_requests(checker.wrap)
    assert sum(checker.checked.values()) > 100_000
    assert dict(checker.stricter) == _STRICTER


def _run_grid_unit(checker: GuardChecker, unit, symbolic: Tuple[Register, ...],
                   rbx: int) -> None:
    body = list(unit) + [Instruction(Mnemonic.RET)]
    program = build_program(body, data=bytes(range(_BLOB_SIZE)))
    emulator = Emulator(program.memory, max_steps=20_000)
    start_call(emulator, program, [(Register.RAX, 1), (Register.RBX, rbx),
                                   (Register.RCX, 3),
                                   (Register.RDX, 0x8000_0000_0000_0001)])
    tracker = ShadowTracker()
    for register in symbolic:
        tracker.set_register_symbol(register, SymExpr(register.name, 8))
    tracker.set_memory_symbol(_BLOB, 8, SymExpr("buf0", 8))
    tracker.set_memory_symbol(_BLOB + 24, 8, SymExpr("buf3", 8))
    wrapped: Dict[Instruction, object] = {}

    def specialize(instruction):
        if instruction not in wrapped:
            wrapped[instruction] = checker.wrap(instruction, shadow.specialize(instruction))
        return wrapped[instruction]

    emulator.pre_hooks = [shadow.SpecializedHook(tracker, specialize)]
    try:
        emulator.run()
    except EmulationError:
        pass


@pytest.mark.parametrize("symbolic", [
    (Register.RDI,), (Register.RAX, Register.RBX, Register.RSP)],
    ids=["rdi", "rax-rbx-rsp"])
def test_derived_guards_on_the_operand_grid(symbolic):
    checker = GuardChecker()
    for unit in _OPERAND_SHAPES:
        for rbx in (2, _MASK64):
            _run_grid_unit(checker, unit, symbolic, rbx)
    assert sum(checker.checked.values()) > 1_000
    assert dict(checker.stricter) == _STRICTER


def test_a_cmov_into_a_symbolic_register_is_counted_as_stricter():
    """The checker counts a stricter case: the derived guard reads a
    cmov's destination (a false cmov keeps it), the frozen one did not."""
    checker = GuardChecker()
    unit = [Instruction(Mnemonic.CMP, (Reg(Register.RAX), Reg(Register.RBX))),
            Instruction(Mnemonic.CMOV, (Reg(Register.RDI), Reg(Register.RCX)), "l")]
    _run_grid_unit(checker, unit, (Register.RDI,), 2)
    assert dict(checker.stricter) == {"CMOV": 1}
