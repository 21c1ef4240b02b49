"""Shadow soundness oracle: while the tracker claims ``repair_exact``, every
shadow expression evaluated at the concrete input equals the machine value.

The check runs as a plain pre-hook ahead of the shadow's own, so it sees the
state every executed instruction left behind (and once more after the run):
each ``register_exprs`` entry against its register, each ``memory_exprs``
entry against the bytes it describes.  It drives the random instruction
sequences of the tier differential (``tests/cpu/test_codegen_tiers.py``)
with symbolic registers and memory, and a ROP1.00 and a ROP1.00+OC+IH image
of the attack service at fixed inputs.  Fixed programs also check the
repair itself: :meth:`ShadowTracker.repair` must turn a finished run into
the run of another input.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.dse import DseEngine, InputSpec
from repro.attacks.shadow import _BUILDERS, ShadowTracker, _build_inert
from repro.attacks.solver.expr import SymExpr
from repro.cpu import Emulator
from repro.cpu.state import EmulationError, SIZE_MASKS
from repro.isa import Imm, Mem, Reg
from repro.isa.instructions import Mnemonic, make
from repro.isa.operands import Label
from repro.isa.registers import ARG_REGISTERS, Register
from repro.service.requests import AttackRequest, _prepared_image
from tests.cpu.test_codegen_tiers import (_BLOB, _BLOB_SIZE, _program_case,
                                          build_program, start_call)

_MASK64 = (1 << 64) - 1


class SoundnessOracle:
    """Pre-hook asserting the shadow state against the machine."""

    def __init__(self, tracker: ShadowTracker, assignment) -> None:
        self.tracker = tracker
        self.assignment = assignment
        #: steps at which the exactness claim held and was checked
        self.checked = 0
        #: id -> (expression, value): expressions are immutable, so each is
        #: evaluated once (the expression is kept alive so ids stay unique)
        self._values = {}

    def _value(self, expression) -> int:
        cached = self._values.get(id(expression))
        if cached is None:
            cached = (expression, expression.evaluate(self.assignment))
            self._values[id(expression)] = cached
        return cached[1]

    def check(self, emulator) -> None:
        tracker = self.tracker
        if not tracker.repair_exact:
            return
        self.checked += 1
        regs = emulator.state.regs
        for register, expression in tracker.register_exprs.items():
            assert self._value(expression) & _MASK64 == regs[register], (
                f"{register} shadow {expression} != {regs[register]:#x} "
                f"before rip {emulator.state.rip:#x}")
        for (address, size), expression in tracker.memory_exprs.items():
            machine = emulator.memory.read_int(address, size)
            assert self._value(expression) & SIZE_MASKS[size] == machine, (
                f"[{address:#x}:{size}] shadow {expression} != "
                f"{machine:#x} before rip {emulator.state.rip:#x}")

    def __call__(self, emulator, address, instruction) -> None:
        self.check(emulator)


def _run_checked(emulator: Emulator, tracker: ShadowTracker,
                 assignment) -> SoundnessOracle:
    oracle = SoundnessOracle(tracker, assignment)
    emulator.pre_hooks = [oracle, tracker.hook]
    try:
        emulator.run()
    except EmulationError:
        pass
    oracle.check(emulator)
    return oracle


@settings(max_examples=60, deadline=None)
@given(case=_program_case(), symbolic=st.data())
def test_shadow_sound_on_random_sequences(case, symbolic):
    body, seeds, data = case
    program = build_program(body, data=data)
    emulator = Emulator(program.memory, max_steps=20_000)
    start_call(emulator, program, seeds)
    tracker = ShadowTracker()
    assignment = {}
    for register, value in seeds:
        if symbolic.draw(st.booleans()):
            name = f"r{int(register)}"
            assignment[name] = value
            tracker.set_register_symbol(register, SymExpr(name))
    for slot in symbolic.draw(st.sets(st.integers(0, 23), max_size=6)):
        name = f"m{slot}"
        address = _BLOB + 8 * slot
        assignment[name] = int.from_bytes(data[8 * slot:8 * slot + 8],
                                          "little")
        tracker.set_memory_symbol(address, 8, SymExpr(name))
    oracle = _run_checked(emulator, tracker, assignment)
    assert oracle.checked > 0


def _run_symbolic_rdi(body, value):
    """Run ``body`` under the oracle with ``rdi`` symbolic and set to ``value``."""
    program = build_program([*body, make("ret")])
    emulator = Emulator(program.memory, max_steps=1_000)
    start_call(emulator, program, [(Register.RDI, value)])
    tracker = ShadowTracker()
    tracker.set_register_symbol(Register.RDI, SymExpr("x"))
    _run_checked(emulator, tracker, {"x": value})
    return emulator, tracker


#: Bytes of stack below the final ``rsp`` that a repair is checked over.
_STACK_WINDOW = 256


def _final_state(emulator):
    """Registers, flags, the scratch blob and the stack below ``rsp``."""
    memory, rsp = emulator.memory, emulator.state.regs[Register.RSP]
    return (dict(emulator.state.regs), emulator.state.flags_tuple(),
            bytes(memory.read(_BLOB, _BLOB_SIZE)),
            bytes(memory.read(rsp - _STACK_WINDOW, _STACK_WINDOW)))


def _assert_exact_claims_hold(body, inputs):
    """The oracle holds at every input, and a run that ends claiming
    ``repair_exact``, once :meth:`ShadowTracker.repair` rewrites it for
    another input that satisfies its path constraints, reproduces that
    input's run — the repair a resumed DSE execution performs: registers
    and memory (the memory shadow included), and the flags too while the
    tracker is ``resumable``."""
    runs = [_run_symbolic_rdi(body, value) for value in inputs]
    finals = [_final_state(emulator) for emulator, _ in runs]
    for emulator, tracker in runs:
        if not tracker.repair_exact:
            continue
        rsp = emulator.state.regs[Register.RSP]
        for address, size in tracker.memory_exprs:
            assert _BLOB <= address <= _BLOB + _BLOB_SIZE - size \
                or rsp - _STACK_WINDOW <= address <= rsp - size
        for value, final in zip(inputs, finals):
            assignment = {"x": value}
            if not all(constraint.holds(assignment)
                       for constraint in tracker.path_constraints()):
                continue
            tracker.repair(emulator, assignment)
            regs, flags, blob, stack = _final_state(emulator)
            assert (regs, blob, stack) == (final[0], final[2], final[3]), value
            if tracker.resumable():
                assert flags == final[1], value


#: Programs ending on each flag recipe, with register, blob and stack
#: shadows live at the end.
_REPAIRED_BODIES = {
    recipe: [
        make("mov", Reg(Register.RAX), Reg(Register.RDI)),
        make("add", Reg(Register.RAX), Imm(7, 8)),
        make("mov", Mem(base=Register.R15, disp=8, size=8), Reg(Register.RAX)),
        make("mov", Mem(base=Register.R15, disp=16, size=2), Reg(Register.RDI, 2)),
        make("push", Reg(Register.RDI)),
        make("pop", Reg(Register.RCX)),
        make("push", Reg(Register.RAX)),
        make("add", Reg(Register.RSP), Imm(8, 8)),
        *last,
    ]
    for recipe, last in {
        "sub": [make("cmp", Reg(Register.RCX, 4), Imm(100, 8))],
        "add": [make("add", Reg(Register.RCX), Imm(-50, 8))],
        "logic": [make("test", Reg(Register.RCX, 1), Imm(0x81, 8))],
        "concrete": [make("cmp", Reg(Register.RDX), Imm(1, 8))],
    }.items()
}


@pytest.mark.parametrize("recipe", sorted(_REPAIRED_BODIES))
def test_repair_reproduces_registers_memory_and_flags(recipe):
    body = _REPAIRED_BODIES[recipe]
    _assert_exact_claims_hold(body, inputs=(3, 200, _MASK64))
    _, tracker = _run_symbolic_rdi(body, 3)
    assert tracker.resumable() and tracker.flags[0] == recipe
    assert len(tracker.memory_exprs) >= 2


def test_leave_drops_a_symbolic_frame_pointer():
    """``leave`` is ``mov rsp, rbp; pop rbp``: a symbolic rbp shadow does
    not survive it, and the load through the input-dependent rbp ends the
    exactness claim."""
    body = [
        make("lea", Reg(Register.RBP),
             Mem(base=Register.RSP, index=Register.RDI, scale=1, size=8)),
        make("sub", Reg(Register.RBP), Reg(Register.RDI)),
        make("push", Imm(0x1234, 8)),
        make("mov", Reg(Register.RBP), Reg(Register.RSP)),
        make("add", Reg(Register.RBP), Reg(Register.RDI)),
        make("sub", Reg(Register.RBP), Reg(Register.RDI)),
        make("leave"),
    ]
    _assert_exact_claims_hold(body, inputs=(5, 9))
    _, tracker = _run_symbolic_rdi(body, 5)
    assert not tracker.repair_exact


def test_leave_reloads_a_saved_symbolic_frame_pointer():
    """A symbolic rbp saved by the prologue comes back, exactly, at the
    ``leave`` of a concrete frame."""
    body = [
        make("mov", Reg(Register.RBP), Reg(Register.RDI)),
        make("push", Reg(Register.RBP)),
        make("mov", Reg(Register.RBP), Reg(Register.RSP)),
        make("sub", Reg(Register.RSP), Imm(32, 8)),
        make("leave"),
        make("lea", Reg(Register.RAX),
             Mem(base=Register.RBP, disp=1, size=8)),
    ]
    _assert_exact_claims_hold(body, inputs=(5, 9))
    _, tracker = _run_symbolic_rdi(body, 5)
    assert tracker.repair_exact
    assert tracker.register_exprs[Register.RBP] == SymExpr("x")


def test_leave_through_a_stable_range_keeps_its_frame_exact():
    """With rbp pointing into a runtime-constant region, ``leave`` loads
    the saved rbp as a select and leaves rsp one slot above rbp, both
    exactly (the oracle checks them before the next instruction)."""
    data = bytes((index * 37 + 11) & 0xFF for index in range(_BLOB_SIZE))
    body = [make("mov", Reg(Register.RBX), Reg(Register.RSP)),
            make("lea", Reg(Register.RBP),
                 Mem(base=Register.R15, index=Register.RDI, scale=1, size=8)),
            make("leave"),
            make("mov", Reg(Register.RSP), Reg(Register.RBX)),
            make("ret")]
    program = build_program(body, data=data)
    emulator = Emulator(program.memory, max_steps=100)
    start_call(emulator, program, [(Register.RDI, 8)])
    tracker = ShadowTracker(stable_ranges=[(_BLOB, _BLOB + _BLOB_SIZE)])
    tracker.set_register_symbol(Register.RDI, SymExpr("x"))
    oracle = _run_checked(emulator, tracker, {"x": 8})
    assert tracker.repair_exact and oracle.checked == len(body) + 1
    saved = tracker.register_exprs[Register.RBP]
    assert saved.evaluate({"x": 16}) == int.from_bytes(data[16:24], "little")


def test_pop_through_a_stable_range_moves_a_symbolic_rsp():
    """A pop through a symbolic rsp into a runtime-constant region loads an
    exact select, and rsp's shadow moves up the slot with the machine's
    rsp (the oracle checks both before the next instruction)."""
    data = bytes((index * 37 + 11) & 0xFF for index in range(_BLOB_SIZE))
    body = [make("mov", Reg(Register.RBX), Reg(Register.RSP)),
            make("lea", Reg(Register.RSP),
                 Mem(base=Register.R15, index=Register.RDI, scale=1, size=8)),
            make("pop", Reg(Register.RAX)),
            make("mov", Reg(Register.RSP), Reg(Register.RBX)),
            make("ret")]
    program = build_program(body, data=data)
    emulator = Emulator(program.memory, max_steps=100)
    start_call(emulator, program, [(Register.RDI, 8)])
    tracker = ShadowTracker(stable_ranges=[(_BLOB, _BLOB + _BLOB_SIZE)])
    tracker.set_register_symbol(Register.RDI, SymExpr("x"))
    oracle = _run_checked(emulator, tracker, {"x": 8})
    assert tracker.repair_exact and oracle.checked == len(body) + 1
    loaded = tracker.register_exprs[Register.RAX]
    assert loaded.evaluate({"x": 16}) == int.from_bytes(data[16:24], "little")


def test_push_through_a_symbolic_rsp_moves_its_shadow():
    """After a push through a symbolic rsp, rsp's shadow is one slot down,
    so the pointer constraint a later ``add rsp`` records holds at the
    input that ran it."""
    body = [make("mov", Reg(Register.RBX), Reg(Register.RDI)),
            make("sub", Reg(Register.RBX), Reg(Register.RDI)),
            make("lea", Reg(Register.RSP),
                 Mem(base=Register.RSP, index=Register.RBX, scale=1, size=8)),
            make("push", Imm(7, 8)),
            make("add", Reg(Register.RSP), Imm(8, 8))]
    for value in (5, 9):
        _, tracker = _run_symbolic_rdi(body, value)
        constraints = tracker.path_constraints()
        assert [record.kind for record in tracker.branches] == ["pointer"]
        assert all(constraint.holds({"x": value}) for constraint in constraints)


def test_a_store_drops_every_entry_it_overlaps():
    """``mov [r15+4], edi; mov qword [r15], 0; mov eax, [r15+4]``: the
    qword store overwrites the symbolic dword, so the reload is concrete,
    as the machine's ``eax`` (0) is."""
    body = [make("mov", Mem(base=Register.R15, disp=4, size=4),
                 Reg(Register.RDI, 4)),
            make("mov", Mem(base=Register.R15, size=8), Imm(0, 8)),
            make("mov", Reg(Register.RAX, 4),
                 Mem(base=Register.R15, disp=4, size=4))]
    emulator, tracker = _run_symbolic_rdi(body, 5)
    assert emulator.state.regs[Register.RAX] == 0
    assert Register.RAX not in tracker.register_exprs
    assert tracker.memory_exprs == {}
    assert not tracker.repair_exact


def test_call_and_ret_move_a_symbolic_rsp():
    """With rsp's shadow symbolic (``rsp + (x - x)``), ``call`` moves it one
    slot down and ``ret`` one slot up, as the machine moves rsp, and a
    ``ret`` through it ends ``constraints_exact``: the slot its target
    comes from is input-dependent."""
    body = [make("mov", Reg(Register.RBX), Reg(Register.RDI)),
            make("sub", Reg(Register.RBX), Reg(Register.RDI)),
            make("lea", Reg(Register.RSP),
                 Mem(base=Register.RSP, index=Register.RBX, scale=1, size=8)),
            make("call", Label("callee")),
            make("mov", Reg(Register.RDX), Reg(Register.RSP)),
            make("jmp", Label("done")),
            "callee",
            make("mov", Reg(Register.RCX), Reg(Register.RSP)),
            make("ret"),
            "done"]
    for value in (5, 9):
        emulator, tracker = _run_symbolic_rdi(body, value)
        regs = emulator.state.regs
        for register in (Register.RCX, Register.RDX, Register.RSP):
            expression = tracker.register_exprs[register]
            assert expression.evaluate({"x": value}) & _MASK64 \
                == regs[register], register
        assert regs[Register.RDX] == regs[Register.RCX] + 8
        assert not tracker.constraints_exact


def test_only_nop_and_hlt_are_inert():
    assert {mnemonic for mnemonic, builder in _BUILDERS.items()
            if builder is _build_inert} == {Mnemonic.NOP, Mnemonic.HLT}


def test_page_model_select_matches_the_machine_at_every_index():
    """A symbolic-index byte load under the page memory model is a select
    over the page's bytes: at any in-page index it evaluates to what the
    machine loads when run at that index."""
    data = bytes((index * 37 + 11) & 0xFF for index in range(_BLOB_SIZE))
    body = [make("movzx", Reg(Register.RAX, 4),
                 Mem(base=Register.R15, index=Register.RDI, scale=1, size=1)),
            make("ret")]

    def run(index, tracker=None):
        program = build_program(body, data=data)
        emulator = Emulator(program.memory, max_steps=100)
        start_call(emulator, program, [(Register.RDI, index)])
        if tracker is not None:
            emulator.pre_hooks = [tracker.hook]
        emulator.run()
        return emulator.state.regs[Register.RAX]

    tracker = ShadowTracker(memory_model="page")
    tracker.set_register_symbol(Register.RDI, SymExpr("x"))
    assert run(5, tracker) == data[5]
    expression = tracker.register_exprs[Register.RAX]
    assert "select[" in str(expression)
    for index in (0, 1, 5, 77, 128, 200, 255):
        assert expression.evaluate({"x": index}) == run(index) == data[index]


def test_adc_carry_out_is_not_its_carry_in():
    """A symbolic adc's carry-out feeds the next adc: the shadow must not
    reuse the first adc's carry-in for it."""
    _assert_exact_claims_hold([
        make("cmp", Reg(Register.RDI), Imm(5, 8)),
        make("adc", Reg(Register.RAX), Imm(0, 8)),
        make("adc", Reg(Register.RBX), Imm(0, 8)),
    ], inputs=(3, 7))


def test_unmodeled_add_carry_is_input_dependent():
    """A symbolic add's carry makes the next adc's result depend on the
    input even though neither adc operand is symbolic."""
    _assert_exact_claims_hold([
        make("add", Reg(Register.RDI), Imm(1, 8)),
        make("adc", Reg(Register.RBX), Imm(0, 8)),
    ], inputs=(3, _MASK64))


def test_extra_decoded_operands_are_shadowed_as_the_machine_runs_them():
    """``mov rax, rdi, rcx`` runs as ``mov rax, rdi`` in every tier; the
    shadow must mirror that, not drop the instruction while it still
    claims ``repair_exact``."""
    emulator, tracker = _run_symbolic_rdi(
        [make("mov", Reg(Register.RAX), Reg(Register.RDI), Reg(Register.RCX))],
        5)
    assert emulator.state.regs[Register.RAX] == 5
    assert tracker.repair_exact
    expression = tracker.register_exprs[Register.RAX]
    assert expression.evaluate({"x": 5}) & _MASK64 \
        == emulator.state.regs[Register.RAX]


def _attack_image(structure, configuration, seed):
    request = AttackRequest(id="oracle", structure=structure, input_size=1,
                            configuration=configuration, seed=seed)
    return _prepared_image(request)


#: (configuration, image seed, inputs, steps the exactness claim must
#: cover): the ROP1.00 image leaves the envelope at its first symbolic-index
#: chain read (it has no stable-range metadata); +OC+IH keeps it for tens of
#: thousands of steps through its stable-range selects.
_ROP_CASES = (("ROP1.00", 1003, (0, 0x5A), 20),
              ("ROP1.00+OC+IH", 1005, (0,), 10_000))


def test_shadow_sound_on_rop_images():
    for configuration, seed, inputs, covered in _ROP_CASES:
        image, symbol = _attack_image("if(if(if,if),if)", configuration, seed)
        engine = DseEngine(image, symbol, InputSpec(argument_sizes=[1]),
                           max_instructions=150_000)
        for value in inputs:
            emulator = engine._fork_emulator()
            emulator.state.write_reg(ARG_REGISTERS[0], value)
            tracker = ShadowTracker(stable_ranges=image.metadata.get(
                "rop_stable_ranges", ()))
            tracker.set_register_symbol(ARG_REGISTERS[0], SymExpr("arg0", 1))
            oracle = _run_checked(emulator, tracker, {"arg0": value})
            assert oracle.checked >= covered, (configuration, value,
                                               oracle.checked)
