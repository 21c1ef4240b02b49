"""Differential tests for the hooked loop's compiled steps.

Under ``pre_hooks`` every instruction runs as one compiled step
(:func:`repro.cpu.codegen.compile_step`) that calls the DSE shadow's
transfer and then the instruction's native semantics.  The reference here
is the reference interpreter (:mod:`repro.cpu.reference`), which calls the
tracker's hook directly before each handler: the two must leave identical
registers, flags, memory, ``rip``, step counts and faults, and an identical
shadow.  The deterministic cases add a grid of operand shapes, every
destination x source kind for one mnemonic of each emitter family, checked
against single-step and compiled traces too.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.shadow import ShadowTracker
from repro.binary import BinaryImage
from repro.attacks.solver.expr import SymExpr
from repro.cpu import Emulator
from repro.cpu.reference import run as reference_run
from repro.cpu.state import EmulationError
from repro.isa import Imm, Mem, Reg
from repro.isa.instructions import Instruction, Mnemonic, make
from repro.isa.registers import Register
from tests.cpu.test_codegen_tiers import (
    _BLOB,
    _BLOB_SIZE,
    _GP,
    _INT64_MIN,
    _imm64,
    _unit,
    build_program,
    run_tier,
    start_call,
)

_MASK64 = (1 << 64) - 1

#: An address no region maps.
_UNMAPPED = 0x1234_5678_9ABC


def run_hooked(body, seeds, data=bytes(_BLOB_SIZE), reference=False,
               cap=None, rounds=2):
    """Run ``body`` ``rounds`` times under a fresh ShadowTracker (symbolic
    ``rdi`` and first blob qword) on the hooked loop, or on the reference
    when ``reference``; return the per-round concrete and shadow state."""
    program = build_program(body, data=data)
    emulator = Emulator(program.memory, max_steps=20_000)
    outcomes = []
    for _ in range(rounds):
        start_call(emulator, program, seeds)
        tracker = ShadowTracker()
        tracker.set_register_symbol(Register.RDI, SymExpr("arg0", 8))
        tracker.set_memory_symbol(_BLOB, 8, SymExpr("buf0", 8))
        emulator.pre_hooks = [tracker.hook]
        limit = emulator.max_steps if cap is None else emulator.steps + cap
        fault = None
        try:
            if reference:
                reference_run(emulator, limit)
            else:
                emulator.run(max_steps=cap)
        except EmulationError as exc:
            fault = str(exc)
        stack = emulator.state.regs[Register.RSP]
        outcomes.append({
            "steps": emulator.steps,
            "rip": emulator.state.rip,
            "regs": dict(emulator.state.regs),
            "flags": emulator.state.flags_tuple(),
            "fault": fault,
            "blob": bytes(emulator.memory.read(_BLOB, _BLOB_SIZE)),
            "stack": bytes(emulator.memory.read(program.stack_top - 64, 64)),
            "stack_top": stack,
            "branches": list(tracker.branches),
            "register_exprs": dict(tracker.register_exprs),
            "memory_exprs": dict(tracker.memory_exprs),
            "repair_exact": tracker.repair_exact,
            "constraints_exact": tracker.constraints_exact,
        })
    return outcomes


def assert_hooked_matches_reference(body, seeds, data=bytes(_BLOB_SIZE),
                                    cap=None):
    hooked = run_hooked(body, seeds, data=data, cap=cap)
    assert hooked == run_hooked(body, seeds, data=data, reference=True,
                                cap=cap)
    return hooked


#: Units that fault on the stack: a pop or ret through an unmapped rsp.
_STACK_FAULTS = [
    [make("mov", Reg(Register.RSP), Imm(_UNMAPPED, 8)),
     make("pop", Reg(Register.RAX))],
    [make("mov", Reg(Register.RSP), Imm(_UNMAPPED, 8)), make("ret")],
]


@st.composite
def _hooked_case(draw):
    units = draw(st.lists(_unit(), min_size=1, max_size=12))
    if draw(st.integers(0, 4)) == 0:
        units.append(draw(st.sampled_from(_STACK_FAULTS)))
    body = [instruction for unit in units for instruction in unit]
    body = body + ["end", make("ret")]
    seeds = [(register, draw(_imm64)) for register in _GP]
    data = draw(st.binary(min_size=_BLOB_SIZE, max_size=_BLOB_SIZE))
    # a budget cap that may land mid-body
    cap = draw(st.one_of(st.none(), st.integers(1, len(body))))
    return body, seeds, data, cap


@settings(max_examples=60, deadline=None)
@given(case=_hooked_case())
def test_hooked_steps_match_the_handler_reference(case):
    body, seeds, data, cap = case
    assert_hooked_matches_reference(body, seeds, data=data, cap=cap)


@pytest.mark.parametrize("tail", [
    *_STACK_FAULTS,
    [make("mov", Reg(Register.RAX), Imm(_INT64_MIN, 8)),
     make("mov", Reg(Register.RBX), Imm(-1, 8)),
     make("cqo"), make("idiv", Reg(Register.RBX))],
])
def test_hooked_faults_leave_steps_unadvanced(tail):
    body = [make("add", Reg(Register.RDI), Imm(1))] + tail + [make("ret")]
    (first, _) = assert_hooked_matches_reference(body, [])
    assert first["fault"] is not None
    # every instruction before the faulting one retired, and it did not
    assert first["steps"] == len(body) - 2


def test_budget_cap_mid_body_matches_the_reference():
    body = [make("add", Reg(Register.RDI), Imm(i)) for i in range(6)] \
        + [make("ret")]
    for cap in range(1, 8):
        (first, _) = assert_hooked_matches_reference(body, [], cap=cap)
        assert first["steps"] == min(cap, len(body))


#: Hand-picked operand shapes: immediate destinations fault like
#: write_operand, and a store to the read-only text faults after the flags
#: are set.
_BLOB_Q = Mem(disp=_BLOB + 8)
_TEXT_Q = Mem(disp=BinaryImage().text.address)
_PICKED_SHAPES = [
    [make("mov", _BLOB_Q, Mem(disp=_BLOB + 16))],
    [make("mov", Imm(3, 8), Reg(Register.RAX))],
    [make("movsx", Reg(Register.RAX, 2), Reg(Register.RBX, 1))],
    [make("movsx", Reg(Register.RAX), Imm(0x80, 1))],
    [make("movsx", Mem(disp=_BLOB + 8, size=4), Reg(Register.RBX, 2))],
    [make("add", Imm(_MASK64, 8), Reg(Register.RAX))],
    [make("sub", _TEXT_Q, Reg(Register.RDX))],
    [make("cmp", Imm(7, 8), Reg(Register.RAX))],
    [make("sub", _BLOB_Q, Mem(disp=_BLOB + 16))],
    [make("test", Mem(disp=_BLOB + 8, size=2), Mem(disp=_BLOB + 16, size=2))],
    [make("cmp", Reg(Register.RAX), Reg(Register.RBX)),
     make("adc", Reg(Register.RCX, 4), Reg(Register.RDX, 4))],
    [make("cmp", Reg(Register.RAX), Reg(Register.RBX)),
     make("sbb", Reg(Register.RCX, 1), Mem(disp=_BLOB + 8, size=1))],
    [make("cmp", Reg(Register.RAX), Reg(Register.RBX)),
     make("adc", _BLOB_Q, Reg(Register.RDX))],
    [make("sbb", Reg(Register.RAX), _BLOB_Q)],
    [make("pop", Reg(Register.RAX, 4))],
    [make("pop", Reg(Register.RAX, 2))],
    [make("pop", _BLOB_Q)],
    [make("pop", Imm(1, 8))],
    [make("push", Reg(Register.RBX, 4)), make("pop", Reg(Register.RCX))],
    [make("push", _BLOB_Q), make("pop", Reg(Register.RCX))],
    [make("lea", Reg(Register.RAX, 4), Mem(base=Register.R15, disp=8))],
    [make("lea", _BLOB_Q, Mem(base=Register.R15, disp=8))],
    [make("lea", Reg(Register.RAX), Reg(Register.RBX))],
    [make("inc", Reg(Register.RAX, 4)), make("dec", Reg(Register.RBX, 1))],
    [make("inc", _BLOB_Q), make("dec", Mem(disp=_BLOB + 16, size=2))],
    [make("neg", Reg(Register.RAX, 2)), make("neg", _BLOB_Q)],
    [make("not", Reg(Register.RCX, 4)), make("not", Mem(disp=_BLOB, size=1))],
    [make("inc", Imm(_MASK64, 8))],
    [make("shl", _BLOB_Q, Imm(3, 8))],
    [make("sar", Mem(disp=_BLOB + 8, size=2), Reg(Register.RCX, 1))],
    [make("shr", Reg(Register.RAX), Mem(disp=_BLOB + 16, size=1))],
    [make("shl", Mem(disp=_BLOB + 8, size=1), Imm(9, 8))],
    [make("shl", Imm(1 << 63, 8), Imm(1, 8))],
    [make("imul", Reg(Register.RAX, 4), Reg(Register.RBX, 4))],
    [make("imul", Reg(Register.RAX), _BLOB_Q)],
    [make("imul", _BLOB_Q, Reg(Register.RBX))],
    [make("imul", Reg(Register.RAX, 2), Imm(-3, 8))],
    [make("cmp", Reg(Register.RAX), Reg(Register.RBX)),
     make("cmovl", Reg(Register.RCX, 4), Reg(Register.RDX, 4))],
    [make("cmp", Reg(Register.RAX), Reg(Register.RBX)),
     make("cmovge", Reg(Register.RCX), _BLOB_Q)],
    [make("cmp", Reg(Register.RAX), Reg(Register.RBX)),
     make("cmovne", _BLOB_Q, Reg(Register.RDX))],
    [make("cmp", Reg(Register.RAX), Reg(Register.RBX)),
     make("setl", _BLOB_Q)],
    [make("sete", Imm(0, 8))],
    [make("xchg", Reg(Register.RAX), Imm(5, 8))],
    [make("xchg", _BLOB_Q, Mem(disp=_BLOB + 16))],
    # a masked zero count still reads (and here faults on) its memory
    # destination
    [make("sar", Mem(disp=_UNMAPPED), Imm(64, 8))],
    # extra decoded operands are ignored, as by the handlers
    [make("mov", Reg(Register.RAX), Reg(Register.RBX), Reg(Register.RCX))],
    [make("imul", Reg(Register.RAX), Reg(Register.RBX), Imm(3, 8))],
    # a missing operand is an unimplemented instruction in every tier
    [Instruction(Mnemonic.MOV, (Reg(Register.RAX),))],
    [Instruction(Mnemonic.JMP, ())],
]

#: The operand kinds of the shape grid: a register at 8, 4 and 1 bytes, a
#: memory operand at 8 and 2 bytes (based on the pinned ``r15``/``r14``,
#: and absolute) and an immediate with its sign bit set.
_DESTINATIONS = (Reg(Register.RAX), Reg(Register.RAX, 4),
                 Reg(Register.RAX, 1), Mem(base=Register.R15, disp=8),
                 Mem(base=Register.R15, index=Register.R14, disp=8, size=2),
                 Imm(-127 & _MASK64, 8))
_SOURCES = (Reg(Register.RBX), Reg(Register.RBX, 4), Reg(Register.RBX, 1),
            Mem(disp=_BLOB + 24), Mem(base=Register.R15, disp=32, size=2),
            Imm(-127 & _MASK64, 8))

#: One mnemonic per emitter family.  Each grid unit starts with a ``cmp``
#: so the flag consumers (``adc``, ``cmovl``, ``setl``) see defined flags.
_BINARY = ("mov", "movsx", "sub", "adc", "shl", "imul", "xchg", "cmovl",
           "lea")
_UNARY = ("neg", "not", "setl", "pop", "push")


def _grid_unit(mnemonic, *operands):
    unit = [make("cmp", Reg(Register.RAX), Reg(Register.RBX)),
            make(mnemonic, *operands)]
    if mnemonic == "push":
        unit.append(make("pop", Reg(Register.RCX)))  # keep the return address
    return unit


#: Every destination x source kind of one mnemonic per emitter family.
_GRID_SHAPES = [
    *(_grid_unit(mnemonic, dst, src) for mnemonic in _BINARY
      for dst in _DESTINATIONS for src in _SOURCES),
    *(_grid_unit(mnemonic, operand) for mnemonic in _UNARY
      for operand in _DESTINATIONS),
]

#: Each shape compiles through its family's one emitter, which follows the
#: handler's order of loads, flag updates, stores and faults.
_OPERAND_SHAPES = _PICKED_SHAPES + _GRID_SHAPES
_SHAPE_IDS = ([str(unit[-1]) for unit in _PICKED_SHAPES]
              + [f"grid {unit[1]}" for unit in _GRID_SHAPES])


@pytest.mark.parametrize("unit", _OPERAND_SHAPES, ids=_SHAPE_IDS)
@pytest.mark.parametrize("rbx", [2, _MASK64])
def test_generic_shapes_agree_in_every_tier(unit, rbx):
    body = unit + [make("ret")]
    seeds = [(Register.RAX, 1), (Register.RBX, rbx), (Register.RCX, 3),
             (Register.RDX, 0x8000_0000_0000_0001)]
    data = bytes(range(_BLOB_SIZE))
    single = run_tier(body, seeds, "reference", data=data)
    assert single == run_tier(body, seeds, "single", data=data)
    assert single == run_tier(body, seeds, "compiled", data=data)
    # the compiled tier ran the shape natively: no trace was declined
    program = build_program(body, data=data)
    emulator = Emulator(program.memory, trace_cache=True)
    emulator.trace_compile_threshold = 0
    for _ in range(3):
        start_call(emulator, program, seeds)
        try:
            emulator.run()
        except EmulationError:
            pass
    assert emulator.jit_stats.compile_declined == 0
    hooked = assert_hooked_matches_reference(body, seeds, data=data)
    for concrete, under_hooks in zip(single, hooked):
        assert {key: under_hooks[key] for key in concrete} == concrete


@pytest.mark.parametrize("register_first", [True, False])
def test_xchg_shadow_stores_at_the_pre_instruction_address(register_first):
    """``xchg rbx, [rbx]`` with a symbolic ``rbx``: the shadow's store lands
    where the machine's does, at the pre-instruction address, and the
    address's input dependence clears ``repair_exact``."""
    pair = [Reg(Register.RBX), Mem(base=Register.RBX)]
    if not register_first:
        pair.reverse()
    program = build_program([make("xchg", *pair), make("ret")])
    emulator = Emulator(program.memory)
    start_call(emulator, program, [(Register.RBX, _BLOB + 8)])
    tracker = ShadowTracker()
    symbol = SymExpr("arg0", 8)
    tracker.set_register_symbol(Register.RBX, symbol)
    emulator.pre_hooks = [tracker.hook]
    emulator.run()
    assert emulator.memory.read_int(_BLOB + 8, 8) == _BLOB + 8
    assert tracker.memory_exprs == {(_BLOB + 8, 8): symbol}
    assert Register.RBX not in tracker.register_exprs
    assert tracker.repair_exact is False


@pytest.mark.parametrize("dividend,divisor", [(5, 0), (_INT64_MIN, _MASK64)])
def test_faulting_idiv_leaves_the_shadow_alone(dividend, divisor):
    """``idiv`` raising #DE retires nothing, in the machine and in the
    shadow: ``rax`` keeps the dividend's expression."""
    program = build_program([make("mov", Reg(Register.RAX), Reg(Register.RDI)),
                             make("cqo"), make("idiv", Reg(Register.RSI)),
                             make("ret")])
    emulator = Emulator(program.memory)
    start_call(emulator, program, [(Register.RDI, dividend),
                                   (Register.RSI, divisor)])
    tracker = ShadowTracker()
    symbol = SymExpr("arg0", 8)
    tracker.set_register_symbol(Register.RDI, symbol)
    emulator.pre_hooks = [tracker.hook]
    with pytest.raises(EmulationError):
        emulator.run()
    assert emulator.state.regs[Register.RAX] == dividend
    assert tracker.register_exprs[Register.RAX] == symbol
