"""Behavioural tests of the concrete emulator, including ROP-style execution."""

import pytest

from repro.binary import BinaryImage, load_image
from repro.cpu import Emulator, call_function
from repro.cpu.host import EXIT_ADDRESS, host_function_address
from repro.cpu.state import EmulationError
from repro.isa import Imm, Mem, Reg, assemble
from repro.isa.instructions import make
from repro.isa.registers import Register


def build_program(instructions, name="f", data=b""):
    """Assemble ``instructions`` into a one-function image and load it."""
    image = BinaryImage()
    code, _ = assemble(instructions, base_address=image.text.address)
    address = image.text.append(code)
    image.add_function(name, address, len(code))
    if data:
        addr = image.data.append(data)
        image.add_object("blob", addr, len(data))
    return load_image(image)


def test_mov_add_ret():
    program = build_program([
        make("mov", Reg(Register.RAX), Reg(Register.RDI)),
        make("add", Reg(Register.RAX), Reg(Register.RSI)),
        make("ret"),
    ])
    result, _ = call_function(program, "f", [20, 22])
    assert result == 42


def test_sub_and_flags_conditional():
    # return 1 if rdi == rsi else 2
    program = build_program([
        make("cmp", Reg(Register.RDI), Reg(Register.RSI)),
        make("mov", Reg(Register.RAX), Imm(2)),
        make("mov", Reg(Register.RCX), Imm(1)),
        make("cmove", Reg(Register.RAX), Reg(Register.RCX)),
        make("ret"),
    ])
    assert call_function(program, "f", [5, 5])[0] == 1
    assert call_function(program, "f", [5, 6])[0] == 2


def test_signed_comparison_branches():
    # return 1 if (signed) rdi < rsi else 0, via a branch
    from repro.isa.operands import Label

    program = build_program([
        make("cmp", Reg(Register.RDI), Reg(Register.RSI)),
        make("jl", Label("less")),
        make("mov", Reg(Register.RAX), Imm(0)),
        make("ret"),
        "less",
        make("mov", Reg(Register.RAX), Imm(1)),
        make("ret"),
    ])
    assert call_function(program, "f", [(-5) & ((1 << 64) - 1), 3])[0] == 1
    assert call_function(program, "f", [7, 3])[0] == 0


def test_loop_with_counter():
    from repro.isa.operands import Label

    # sum 0..rdi-1
    program = build_program([
        make("xor", Reg(Register.RAX), Reg(Register.RAX)),
        make("xor", Reg(Register.RCX), Reg(Register.RCX)),
        "loop",
        make("cmp", Reg(Register.RCX), Reg(Register.RDI)),
        make("jge", Label("done")),
        make("add", Reg(Register.RAX), Reg(Register.RCX)),
        make("inc", Reg(Register.RCX)),
        make("jmp", Label("loop")),
        "done",
        make("ret"),
    ])
    assert call_function(program, "f", [10])[0] == 45


def test_memory_load_store_via_stack():
    program = build_program([
        make("push", Reg(Register.RDI)),
        make("mov", Reg(Register.RAX), Mem(base=Register.RSP)),
        make("add", Reg(Register.RSP), Imm(8)),
        make("add", Reg(Register.RAX), Imm(1)),
        make("ret"),
    ])
    assert call_function(program, "f", [41])[0] == 42


def test_data_section_access():
    program = build_program(
        [
            make("mov", Reg(Register.RAX), Mem(disp=0x600000, size=8)),
            make("ret"),
        ],
        data=(1234).to_bytes(8, "little"),
    )
    assert call_function(program, "f")[0] == 1234


def test_call_and_return_between_functions():
    from repro.isa.operands import Label

    image = BinaryImage()
    callee, _ = assemble([
        make("mov", Reg(Register.RAX), Reg(Register.RDI)),
        make("imul", Reg(Register.RAX), Reg(Register.RAX)),
        make("ret"),
    ], base_address=image.text.address)
    callee_addr = image.text.append(callee)
    image.add_function("square", callee_addr, len(callee))
    caller, _ = assemble([
        make("call", Imm(callee_addr)),
        make("add", Reg(Register.RAX), Imm(1)),
        make("ret"),
    ], base_address=image.text.end)
    caller_addr = image.text.append(caller)
    image.add_function("f", caller_addr, len(caller))
    program = load_image(image)
    assert call_function(program, "f", [6])[0] == 37


def test_host_malloc_and_memory_roundtrip():
    program = build_program([
        make("mov", Reg(Register.RDI), Imm(64)),
        make("call", Imm(host_function_address("malloc"))),
        make("mov", Mem(base=Register.RAX), Imm(99)),
        make("mov", Reg(Register.RAX), Mem(base=Register.RAX)),
        make("ret"),
    ])
    assert call_function(program, "f")[0] == 99


def test_host_probe_records_coverage():
    program = build_program([
        make("mov", Reg(Register.RDI), Imm(7)),
        make("call", Imm(host_function_address("__probe"))),
        make("mov", Reg(Register.RAX), Imm(0)),
        make("ret"),
    ])
    _, emulator = call_function(program, "f")
    assert emulator.host.probes == [7]


def test_neg_sets_carry_flag_like_x86():
    program = build_program([
        make("neg", Reg(Register.RDI)),
        make("mov", Reg(Register.RAX), Imm(0)),
        make("adc", Reg(Register.RAX), Reg(Register.RAX)),
        make("ret"),
    ])
    # CF = 1 when the operand was nonzero, 0 otherwise (Figure 1 idiom)
    assert call_function(program, "f", [5])[0] == 1
    assert call_function(program, "f", [0])[0] == 0


def test_rop_style_chain_executes_from_stack():
    """A hand-built mini chain: two pop/ret gadgets then a ret to EXIT."""
    image = BinaryImage()
    gadget1, _ = assemble([make("pop", Reg(Register.RDI)), make("ret")],
                          base_address=image.text.address)
    g1 = image.text.append(gadget1)
    gadget2, _ = assemble([make("add", Reg(Register.RDI), Imm(1)),
                           make("mov", Reg(Register.RAX), Reg(Register.RDI)),
                           make("ret")], base_address=image.text.end)
    g2 = image.text.append(gadget2)
    program = load_image(image)
    emulator = Emulator(program.memory)
    # build the chain on the stack: [g1][imm 41][g2][EXIT]
    rsp = program.stack_top - 0x100
    for offset, value in enumerate([g1, 41, g2, EXIT_ADDRESS]):
        program.memory.write_int(rsp + 8 * offset, value, 8)
    emulator.state.write_reg(Register.RSP, rsp)
    emulator.state.rip = emulator.pop()
    emulator.run()
    assert emulator.state.read_reg(Register.RAX) == 42


def test_unmapped_fetch_raises():
    program = build_program([make("jmp", Imm(0x123456789)), make("ret")])
    with pytest.raises(EmulationError):
        call_function(program, "f")


def test_division_and_remainder():
    program = build_program([
        make("mov", Reg(Register.RAX), Reg(Register.RDI)),
        make("cqo"),
        make("idiv", Reg(Register.RSI)),
        make("ret"),
    ])
    assert call_function(program, "f", [42, 5])[0] == 8


def test_step_budget_enforced():
    from repro.isa.operands import Label

    program = build_program(["spin", make("jmp", Label("spin"))])
    with pytest.raises(EmulationError):
        call_function(program, "f", max_steps=100)


def test_shift_instructions():
    program = build_program([
        make("mov", Reg(Register.RAX), Reg(Register.RDI)),
        make("shl", Reg(Register.RAX), Imm(3)),
        make("shr", Reg(Register.RAX), Imm(1)),
        make("ret"),
    ])
    assert call_function(program, "f", [5])[0] == 20


def test_lea_computes_effective_address():
    program = build_program([
        make("lea", Reg(Register.RAX),
             Mem(base=Register.RDI, index=Register.RSI, scale=8, disp=4)),
        make("ret"),
    ])
    assert call_function(program, "f", [100, 3])[0] == 100 + 24 + 4


def test_shift_count_masked_by_operand_width():
    # x86 masks shift counts by the operand width: 5 bits for 32-bit and
    # narrower operands, 6 bits for 64-bit ones.  A count of 33 therefore
    # shifts a 32-bit operand by 1 but a 64-bit operand by 33.
    program = build_program([
        make("mov", Reg(Register.RAX), Reg(Register.RDI)),
        make("shl", Reg(Register.RAX, 4), Imm(33)),
        make("ret"),
    ])
    assert call_function(program, "f", [3])[0] == 6

    program = build_program([
        make("mov", Reg(Register.RAX), Reg(Register.RDI)),
        make("shl", Reg(Register.RAX), Imm(33)),
        make("ret"),
    ])
    assert call_function(program, "f", [3])[0] == 3 << 33

    # same masking applies to right shifts
    program = build_program([
        make("mov", Reg(Register.RAX), Reg(Register.RDI)),
        make("shr", Reg(Register.RAX, 4), Imm(33)),
        make("ret"),
    ])
    assert call_function(program, "f", [8])[0] == 4


def _start_call(emulator, program, address, args=()):
    """Prepare ``emulator`` to run the function at ``address`` from scratch."""
    emulator.halted = False
    emulator.state.write_reg(Register.RSP, program.stack_top)
    emulator.state.write_reg(Register.RBP, program.stack_top)
    for reg, value in zip([Register.RDI, Register.RSI], args):
        emulator.state.write_reg(reg, value)
    emulator.push(EXIT_ADDRESS)
    emulator.state.rip = address


def test_self_modifying_code_invalidates_decode_cache():
    """Stores over already-executed .text bytes must re-decode correctly."""
    program = build_program([
        make("mov", Reg(Register.RAX), Imm(1)),
        make("ret"),
    ])
    address = program.image.function("f").address
    emulator = Emulator(program.memory)
    _start_call(emulator, program, address)
    emulator.run()
    assert emulator.state.read_reg(Register.RAX) == 1

    # overwrite the executed code in place (same shape, new immediate), the
    # way ROP-materialized or self-modifying code would
    patched, _ = assemble([
        make("mov", Reg(Register.RAX), Imm(2)),
        make("ret"),
    ], base_address=address)
    program.memory.write(address, patched)

    _start_call(emulator, program, address)
    emulator.run()
    assert emulator.state.read_reg(Register.RAX) == 2


def test_program_fork_isolates_runs():
    """Runs against COW forks never leak state into the pristine program."""
    # f stores rdi into the data blob, then returns the stored value
    program = build_program(
        [
            make("mov", Mem(disp=0x600000, size=8), Reg(Register.RDI)),
            make("mov", Reg(Register.RAX), Mem(disp=0x600000, size=8)),
            make("ret"),
        ],
        data=(7).to_bytes(8, "little"),
    )
    fork_a = program.fork()
    fork_b = program.fork()
    assert call_function(fork_a, "f", [111])[0] == 111
    assert call_function(fork_b, "f", [222])[0] == 222
    # neither run polluted the pristine image or the sibling fork
    assert program.memory.read_int(0x600000, 8) == 7
    assert fork_a.memory.read_int(0x600000, 8) == 111
    assert fork_b.memory.read_int(0x600000, 8) == 222


def test_snapshot_restore_rewinds_full_context():
    """snapshot()/restore() must revert registers, flags, memory and host."""
    program = build_program(
        [
            make("mov", Mem(disp=0x600000, size=8), Reg(Register.RDI)),
            make("mov", Reg(Register.RDI), Imm(16)),
            make("call", Imm(host_function_address("malloc"))),
            make("cmp", Reg(Register.RAX), Imm(0)),
            make("ret"),
        ],
        data=(7).to_bytes(8, "little"),
    )
    address = program.image.function("f").address
    emulator = Emulator(program.memory)
    _start_call(emulator, program, address, args=[41])
    snap = emulator.snapshot()

    emulator.run()
    first_pointer = emulator.state.read_reg(Register.RAX)
    assert emulator.memory.read_int(0x600000, 8) == 41
    assert emulator.host.allocations
    assert emulator.steps > 0 and emulator.halted
    assert emulator.state.zf == 0  # cmp rax, 0 on a nonzero pointer

    # a snapshot can be restored any number of times; every restore rewinds
    # the allocator, so malloc hands out the same block again
    for argument in (5, 6):
        emulator.restore(snap)
        assert emulator.steps == 0 and not emulator.halted
        assert emulator.state.rip == address
        assert emulator.state.read_reg(Register.RDI) == 41
        assert emulator.state.zf == 0 and emulator.state.cf == 0
        assert emulator.memory.read_int(0x600000, 8) == 7
        assert not emulator.host.allocations
        emulator.state.write_reg(Register.RDI, argument)
        emulator.run()
        assert emulator.state.read_reg(Register.RAX) == first_pointer
        assert emulator.memory.read_int(0x600000, 8) == argument

    # runs after a restore never leak back into the snapshot itself
    assert snap.memory.read_int(0x600000, 8) == 7
    assert not snap.host.allocations
    assert snap.state.read_reg(Register.RDI) == 41


def test_restore_rejects_a_snapshot_of_another_memory():
    """A snapshot rewinds the memory it was taken from, in place; restoring
    it into an emulator on another memory raises and changes nothing."""
    program = build_program([make("mov", Reg(Register.RAX), Imm(1)),
                             make("ret")])
    address = program.image.function("f").address
    first = Emulator(program.memory)
    _start_call(first, program, address)
    snap = first.snapshot()
    other = Emulator(program.memory.snapshot())
    state, memory = other.state, other.memory
    with pytest.raises(ValueError, match="another memory"):
        other.restore(snap)
    assert other.state is state and other.memory is memory
    assert other.steps == 0 and other.state.rip == 0
    first.run()
    first.restore(snap)
    assert first.state.rip == address and first.steps == 0


def test_snapshot_is_isolated_from_later_host_output():
    program = build_program([
        make("mov", Reg(Register.RDI), Imm(65)),
        make("call", Imm(host_function_address("putchar"))),
        make("mov", Reg(Register.RAX), Imm(0)),
        make("ret"),
    ])
    address = program.image.function("f").address
    emulator = Emulator(program.memory)
    _start_call(emulator, program, address)
    snap = emulator.snapshot()
    emulator.run()
    assert bytes(emulator.host.output) == b"A"
    assert bytes(snap.host.output) == b""
    emulator.restore(snap)
    assert bytes(emulator.host.output) == b""
    emulator.run()
    assert bytes(emulator.host.output) == b"A"


def test_run_max_steps_is_a_per_call_budget():
    from repro.isa.operands import Label

    program = build_program(["spin", make("jmp", Label("spin"))])
    address = program.image.function("f").address
    emulator = Emulator(program.memory, max_steps=1000)
    _start_call(emulator, program, address)
    with pytest.raises(EmulationError):
        emulator.run(max_steps=10)
    # the per-call budget must not clobber the emulator-wide cap
    assert emulator.max_steps == 1000
    assert emulator.steps <= 10
    # a second call gets a fresh per-call budget and can keep executing
    steps_before = emulator.steps
    with pytest.raises(EmulationError):
        emulator.run(max_steps=10)
    assert emulator.steps > steps_before
    # ... but the emulator-wide cap still binds overall
    with pytest.raises(EmulationError):
        emulator.run()
    assert emulator.steps == 1000
