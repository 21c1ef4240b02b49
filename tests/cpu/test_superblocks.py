"""Long hot-path tests for the compiled-trace tier.

A hot path longer than ``TRACE_CAP`` — a ROP chain of many gadgets, a loop
left through its conditional branch — runs as a *superblock*: a sequence of
consecutive compiled traces, each ending at the cap, at a ``ret`` guard that
fails, or at a conditional branch, with the run loop dispatching the next
one from the actual ``rip``.  These tests assert that such paths do run
compiled, that every outcome (registers, flags, steps, memory) matches
single-step execution, that the step budget stays exact inside them, that
hooks still see every instruction, and that the per-trace generation keys
invalidate them under self-modifying code and rewritten ret chains.
"""

import pytest

from repro.binary import BinaryImage, load_image
from repro.cpu import Emulator
from repro.cpu.host import EXIT_ADDRESS
from repro.cpu.state import EmulationError
from repro.cpu.trace import TRACE_CAP
from repro.isa import Imm, Reg, assemble
from repro.isa.instructions import make
from repro.isa.operands import Label
from repro.isa.registers import Register


def _chain_program(gadget_count=40):
    """A gadget pool whose full chain is well past ``TRACE_CAP``."""
    image = BinaryImage()
    gadgets = []
    for index in range(gadget_count):
        code, _ = assemble([make("add", Reg(Register.RAX), Imm(index + 1)),
                            make("xor", Reg(Register.RAX), Imm(index)),
                            make("ret")], base_address=image.text.end)
        gadgets.append(image.text.append(code))
    return load_image(image), gadgets


def _run_chain(emulator, program, chain, rax=7):
    emulator.halted = False
    rsp = program.stack_top - 0x1000
    for offset, value in enumerate(chain):
        emulator.memory.write_int(rsp + 8 * offset, value, 8)
    emulator.state.write_reg(Register.RSP, rsp + 8)
    emulator.state.write_reg(Register.RAX, rax)
    emulator.state.rip = chain[0]
    emulator.run()
    return (emulator.state.read_reg(Register.RAX),
            emulator.state.flags_tuple(), emulator.steps)


def _emulator(program, **kwargs):
    emulator = Emulator(program.memory, **kwargs)
    emulator.trace_compile_threshold = 0
    return emulator


_MODES = {
    "single": dict(trace_cache=False),
    "compiled": dict(trace_cache=True),
}


def test_superblocks_fuse_past_trace_cap_and_agree():
    program, gadgets = _chain_program()
    chain = gadgets + [EXIT_ADDRESS]
    assert len(gadgets) * 3 > TRACE_CAP
    outcomes = {}
    for mode, kwargs in _MODES.items():
        fresh = load_image(program.image)
        emulator = _emulator(fresh, **kwargs)
        outcomes[mode] = [_run_chain(emulator, fresh, chain)
                         for _ in range(25)]
        if mode == "compiled":
            stats = emulator.jit_stats
            assert stats.traces_compiled > 0
            assert stats.compiled_runs > 0
            assert stats.superblock_runs == 0
            traces = emulator._trace_cache.values()
            # the chain is split at the cap into consecutive compiled traces
            assert any(trace.length == TRACE_CAP and trace.compiled
                       for trace in traces)
            assert all(trace.length <= TRACE_CAP for trace in traces)
    assert outcomes["single"] == outcomes["compiled"]


def test_superblock_ret_guard_follows_rewritten_chain():
    """A rewritten chain slot must divert out of the compiled chain."""
    program, gadgets = _chain_program()
    emulator = _emulator(program, trace_cache=True)
    chain = gadgets + [EXIT_ADDRESS]
    reference = None
    for _ in range(25):
        reference = _run_chain(emulator, program, chain)
    assert emulator._trace_cache[gadgets[0]].compiled is not None

    # divert the chain at a slot in the middle of the head trace: drop
    # every gadget past the first five
    short_chain = gadgets[:5] + [EXIT_ADDRESS]
    single = _emulator(load_image(program.image), trace_cache=False)
    expected = _run_chain(single, program, short_chain)
    actual = _run_chain(emulator, program, short_chain)
    assert actual[:2] == expected[:2]
    assert actual[0] != reference[0]


def test_superblock_invalidated_by_self_modification():
    """Patching a gadget under a compiled chain takes effect at once."""
    program, gadgets = _chain_program(gadget_count=30)
    emulator = _emulator(program, trace_cache=True)
    chain = gadgets + [EXIT_ADDRESS]
    for _ in range(25):
        baseline = _run_chain(emulator, program, chain)
    assert emulator._trace_cache[gadgets[0]].compiled is not None

    # rewrite gadget 10's add immediate (add rax, 11 -> add rax, 100)
    patched, _ = assemble([make("add", Reg(Register.RAX), Imm(100)),
                           make("xor", Reg(Register.RAX), Imm(10)),
                           make("ret")], base_address=gadgets[10])
    program.memory.write(gadgets[10], patched)

    single = _emulator(load_image(program.image), trace_cache=False)
    single.memory.write(gadgets[10], patched)
    expected = _run_chain(single, program, chain)
    for _ in range(3):
        actual = _run_chain(emulator, program, chain)
        assert actual[:2] == expected[:2]
    assert actual[:2] != baseline[:2]


def test_superblock_budget_stays_exact():
    program, gadgets = _chain_program()
    chain = gadgets + [EXIT_ADDRESS]
    emulator = _emulator(program, max_steps=10_000, trace_cache=True)
    for _ in range(25):
        _run_chain(emulator, program, chain)
    assert emulator.jit_stats.traces_compiled > 0
    # a budget landing past the first capped trace must stop at exactly
    # that step
    steps_before = emulator.steps
    emulator.halted = False
    rsp = program.stack_top - 0x1000
    for offset, value in enumerate(chain):
        emulator.memory.write_int(rsp + 8 * offset, value, 8)
    emulator.state.write_reg(Register.RSP, rsp + 8)
    emulator.state.rip = chain[0]
    with pytest.raises(EmulationError):
        emulator.run(max_steps=TRACE_CAP + 7)
    assert emulator.steps == steps_before + TRACE_CAP + 7


def test_jcc_seam_superblock_exits_on_the_other_side():
    """A hot loop's conditional branch leaves on its cold side correctly."""
    image = BinaryImage()
    body = [
        "head",
        make("add", Reg(Register.RAX), Imm(1)),
        make("cmp", Reg(Register.RAX), Reg(Register.RDI)),
        make("jge", Label("done")),
        make("jmp", Label("head")),
        "done",
        make("add", Reg(Register.RAX), Imm(1000)),
        make("ret"),
    ]
    code, _ = assemble(body, base_address=image.text.address)
    address = image.text.append(code)
    image.add_function("f", address, len(code))
    program = load_image(image)

    def call(emulator, bound):
        emulator.halted = False
        emulator.state.write_reg(Register.RSP, program.stack_top)
        emulator.state.write_reg(Register.RAX, 0)
        emulator.state.write_reg(Register.RDI, bound)
        emulator.push(EXIT_ADDRESS)
        emulator.state.rip = address
        emulator.run()
        return (emulator.state.read_reg(Register.RAX),
                emulator.state.flags_tuple())

    results = {}
    for mode, kwargs in _MODES.items():
        emulator = _emulator(load_image(program.image), **kwargs)
        # long runs make the loop's jcc->head transition hot, then short
        # runs exercise the guard exit on the other side
        results[mode] = [call(emulator, bound)
                        for bound in [200] * 20 + [1, 2, 3, 0]]
        if mode == "compiled":
            assert emulator.jit_stats.traces_compiled > 0
    assert results["single"] == results["compiled"]


def test_hooks_bypass_superblocks():
    """Hooks force single-step even with a compiled chain cached."""
    from repro.cpu import TraceRecorder

    program, gadgets = _chain_program(gadget_count=30)
    chain = gadgets + [EXIT_ADDRESS]
    emulator = _emulator(program, trace_cache=True)
    for _ in range(25):
        _run_chain(emulator, program, chain)
    assert emulator.jit_stats.traces_compiled > 0

    recorder = TraceRecorder().attach(emulator)
    steps_before = emulator.steps
    _run_chain(emulator, program, chain)
    assert len(recorder.entries) == emulator.steps - steps_before

    reference = _emulator(load_image(program.image), trace_cache=False)
    ref_recorder = TraceRecorder().attach(reference)
    _run_chain(reference, program, chain)
    assert recorder.addresses() == ref_recorder.addresses()
