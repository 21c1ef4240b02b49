"""Differential tests for the execution tiers.

Every behaviour here is asserted as *equality between tiers*: the reference
interpreter (:mod:`repro.cpu.reference`, the per-mnemonic handlers),
single-step dispatch (one compiled step per instruction) and the
exec-compiled tier (with promotion forced).  Single-step and compiled
traces share the codegen's emitters; the reference shares none of their
code.  The property-based test drives randomly generated instruction
sequences — including sub-width operands, flag consumers, memory traffic,
exact division with its faults, indirect control transfers and stack
frames torn down by ``leave``, all of which the codegen emits as native code — through all three tiers and requires
identical registers, flags, memory, step counts and fault outcomes.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.binary import BinaryImage, load_image
from repro.cpu import Emulator, TraceRecorder
from repro.cpu.codegen import compile_trace
from repro.cpu.reference import run as reference_run
from repro.cpu.host import EXIT_ADDRESS
from repro.cpu.state import EmulationError
from repro.isa import Imm, Mem, Reg, assemble
from repro.isa.instructions import make
from repro.isa.operands import Label
from repro.isa.registers import Register

#: General-purpose registers the generated programs may clobber.  RSP/RBP
#: hold the stack, R14/R15 are reserved as pinned index/base values so
#: memory operands stay inside the scratch blob.
_GP = (Register.RAX, Register.RCX, Register.RDX, Register.RBX,
       Register.RSI, Register.RDI, Register.R8, Register.R9,
       Register.R10, Register.R11, Register.R12, Register.R13)

_BLOB = 0x600000
_BLOB_SIZE = 256

_INT64_MIN = 1 << 63


def build_program(instructions, data=bytes(_BLOB_SIZE)):
    image = BinaryImage()
    code, _ = assemble(instructions, base_address=image.text.address)
    address = image.text.append(code)
    image.add_function("f", address, len(code))
    blob = image.data.append(data)
    assert blob == _BLOB
    image.add_object("blob", blob, len(data))
    return load_image(image)


def start_call(emulator, program, seeds=()):
    emulator.halted = False
    emulator.state.write_reg(Register.RSP, program.stack_top)
    emulator.state.write_reg(Register.RBP, program.stack_top)
    for register, value in seeds:
        emulator.state.write_reg(register, value)
    emulator.state.write_reg(Register.R14, 8)
    emulator.state.write_reg(Register.R15, _BLOB)
    emulator.push(EXIT_ADDRESS)
    emulator.state.rip = program.image.function("f").address


_TIERS = {
    "reference": dict(trace_cache=False),
    "single": dict(trace_cache=False),
    "compiled": dict(trace_cache=True),
}


def _run(emulator, tier):
    """Run ``emulator`` to completion on ``tier``."""
    if tier == "reference":
        reference_run(emulator, emulator.max_steps)
    else:
        emulator.run()


def run_tier(body, seeds, tier, data=bytes(_BLOB_SIZE), rounds=3,
             max_steps=20_000):
    """Run ``body`` ``rounds`` times on one tier; return per-round outcomes."""
    program = build_program(body, data=data)
    emulator = Emulator(program.memory, max_steps=max_steps, **_TIERS[tier])
    emulator.trace_compile_threshold = 0  # compile on the first fused run
    outcomes = []
    for index in range(rounds):
        start_call(emulator, program, seeds)
        fault = None
        try:
            _run(emulator, tier)
        except EmulationError as exc:
            fault = str(exc)
        outcomes.append({
            "steps": emulator.steps,
            "rip": emulator.state.rip,
            "regs": dict(emulator.state.regs),
            "flags": emulator.state.flags_tuple(),
            "fault": fault,
            "blob": bytes(emulator.memory.read(_BLOB, _BLOB_SIZE)),
        })
    return outcomes


def assert_tiers_agree(body, seeds, data=bytes(_BLOB_SIZE), rounds=3):
    expected = run_tier(body, seeds, "reference", data=data, rounds=rounds)
    for tier in ("single", "compiled"):
        assert run_tier(body, seeds, tier, data=data,
                        rounds=rounds) == expected, tier


# -- hypothesis strategies -------------------------------------------------------

_reg = st.sampled_from(_GP)
_imm8 = st.integers(min_value=-128, max_value=127)
_imm64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
_cc = st.sampled_from(("e", "ne", "l", "le", "g", "ge", "b", "be", "a",
                       "ae", "s", "ns"))


@st.composite
def _mem(draw, size):
    """A memory operand guaranteed to land inside the scratch blob."""
    form = draw(st.integers(0, 2))
    offset = draw(st.integers(0, 23)) * 8
    if form == 0:
        return Mem(disp=_BLOB + offset, size=size)
    if form == 1:
        return Mem(base=Register.R15, disp=offset, size=size)
    scale = draw(st.sampled_from((1, 2, 4)))
    # R14 is pinned to 8 by start_call, so index * scale stays <= 32
    return Mem(base=Register.R15, index=Register.R14, scale=scale,
               disp=offset, size=size)


#: Shift counts around the width-mask edges (0/1/31/32/33/63/64 exercise the
#: zero-count flag-preservation, the defined 1-bit OF, and both mask widths).
_shift_count = st.one_of(st.sampled_from((0, 1, 31, 32, 33, 63, 64)),
                         st.integers(0, 63))


@st.composite
def _unit(draw):
    """One generated instruction (or a short dependent group)."""
    # sampled_from draws the kinds uniformly (integers() skews to the low end)
    kind = draw(st.sampled_from(range(25)))
    if kind == 0:  # mov/movzx/movsx in mixed widths
        mnemonic = draw(st.sampled_from(("mov", "movzx", "movsx")))
        dst = Reg(draw(_reg), draw(st.sampled_from((8, 8, 8, 4))))
        src_size = draw(st.sampled_from((1, 2, 4, 8)))
        if draw(st.booleans()):
            src = Reg(draw(_reg), src_size)
        else:
            src = draw(_mem(src_size))
        if mnemonic == "mov" and isinstance(src, Reg) and src.size != dst.size \
                and src.size > dst.size:
            src = Reg(src.reg, dst.size)
        return [make(mnemonic, dst, src)]
    if kind == 1:  # mov to register from immediate (any width)
        width = draw(st.sampled_from((8, 4, 2, 1)))
        return [make("mov", Reg(draw(_reg), width), Imm(draw(_imm64), 8))]
    if kind == 2:  # store to the blob
        width = draw(st.sampled_from((8, 4, 2, 1)))
        destination = draw(_mem(width))
        if draw(st.booleans()):
            return [make("mov", destination, Reg(draw(_reg), width))]
        return [make("mov", destination, Imm(draw(_imm8), 8))]
    if kind == 3:  # 64-bit ALU, register or immediate source
        name = draw(st.sampled_from(("add", "sub", "cmp", "and", "or",
                                     "xor", "test")))
        dst = Reg(draw(_reg))
        if draw(st.booleans()):
            return [make(name, dst, Reg(draw(_reg)))]
        return [make(name, dst, Imm(draw(_imm64), 8))]
    if kind == 4:  # sized ALU (native sized emitters in the codegen)
        name = draw(st.sampled_from(("add", "sub", "cmp", "and", "or", "xor")))
        width = draw(st.sampled_from((4, 2, 1)))
        dst = Reg(draw(_reg), width)
        if draw(st.booleans()):
            return [make(name, dst, Reg(draw(_reg), width))]
        return [make(name, dst, Imm(draw(_imm64), 8))]
    if kind == 5:  # carry chains
        return [make("add", Reg(draw(_reg)), Imm(draw(_imm64), 8)),
                make(draw(st.sampled_from(("adc", "sbb"))),
                     Reg(draw(_reg)), Reg(draw(_reg)))]
    if kind == 6:
        return [make(draw(st.sampled_from(("inc", "dec", "neg", "not"))),
                     Reg(draw(_reg)))]
    if kind == 7:  # shifts by immediate, any destination width
        name = draw(st.sampled_from(("shl", "shr", "sar")))
        width = draw(st.sampled_from((8, 8, 4, 2, 1)))
        return [make(name, Reg(draw(_reg), width), Imm(draw(_shift_count), 8))]
    if kind == 8:
        source = (Reg(draw(_reg)) if draw(st.booleans())
                  else Imm(draw(_imm8), 8))
        return [make("imul", Reg(draw(_reg)), source)]
    if kind == 9:
        return [make("xchg", Reg(draw(_reg)), Reg(draw(_reg)))]
    if kind == 10:
        return [make("lea", Reg(draw(_reg)), draw(_mem(8)))]
    if kind == 11:  # push/pop pair (possibly different registers)
        return [make("push", Reg(draw(_reg))),
                make("pop", Reg(draw(_reg)))]
    if kind == 12:
        return [make("push", Imm(draw(_imm8), 8)),
                make("pop", Reg(draw(_reg)))]
    if kind == 13:  # flag consumers
        cc = draw(_cc)
        if draw(st.booleans()):
            return [make(f"cmov{cc}", Reg(draw(_reg)), Reg(draw(_reg)))]
        return [make(f"set{cc}", Reg(draw(_reg),
                                     draw(st.sampled_from((1, 4, 8)))))]
    if kind == 14:
        return [make("cqo")]
    if kind == 15:  # load through a register-based address
        return [make("mov", Reg(draw(_reg)), draw(_mem(8)))]
    if kind == 16:  # shift by CL (dynamic count), any destination width
        name = draw(st.sampled_from(("shl", "shr", "sar")))
        width = draw(st.sampled_from((8, 4, 2, 1)))
        unit = []
        if draw(st.booleans()):  # pin the count to a width-mask edge
            unit.append(make("mov", Reg(Register.RCX, 1),
                             Imm(draw(_shift_count), 8)))
        unit.append(make(name, Reg(draw(_reg), width),
                         Reg(Register.RCX, 1)))
        return unit
    if kind == 17:  # cmp/test with a memory operand on either side
        width = draw(st.sampled_from((8, 4, 2, 1)))
        memory = draw(_mem(width))
        name = draw(st.sampled_from(("cmp", "test")))
        if draw(st.booleans()):
            source = (Reg(draw(_reg), width) if draw(st.booleans())
                      else Imm(draw(_imm8), 8))
            return [make(name, memory, source)]
        return [make(name, Reg(draw(_reg), width), memory)]
    if kind == 18:  # memory-destination read-modify-write ALU
        name = draw(st.sampled_from(("add", "sub", "and", "or", "xor")))
        width = draw(st.sampled_from((8, 4, 2, 1)))
        source = (Reg(draw(_reg), width) if draw(st.booleans())
                  else Imm(draw(_imm8), 8))
        return [make(name, draw(_mem(width)), source)]
    if kind == 19:  # chained carry: one adc/sbb's carry-out feeds the next
        setter = draw(st.sampled_from(("cmp", "add")))
        return [make(setter, Reg(draw(_reg)), Reg(draw(_reg))),
                *(make(draw(st.sampled_from(("adc", "sbb"))),
                       Reg(draw(_reg)), Reg(draw(_reg))) for _ in range(2))]
    if kind == 20:  # cqo; idiv, divisors pinned to the fault edges at times
        divisor_reg = draw(st.sampled_from(_GP[2:]))  # neither RAX nor RDX
        unit = []
        edge = draw(st.sampled_from((None, None, None, 0, -1, _INT64_MIN)))
        if edge == _INT64_MIN:  # the one quotient that overflows int64
            unit += [make("mov", Reg(Register.RAX), Imm(_INT64_MIN, 8)),
                     make("mov", Reg(divisor_reg), Imm(-1, 8))]
        elif edge is not None:
            unit.append(make("mov", Reg(divisor_reg), Imm(edge, 8)))
        if draw(st.booleans()):
            divisor = Reg(divisor_reg, draw(st.sampled_from((8, 4))))
        else:
            divisor = draw(_mem(8))
        return unit + [make("cqo"), make("idiv", divisor)]
    if kind == 21:  # xchg register <-> memory, either operand order
        width = draw(st.sampled_from((8, 4, 2, 1)))
        pair = [Reg(draw(_reg), width), draw(_mem(width))]
        if draw(st.booleans()):
            pair.reverse()
        return [make("xchg", *pair)]
    if kind == 22:  # indirect jmp/jcc/call through a register, to "end"
        target = draw(_reg)
        # a call runs the trailing ret as its callee and resumes after it
        name = draw(st.sampled_from(("jmp", "call", f"j{draw(_cc)}")))
        return [make("mov", Reg(target), Label("end")),
                make(name, Reg(target))]
    if kind == 23:  # a stack frame: push rbp; mov rbp, rsp; ...; leave
        unit = []
        if draw(st.booleans()):  # the caller's rbp holds data
            unit.append(make("mov", Reg(Register.RBP), Reg(draw(_reg))))
        unit += [make("push", Reg(Register.RBP)),
                 make("mov", Reg(Register.RBP), Reg(Register.RSP))]
        if draw(st.booleans()):
            unit.append(make("sub", Reg(Register.RSP),
                             Imm(8 * draw(st.integers(1, 4)), 8)))
        if draw(st.booleans()):  # rbp leaves the frame and comes back
            register = draw(_reg)
            unit += [make("add", Reg(Register.RBP), Reg(register)),
                     make("sub", Reg(Register.RBP), Reg(register))]
        if draw(st.booleans()):  # a local, stored and reloaded
            local = Mem(base=Register.RBP, disp=-8, size=8)
            unit += [make("mov", local, Reg(draw(_reg))),
                     make("mov", Reg(draw(_reg)), local)]
        return unit + [make("leave")]
    # forward conditional branch over the rest of the body
    return [make(f"j{draw(_cc)}", Label("end"))]


@st.composite
def _program_case(draw):
    units = draw(st.lists(_unit(), min_size=1, max_size=14))
    body = [instruction for unit in units for instruction in unit]
    body = body + ["end", make("ret")]
    seeds = [(register, draw(_imm64)) for register in _GP]
    data = draw(st.binary(min_size=_BLOB_SIZE, max_size=_BLOB_SIZE))
    return body, seeds, data


@settings(max_examples=60, deadline=None)
@given(case=_program_case())
@example(case=([make("mov", Reg(Register.RAX), Imm(_INT64_MIN, 8)),
                make("mov", Reg(Register.RBX), Imm(-1, 8)),
                make("cqo"), make("idiv", Reg(Register.RBX)),
                "end", make("ret")], [], bytes(_BLOB_SIZE)))
def test_random_sequences_agree_across_tiers(case):
    body, seeds, data = case
    assert_tiers_agree(body, seeds, data=data)


# -- deterministic compiled-tier behaviours --------------------------------------

_LOOP_BODY = [
    make("xor", Reg(Register.RAX), Reg(Register.RAX)),
    make("xor", Reg(Register.RCX), Reg(Register.RCX)),
    "loop",
    make("cmp", Reg(Register.RCX), Reg(Register.RDI)),
    make("jge", Label("done")),
    make("add", Reg(Register.RAX), Imm(2)),
    make("inc", Reg(Register.RCX)),
    make("jmp", Label("loop")),
    "done",
    make("ret"),
]


def test_promotion_counters_and_cached_functions(monkeypatch):
    """Each trace's first ``trace_compile_threshold`` dispatches are warm-up
    runs, the next one compiles it, and compiled runs dominate after."""
    import repro.cpu.emulator as emulator_module

    runs_at_compile = []

    def spy(emulator, trace):
        runs_at_compile.append(trace.runs)
        return compile_trace(emulator, trace)

    monkeypatch.setattr(emulator_module, "compile_trace", spy)
    program = build_program(_LOOP_BODY)
    emulator = Emulator(program.memory, trace_cache=True)
    threshold = emulator.trace_compile_threshold
    assert threshold == 2
    for _ in range(8):
        start_call(emulator, program, [(Register.RDI, 50)])
        emulator.run()
    stats = emulator.jit_stats
    traces = list(emulator._trace_cache.values())
    assert stats.traces_built == len(traces) > 0
    assert stats.traces_compiled == len(runs_at_compile) > 0
    assert stats.compile_declined == 0
    # every compile came on the dispatch right after exactly ``threshold``
    # warm-up runs, and no trace warmed up more than that
    assert runs_at_compile == [threshold + 1] * len(runs_at_compile)
    assert stats.closure_runs == sum(min(trace.runs, threshold)
                                     for trace in traces) > 0
    assert stats.compiled_runs > stats.closure_runs
    assert 0.0 < stats.compiled_hit_rate < 1.0
    assert stats.superblock_runs == 0
    assert any(trace.compiled is not None for trace in traces)


def _gadget_image(*gadgets):
    """A text section holding each gadget body back to back; returns the
    loaded program and the gadget addresses."""
    image = BinaryImage()
    addresses = []
    for body in gadgets:
        code, _ = assemble(body, base_address=image.text.end)
        addresses.append(image.text.append(code))
    return load_image(image), addresses


def _run_chain(emulator, program, chain, rax=0):
    """Run a ROP chain (first slot is the entry gadget) to completion."""
    emulator.halted = False
    rsp = program.stack_top - 0x1000
    for offset, value in enumerate(chain):
        emulator.memory.write_int(rsp + 8 * offset, value, 8)
    emulator.state.write_reg(Register.RSP, rsp + 8)
    emulator.state.write_reg(Register.RAX, rax)
    emulator.state.rip = chain[0]
    emulator.run()
    return (dict(emulator.state.regs), emulator.state.flags_tuple(),
            emulator.state.rip, emulator.steps)


def test_warm_up_leaves_the_recorded_path_on_a_rewritten_ret():
    """A ret popping a rewritten target ends a warm-up run mid-trace, with
    the state single-step would leave, and warm-up never heats interior
    addresses."""
    program, (g1, g2, g3) = _gadget_image(
        [make("pop", Reg(Register.RDI)), make("ret")],
        [make("add", Reg(Register.RDI), Imm(1)),
         make("mov", Reg(Register.RAX), Reg(Register.RDI)), make("ret")],
        [make("add", Reg(Register.RDI), Imm(2)),
         make("mov", Reg(Register.RAX), Reg(Register.RDI)), make("ret")])
    chains = [[g1, 41, g2, EXIT_ADDRESS]] * 2 + [[g1, 10, g3, EXIT_ADDRESS]]
    single = Emulator(load_image(program.image).memory, trace_cache=False)
    expected = [_run_chain(single, program, chain) for chain in chains]

    emulator = Emulator(program.memory, trace_cache=True)
    actual = [_run_chain(emulator, program, chain) for chain in chains]
    assert actual == expected
    assert expected[-1][0][Register.RAX] == 12
    # g1's trace (pop, ret -> g2, add, mov, ret) was recorded on the second
    # run and warmed up on the second and third; the third left it at the
    # guarded ret
    trace = emulator._trace_cache[g1]
    assert trace.compiled is None and trace.runs == 2
    assert [step.kind for step in trace.steps] == [
        "op", "ret_guard", "op", "op", "ret_final"]
    stats = emulator.jit_stats
    assert (stats.traces_built, stats.closure_runs,
            stats.traces_compiled) == (1, 2, 0)
    # g2 sits inside g1's trace: only the first, single-stepped run visited
    # it from the run loop
    assert g2 not in emulator._trace_cache
    assert emulator._trace_heat[g2] == 1


def test_bench_workload_jit_counters_are_pinned():
    """fasta under ROP1.00 (seed 1), the emulator bench workload: warm-up
    heats no interior address, so the JIT records and compiles exactly the
    traces it always has."""
    from repro.obfuscation.configs import apply_configuration, ropk
    from repro.workloads.clbg import build_clbg_program

    source, entry, argument, names = build_clbg_program("fasta")
    image = apply_configuration(source, names, ropk(1.00), seed=1)
    program = load_image(image)
    emulator = Emulator(program.memory, max_steps=5_000_000,
                        trace_cache=True)
    emulator.state.write_reg(Register.RSP, program.stack_top)
    emulator.state.write_reg(Register.RBP, program.stack_top)
    emulator.state.write_reg(Register.RDI, argument)
    emulator.push(EXIT_ADDRESS)
    emulator.state.rip = image.function(entry).address
    emulator.run()
    stats = emulator.jit_stats
    assert emulator.steps == 1_121_460
    assert (stats.traces_built, stats.traces_compiled,
            stats.compile_declined, stats.closure_runs) == (38, 28, 0, 66)


def test_compiled_trace_invalidated_by_self_modification():
    """Patching code under a compiled trace recompiles from the new bytes."""
    program = build_program(_LOOP_BODY)
    address = program.image.function("f").address
    emulator = Emulator(program.memory, trace_cache=True)
    emulator.trace_compile_threshold = 0
    for _ in range(4):
        start_call(emulator, program, [(Register.RDI, 5)])
        emulator.run()
    assert emulator.state.read_reg(Register.RAX) == 10
    assert emulator.jit_stats.traces_compiled > 0

    patched, _ = assemble([
        make("xor", Reg(Register.RAX), Reg(Register.RAX)),
        make("xor", Reg(Register.RCX), Reg(Register.RCX)),
        "loop",
        make("cmp", Reg(Register.RCX), Reg(Register.RDI)),
        make("jge", Label("done")),
        make("add", Reg(Register.RAX), Imm(3)),
        make("inc", Reg(Register.RCX)),
        make("jmp", Label("loop")),
        "done",
        make("ret"),
    ], base_address=address)
    program.memory.write(address, patched)

    for _ in range(3):
        start_call(emulator, program, [(Register.RDI, 5)])
        emulator.run()
        assert emulator.state.read_reg(Register.RAX) == 15


def test_mid_trace_self_modification_under_compiled_tier():
    """A store rewriting an upcoming compiled instruction takes effect at once."""
    image = BinaryImage()
    base = image.text.address

    def body(patch_address):
        return [
            make("mov", Mem(disp=patch_address, size=1), Reg(Register.RDI, 1)),
            make("mov", Reg(Register.RAX), Imm(0)),
            make("ret"),
        ]

    draft, _ = assemble(body(base), base_address=base)
    store_len = len(assemble([body(base)[0]], base_address=base)[0])
    variant_a, _ = assemble([make("mov", Reg(Register.RAX), Imm(5))],
                            base_address=base)
    variant_b, _ = assemble([make("mov", Reg(Register.RAX), Imm(9))],
                            base_address=base)
    (imm_offset,) = [i for i, (a, b) in enumerate(zip(variant_a, variant_b))
                     if a != b]
    patch_address = base + store_len + imm_offset

    code, _ = assemble(body(patch_address), base_address=base)
    address = image.text.append(code)
    image.add_function("f", address, len(code))
    program = load_image(image)

    emulator = Emulator(program.memory, trace_cache=True)
    emulator.trace_compile_threshold = 0
    for value in (5, 9, 13, 21, 33):
        emulator.halted = False
        emulator.state.write_reg(Register.RSP, program.stack_top)
        emulator.state.write_reg(Register.RBP, program.stack_top)
        emulator.state.write_reg(Register.RDI, value)
        emulator.push(EXIT_ADDRESS)
        emulator.state.rip = address
        emulator.run()
        assert emulator.state.read_reg(Register.RAX) == value


def test_compiled_ret_guard_follows_rewritten_chain():
    """A compiled ret-chain trace must not replay a stale successor gadget."""
    image = BinaryImage()
    gadget1, _ = assemble([make("pop", Reg(Register.RDI)), make("ret")],
                          base_address=image.text.address)
    g1 = image.text.append(gadget1)
    gadget2, _ = assemble([make("add", Reg(Register.RDI), Imm(1)),
                           make("mov", Reg(Register.RAX), Reg(Register.RDI)),
                           make("ret")], base_address=image.text.end)
    g2 = image.text.append(gadget2)
    gadget3, _ = assemble([make("add", Reg(Register.RDI), Imm(2)),
                           make("mov", Reg(Register.RAX), Reg(Register.RDI)),
                           make("ret")], base_address=image.text.end)
    g3 = image.text.append(gadget3)
    program = load_image(image)
    emulator = Emulator(program.memory, trace_cache=True)
    emulator.trace_compile_threshold = 0

    def run_chain(chain):
        emulator.halted = False
        rsp = program.stack_top - 0x100
        for offset, value in enumerate(chain):
            emulator.memory.write_int(rsp + 8 * offset, value, 8)
        emulator.state.write_reg(Register.RSP, rsp + 8)
        emulator.state.rip = chain[0]
        emulator.run()
        return emulator.state.read_reg(Register.RAX)

    for _ in range(3):
        assert run_chain([g1, 41, g2, EXIT_ADDRESS]) == 42
    assert emulator.jit_stats.traces_compiled > 0
    assert run_chain([g1, 10, g3, EXIT_ADDRESS]) == 12


def test_hooks_bypass_compiled_traces_entirely():
    """With hot compiled traces cached, a hook still sees every instruction."""
    program = build_program(_LOOP_BODY)
    emulator = Emulator(program.memory, trace_cache=True)
    emulator.trace_compile_threshold = 0
    for _ in range(4):
        start_call(emulator, program, [(Register.RDI, 10)])
        emulator.run()
    assert emulator.jit_stats.traces_compiled > 0

    recorder = TraceRecorder().attach(emulator)
    steps_before = emulator.steps
    start_call(emulator, program, [(Register.RDI, 10)])
    emulator.run()
    assert len(recorder.entries) == emulator.steps - steps_before

    reference = Emulator(load_image(program.image).memory, trace_cache=False)
    ref_recorder = TraceRecorder().attach(reference)
    start_call(reference, program, [(Register.RDI, 10)])
    reference.run()
    assert recorder.addresses() == ref_recorder.addresses()


def test_budget_exact_with_compiled_traces():
    program = build_program(["spin", make("jmp", Label("spin")), "end",
                             make("ret")])
    emulator = Emulator(program.memory, max_steps=10_000, trace_cache=True)
    emulator.trace_compile_threshold = 0
    start_call(emulator, program)
    with pytest.raises(EmulationError):
        emulator.run(max_steps=997)
    assert emulator.steps == 997
    with pytest.raises(EmulationError):
        emulator.run()
    assert emulator.steps == 10_000


def test_compiled_fault_repair_matches_single_step():
    """Faults inside compiled traces leave rip/steps/flags as single-step."""
    body = [
        make("xor", Reg(Register.RAX), Reg(Register.RAX)),
        make("add", Reg(Register.RAX), Imm(7)),
        make("push", Reg(Register.RAX)),
        make("pop", Reg(Register.RBX)),
        make("mov", Reg(Register.RDX), Mem(base=Register.RSI)),  # faults
        make("ret"),
    ]
    seeds = [(Register.RSI, 0x123456789)]
    assert_tiers_agree(body, seeds)


def _single_step_flags(body, seeds=()):
    """Registers and flags after a reference-interpreter run."""
    program = build_program(body)
    emulator = Emulator(program.memory, trace_cache=False)
    start_call(emulator, program, seeds)
    reference_run(emulator, emulator.max_steps)
    return dict(emulator.state.regs), emulator.state.flags_tuple()


#: cmp rax, rbx with rax=1 < rbx=2 yields this reference flag state
#: (cf=1 borrow, zf=0, sf=1 negative result, of=0).
_CMP_FLAGS = (1, 0, 1, 0)
_CMP_SEED = [(Register.RAX, 1), (Register.RBX, 2)]
_CMP = make("cmp", Reg(Register.RAX), Reg(Register.RBX))


@pytest.mark.parametrize("name", ["shl", "shr", "sar"])
@pytest.mark.parametrize("count", [
    # (destination width, count operand) pairs whose masked count is zero
    (8, Imm(0, 8)), (8, Imm(64, 8)), (8, Imm(128, 8)),
    (4, Imm(32, 8)), (2, Imm(64, 8)), (1, Imm(96, 8)),
])
def test_zero_count_shifts_leave_flags_and_destination(name, count):
    """x86: a masked shift count of 0 modifies neither flags nor the
    destination — in every tier."""
    width, operand = count
    body = [_CMP, make(name, Reg(Register.RDX, width), operand), make("ret")]
    seeds = _CMP_SEED + [(Register.RDX, 0xDEAD_BEEF_CAFE_F00D)]
    regs, flags = _single_step_flags(body, seeds)
    assert flags == _CMP_FLAGS
    assert regs[Register.RDX] == 0xDEAD_BEEF_CAFE_F00D
    assert_tiers_agree(body, seeds)


@pytest.mark.parametrize("name,cl", [
    ("shl", 0), ("shr", 64), ("sar", 0),   # masked to zero via CL
    ("shl", 32), ("shr", 32),              # 32-bit width mask edge
])
def test_zero_count_shift_by_cl_leaves_flags(name, cl):
    width = 4 if cl == 32 else 8
    body = [_CMP, make(name, Reg(Register.RDX, width), Reg(Register.RCX, 1)),
            make("ret")]
    seeds = _CMP_SEED + [(Register.RCX, cl), (Register.RDX, 0x1234_5678)]
    _, flags = _single_step_flags(body, seeds)
    assert flags == _CMP_FLAGS
    assert_tiers_agree(body, seeds)


@pytest.mark.parametrize("name,value,expected", [
    # count-1 OF: SHL -> CF ^ MSB(result), SHR -> MSB(original), SAR -> 0
    ("shl", 0x4000_0000_0000_0000, (0, 0, 1, 1)),  # cf=0, msb(res)=1 -> of=1
    ("shl", 0xC000_0000_0000_0000, (1, 0, 1, 0)),  # cf=1, msb(res)=1 -> of=0
    ("shl", 0x8000_0000_0000_0000, (1, 1, 0, 1)),  # cf=1, res=0 -> of=1
    ("shr", 0x8000_0000_0000_0001, (1, 0, 0, 1)),  # of = msb(original) = 1
    ("shr", 0x0000_0000_0000_0003, (1, 0, 0, 0)),  # of = msb(original) = 0
    ("sar", 0x8000_0000_0000_0000, (0, 0, 1, 0)),  # sign preserved, of = 0
])
def test_count_one_shift_overflow_flag(name, value, expected):
    body = [make(name, Reg(Register.RDX), Imm(1, 8)), make("ret")]
    seeds = [(Register.RDX, value)]
    _, flags = _single_step_flags(body, seeds)
    assert flags == expected
    assert_tiers_agree(body, seeds)
    # the dynamic-count emitters must agree with the immediate ones
    cl_body = [make(name, Reg(Register.RDX), Reg(Register.RCX, 1)),
               make("ret")]
    cl_seeds = seeds + [(Register.RCX, 1)]
    _, cl_flags = _single_step_flags(cl_body, cl_seeds)
    assert cl_flags == expected
    assert_tiers_agree(cl_body, cl_seeds)


def test_wide_count_shifts_keep_overflow_clear():
    """Counts past 1 pin OF at 0 (this emulator's convention) in all tiers."""
    body = [make("shl", Reg(Register.RDX), Imm(3)),
            make("shr", Reg(Register.RSI), Imm(7)),
            make("sar", Reg(Register.RDI), Imm(2)),
            make("ret")]
    seeds = [(Register.RDX, 0x7FFF_FFFF_FFFF_FFFF),
             (Register.RSI, 0xFFFF_FFFF_0000_0000),
             (Register.RDI, 0x8000_0000_0000_0000)]
    _, flags = _single_step_flags(body, seeds)
    assert flags[3] == 0
    assert_tiers_agree(body, seeds)


@pytest.mark.parametrize("transfer", ["jmp", "call", "jne"])
def test_native_emitters_compile_full_length(transfer):
    """Every step, the shapes that used to call back into the handlers
    (``idiv``, ``xchg`` with memory, indirect ``jmp``/``jcc``/``call``)
    included, compiles into one native trace that agrees with
    single-step."""
    jump = make(transfer, Reg(Register.RBX))
    body = [
        make("add", Reg(Register.RAX, 4), Reg(Register.RCX, 4)),
        make("sub", Reg(Register.RBX, 2), Imm(7)),
        make("and", Reg(Register.RSI, 1), Imm(0x5A)),
        make("shl", Reg(Register.RDI), Reg(Register.RCX, 1)),
        make("cmp", Mem(disp=_BLOB, size=8), Reg(Register.RAX)),
        make("test", Reg(Register.RDX, 2), Mem(disp=_BLOB + 8, size=2)),
        make("xor", Mem(disp=_BLOB + 16, size=4), Reg(Register.RDX, 4)),
        make("mov", Reg(Register.R8, 1), Reg(Register.RAX, 1)),
        make("cqo"),
        make("idiv", Reg(Register.RCX)),
        make("xchg", Reg(Register.RAX), Mem(base=Register.R15, disp=8)),
        make("xchg", Mem(base=Register.R15, disp=16, size=4),
             Reg(Register.RDX, 4)),
        make("mov", Reg(Register.RBX), Label("end")),
        jump,
        make("mov", Reg(Register.RAX), Imm(0)),
        "end",
        make("ret"),
    ]
    seeds = [(Register.RCX, 3), (Register.RAX, (1 << 62) + 1)]
    assert_tiers_agree(body, seeds, data=bytes(range(_BLOB_SIZE)))
    program = build_program(body)
    emulator = Emulator(program.memory, trace_cache=True)
    emulator.trace_compile_threshold = 0
    for _ in range(4):
        start_call(emulator, program, seeds)
        emulator.run()
    trace = emulator._trace_cache[program.image.function("f").address]
    assert trace.compiled is not None
    assert trace.length == body.index(jump) + 1
    assert emulator.jit_stats.compile_declined == 0


def test_mixed_width_ops_agree_across_tiers():
    """Sub-width ALU and loads interleaved with 64-bit ops."""
    body = [
        make("mov", Reg(Register.RAX), Imm(0x1234_5678_9ABC_DEF0)),
        make("add", Reg(Register.RAX, 4), Reg(Register.RCX, 4)),
        make("sub", Reg(Register.RBX, 2), Reg(Register.RDX, 2)),
        make("movsx", Reg(Register.RSI), Reg(Register.RAX, 1)),
        make("imul", Reg(Register.RDI), Imm(-3)),
        make("sar", Reg(Register.RDI), Imm(5)),
        make("adc", Reg(Register.R8), Reg(Register.R9)),
        make("sbb", Reg(Register.R10), Imm(11)),
        make("xchg", Reg(Register.RAX), Reg(Register.RBX)),
        make("cqo"),
        make("setle", Reg(Register.R11, 1)),
        make("cmovne", Reg(Register.RCX), Reg(Register.RDX)),
        make("mov", Mem(disp=_BLOB + 16, size=2), Reg(Register.RAX, 2)),
        make("mov", Reg(Register.R12, 2), Mem(disp=_BLOB + 16, size=2)),
        make("ret"),
    ]
    seeds = [(Register.RCX, 0xFFFF_FFFF), (Register.RDX, 3),
             (Register.RBX, 0x8000), (Register.RDI, 1 << 62),
             (Register.R8, (1 << 64) - 2), (Register.R9, 5),
             (Register.R10, 7)]
    assert_tiers_agree(body, seeds)


_M64 = (1 << 64) - 1


@pytest.mark.parametrize("dividend,divisor,expected", [
    # exact above 2**53, where a float quotient would round
    ((1 << 62) + 1, 3, (1537228672809129301, 2)),
    (-(1 << 62) - 1, 3, (-1537228672809129301 & _M64, -2 & _M64)),
    (-7, 2, (-3 & _M64, -1 & _M64)),      # truncates toward zero
    (7, -2, (-3 & _M64, 1)),
    (_INT64_MIN, 1, (_INT64_MIN, 0)),
    (5, 0, "integer division by zero"),
    (_INT64_MIN, -1, "integer division overflow"),
])
def test_idiv_is_exact_and_faults_like_x86(dividend, divisor, expected):
    """``cqo; idiv`` divides in exact integers and raises #DE on a zero
    divisor and on INT64_MIN / -1 — in every tier."""
    body = [make("mov", Reg(Register.RAX), Reg(Register.RDI)),
            make("cqo"), make("idiv", Reg(Register.RSI)), make("ret")]
    seeds = [(Register.RDI, dividend & _M64), (Register.RSI, divisor & _M64)]
    (single, *_) = run_tier(body, seeds, "single")
    if isinstance(expected, str):
        assert single["fault"] == expected
        assert single["steps"] == 2  # mov and cqo retired, idiv did not
    else:
        assert single["fault"] is None
        assert (single["regs"][Register.RAX],
                single["regs"][Register.RDX]) == expected
    assert_tiers_agree(body, seeds)


@pytest.mark.parametrize("register_first", [True, False])
@pytest.mark.parametrize("pointer", [_BLOB + 16, 0x1234_5678_9ABC])
def test_xchg_through_its_own_register_agrees_across_tiers(register_first,
                                                           pointer):
    """``xchg rbx, [rbx]``: the exchanged register is also the address
    base.  As on x86, the store lands at the pre-instruction address ``A``
    whichever operand comes first, so ``[A]`` holds ``A``, ``rbx`` holds the
    old ``[A]`` (a ``pointer`` that may be unmapped, and is never
    dereferenced) and ``[A+16]`` is untouched, in every tier."""
    pair = [Reg(Register.RBX), Mem(base=Register.RBX)]
    if not register_first:
        pair.reverse()
    body = [make("mov", Reg(Register.RBX), Imm(_BLOB, 8)),
            make("xchg", *pair), make("mov", Reg(Register.RAX),
                                      Mem(base=Register.R15, disp=16)),
            make("ret")]
    data = pointer.to_bytes(8, "little") + bytes(range(_BLOB_SIZE - 8))
    (single, *_) = run_tier(body, [], "single", data=data, rounds=1)
    assert single["fault"] is None
    assert single["blob"][:8] == _BLOB.to_bytes(8, "little")
    assert single["blob"][8:] == data[8:]
    assert single["regs"][Register.RBX] == pointer
    assert single["regs"][Register.RAX] == int.from_bytes(data[16:24],
                                                          "little")
    assert_tiers_agree(body, [], data=data)
