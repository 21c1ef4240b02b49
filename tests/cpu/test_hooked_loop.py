"""The emulator's hooked run loop: hook order, cached transfers, SMC.

Runs with ``pre_hooks`` installed fuse nothing: the run loop executes one
instruction at a time, and each decode entry carries the instruction's
compiled step with, for a :class:`SpecializedHook`, its specialized
transfer bound in.  These tests pin the
loop's contract: every hook sees every instruction in list order, a
transfer is specialized once per decoded instruction and kept across runs
and owners, rewriting the code under a cached transfer re-specializes it
from the new bytes, and a guarded transfer's fast path runs inside the
step, calling the transfer only when its guard fails.
"""

from repro.cpu import Emulator
from repro.cpu.codegen import GuardedTransfer
from repro.cpu.emulator import SpecializedHook
from repro.cpu.reference import run as reference_run
from repro.isa import Imm, Reg, assemble
from repro.isa.instructions import make
from repro.isa.operands import Label
from repro.isa.registers import Register
from tests.cpu.test_trace_cache import build_program, start_call

_LOOP = [
    make("xor", Reg(Register.RAX), Reg(Register.RAX)),
    "loop",
    make("add", Reg(Register.RAX), Imm(3)),
    make("dec", Reg(Register.RDI)),
    make("cmp", Reg(Register.RDI), Imm(0)),
    make("jne", Label("loop")),
    make("ret"),
]


def _counting_specializer(calls, specializations):
    """A specializer whose transfers record (owner, tag, address) per call,
    counting how often each instruction text is specialized."""

    def specialize(instruction):
        text = str(instruction)
        specializations[text] = specializations.get(text, 0) + 1

        def transfer(t, emulator, address):
            calls.append((t, "transfer", address))

        return transfer

    return specialize


def test_hooks_run_in_list_order_for_every_instruction():
    program = build_program(_LOOP)
    emulator = Emulator(program.memory)
    calls, specializations = [], {}

    def plain(tag):
        return lambda emu, address, instruction: calls.append(
            (None, tag, address))

    emulator.pre_hooks = [plain("before"),
                          SpecializedHook("owner", _counting_specializer(
                              calls, specializations)),
                          plain("after")]
    start_call(emulator, program, [5])
    emulator.run()
    assert emulator.state.read_reg(Register.RAX) == 15
    # three hook calls per executed instruction, always in list order
    assert len(calls) == 3 * emulator.steps
    for index in range(0, len(calls), 3):
        (_, first, address), (owner, second, same), (_, third, again) = \
            calls[index:index + 3]
        assert (first, second, third) == ("before", "transfer", "after")
        assert address == same == again
        assert owner == "owner"


def test_transfers_are_specialized_once_per_decoded_instruction():
    program = build_program(_LOOP)
    emulator = Emulator(program.memory)
    calls, specializations = [], {}
    specialize = _counting_specializer(calls, specializations)
    for owner in ("first", "second"):
        emulator.pre_hooks = [SpecializedHook(owner, specialize)]
        start_call(emulator, program, [4])
        emulator.run()
    # the hooks share one specializer: the second run (a new owner) reuses
    # every transfer the first run cached
    assert set(specializations.values()) == {1}
    assert {owner for owner, _, _ in calls} == {"first", "second"}


def test_steps_carry_only_the_running_specializers_transfers():
    """The decode entries' steps are shared by every run mode, so a run
    under another specializer, or with no hooks at all, must not call the
    transfers an earlier hooked run bound into them."""
    program = build_program(_LOOP)
    emulator = Emulator(program.memory, trace_cache=False)
    calls, other = [], []
    emulator.pre_hooks = [SpecializedHook("first",
                                          _counting_specializer(calls, {}))]
    start_call(emulator, program, [3])
    emulator.run()
    hooked = len(calls)
    assert hooked == emulator.steps
    emulator.pre_hooks = []
    start_call(emulator, program, [3])
    emulator.run()
    assert emulator.state.read_reg(Register.RAX) == 9
    emulator.pre_hooks = [SpecializedHook("second",
                                          _counting_specializer(other, {}))]
    start_call(emulator, program, [3])
    emulator.run()
    assert len(calls) == hooked
    assert {owner for owner, _, _ in other} == {"second"}


def test_rewritten_code_is_specialized_again():
    program = build_program(_LOOP)
    address = program.image.function("f").address
    emulator = Emulator(program.memory)
    calls, specializations = [], {}
    emulator.pre_hooks = [SpecializedHook(
        None, _counting_specializer(calls, specializations))]
    start_call(emulator, program, [2])
    emulator.run()
    assert emulator.state.read_reg(Register.RAX) == 6

    patched, _ = assemble([make("xor", Reg(Register.RAX), Reg(Register.RAX)),
                           "loop",
                           make("add", Reg(Register.RAX), Imm(5)),
                           make("dec", Reg(Register.RDI)),
                           make("cmp", Reg(Register.RDI), Imm(0)),
                           make("jne", Label("loop")),
                           make("ret")], base_address=address)
    program.memory.write(address, patched)
    start_call(emulator, program, [2])
    emulator.run()
    assert emulator.state.read_reg(Register.RAX) == 10
    assert specializations[str(make("add", Reg(Register.RAX), Imm(5)))] == 1


def test_specialized_hook_called_directly_runs_its_transfer():
    calls, specializations = [], {}
    hook = SpecializedHook("owner",
                           _counting_specializer(calls, specializations))
    hook(None, 0x1234, make("ret"))
    assert calls == [("owner", "transfer", 0x1234)]


class _Owner:
    """Owner of a guarded transfer: the guard reads ``holds``, the kill
    counts, the transfer records ``(address, rdi)``."""

    def __init__(self, holds):
        self.holds = holds
        self.kills = 0
        self.calls = []


def _guarded_specializer(guard="_O.holds"):
    def specialize(instruction):
        def transfer(owner, emulator, address):
            owner.calls.append((address, emulator.state.regs[Register.RDI]))

        return GuardedTransfer(guard, "_O.kills += 1",
                               {"_K_RDI": Register.RDI}, transfer)

    return specialize


def _run_guarded(owner, specialize, reference=False):
    """Run the loop under ``owner``'s guarded transfers (after a plain
    hook recording every executed address); return those addresses."""
    program = build_program(_LOOP)
    emulator = Emulator(program.memory)
    executed = []
    emulator.pre_hooks = [
        lambda emu, address, instruction: executed.append(address),
        SpecializedHook(owner, specialize)]
    start_call(emulator, program, [5])
    if reference:
        reference_run(emulator, emulator.max_steps)
    else:
        emulator.run()
    assert emulator.state.read_reg(Register.RAX) == 15
    assert len(executed) == emulator.steps
    return executed


def test_a_guarded_transfer_runs_only_when_its_guard_fails():
    """A guard that holds runs the kill inside the step and never calls
    the transfer; one that fails calls the transfer once per executed
    instruction and skips the kill."""
    specialize = _guarded_specializer()
    holds = _Owner(True)
    executed = _run_guarded(holds, specialize)
    assert holds.calls == [] and holds.kills == len(executed)
    fails = _Owner(False)
    executed = _run_guarded(fails, specialize)
    assert [address for address, _ in fails.calls] == executed
    assert fails.kills == 0


def test_a_guarded_transfer_called_as_a_plain_hook_has_the_same_effects():
    """The plain-hook path (the reference interpreter, or a called hook)
    runs the same guard and kill: a guard over the machine's registers
    splits the instructions the same way in both."""
    specialize = _guarded_specializer("_R[_K_RDI] % 2 == 0")
    stepped, plain = _Owner(None), _Owner(None)
    _run_guarded(stepped, specialize)
    _run_guarded(plain, specialize, reference=True)
    assert stepped.calls and stepped.kills
    assert all(rdi % 2 for _, rdi in stepped.calls)
    assert (plain.calls, plain.kills) == (stepped.calls, stepped.kills)
    owner = _Owner(True)
    hook = SpecializedHook(owner, _guarded_specializer())
    emulator = Emulator(build_program(_LOOP).memory)
    emulator.state.write_reg(Register.RDI, 7)
    hook(emulator, 0x1234, make("ret"))
    owner.holds = False
    hook(emulator, 0x1234, make("ret"))
    assert (owner.kills, owner.calls) == (1, [(0x1234, 7)])
