"""The emulator's hooked run loop: hook order, cached transfers, SMC.

Runs with ``pre_hooks`` installed go through one instruction-at-a-time
loop whose decode entries carry each instruction's handler and, for a
:class:`SpecializedHook`, its specialized transfer.  These tests pin the
loop's contract: every hook sees every instruction in list order, a
transfer is specialized once per decoded instruction and kept across runs
and owners, and rewriting the code under a cached transfer re-specializes
it from the new bytes.  The caching tests force ``decode_cache=True`` so
they hold under ``REPRO_DECODE_CACHE=0`` too.
"""

from repro.cpu import Emulator
from repro.cpu.emulator import SpecializedHook
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
    emulator = Emulator(program.memory, decode_cache=True)
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


def test_rewritten_code_is_specialized_again():
    program = build_program(_LOOP)
    address = program.image.function("f").address
    emulator = Emulator(program.memory, decode_cache=True)
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
