"""Shadow soundness oracle: while the tracker claims ``repair_exact``, every
shadow expression evaluated at the concrete input equals the machine value.

The check runs as a plain pre-hook ahead of the shadow's own, so it sees the
state every executed instruction left behind (and once more after the run):
each ``register_exprs`` entry against its register, each ``memory_exprs``
entry against the bytes it describes.  It drives the random instruction
sequences of the tier differential (``tests/cpu/test_codegen_tiers.py``)
with symbolic registers and memory, and a ROP1.00 and a ROP1.00+OC+IH image
of the attack service at fixed inputs.
"""

from hypothesis import given, settings, strategies as st

from repro.attacks.dse import DseEngine, InputSpec
from repro.attacks.shadow import ShadowTracker
from repro.attacks.solver.expr import SymExpr
from repro.cpu import Emulator
from repro.cpu.state import EmulationError, SIZE_MASKS
from repro.isa import Imm, Reg
from repro.isa.instructions import make
from repro.isa.registers import ARG_REGISTERS, Register
from repro.service.requests import AttackRequest, _prepared_image
from tests.cpu.test_codegen_tiers import (_BLOB, _program_case,
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


def _assert_exact_claims_hold(body, inputs):
    """The oracle holds at every input, and a run that ends claiming
    ``repair_exact`` reproduces every other input's registers once its
    shadow is re-evaluated under that input — the repair a resumed DSE
    execution performs.  Unshadowed registers must therefore agree."""
    runs = [_run_symbolic_rdi(body, value) for value in inputs]
    for emulator, tracker in runs:
        if not tracker.repair_exact:
            continue
        for value, (other, _) in zip(inputs, runs):
            repaired = dict(emulator.state.regs)
            for register, expression in tracker.register_exprs.items():
                repaired[register] = expression.evaluate({"x": value}) & _MASK64
            assert repaired == other.state.regs, value


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
