"""Shadow-tracker exactness over the fixed x86 shift semantics.

The emulator masks shift counts by the operand width (6 bits for 64-bit
operands, 5 otherwise) and leaves flags *and* destination untouched when
the masked count is zero.  The tracker must mirror both: a concrete count
is baked into the shifted expression width-masked (the expression language
masks at a fixed 6 bits, which diverges for counts 32-63 on sub-width
operands), and a zero-count shift must not clobber the symbolic flag
source, the repair recipe, or the destination's expression.
"""

from repro.attacks.shadow import ShadowTracker
from repro.attacks.solver.expr import SymExpr
from repro.binary import BinaryImage, load_image
from repro.cpu import Emulator
from repro.cpu.host import EXIT_ADDRESS
from repro.isa import Imm, Reg, assemble
from repro.isa.instructions import make
from repro.isa.registers import Register


def _run_shadowed(body, rdi_value):
    """Run ``body`` single-step with RDI symbolic; return (tracker, emulator)."""
    image = BinaryImage()
    code, _ = assemble(body, base_address=image.text.address)
    address = image.text.append(code)
    image.add_function("f", address, len(code))
    program = load_image(image)
    emulator = Emulator(program.memory, trace_cache=False)
    tracker = ShadowTracker()
    tracker.set_register_symbol(Register.RDI, SymExpr("x"))
    emulator.pre_hooks.append(tracker.hook)
    emulator.state.write_reg(Register.RSP, program.stack_top)
    emulator.state.write_reg(Register.RDI, rdi_value)
    emulator.push(EXIT_ADDRESS)
    emulator.state.rip = address
    emulator.run()
    return tracker, emulator


def test_sub_width_shift_count_past_width_mask_stays_exact():
    """`shl edi, cl` with CL=33 shifts by 33 & 0x1F = 1; the shadow's
    expression must reproduce exactly that, not a 6-bit-masked shift."""
    body = [
        make("mov", Reg(Register.RCX), Imm(33)),
        make("shl", Reg(Register.RDI, 4), Reg(Register.RCX, 1)),
        make("ret"),
    ]
    seed = 0x1234_5678_9ABC_DEF0
    tracker, emulator = _run_shadowed(body, seed)
    assert tracker.repair_exact
    expression = tracker.register_exprs[Register.RDI]
    assert expression.evaluate({"x": seed}) == \
        emulator.state.regs[Register.RDI]


def test_zero_count_shift_leaves_shadow_flag_source_untouched():
    """A masked-zero shift after a cmp must not retarget the symbolic flag
    source (the later jcc still records a constraint over the cmp)."""
    body = [
        make("cmp", Reg(Register.RDI), Imm(5)),
        make("mov", Reg(Register.RCX), Imm(64)),       # 64 & 0x3F == 0
        make("shl", Reg(Register.RDI), Reg(Register.RCX, 1)),
        make("ret"),
    ]
    seed = 3
    tracker, emulator = _run_shadowed(body, seed)
    # the flag record still describes the cmp, exactly repairable
    recipe, _, left, right, _ = tracker.flags
    assert recipe == "sub" and left is not None and right is not None
    # the destination's expression survived the no-op shift
    expression = tracker.register_exprs[Register.RDI]
    assert expression.evaluate({"x": seed}) == \
        emulator.state.regs[Register.RDI]
    assert tracker.repair_exact


def test_symbolic_shift_count_clears_repair_exactness():
    """An input-dependent count (even one concretely masked nonzero) cannot
    be repaired exactly; the tracker must say so instead of guessing."""
    body = [
        make("mov", Reg(Register.RCX), Reg(Register.RDI)),
        make("shl", Reg(Register.RAX), Reg(Register.RCX, 1)),
        make("ret"),
    ]
    tracker, _ = _run_shadowed(body, 7)
    assert not tracker.repair_exact
