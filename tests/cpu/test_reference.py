"""The reference interpreter is a yardstick only: production never runs it.

Every emulator mode executes the codegen's compiled steps and traces; the
handlers of :mod:`repro.cpu.reference` exist for the tier differentials and
the emulator bench to compare against.  With the reference made to raise on
any use, a hook-free run, a single-step run and a hooked DSE exploration of
a small ROP image must still complete with the right answers, and no
module under ``src/repro`` may import the reference (the contract checker
loads it by name from its tier-module list).
"""

import ast
from pathlib import Path

from repro.analysis import lint
from repro.attacks.dse import DseEngine, InputSpec
from repro.binary import load_image
from repro.compiler import compile_program
from repro.core import RopConfig, rop_obfuscate
from repro.cpu import Emulator, reference, semantics
from repro.cpu.host import EXIT_ADDRESS
from repro.isa import Reg
from repro.isa.instructions import Instruction, make
from repro.isa.registers import ARG_REGISTERS, Register
from repro.lang import (Assign, BinOp, Const, Function, If, Program, Return,
                        Var)

_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: ``f(x)`` returns 1 exactly when ``((x * 13) ^ 0x27) & 0xFF == 0x5A``,
#: i.e. for the one-byte input 49.
_SECRET = 49


def _rop_image():
    check = Program([Function("f", ["x"], [
        Assign("h", BinOp("^", BinOp("*", Var("x"), Const(13)), Const(0x27))),
        If(BinOp("==", BinOp("&", Var("h"), Const(0xFF)), Const(0x5A)),
           [Return(Const(1))], [Return(Const(0))]),
    ])])
    image, _ = rop_obfuscate(compile_program(check), ["f"], RopConfig.plain())
    return image


def _call(image, argument, trace_cache):
    program = load_image(image)
    emulator = Emulator(program.memory, trace_cache=trace_cache)
    emulator.trace_compile_threshold = 0
    emulator.state.write_reg(Register.RSP, program.stack_top)
    emulator.state.write_reg(Register.RBP, program.stack_top)
    emulator.state.write_reg(ARG_REGISTERS[0], argument)
    emulator.push(EXIT_ADDRESS)
    emulator.state.rip = image.function("f").address
    emulator.run()
    return emulator.state.read_reg(Register.RAX), emulator


def test_production_paths_never_run_the_reference(monkeypatch):
    def refuse(*args):
        raise AssertionError("the reference interpreter ran")

    monkeypatch.setattr(reference, "run", refuse)
    monkeypatch.setattr(reference, "DISPATCH",
                        dict.fromkeys(reference.DISPATCH, refuse))
    image = _rop_image()
    for trace_cache in (True, False):
        for argument in (0, _SECRET):
            value, emulator = _call(image, argument, trace_cache)
            assert value == (argument == _SECRET)
            if trace_cache:
                assert emulator.jit_stats.compiled_runs > 0
    engine = DseEngine(image, "f", InputSpec(argument_sizes=[1]))
    results, stats = engine.explore(time_budget=float("inf"),
                                    max_executions=8)
    assert stats.executions == len(results) > 1
    assert any(result.return_value == 1 for result in results)


def test_no_production_module_imports_the_reference():
    for path in sorted(_SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert "repro.cpu.reference" not in names \
                and not any(name.startswith("repro.cpu.reference.")
                            for name in names), path
    assert "repro.cpu.reference" in lint.TIER_MODULES


def test_trim_operands_drops_only_operands_past_the_mnemonics():
    mov = make("mov", Reg(Register.RAX), Reg(Register.RDI))
    assert semantics.trim_operands(mov) is mov
    extra = make("mov", Reg(Register.RAX), Reg(Register.RDI),
                 Reg(Register.RCX))
    assert semantics.trim_operands(extra) == mov
    ret = make("ret")
    assert semantics.trim_operands(
        Instruction(ret.mnemonic, (Reg(Register.RAX),))) == ret
    short = Instruction(mov.mnemonic, (Reg(Register.RAX),))
    assert semantics.trim_operands(short) is short
