"""Functional-equivalence tests: rewritten functions behave like the originals."""

import pytest

from repro.binary import load_image
from repro.compiler import compile_program
from repro.core import RopConfig, rop_obfuscate
from repro.core.rewriter import RopRewriter
from repro.cpu import call_function
from repro.isa import Reg, assemble
from repro.isa.instructions import make
from repro.isa.registers import Register
from repro.lang import (
    Assign,
    BinOp,
    Call,
    Const,
    Function,
    GlobalArray,
    If,
    Load,
    Probe,
    Program,
    Return,
    Store,
    Var,
    While,
)


def run_both(program_ast, function, args, config=None, max_steps=6_000_000):
    """Run a function natively and ROP-rewritten and return both results."""
    image = compile_program(program_ast)
    native, _ = call_function(load_image(image), function, args, max_steps=max_steps)
    config = config or RopConfig.ropk(0.0)
    obfuscated, report = rop_obfuscate(image, [function], config)
    assert report.coverage == 1.0, report.failure_categories()
    rewritten, emulator = call_function(load_image(obfuscated), function, args,
                                        max_steps=max_steps)
    return native, rewritten, emulator


SIMPLE_ADD = Program([Function("f", ["a", "b"], [Return(BinOp("+", Var("a"), Var("b")))])])

BRANCHY = Program([Function("f", ["x"], [
    If(BinOp("==", Var("x"), Const(0)), [Return(Const(1))], [Return(Const(2))]),
])])

LOOPY = Program([Function("f", ["n"], [
    Assign("i", Const(0)),
    Assign("acc", Const(0)),
    While(BinOp("<", Var("i"), Var("n")), [
        Assign("acc", BinOp("+", Var("acc"), Var("i"))),
        Assign("i", BinOp("+", Var("i"), Const(1))),
    ]),
    Return(Var("acc")),
])])


def test_plain_rop_preserves_simple_arithmetic():
    native, rewritten, _ = run_both(SIMPLE_ADD, "f", [20, 22], RopConfig.plain())
    assert native == rewritten == 42


def test_plain_rop_preserves_branches():
    for arg in (0, 5):
        native, rewritten, _ = run_both(BRANCHY, "f", [arg], RopConfig.plain())
        assert native == rewritten


def test_plain_rop_preserves_loops():
    native, rewritten, _ = run_both(LOOPY, "f", [10], RopConfig.plain())
    assert native == rewritten == 45


def test_full_predicates_preserve_behaviour():
    config = RopConfig.ropk(0.5)
    for arg in (0, 3, 17):
        native, rewritten, _ = run_both(BRANCHY, "f", [arg], config)
        assert native == rewritten
    native, rewritten, _ = run_both(LOOPY, "f", [9], config)
    assert native == rewritten == 36


def test_rop_function_calling_host_function():
    program = Program([Function("f", ["x"], [
        Assign("p", Call("malloc", [Const(16)])),
        Store(Var("p"), Var("x"), 8),
        Return(Load(Var("p"), 8)),
    ])])
    native, rewritten, _ = run_both(program, "f", [77], RopConfig.ropk(0.25))
    assert native == rewritten == 77


def test_rop_function_calling_rop_function():
    program = Program([
        Function("square", ["x"], [Return(BinOp("*", Var("x"), Var("x")))]),
        Function("f", ["x"], [
            Assign("s", Call("square", [Var("x")])),
            Return(BinOp("+", Var("s"), Const(1))),
        ]),
    ])
    image = compile_program(program)
    native, _ = call_function(load_image(image), "f", [6])
    obfuscated, report = rop_obfuscate(image, ["f", "square"], RopConfig.ropk(0.25))
    assert report.coverage == 1.0, report.failure_categories()
    rewritten, _ = call_function(load_image(obfuscated), "f", [6], max_steps=6_000_000)
    assert native == rewritten == 37


def test_recursive_rop_function():
    program = Program([Function("fact", ["n"], [
        If(BinOp("<=", Var("n"), Const(1)), [Return(Const(1))]),
        Return(BinOp("*", Var("n"), Call("fact", [BinOp("-", Var("n"), Const(1))]))),
    ])])
    image = compile_program(program)
    obfuscated, report = rop_obfuscate(image, ["fact"], RopConfig.ropk(0.1))
    assert report.coverage == 1.0
    result, _ = call_function(load_image(obfuscated), "fact", [8], max_steps=6_000_000)
    assert result == 40320


def test_probes_survive_rewriting():
    program = Program([Function("f", ["x"], [
        Probe(1),
        If(BinOp(">", Var("x"), Const(5)), [Probe(2)], [Probe(3)]),
        Return(Const(0)),
    ])])
    _, _, emulator = run_both(program, "f", [9], RopConfig.ropk(0.5))
    assert emulator.host.probes == [1, 2]
    _, _, emulator = run_both(program, "f", [1], RopConfig.ropk(0.5))
    assert emulator.host.probes == [1, 3]


def test_global_data_accessible_from_chain():
    table = GlobalArray("table", 16, initial=bytes([9, 8, 7, 6]))
    program = Program(
        [Function("f", ["i"], [Return(Load(BinOp("+", Var("table"), Var("i")), 1))])],
        globals=[table],
    )
    native, rewritten, _ = run_both(program, "f", [2], RopConfig.ropk(0.25))
    assert native == rewritten == 7


def test_original_body_is_replaced():
    image = compile_program(BRANCHY)
    original = image.function_bytes("f")
    obfuscated, _ = rop_obfuscate(image, ["f"], RopConfig.plain())
    assert obfuscated.function_bytes("f") != original
    assert obfuscated.ropchains.size > 0


def test_report_statistics_are_populated():
    image = compile_program(LOOPY)
    _, report = rop_obfuscate(image, ["f"], RopConfig.ropk(1.0))
    result = report.results[0]
    assert result.success
    assert result.program_points > 0
    assert result.total_gadgets > result.program_points
    assert 0 < result.unique_gadgets <= result.total_gadgets
    assert result.gadgets_per_point > 1.0


def test_too_small_function_is_skipped():
    # a function made only of a return is smaller than the pivot stub
    tiny = Program([Function("f", [], [Return(Const(1))])])
    image = compile_program(tiny)
    symbol = image.function("f")
    if symbol.size >= 60:
        pytest.skip("tiny function unexpectedly large")
    _, report = rop_obfuscate(image, ["f"], RopConfig.plain())
    assert report.coverage == 0.0
    assert "smaller than pivot stub" in report.results[0].reason


def test_deterministic_output_for_same_seed():
    image = compile_program(LOOPY)
    a, _ = rop_obfuscate(image, ["f"], RopConfig(seed=7, p3_fraction=0.5))
    b, _ = rop_obfuscate(image, ["f"], RopConfig(seed=7, p3_fraction=0.5))
    assert bytes(a.ropchains.data) == bytes(b.ropchains.data)


def test_different_seeds_diversify_chains():
    image = compile_program(LOOPY)
    a, _ = rop_obfuscate(image, ["f"], RopConfig(seed=1))
    b, _ = rop_obfuscate(image, ["f"], RopConfig(seed=2))
    assert bytes(a.ropchains.data) != bytes(b.ropchains.data)


def test_pool_reuses_only_gadgets_the_kind_templates_reproduce():
    # unobfuscated .text holds an exact `pop rdi ; ret` and 32-bit lookalikes
    # of the `add_rr` gadgets; a chain that reused `add eax, ecx` for the
    # function's `add rax, rcx` would truncate the sum
    program = Program([Function("f", ["a", "b"], [
        Return(BinOp("+", Var("a"), BinOp("*", Var("b"), Const(3)))),
    ])])
    image = compile_program(program)
    found = {}
    for name, operands in (("pop", (Reg(Register.RDI),)),
                           ("add", (Reg(Register.RAX, 4), Reg(Register.RBX, 4))),
                           ("add", (Reg(Register.RAX, 4), Reg(Register.RCX, 4)))):
        code, _ = assemble([make(name, *operands), make("ret")],
                           base_address=image.text.end)
        found[str(make(name, *operands))] = image.text.append(code)
    args = [0x1_0000_0005, 0x2_0000_0001]
    native, _ = call_function(load_image(image), "f", args)

    rewriter = RopRewriter(image.clone(), RopConfig.plain())
    assert rewriter.rewrite(["f"]).coverage == 1.0
    registered = rewriter._pool.addresses()
    assert found["pop rdi"] in registered
    assert found["add raxd, rbxd"] not in registered
    assert found["add raxd, rcxd"] not in registered
    rewritten, _ = call_function(load_image(rewriter.image), "f", args)
    assert rewritten == native == 0x1_0000_0005 + 3 * 0x2_0000_0001
