"""Synthetic coreutils-like corpus for the §VII-C1 rewriting coverage study.

The paper rewrites the 1354 unique functions of coreutils v8.28 and reports
which code shapes fail (functions smaller than the pivot stub, register
pressure beyond the single spill slot, ``push rsp``-style stack idioms, CFG
reconstruction failures).  The reproduction generates a corpus with the same
*mix of shapes* — ordinary functions of varying size and structure produced
by the mini-C compiler, a population of tiny stubs, plus a small number of
hand-assembled "exotic" functions exhibiting exactly the unsupported idioms —
so the coverage measurement exercises the same failure categories.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.binary.image import BinaryImage
from repro.compiler import compile_program
from repro.isa.assembler import assemble
from repro.isa.instructions import make
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import Register
from repro.lang.ast import (
    Assign,
    BinOp,
    Const,
    For,
    Function,
    If,
    Load,
    Program,
    Return,
    Store,
    Var,
)


@dataclass
class CorpusFunction:
    """One corpus entry: a function name plus its expected shape category."""

    name: str
    category: str  # "normal", "stub", "push_rsp", "indexed_rsp", "high_pressure"


def _normal_function(name: str, rng: random.Random) -> Function:
    """A mini-C function with a random mix of loops, branches and memory ops."""
    body = [
        Assign("acc", Const(rng.randrange(1, 1000))),
        Store(Var("buf"), Var("a"), 8),
    ]
    for _ in range(rng.randrange(1, 4)):
        shape = rng.random()
        if shape < 0.4:
            body.append(If(BinOp(rng.choice(["<", "==", ">"]), Var("a"),
                                 Const(rng.randrange(64))),
                           [Assign("acc", BinOp("^", Var("acc"), Var("a")))],
                           [Assign("acc", BinOp("+", Var("acc"), Const(rng.randrange(7, 99))))]))
        elif shape < 0.8:
            counter = f"i{rng.randrange(1000)}"
            body.append(For(Assign(counter, Const(0)),
                            BinOp("<", Var(counter), Const(rng.randrange(2, 6))),
                            Assign(counter, BinOp("+", Var(counter), Const(1))),
                            [Assign("acc", BinOp("+", Var("acc"),
                                                 BinOp("*", Var(counter), Var("b"))))]))
        else:
            body.append(Store(BinOp("+", Var("buf"), Const(8)),
                              BinOp("+", Load(Var("buf"), 8), Var("b")), 8))
            body.append(Assign("acc", BinOp("+", Var("acc"),
                                            Load(BinOp("+", Var("buf"), Const(8)), 8))))
    body.append(Return(BinOp("&", Var("acc"), Const(0xFFFFFFFF))))
    return Function(name, ["a", "b"], body, local_arrays={"buf": 16})


def _stub_function(name: str) -> Function:
    """A function small enough to be skipped (shorter than the pivot stub)."""
    return Function(name, [], [Return(Const(0))])


def _inject_exotic(image: BinaryImage, name: str, category: str) -> None:
    """Hand-assemble a function exhibiting an unsupported idiom and add it."""
    if category == "push_rsp":
        instructions = [
            make("push", Reg(Register.RBP)),
            make("mov", Reg(Register.RBP), Reg(Register.RSP)),
            make("push", Reg(Register.RSP)),
            make("pop", Reg(Register.RAX)),
            make("mov", Reg(Register.RAX), Imm(0)),
            make("leave"),
            make("ret"),
        ] + [make("nop")] * 24
    elif category == "indexed_rsp":
        instructions = [
            make("push", Reg(Register.RBP)),
            make("mov", Reg(Register.RBP), Reg(Register.RSP)),
            make("mov", Reg(Register.RAX),
                 Mem(base=Register.RSP, index=Register.RCX, scale=8, disp=8)),
            make("leave"),
            make("ret"),
        ] + [make("nop")] * 24
    elif category == "high_pressure":
        # every register is live across an inner call: the call protocol needs
        # five scratch registers and the single spill slot is not enough
        loads = [make("mov", Reg(reg), Imm(index + 1))
                 for index, reg in enumerate(Register)
                 if reg not in (Register.RSP, Register.RBP)]
        uses = [make("add", Reg(Register.RAX), Reg(reg))
                for reg in Register if reg not in (Register.RSP, Register.RBP, Register.RAX)]
        instructions = (
            [make("push", Reg(Register.RBP)), make("mov", Reg(Register.RBP), Reg(Register.RSP))]
            + loads
            + [make("call", Imm(image.text.address))]
            + uses
            + [make("leave"), make("ret")]
        )
    else:
        raise ValueError(f"unknown exotic category {category!r}")
    code, _ = assemble(instructions, base_address=image.text.end)
    address = image.text.append(code)
    image.add_function(name, address, len(code))


def build_coreutils_corpus(programs: int = 20, functions_per_program: int = 12,
                           stub_fraction: float = 0.09, exotic_per_corpus: int = 4,
                           seed: int = 1) -> List[Tuple[BinaryImage, List[CorpusFunction]]]:
    """Build the corpus: a list of ``(image, functions)`` pairs.

    Defaults are scaled down from the paper's 107 programs / 1354 functions;
    the full size is reachable by raising ``programs`` and
    ``functions_per_program`` (see the ``REPRO_FULL_SCALE`` row of
    ``benchmarks/README.md``).
    """
    rng = random.Random(seed)
    corpus: List[Tuple[BinaryImage, List[CorpusFunction]]] = []
    exotic_cycle = ["push_rsp", "indexed_rsp", "high_pressure"]
    exotic_budget = exotic_per_corpus
    for program_index in range(programs):
        functions: List[Function] = []
        entries: List[CorpusFunction] = []
        for function_index in range(functions_per_program):
            name = f"p{program_index}_f{function_index}"
            if rng.random() < stub_fraction:
                functions.append(_stub_function(name))
                entries.append(CorpusFunction(name, "stub"))
            else:
                functions.append(_normal_function(name, rng))
                entries.append(CorpusFunction(name, "normal"))
        image = compile_program(Program(functions), name=f"coreutil_{program_index}")
        if exotic_budget > 0:
            category = exotic_cycle[exotic_budget % len(exotic_cycle)]
            name = f"p{program_index}_exotic"
            _inject_exotic(image, name, category)
            entries.append(CorpusFunction(name, category))
            exotic_budget -= 1
        corpus.append((image, entries))
    return corpus
