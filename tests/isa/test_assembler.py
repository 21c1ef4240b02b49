"""Tests for the two-pass assembler and the disassembly helpers."""

import pytest

from repro.isa import Imm, Label, Reg, assemble, disassemble_range
from repro.isa.assembler import Assembler
from repro.isa.instructions import make
from repro.isa.registers import Register


def test_forward_label_resolution():
    code, labels = assemble(
        [
            make("jmp", Label("end")),
            make("mov", Reg(Register.RAX), Imm(1)),
            "end",
            make("ret"),
        ],
        base_address=0x1000,
    )
    listing = disassemble_range(code)
    # the jmp target must be the absolute address of the ret
    assert listing[0][1].operands[0].value == labels["end"]
    assert listing[-1][1].name == "ret"


def test_backward_label_resolution():
    code, labels = assemble(
        [
            "loop",
            make("dec", Reg(Register.RCX)),
            make("jne", Label("loop")),
            make("ret"),
        ],
        base_address=0x400000,
    )
    assert labels["loop"] == 0x400000
    listing = disassemble_range(code)
    assert listing[1][1].operands[0].value == 0x400000


def test_undefined_label_raises():
    with pytest.raises(KeyError):
        assemble([make("jmp", Label("nowhere"))])


def test_label_addresses_account_for_base():
    _, labels_a = assemble(["start", make("ret")], base_address=0)
    _, labels_b = assemble(["start", make("ret")], base_address=0x5000)
    assert labels_b["start"] - labels_a["start"] == 0x5000


def test_assembler_items_are_visible():
    asm = Assembler()
    asm.label("entry")
    asm.emit(make("ret"))
    assert asm.items[0].is_label
    assert not asm.items[1].is_label


def test_disassemble_range_matches_input():
    instructions = [
        make("mov", Reg(Register.RAX), Imm(7)),
        make("add", Reg(Register.RAX), Reg(Register.RDI)),
        make("ret"),
    ]
    code, _ = assemble(instructions)
    listing = [ins for _, ins in disassemble_range(code)]
    assert listing == instructions
