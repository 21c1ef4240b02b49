"""The effect table reproduces the hand-written register model it replaced.

``_legacy_uses_defs`` is ``instruction_uses_defs`` as it stood in
``repro.analysis.liveness`` before the effect table
(:data:`repro.isa.effects.EFFECTS`) existed, copied unchanged.  It is the
oracle for the table-driven :func:`repro.isa.effects.instruction_uses_defs`
on every distinct instruction decodable at any byte offset of the pinned
rewriter images, and on a destination x source operand grid for every
mnemonic.  The other derived views are pinned against the lists they
replaced.
"""

from typing import Set, Tuple

import pytest

from repro.isa.effects import ARITY, EFFECTS, Role, instruction_uses_defs
from repro.isa.encoding import DecodeError, decode_instruction
from repro.isa.instructions import Instruction, Mnemonic
from repro.isa.operands import Mem, Reg
from repro.isa.registers import ARG_REGISTERS, CALLER_SAVED, Register
from tests.core.test_rewriter_digests import rewritten_images
from tests.cpu.test_hooked_steps import _DESTINATIONS, _SOURCES


def _operand_registers(operand) -> Set[Register]:
    if isinstance(operand, Reg):
        return {operand.reg}
    if isinstance(operand, Mem):
        out = set()
        if operand.base is not None:
            out.add(operand.base)
        if operand.index is not None:
            out.add(operand.index)
        return out
    return set()


def _legacy_uses_defs(instruction: Instruction) -> Tuple[Set[Register], Set[Register]]:
    """Return ``(uses, defs)`` register sets of ``instruction``.

    Calls are treated conservatively: they use all argument registers and
    define every caller-saved register (matching the footnote-1 definition of
    liveness in the paper).
    """
    m = instruction.mnemonic
    ops = instruction.operands
    uses: Set[Register] = set()
    defs: Set[Register] = set()

    if m is Mnemonic.CALL:
        uses |= set(ARG_REGISTERS)
        uses |= _operand_registers(ops[0]) if ops else set()
        defs |= set(CALLER_SAVED)
        uses.add(Register.RSP)
        defs.add(Register.RSP)
        return uses, defs
    if m is Mnemonic.RET:
        uses |= {Register.RAX, Register.RSP}
        defs |= {Register.RSP}
        return uses, defs
    if m is Mnemonic.LEAVE:
        uses |= {Register.RBP, Register.RSP}
        defs |= {Register.RBP, Register.RSP}
        return uses, defs
    if m is Mnemonic.PUSH:
        uses |= _operand_registers(ops[0])
        uses.add(Register.RSP)
        defs.add(Register.RSP)
        return uses, defs
    if m is Mnemonic.POP:
        uses.add(Register.RSP)
        defs.add(Register.RSP)
        if isinstance(ops[0], Reg):
            defs.add(ops[0].reg)
        else:
            uses |= _operand_registers(ops[0])
        return uses, defs
    if m in (Mnemonic.CQO,):
        uses.add(Register.RAX)
        defs.add(Register.RDX)
        return uses, defs
    if m is Mnemonic.IDIV:
        uses |= {Register.RAX, Register.RDX}
        uses |= _operand_registers(ops[0])
        defs |= {Register.RAX, Register.RDX}
        return uses, defs
    if m in (Mnemonic.JMP, Mnemonic.JCC):
        uses |= _operand_registers(ops[0]) if ops else set()
        return uses, defs

    if not ops:
        return uses, defs

    destination = ops[0]
    sources = ops[1:]
    # destination semantics
    if isinstance(destination, Reg):
        if m in (Mnemonic.MOV, Mnemonic.MOVZX, Mnemonic.MOVSX, Mnemonic.LEA,
                 Mnemonic.SET, Mnemonic.POP):
            defs.add(destination.reg)
            if m is Mnemonic.SET or (isinstance(destination, Reg) and destination.size < 4):
                uses.add(destination.reg)  # partial write preserves upper bytes
        else:
            defs.add(destination.reg)
            uses.add(destination.reg)
        if m is Mnemonic.XCHG:
            uses.add(destination.reg)
    else:
        uses |= _operand_registers(destination)
        if m in (Mnemonic.CMP, Mnemonic.TEST):
            pass
    if m in (Mnemonic.CMP, Mnemonic.TEST):
        # comparisons do not define their "destination"
        defs.discard(destination.reg if isinstance(destination, Reg) else None)
        defs = {d for d in defs if d is not None}
        uses |= _operand_registers(destination)
    if m is Mnemonic.CMOV and isinstance(destination, Reg):
        uses.add(destination.reg)  # may keep the old value
    for source in sources:
        uses |= _operand_registers(source)
        if m is Mnemonic.XCHG and isinstance(source, Reg):
            defs.add(source.reg)
    return uses, defs


def _implicit_only(instruction: Instruction) -> Tuple[Set[Register], Set[Register]]:
    effect = EFFECTS[instruction.mnemonic]
    return set(effect.uses), set(effect.defs)


def _decodes_of_the_digest_images() -> Set[Instruction]:
    decodes = set()
    for _, image in rewritten_images():
        for section in image.sections.values():
            data = bytes(section.data)
            for offset in range(len(data)):
                try:
                    decodes.add(decode_instruction(data, offset)[0])
                except DecodeError:
                    continue
    return decodes


def test_table_matches_the_legacy_model_on_every_decode_of_the_digest_images():
    """Equal everywhere but on the operand-less ``idiv``/``push``/``pop``
    that unaligned offsets decode: the legacy model raised ``IndexError``
    there, and the table gives the implicit registers alone."""
    decodes = _decodes_of_the_digest_images()
    assert len(decodes) > 300
    operand_less = set()
    for instruction in decodes:
        try:
            expected = _legacy_uses_defs(instruction)
        except IndexError:
            operand_less.add(instruction)
            assert instruction_uses_defs(instruction) == _implicit_only(instruction)
            continue
        assert instruction_uses_defs(instruction) == expected, str(instruction)
    assert {(i.mnemonic, i.operands) for i in operand_less} <= {
        (Mnemonic.IDIV, ()), (Mnemonic.PUSH, ()), (Mnemonic.POP, ())}


def _grid(mnemonic: Mnemonic):
    condition = "l" if mnemonic in (Mnemonic.JCC, Mnemonic.CMOV, Mnemonic.SET) else ""
    if ARITY[mnemonic] == 0:
        shapes = [()]
    elif ARITY[mnemonic] == 1:
        shapes = [(destination,) for destination in _DESTINATIONS]
    else:
        shapes = [(destination, source) for destination in _DESTINATIONS
                  for source in _SOURCES]
    return [Instruction(mnemonic, operands, condition) for operands in shapes]


#: Where the table follows the machine and the legacy model did not: a
#: 1-byte ``pop`` merges into (so uses) its register, and a ``set`` into a
#: 4- or 8-byte register writes all of it (so does not use it).
#: The value is whether the table's uses hold ``rax``.
_GRID_CORRECTIONS = {"pop raxb": True, "setl rax": False, "setl raxd": False}


@pytest.mark.parametrize("mnemonic", list(Mnemonic), ids=lambda m: m.name)
def test_table_matches_the_legacy_model_on_the_operand_grid(mnemonic):
    for instruction in _grid(mnemonic):
        uses, defs = instruction_uses_defs(instruction)
        legacy_uses, legacy_defs = _legacy_uses_defs(instruction)
        correction = _GRID_CORRECTIONS.get(str(instruction))
        if correction is None:
            assert (uses, defs) == (legacy_uses, legacy_defs), str(instruction)
            continue
        assert defs == legacy_defs
        assert (Register.RAX in uses) is correction
        assert uses ^ legacy_uses == {Register.RAX}


@pytest.mark.parametrize("mnemonic", [Mnemonic.IDIV, Mnemonic.PUSH, Mnemonic.POP],
                         ids=lambda m: m.name)
def test_operand_less_decodes_contribute_their_implicit_registers(mnemonic):
    instruction = Instruction(mnemonic, ())
    with pytest.raises(IndexError):
        _legacy_uses_defs(instruction)
    assert instruction_uses_defs(instruction) == _implicit_only(instruction)


def test_operands_past_the_arity_are_ignored():
    instruction = Instruction(Mnemonic.MOV, (Reg(Register.RAX), Reg(Register.RBX),
                                             Reg(Register.RCX)))
    assert instruction_uses_defs(instruction) == ({Register.RBX}, {Register.RAX})


def test_derived_views_equal_the_lists_they_replaced():
    def where(predicate):
        return {m for m, effect in EFFECTS.items() if predicate(effect)}

    # Instruction.is_control_flow / the trace's exit set
    assert where(lambda e: e.control) == {
        Mnemonic.JMP, Mnemonic.JCC, Mnemonic.CALL, Mnemonic.RET, Mnemonic.HLT}
    # Instruction.reads_flags and ROPMEMU's flag leaks (reads, no control)
    assert where(lambda e: e.flags_read) == {
        Mnemonic.JCC, Mnemonic.CMOV, Mnemonic.SET, Mnemonic.ADC, Mnemonic.SBB}
    assert where(lambda e: e.flags_read and not e.control) == {
        Mnemonic.SET, Mnemonic.CMOV, Mnemonic.ADC, Mnemonic.SBB}
    # Instruction.writes_flags
    assert where(lambda e: e.flags_written) == {
        Mnemonic.ADD, Mnemonic.SUB, Mnemonic.ADC, Mnemonic.SBB, Mnemonic.AND,
        Mnemonic.OR, Mnemonic.XOR, Mnemonic.NEG, Mnemonic.SHL, Mnemonic.SHR,
        Mnemonic.SAR, Mnemonic.IMUL, Mnemonic.INC, Mnemonic.DEC, Mnemonic.CMP,
        Mnemonic.TEST}
    # TDS's written-only destinations
    assert where(lambda e: e.roles[:1] == (Role.WRITE,)) == {
        Mnemonic.MOV, Mnemonic.POP, Mnemonic.MOVZX, Mnemonic.MOVSX, Mnemonic.LEA,
        Mnemonic.SET}
    # the P3 taint pass leaves the state alone on these
    assert where(lambda e: not e.roles or e.roles[0] is Role.READ) == {
        Mnemonic.RET, Mnemonic.LEAVE, Mnemonic.JMP, Mnemonic.JCC, Mnemonic.CMP,
        Mnemonic.TEST, Mnemonic.NOP, Mnemonic.HLT, Mnemonic.PUSH, Mnemonic.CQO,
        Mnemonic.CALL, Mnemonic.IDIV}
