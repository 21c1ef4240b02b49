"""The effect table's memory columns match the reference interpreter.

For every mnemonic, one step of the reference handler
(:mod:`repro.cpu.reference`) reads and writes exactly the bytes
:data:`repro.isa.effects.EFFECTS` declares: its memory operands by role
(an ``ADDRESS`` operand, ``lea``'s source, touches none) and its implicit
stack slot — the qword ``push`` and ``call`` store below ``rsp`` and
``pop``, ``ret`` and ``leave`` load, addressed before the step.  The DSE
shadow's concrete guards probe and retire these bytes, so a slot the table
missed would be a read no guard checks.
"""

from typing import List, Set, Tuple

import pytest

from repro.cpu import Emulator
from repro.cpu.reference import DISPATCH
from repro.isa.effects import EFFECTS, WRITTEN, Role
from repro.isa.instructions import Instruction, Mnemonic
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import Register
from tests.cpu.test_codegen_tiers import _BLOB, build_program, start_call

_RBX, _RCX = Reg(Register.RBX), Reg(Register.RCX)
_BRANCHES = (Mnemonic.JMP, Mnemonic.JCC, Mnemonic.CALL)
_QWORD = Mem(base=Register.R15, disp=8)


def _shapes() -> List[Instruction]:
    """Register operands for every mnemonic, plus a memory operand in each
    role the table uses."""
    shapes = []
    for mnemonic, effect in EFFECTS.items():
        operands: Tuple = (_RBX, _RCX)[:len(effect.roles)]
        if mnemonic is Mnemonic.LEA:
            operands = (_RBX, _QWORD)
        elif mnemonic in _BRANCHES:
            operands = (Imm(0, 8),)  # retargeted at the function
        condition = "e" if mnemonic in (Mnemonic.JCC, Mnemonic.CMOV,
                                        Mnemonic.SET) else ""
        shapes.append(Instruction(mnemonic, operands, condition))
    shapes += [Instruction(Mnemonic.PUSH, (_QWORD,)),
               Instruction(Mnemonic.MOV, (_QWORD, _RBX)),
               Instruction(Mnemonic.ADD, (_QWORD, _RBX)),
               Instruction(Mnemonic.CMP, (_RBX, _QWORD))]
    return shapes


class _Recorder:
    """Records the byte addresses a memory's accessors read and write."""

    def __init__(self, memory) -> None:
        self.read: Set[int] = set()
        self.written: Set[int] = set()
        for name, sizer, log in (("read", lambda a, s=8, *_: s, self.read),
                                 ("read_int", lambda a, s=8, *_: s, self.read),
                                 ("read_qword", lambda a, *_: 8, self.read),
                                 ("write", lambda a, data: len(data), self.written),
                                 ("write_int", lambda a, v, s=8: s, self.written),
                                 ("write_qword", lambda a, v: 8, self.written)):
            setattr(memory, name, self._recording(getattr(memory, name), sizer, log))

    @staticmethod
    def _recording(method, sizer, log):
        def recorded(address, *args):
            log.update(range(address, address + sizer(address, *args)))
            return method(address, *args)
        return recorded


def _bytes(emulator, operand: Mem) -> Set[int]:
    address = emulator.effective_address(operand)
    return set(range(address, address + operand.size))


@pytest.mark.parametrize("instruction", _shapes(), ids=str)
def test_one_reference_step_touches_the_declared_bytes(instruction):
    program = build_program([Instruction(Mnemonic.RET)])
    emulator = Emulator(program.memory)
    start_call(emulator, program, [(Register.RAX, 7), (Register.RDX, 0),
                                   (Register.RBX, _BLOB), (Register.RCX, 2)])
    if instruction.mnemonic in _BRANCHES:
        target = program.image.function("f").address
        instruction = Instruction(instruction.mnemonic, (Imm(target, 8),),
                                  instruction.condition)
    effect = EFFECTS[instruction.mnemonic]
    accesses = list(zip(effect.roles, instruction.operands))
    if effect.slot is not None:
        accesses.append((effect.slot.role, effect.slot.operand))
    expected_read: Set[int] = set()
    expected_written: Set[int] = set()
    for role, operand in accesses:
        if type(operand) is Mem and role is not Role.ADDRESS:
            if role in (Role.READ, Role.MODIFY):
                expected_read |= _bytes(emulator, operand)
            if role in WRITTEN:
                expected_written |= _bytes(emulator, operand)
    recorder = _Recorder(emulator.memory)
    DISPATCH[instruction.mnemonic](emulator, instruction)
    assert (recorder.read, recorder.written) == (expected_read, expected_written)


def test_the_stack_slot_column():
    slots = {mnemonic: effect.slot for mnemonic, effect in EFFECTS.items()
             if effect.slot is not None}
    below = Mem(base=Register.RSP, disp=-8)
    top, frame = Mem(base=Register.RSP), Mem(base=Register.RBP)
    assert {mnemonic: (slot.operand, slot.role)
            for mnemonic, slot in slots.items()} == {
        Mnemonic.PUSH: (below, Role.WRITE), Mnemonic.CALL: (below, Role.WRITE),
        Mnemonic.POP: (top, Role.READ), Mnemonic.RET: (top, Role.READ),
        Mnemonic.LEAVE: (frame, Role.READ)}
