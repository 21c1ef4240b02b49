"""What each instruction reads and writes, declared once per mnemonic.

The ROP rewriter is correct only if it knows each instruction's effects:
scratch registers come from liveness (§IV-B1–2), P3 couples to the
input-derived registers a data-flow pass finds (§V-C), and a gadget is
reused only when its side effects spare the live registers (§IV-A1).
:data:`EFFECTS` states, for every mnemonic:

* the :class:`Role` of each explicit operand, destination first — the
  number of roles is the mnemonic's arity, and decoded operands past it are
  ignored by the machine (:func:`repro.cpu.semantics.trim_operands`);
* the registers the machine reads and writes without their being named:
  ``rsp`` for the stack operations, ``rbp`` for ``leave``, ``rax``/``rdx``
  for ``cqo``/``idiv``;
* apart from those, the calling-convention registers: ``call`` uses the
  argument registers and defines the caller-saved ones, the conservative
  footnote-1 liveness of the paper, and ``ret`` uses the return-value
  register.  The machine touches none of them;
* the implicit stack slot, the qword ``push``/``call`` store below ``rsp``
  and ``pop``/``ret``/``leave`` load;
* the condition flags it reads and writes, as the architectural slot names
  of :data:`repro.cpu.semantics.FLAGS`;
* whether it transfers control.

Liveness, the P3 taint pass, TDS, gadget side effects, trace ``rsp``
tracking, the ``Instruction`` flag predicates, the semantics registry and
the DSE shadow's concrete guards and kills
(:mod:`repro.attacks.shadow`) all read this one table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.isa.flags import Flag
from repro.isa.instructions import Instruction, Mnemonic
from repro.isa.operands import Mem, Operand, Reg
from repro.isa.registers import ARG_REGISTERS, CALLER_SAVED, RETURN_REGISTER, Register


class Role(enum.Enum):
    """How an instruction uses one explicit operand."""

    #: only read (a source, a compared value, a jump target)
    READ = "read"
    #: written without reading the old value (``mov``'s destination)
    WRITE = "write"
    #: read, then written (``add``'s destination, both ``xchg`` operands)
    MODIFY = "modify"
    #: only its address is computed: its registers are read, no byte is
    #: (``lea``'s source)
    ADDRESS = "address"


#: The roles that write their operand.
WRITTEN = frozenset({Role.WRITE, Role.MODIFY})


@dataclass(frozen=True)
class Slot:
    """An implicit stack access: the qword ``operand`` addresses with the
    registers' values before the instruction, loaded (``READ``) or stored
    (``WRITE``)."""

    operand: Mem
    role: Role


@dataclass(frozen=True)
class Effect:
    """The effects of one mnemonic.

    Attributes:
        roles: the role of each explicit operand, destination first.
        uses: registers the machine reads without their being named.
        defs: registers the machine writes without their being named.
        convention_uses: calling-convention registers liveness counts as
            used, which the machine does not read.
        convention_defs: calling-convention registers liveness counts as
            defined, which the machine does not write.
        slot: the implicit stack slot loaded or stored, if any.
        flags_read: flag slots the behaviour depends on.
        flags_written: flag slots the instruction defines.
        control: True when it may divert the instruction pointer.
    """

    roles: Tuple[Role, ...]
    uses: FrozenSet[Register] = frozenset()
    defs: FrozenSet[Register] = frozenset()
    convention_uses: FrozenSet[Register] = frozenset()
    convention_defs: FrozenSet[Register] = frozenset()
    slot: Optional[Slot] = None
    flags_read: FrozenSet[str] = frozenset()
    flags_written: FrozenSet[str] = frozenset()
    control: bool = False


_R, _W, _M, _A = Role.READ, Role.WRITE, Role.MODIFY, Role.ADDRESS
_ALL_FLAGS = frozenset(flag.value for flag in Flag)
_RSP = frozenset({Register.RSP})
_DIVIDEND = frozenset({Register.RAX, Register.RDX})
_PUSHED = Slot(Mem(base=Register.RSP, disp=-8), _W)
_POPPED = Slot(Mem(base=Register.RSP), _R)


def _alu(*roles: Role, reads: FrozenSet[str] = frozenset(),
         writes: FrozenSet[str] = _ALL_FLAGS) -> Effect:
    return Effect(roles, flags_read=reads, flags_written=writes)


#: Mnemonic -> its effects.
EFFECTS: Dict[Mnemonic, Effect] = {
    Mnemonic.MOV: Effect((_W, _R)),
    Mnemonic.MOVZX: Effect((_W, _R)),
    Mnemonic.MOVSX: Effect((_W, _R)),
    Mnemonic.LEA: Effect((_W, _A)),
    Mnemonic.XCHG: Effect((_M, _M)),
    Mnemonic.PUSH: Effect((_R,), uses=_RSP, defs=_RSP, slot=_PUSHED),
    Mnemonic.POP: Effect((_W,), uses=_RSP, defs=_RSP, slot=_POPPED),
    **{mnemonic: _alu(_M, _R) for mnemonic in (
        Mnemonic.ADD, Mnemonic.SUB, Mnemonic.AND, Mnemonic.OR, Mnemonic.XOR,
        Mnemonic.SHL, Mnemonic.SHR, Mnemonic.SAR, Mnemonic.IMUL)},
    Mnemonic.ADC: _alu(_M, _R, reads=frozenset({Flag.CF.value})),
    Mnemonic.SBB: _alu(_M, _R, reads=frozenset({Flag.CF.value})),
    Mnemonic.CMP: _alu(_R, _R),
    Mnemonic.TEST: _alu(_R, _R),
    Mnemonic.NEG: _alu(_M),
    Mnemonic.NOT: Effect((_M,)),
    # INC/DEC leave CF alone
    Mnemonic.INC: _alu(_M, writes=_ALL_FLAGS - {Flag.CF.value}),
    Mnemonic.DEC: _alu(_M, writes=_ALL_FLAGS - {Flag.CF.value}),
    Mnemonic.CQO: Effect((), uses=frozenset({Register.RAX}),
                         defs=frozenset({Register.RDX})),
    Mnemonic.IDIV: Effect((_R,), uses=_DIVIDEND, defs=_DIVIDEND),
    # a condition code may consult any flag; a false cmov keeps its
    # destination
    Mnemonic.CMOV: Effect((_M, _R), flags_read=_ALL_FLAGS),
    Mnemonic.SET: Effect((_W,), flags_read=_ALL_FLAGS),
    Mnemonic.JMP: Effect((_R,), control=True),
    Mnemonic.JCC: Effect((_R,), flags_read=_ALL_FLAGS, control=True),
    Mnemonic.CALL: Effect((_R,), uses=_RSP, defs=_RSP,
                          convention_uses=frozenset(ARG_REGISTERS),
                          convention_defs=frozenset(CALLER_SAVED),
                          slot=_PUSHED, control=True),
    Mnemonic.RET: Effect((), uses=_RSP, defs=_RSP,
                         convention_uses=frozenset({RETURN_REGISTER}),
                         slot=_POPPED, control=True),
    # ``mov rsp, rbp; pop rbp``: the slot is where rbp points
    Mnemonic.LEAVE: Effect((), uses=frozenset({Register.RBP}) | _RSP,
                           defs=frozenset({Register.RBP}) | _RSP,
                           slot=Slot(Mem(base=Register.RBP), _R)),
    Mnemonic.NOP: Effect(()),
    Mnemonic.HLT: Effect((), control=True),
}

if frozenset(EFFECTS) != frozenset(Mnemonic):
    raise RuntimeError("effect table incomplete: "
                       f"{sorted(m.name for m in frozenset(Mnemonic) - frozenset(EFFECTS))}")

#: Mnemonic -> the number of explicit operands it reads or writes.
ARITY: Dict[Mnemonic, int] = {mnemonic: len(effect.roles)
                              for mnemonic, effect in EFFECTS.items()}


def operand_registers(operand: Operand) -> Set[Register]:
    """The registers ``operand`` names: a register, or a memory operand's
    base and index."""
    if isinstance(operand, Reg):
        return {operand.reg}
    if isinstance(operand, Mem):
        return {r for r in (operand.base, operand.index) if r is not None}
    return set()


def instruction_uses_defs(instruction: Instruction) -> Tuple[Set[Register], Set[Register]]:
    """Return ``(uses, defs)``, the registers ``instruction`` reads and
    writes, the calling-convention ones included.

    A register operand in a written role is defined, and also used when the
    role reads it or when the write is 1 or 2 bytes wide (it merges into the
    old value).  A memory operand uses its base and index.  Operands past
    the arity are ignored, as the machine ignores them; a decode with fewer
    operands than the arity contributes the implicit registers and the
    operands it has.
    """
    effect = EFFECTS[instruction.mnemonic]
    uses = set(effect.uses | effect.convention_uses)
    defs = set(effect.defs | effect.convention_defs)
    for role, operand in zip(effect.roles, instruction.operands):
        if isinstance(operand, Reg):
            if role in WRITTEN:
                defs.add(operand.reg)
            if role is not Role.WRITE or operand.size < 4:
                uses.add(operand.reg)
        elif isinstance(operand, Mem):
            uses |= operand_registers(operand)
    return uses, defs
