"""The gadget vocabulary: every gadget kind, declared once.

Each :class:`GadgetKind` holds the instruction template of one semantic
operation, with :class:`Hole` operands filled from the kind's parameters
(``dst``, ``src``, ``cc``, ...), plus the registers the operation touches
implicitly and whether it redirects ``rsp``.  The same template serves both
gadget sources of §IV-A1: :class:`repro.gadgets.pool.GadgetPool`
synthesizes a missing gadget by filling it in, and
:func:`repro.gadgets.classify.classify_gadget` lets a gadget found in
unobfuscated code join the pool only when the template, filled with the
parameters read off the gadget, reproduces its body exactly.  A lookalike
that behaves differently (``mov al, [rbx]`` merges a byte where ``load1``
zero-extends; ``add eax, ebx`` truncates where ``add_rr`` does not) is
therefore never reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Literal, Mapping, Optional, Sequence, Tuple, Union

from repro.isa.instructions import Instruction, Mnemonic
from repro.isa.operands import Imm, Mem, Operand, Reg
from repro.isa.registers import Register

#: A kind parameter: a register, a condition code (``cc``) or an address.
Param = Union[Register, str, int]
Params = Mapping[str, Param]


@dataclass(frozen=True)
class Hole:
    """A template operand filled from the parameter ``param``.

    ``form`` is ``"reg"`` (the register, viewed at ``size`` bytes),
    ``"mem"`` (``[param]``), ``"abs"`` (the absolute address ``[param]``)
    or ``"imm"`` (a ``size``-byte immediate).
    """

    param: str
    form: Literal["reg", "mem", "abs", "imm"] = "reg"
    size: int = 8

    def fill(self, value: Param) -> Operand:
        """The operand this hole becomes for ``value``."""
        if self.form == "imm":
            return Imm(int(value), self.size)
        if self.form == "abs":
            return Mem(disp=int(value), size=self.size)
        if self.form == "mem":
            return Mem(base=Register(value), size=self.size)
        return Reg(Register(value), self.size)

    def read(self, operand: Operand) -> Optional[Param]:
        """The parameter value ``operand`` would bind, or None."""
        if self.form == "reg" and isinstance(operand, Reg):
            return operand.reg
        if self.form == "mem" and isinstance(operand, Mem):
            return operand.base
        if self.form == "abs" and isinstance(operand, Mem):
            return operand.disp
        if self.form == "imm" and isinstance(operand, Imm):
            return operand.value
        return None


#: One template instruction: a mnemonic and its operand patterns.  A
#: ``CMOV``/``SET`` takes its condition code from the ``cc`` parameter.
Shape = Tuple[Mnemonic, Tuple[Union[Operand, Hole], ...]]

_CONDITIONAL = (Mnemonic.CMOV, Mnemonic.SET)


@dataclass(frozen=True)
class GadgetKind:
    """One semantic gadget operation.

    Attributes:
        name: the kind's name (``"pop"``, ``"add_rr"``, ``"load8"``, ...).
        body: the template, terminator excluded.
        implicit: registers the operation reads or writes without naming
            them (``cqo``/``idiv``: ``rax`` and ``rdx``).
        redirects_rsp: True when the operation moves the chain pointer, so
            nothing may be popped after it.
        returns: True when the gadget ends in ``ret`` (False for the
            ``jmp``-terminated call gadget).
    """

    name: str
    body: Tuple[Shape, ...]
    implicit: FrozenSet[Register] = frozenset()
    redirects_rsp: bool = False
    returns: bool = True

    def instructions(self, params: Params) -> List[Instruction]:
        """The gadget for ``params``, terminator included."""
        instructions = [
            Instruction(mnemonic,
                        tuple(op.fill(params[op.param]) if isinstance(op, Hole) else op
                              for op in operands),
                        str(params["cc"]) if mnemonic in _CONDITIONAL else "")
            for mnemonic, operands in self.body
        ]
        if self.returns:
            instructions.append(Instruction(Mnemonic.RET))
        return instructions

    def match(self, instructions: Sequence[Instruction]) -> Optional[Dict[str, Param]]:
        """The parameters for which this kind's gadget is ``instructions``.

        Returns None unless filling the template with the parameters read
        off ``instructions`` reproduces them exactly.
        """
        if len(instructions) != len(self.body) + self.returns:
            return None
        params: Dict[str, Param] = {}
        for (mnemonic, operands), instruction in zip(self.body, instructions):
            if instruction.mnemonic is not mnemonic \
                    or len(instruction.operands) != len(operands):
                return None
            if mnemonic in _CONDITIONAL:
                params["cc"] = instruction.condition
            for pattern, operand in zip(operands, instruction.operands):
                if isinstance(pattern, Hole):
                    value = pattern.read(operand)
                    if value is None:
                        return None
                    params.setdefault(pattern.param, value)
        return params if self.instructions(params) == list(instructions) else None

    def effect(self, params: Params) -> FrozenSet[Register]:
        """Registers the operation changes on purpose: ``dst``, the
        implicit operands and, for redirecting kinds, ``rsp``."""
        effect = set(self.implicit)
        dst = params.get("dst")
        if isinstance(dst, Register):
            effect.add(dst)
        if self.redirects_rsp:
            effect.add(Register.RSP)
        return frozenset(effect)


def _reg(param: str, size: int = 8) -> Hole:
    return Hole(param, "reg", size)


def _mem(param: str, size: int = 8) -> Hole:
    return Hole(param, "mem", size)


_RSP = Reg(Register.RSP)
_R11 = Reg(Register.R11)

#: The binary register-register ALU kinds, one ``<mnemonic>_rr`` kind each.
ALU_KINDS: Dict[Mnemonic, str] = {
    mnemonic: f"{mnemonic.value}_rr" for mnemonic in (
        Mnemonic.ADD, Mnemonic.SUB, Mnemonic.AND, Mnemonic.OR, Mnemonic.XOR,
        Mnemonic.ADC, Mnemonic.SBB, Mnemonic.IMUL, Mnemonic.SHL, Mnemonic.SHR,
        Mnemonic.SAR, Mnemonic.CMP, Mnemonic.TEST,
    )
}

_TABLE: Tuple[GadgetKind, ...] = (
    GadgetKind("pop", ((Mnemonic.POP, (_reg("dst"),)),)),
    GadgetKind("mov_rr", ((Mnemonic.MOV, (_reg("dst"), _reg("src"))),)),
    # the rsp-redirecting kinds precede the general kinds that would
    # otherwise read ``add rsp, r`` / ``mov rsp, [r]`` with dst=rsp
    GadgetKind("add_rsp_r", ((Mnemonic.ADD, (_RSP, _reg("src"))),), redirects_rsp=True),
    GadgetKind("mov_rsp_mem", ((Mnemonic.MOV, (_RSP, _mem("src"))),), redirects_rsp=True),
    *(GadgetKind(name, ((mnemonic, (_reg("dst"), _reg("src"))),))
      for mnemonic, name in ALU_KINDS.items()),
    GadgetKind("neg", ((Mnemonic.NEG, (_reg("dst"),)),)),
    GadgetKind("not", ((Mnemonic.NOT, (_reg("dst"),)),)),
    *(GadgetKind(f"load{size}", ((Mnemonic.MOV if size == 8 else Mnemonic.MOVZX,
                                  (_reg("dst"), _mem("src", size))),))
      for size in (1, 2, 4, 8)),
    *(GadgetKind(f"store{size}", ((Mnemonic.MOV, (_mem("dst", size), _reg("src", size))),))
      for size in (1, 2, 4, 8)),
    GadgetKind("movzx_rr1", ((Mnemonic.MOVZX, (_reg("dst"), _reg("src", 1))),)),
    GadgetKind("movsx_rr1", ((Mnemonic.MOVSX, (_reg("dst"), _reg("src", 1))),)),
    GadgetKind("cmov", ((Mnemonic.CMOV, (_reg("dst"), _reg("src"))),)),
    GadgetKind("set", ((Mnemonic.SET, (_reg("dst", 1),)),)),
    GadgetKind("add_r_mem", ((Mnemonic.ADD, (_reg("dst"), _mem("dst"))),)),
    GadgetKind("sub_mem_r", ((Mnemonic.SUB, (_mem("dst"), _reg("src"))),)),
    GadgetKind("cqo", ((Mnemonic.CQO, ()),),
               implicit=frozenset({Register.RAX, Register.RDX})),
    GadgetKind("idiv", ((Mnemonic.IDIV, (_reg("src"),)),),
               implicit=frozenset({Register.RAX, Register.RDX})),
    GadgetKind("spill", ((Mnemonic.MOV, (Hole("slot", "abs"), _reg("src"))),)),
    GadgetKind("unspill", ((Mnemonic.MOV, (_reg("dst"), Hole("slot", "abs"))),)),
    # the call gadget: swap in the callee frame's stack and jump to it
    GadgetKind("xchg_rsp_mem_jmp", ((Mnemonic.XCHG, (_RSP, _mem("mem"))),
                                    (Mnemonic.JMP, (_reg("target"),))),
               redirects_rsp=True, returns=False),
    # the return-into-chain gadget: reload rsp from the stack-switching
    # array's innermost cell
    GadgetKind("func_ret", ((Mnemonic.MOV, (_R11, Hole("ss", "imm", 4))),
                            (Mnemonic.ADD, (_R11, Mem(base=Register.R11))),
                            (Mnemonic.XCHG, (_RSP, Mem(base=Register.R11)))),
               redirects_rsp=True),
)

#: Every gadget kind by name, in classification order.
KINDS: Dict[str, GadgetKind] = {kind.name: kind for kind in _TABLE}
