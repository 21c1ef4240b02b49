"""Reference interpreter: the ISA's concrete semantics as plain handlers.

One ``handler(emulator, instruction)`` function per mnemonic, written
directly against :class:`~repro.cpu.emulator.Emulator`'s operand, stack and
flag helpers, and one :func:`run` loop that steps an emulator through them
one instruction at a time.  No production module runs this code: every
emulator mode executes the compiled steps and traces of
:mod:`repro.cpu.codegen`.  The module is the independent yardstick those
are checked against — the tier differentials under ``tests/cpu`` and the
emulator bench's compiled-over-single-step ratio gate run it — and it
registers as the ``reference`` tier, so the static contract checker
(``python -m repro.analysis.lint``) holds its flag writes to
:mod:`repro.cpu.semantics` like every other tier's.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.binary.sections import HOST_FUNCTION_LIMIT
from repro.cpu import semantics as _semantics
from repro.cpu.emulator import Emulator
from repro.cpu.host import EXIT_ADDRESS, is_host_address
from repro.cpu.state import (
    BIT_WIDTHS,
    EmulationError,
    SIGN_BITS,
    SIZE_MASKS,
    to_signed,
)
from repro.isa.effects import ARITY
from repro.isa.instructions import Instruction, Mnemonic
from repro.isa.operands import Mem, Reg
from repro.isa.registers import Register
from repro.memory import MemoryError_

#: 64-bit mask.
_MASK64 = (1 << 64) - 1


def run(emulator: Emulator, limit: int) -> None:
    """Run ``emulator`` through the handlers until it halts, reaches
    :data:`EXIT_ADDRESS` or executes ``limit`` steps in total.

    This is :meth:`Emulator.run`'s contract without trace fusion: every
    hook in :attr:`Emulator.pre_hooks` sees each instruction, in list
    order, before it executes; ``rip`` then advances past the instruction
    and its handler runs.  A fault leaves ``rip`` past the instruction and
    ``steps`` unadvanced.  Host functions and the exit sentinel are not
    hooked.

    Each address's handler is resolved once per call and memoized with
    the decode entry's region generation, so a step costs one dict probe,
    as it did when the emulator's decode entries carried the handler.
    """
    state = emulator.state
    host_space_end = HOST_FUNCTION_LIMIT
    hooks = list(emulator.pre_hooks)
    resolved: Dict[int, tuple] = {}
    resolved_get = resolved.get
    while not emulator.halted:
        if emulator.steps >= limit:
            raise EmulationError(f"instruction budget exhausted ({limit})")
        address = state.rip
        if address <= host_space_end:
            if address == EXIT_ADDRESS:
                emulator.halted = True
                return
            if is_host_address(address):
                emulator._run_host_function(address)
                emulator.steps += 1
                continue
            # unmapped low address: fall through so fetch reports the fault
        # (region, generation, length, decoded, executed, handler)
        entry = resolved_get(address)
        if entry is None or entry[0].generation != entry[1]:
            entry = resolved[address] = _resolve(emulator, address)
        if hooks:
            for hook in hooks:
                hook(emulator, address, entry[3])
        state.rip = (address + entry[2]) & _MASK64
        handler = entry[5]
        if handler is None:
            raise EmulationError(f"unimplemented instruction {entry[3]}")
        handler(emulator, entry[4])
        emulator.steps += 1


def _resolve(emulator: Emulator, address: int) -> tuple:
    """The memo entry :func:`run` keeps for ``address``: the decode's region,
    generation and length, the decoded instruction (what hooks see), the
    instruction its handler executes (trimmed to the operands the mnemonic
    reads) and the handler, None for a decode missing an operand."""
    instruction, length, region, generation = \
        emulator.decode_entry(address)[:4]
    handler = DISPATCH[instruction.mnemonic]
    if len(instruction.operands) < ARITY[instruction.mnemonic]:
        handler = None
    return (region, generation, length, instruction,
            _semantics.trim_operands(instruction), handler)


def write_operand(emulator: Emulator, operand, value: int) -> None:
    """Write ``value`` to a register or memory operand."""
    cls = type(operand)
    if cls is Reg:
        emulator.state.write_reg(operand.reg, value, operand.size)
        return
    if cls is Mem:
        try:
            emulator.memory.write_int(emulator.effective_address(operand),
                                      value, operand.size)
        except MemoryError_ as exc:
            raise EmulationError(str(exc)) from exc
        return
    raise EmulationError(f"cannot write operand {operand!r}")


# -- instruction handlers ------------------------------------------------------

def _op_nop(emulator: Emulator, instruction: Instruction) -> None:
    return


def _op_hlt(emulator: Emulator, instruction: Instruction) -> None:
    emulator.halted = True


def _op_mov(emulator: Emulator, instruction: Instruction) -> None:
    ops = instruction.operands
    write_operand(emulator, ops[0], emulator.read_operand(ops[1]))


def _op_movsx(emulator: Emulator, instruction: Instruction) -> None:
    ops = instruction.operands
    src = ops[1]
    value = to_signed(emulator.read_operand(src), getattr(src, "size", 8))
    write_operand(emulator, ops[0], value & _MASK64)


def _op_lea(emulator: Emulator, instruction: Instruction) -> None:
    ops = instruction.operands
    if not isinstance(ops[1], Mem):
        raise EmulationError("lea requires a memory source")
    write_operand(emulator, ops[0], emulator.effective_address(ops[1]))


def _op_xchg(emulator: Emulator, instruction: Instruction) -> None:
    first, second = instruction.operands[0], instruction.operands[1]
    a, b = emulator.read_operand(first), emulator.read_operand(second)
    if type(second) is Mem:
        # x86 stores at the pre-instruction address, and a faulting
        # store leaves the register operand alone: store first
        write_operand(emulator, second, a)
        write_operand(emulator, first, b)
    else:
        write_operand(emulator, first, b)
        write_operand(emulator, second, a)


def _op_push(emulator: Emulator, instruction: Instruction) -> None:
    emulator.push(emulator.read_operand(instruction.operands[0]))


def _op_pop(emulator: Emulator, instruction: Instruction) -> None:
    # ROP dispatch is pop/ret heavy; inline the pop to skip a call frame
    operand = instruction.operands[0]
    state = emulator.state
    rsp = state.regs[Register.RSP]
    try:
        value = emulator.memory.read_int(rsp, 8)
    except MemoryError_ as exc:
        raise EmulationError(str(exc)) from exc
    state.regs[Register.RSP] = (rsp + 8) & _MASK64
    if type(operand) is Reg and operand.size == 8:
        state.regs[operand.reg] = value
    else:
        write_operand(emulator, operand, value)


def _op_add(emulator: Emulator, instruction: Instruction) -> None:
    ops = instruction.operands
    size = getattr(ops[0], "size", 8)
    result = emulator._set_add_flags(emulator.read_operand(ops[0]),
                                     emulator.read_operand(ops[1]), 0, size)
    write_operand(emulator, ops[0], result)


def _op_adc(emulator: Emulator, instruction: Instruction) -> None:
    ops = instruction.operands
    size = getattr(ops[0], "size", 8)
    carry = emulator.state.cf
    result = emulator._set_add_flags(emulator.read_operand(ops[0]),
                                     emulator.read_operand(ops[1]), carry,
                                     size)
    write_operand(emulator, ops[0], result)


def _op_sub(emulator: Emulator, instruction: Instruction) -> None:
    ops = instruction.operands
    size = getattr(ops[0], "size", 8)
    result = emulator._set_sub_flags(emulator.read_operand(ops[0]),
                                     emulator.read_operand(ops[1]), 0, size)
    write_operand(emulator, ops[0], result)


def _op_sbb(emulator: Emulator, instruction: Instruction) -> None:
    ops = instruction.operands
    size = getattr(ops[0], "size", 8)
    borrow = emulator.state.cf
    result = emulator._set_sub_flags(emulator.read_operand(ops[0]),
                                     emulator.read_operand(ops[1]), borrow,
                                     size)
    write_operand(emulator, ops[0], result)


def _op_cmp(emulator: Emulator, instruction: Instruction) -> None:
    ops = instruction.operands
    size = getattr(ops[0], "size", 8)
    emulator._set_sub_flags(emulator.read_operand(ops[0]),
                            emulator.read_operand(ops[1]), 0, size)


def _op_test(emulator: Emulator, instruction: Instruction) -> None:
    ops = instruction.operands
    size = getattr(ops[0], "size", 8)
    emulator._set_logic_flags(emulator.read_operand(ops[0])
                              & emulator.read_operand(ops[1]), size)


def _op_and(emulator: Emulator, instruction: Instruction) -> None:
    ops = instruction.operands
    size = getattr(ops[0], "size", 8)
    result = emulator.read_operand(ops[0]) & emulator.read_operand(ops[1])
    emulator._set_logic_flags(result, size)
    write_operand(emulator, ops[0], result)


def _op_or(emulator: Emulator, instruction: Instruction) -> None:
    ops = instruction.operands
    size = getattr(ops[0], "size", 8)
    result = emulator.read_operand(ops[0]) | emulator.read_operand(ops[1])
    emulator._set_logic_flags(result, size)
    write_operand(emulator, ops[0], result)


def _op_xor(emulator: Emulator, instruction: Instruction) -> None:
    ops = instruction.operands
    size = getattr(ops[0], "size", 8)
    result = emulator.read_operand(ops[0]) ^ emulator.read_operand(ops[1])
    emulator._set_logic_flags(result, size)
    write_operand(emulator, ops[0], result)


def _op_neg(emulator: Emulator, instruction: Instruction) -> None:
    ops = instruction.operands
    size = getattr(ops[0], "size", 8)
    value = emulator.read_operand(ops[0])
    result = emulator._set_sub_flags(0, value, 0, size)
    emulator.state.cf = 1 if value != 0 else 0
    write_operand(emulator, ops[0], result)


def _op_not(emulator: Emulator, instruction: Instruction) -> None:
    ops = instruction.operands
    size = getattr(ops[0], "size", 8)
    mask = SIZE_MASKS[size]
    write_operand(emulator, ops[0], (~emulator.read_operand(ops[0])) & mask)


def _shift(emulator: Emulator, instruction: Instruction,
           mnemonic: Mnemonic) -> None:
    ops = instruction.operands
    size = getattr(ops[0], "size", 8)
    bits = BIT_WIDTHS[size]
    mask = SIZE_MASKS[size]
    value = emulator.read_operand(ops[0])
    # x86 masks the count by the operand width: 6 bits for 64-bit
    # operands, 5 bits for everything narrower
    amount = emulator.read_operand(ops[1]) & (0x3F if size == 8 else 0x1F)
    if amount == 0:
        # x86: a masked count of zero modifies neither flags nor the
        # destination
        return
    if mnemonic is Mnemonic.SHL:
        result = (value << amount) & mask
        carry = (value >> (bits - amount)) & 1 if amount <= bits else 0
        # OF is defined only for 1-bit shifts (CF ^ MSB(result)); this
        # emulator fixes it at 0 for wider counts in every tier
        overflow = carry ^ ((result >> (bits - 1)) & 1) if amount == 1 else 0
    elif mnemonic is Mnemonic.SHR:
        result = (value & mask) >> amount
        carry = (value >> (amount - 1)) & 1
        # 1-bit SHR: OF = MSB of the original operand
        overflow = (value >> (bits - 1)) & 1 if amount == 1 else 0
    else:
        signed = to_signed(value, size)
        result = (signed >> amount) & mask
        # shift the *signed* value for the carry too, so counts past the
        # operand width shift out copies of the sign bit like x86 does
        carry = (signed >> (amount - 1)) & 1
        overflow = 0  # SAR: the sign never changes
    state = emulator.state
    state.cf = carry
    state.of = overflow
    state.zf = 1 if result == 0 else 0
    state.sf = 1 if result & SIGN_BITS[size] else 0
    write_operand(emulator, ops[0], result)


def _op_shl(emulator: Emulator, instruction: Instruction) -> None:
    _shift(emulator, instruction, Mnemonic.SHL)


def _op_shr(emulator: Emulator, instruction: Instruction) -> None:
    _shift(emulator, instruction, Mnemonic.SHR)


def _op_sar(emulator: Emulator, instruction: Instruction) -> None:
    _shift(emulator, instruction, Mnemonic.SAR)


def _op_imul(emulator: Emulator, instruction: Instruction) -> None:
    ops = instruction.operands
    size = getattr(ops[0], "size", 8)
    bits = BIT_WIDTHS[size]
    a = to_signed(emulator.read_operand(ops[0]), size)
    b = to_signed(emulator.read_operand(ops[1]), size)
    full = a * b
    result = full & SIZE_MASKS[size]
    overflow = not (-(1 << (bits - 1)) <= full < (1 << (bits - 1)))
    emulator._set_logic_flags(result, size)
    state = emulator.state
    state.cf = 1 if overflow else 0
    state.of = 1 if overflow else 0
    write_operand(emulator, ops[0], result)


def _op_cqo(emulator: Emulator, instruction: Instruction) -> None:
    rax = to_signed(emulator.state.regs[Register.RAX])
    emulator.state.regs[Register.RDX] = _MASK64 if rax < 0 else 0


def _op_idiv(emulator: Emulator, instruction: Instruction) -> None:
    state = emulator.state
    divisor = to_signed(emulator.read_operand(instruction.operands[0]))
    if divisor == 0:
        raise EmulationError("integer division by zero")
    dividend = to_signed(state.regs[Register.RAX])
    # exact integer division truncating toward zero (a float quotient
    # loses precision above 2**53)
    quotient = abs(dividend) // abs(divisor)
    if (dividend < 0) != (divisor < 0):
        quotient = -quotient
    if quotient == 1 << 63:  # INT64_MIN / -1: x86 raises #DE
        raise EmulationError("integer division overflow")
    state.regs[Register.RAX] = quotient & _MASK64
    state.regs[Register.RDX] = (dividend - quotient * divisor) & _MASK64


def _op_inc(emulator: Emulator, instruction: Instruction) -> None:
    ops = instruction.operands
    size = getattr(ops[0], "size", 8)
    state = emulator.state
    saved_cf = state.cf
    result = emulator._set_add_flags(emulator.read_operand(ops[0]), 1, 0, size)
    state.cf = saved_cf
    write_operand(emulator, ops[0], result)


def _op_dec(emulator: Emulator, instruction: Instruction) -> None:
    ops = instruction.operands
    size = getattr(ops[0], "size", 8)
    state = emulator.state
    saved_cf = state.cf
    result = emulator._set_sub_flags(emulator.read_operand(ops[0]), 1, 0, size)
    state.cf = saved_cf
    write_operand(emulator, ops[0], result)


def _op_cmov(emulator: Emulator, instruction: Instruction) -> None:
    if emulator.state.condition(instruction.condition):
        ops = instruction.operands
        write_operand(emulator, ops[0], emulator.read_operand(ops[1]))


def _op_set(emulator: Emulator, instruction: Instruction) -> None:
    value = 1 if emulator.state.condition(instruction.condition) else 0
    write_operand(emulator, instruction.operands[0], value)


def _op_jmp(emulator: Emulator, instruction: Instruction) -> None:
    emulator.state.rip = emulator.read_operand(instruction.operands[0])


def _op_jcc(emulator: Emulator, instruction: Instruction) -> None:
    if emulator.state.condition(instruction.condition):
        emulator.state.rip = emulator.read_operand(instruction.operands[0])


def _op_call(emulator: Emulator, instruction: Instruction) -> None:
    state = emulator.state
    target = emulator.read_operand(instruction.operands[0])
    emulator.push(state.rip)
    state.rip = target


def _op_ret(emulator: Emulator, instruction: Instruction) -> None:
    # the single hottest instruction in a ROP chain: inline pop entirely
    state = emulator.state
    rsp = state.regs[Register.RSP]
    try:
        state.rip = emulator.memory.read_int(rsp, 8)
    except MemoryError_ as exc:
        raise EmulationError(str(exc)) from exc
    state.regs[Register.RSP] = (rsp + 8) & _MASK64


def _op_leave(emulator: Emulator, instruction: Instruction) -> None:
    state = emulator.state
    state.regs[Register.RSP] = state.regs[Register.RBP]
    state.write_reg(Register.RBP, emulator.pop())


#: Mnemonic -> handler, derived from the semantics registry so dispatch and
#: the declared per-mnemonic contracts cannot drift.
DISPATCH: Dict[Mnemonic, Callable[[Emulator, Instruction], None]] = {
    mnemonic: globals()[name]
    for mnemonic, name in _semantics.handler_table().items()}


#: The reference covers every mnemonic through its handler table.
#: Registration validates that at import and feeds the static contract
#: checker.
_semantics.register_tier(
    "reference", __name__,
    covered=_semantics.handler_table(), flag_style="attributes")
