"""Architectural CPU state: registers, flags and the instruction pointer."""

from __future__ import annotations

from typing import Callable, Dict

from repro.isa.flags import Flag
from repro.isa.registers import Register

#: Two's-complement mask for 64-bit register arithmetic.
MASK64 = (1 << 64) - 1

#: Value mask per operand width in bytes.  The emulator's hot paths index
#: these tables instead of recomputing ``(1 << (8 * size)) - 1`` per access.
SIZE_MASKS: Dict[int, int] = {1: 0xFF, 2: 0xFFFF, 4: 0xFFFFFFFF, 8: MASK64}

#: Sign bit per operand width in bytes.
SIGN_BITS: Dict[int, int] = {1: 1 << 7, 2: 1 << 15, 4: 1 << 31, 8: 1 << 63}

#: Bit width per operand width in bytes.
BIT_WIDTHS: Dict[int, int] = {1: 8, 2: 16, 4: 32, 8: 64}


class EmulationError(RuntimeError):
    """Raised when emulation cannot proceed (bad fetch, fault, limits)."""


def to_signed(value: int, size: int = 8) -> int:
    """Interpret ``value`` (unsigned, ``size`` bytes) as a signed integer."""
    mask = SIZE_MASKS.get(size)
    if mask is None:
        mask = (1 << (8 * size)) - 1
    value &= mask
    sign_bit = (mask >> 1) + 1
    return value - mask - 1 if value & sign_bit else value


#: Condition code -> predicate over ``(cf, zf, sf, of)``, prebuilt once so
#: :meth:`CpuState.condition` is a table lookup instead of evaluating a dict
#: of twelve comparisons per branch.
CONDITION_TABLE: Dict[str, Callable[[int, int, int, int], bool]] = {
    "e": lambda cf, zf, sf, of: zf == 1,
    "ne": lambda cf, zf, sf, of: zf == 0,
    "l": lambda cf, zf, sf, of: sf != of,
    "ge": lambda cf, zf, sf, of: sf == of,
    "le": lambda cf, zf, sf, of: zf == 1 or sf != of,
    "g": lambda cf, zf, sf, of: zf == 0 and sf == of,
    "b": lambda cf, zf, sf, of: cf == 1,
    "ae": lambda cf, zf, sf, of: cf == 0,
    "be": lambda cf, zf, sf, of: cf == 1 or zf == 1,
    "a": lambda cf, zf, sf, of: cf == 0 and zf == 0,
    "s": lambda cf, zf, sf, of: sf == 1,
    "ns": lambda cf, zf, sf, of: sf == 0,
}


#: Flag -> :class:`CpuState` attribute name holding that flag's value.
_FLAG_ATTRS: Dict[Flag, str] = {Flag.CF: "cf", Flag.ZF: "zf",
                                Flag.SF: "sf", Flag.OF: "of"}


class CpuState:
    """Register file, condition flags and instruction pointer.

    Registers always hold 64-bit unsigned values internally.  Sized accesses
    follow the simplified x86-64 convention documented on
    :class:`repro.isa.operands.Reg`.

    Flags are stored as the plain int attributes ``cf``/``zf``/``sf``/``of``
    (0 or 1 each).  Plain :class:`enum.Enum` members hash through a Python
    level ``__hash__`` (by name), so keeping flags in a ``Dict[Flag, int]``
    made every flag update in the emulator's hot loop pay several interpreted
    hash calls; attribute slots are a single C-level store.  Use
    :meth:`read_flag`/:meth:`write_flag` (or the :attr:`flags` snapshot) for
    ``Flag``-keyed access.
    """

    __slots__ = ("regs", "cf", "zf", "sf", "of", "rip")

    def __init__(self) -> None:
        self.regs: Dict[Register, int] = {reg: 0 for reg in Register}
        self.cf = 0
        self.zf = 0
        self.sf = 0
        self.of = 0
        self.rip: int = 0

    @property
    def flags(self) -> Dict[Flag, int]:
        """A ``Flag``-keyed snapshot of the current flag values.

        This is a *copy* for introspection (tracing, tests, debugging);
        mutate flags through :meth:`write_flag` or the attributes.
        """
        return {Flag.CF: self.cf, Flag.ZF: self.zf,
                Flag.SF: self.sf, Flag.OF: self.of}

    def read_reg(self, reg: Register, size: int = 8) -> int:
        """Read ``size`` low bytes of a register as an unsigned value."""
        value = self.regs[reg]
        if size == 8:
            # registers are stored 64-bit masked, so the full read is free
            return value
        mask = SIZE_MASKS.get(size)
        return value & (mask if mask is not None else (1 << (8 * size)) - 1)

    def write_reg(self, reg: Register, value: int, size: int = 8) -> None:
        """Write ``size`` bytes into a register.

        Size-8 and size-4 writes replace the whole register (4-byte writes
        zero-extend); 1- and 2-byte writes merge into the low bytes.
        """
        mask = SIZE_MASKS.get(size)
        if mask is None:
            mask = (1 << (8 * size)) - 1
        if size >= 4:
            self.regs[reg] = value & mask
        else:
            self.regs[reg] = (self.regs[reg] & ~mask & MASK64) | (value & mask)

    def flags_tuple(self) -> tuple:
        """The four condition flags as a ``(cf, zf, sf, of)`` tuple.

        A stable snapshot accessor for differential tests and other
        consumers that compare whole flag states at once.  (The
        exec-compiled trace tier hoists flags through the plain
        ``cf``/``zf``/``sf``/``of`` attributes directly.)
        """
        return (self.cf, self.zf, self.sf, self.of)

    def read_flag(self, flag: Flag) -> int:
        """Read a condition flag (0 or 1)."""
        return getattr(self, _FLAG_ATTRS[flag])

    def write_flag(self, flag: Flag, value: int) -> None:
        """Set a condition flag to 0 or 1."""
        setattr(self, _FLAG_ATTRS[flag], 1 if value else 0)

    def condition(self, code: str) -> bool:
        """Evaluate a condition code against the current flags."""
        predicate = CONDITION_TABLE.get(code)
        if predicate is None:
            raise EmulationError(f"unknown condition code {code!r}")
        return predicate(self.cf, self.zf, self.sf, self.of)

    def restore_from(self, other: "CpuState") -> None:
        """Overwrite this state with ``other``'s values, in place.

        Keeps the :class:`CpuState` object and its ``regs`` dict identities
        intact, which compiled traces (:mod:`repro.cpu.codegen`) and
        other hot-loop consumers bind directly — the CPU half of the
        emulator's in-place snapshot restore.
        """
        self.regs.update(other.regs)  # both dicts carry every Register key
        self.cf = other.cf
        self.zf = other.zf
        self.sf = other.sf
        self.of = other.of
        self.rip = other.rip

    def fork(self) -> "CpuState":
        """Return an independent copy of the state.

        Registers are a flat dict and flags are plain ints, so forking is a
        single dict copy — the CPU half of the O(1) emulator snapshots
        (:meth:`repro.cpu.Emulator.snapshot`).
        """
        clone = CpuState()
        clone.regs = dict(self.regs)
        clone.cf = self.cf
        clone.zf = self.zf
        clone.sf = self.sf
        clone.of = self.of
        clone.rip = self.rip
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        regs = ", ".join(f"{reg}={value:#x}" for reg, value in self.regs.items() if value)
        return f"<CpuState rip={self.rip:#x} {regs}>"
