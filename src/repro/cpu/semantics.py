"""Declarative per-mnemonic semantic contracts shared by every tier.

The emulator executes the same 35-mnemonic ISA through two production
implementations — the source emitters of :mod:`repro.cpu.codegen`, which
build both the compiled traces and the one-instruction steps every run
mode executes, and the DSE symbolic mirror (:mod:`repro.attacks.shadow`)
— plus the test-only reference interpreter (:mod:`repro.cpu.reference`)
the tier differentials and the emulator bench compare them against.  That
redundancy has failed before: the x86 shift-flag corner cases drifted
between tiers and were only caught dynamically, by hypothesis
differentials, after the fact.

This module is the single declarative statement of what each mnemonic does
to the architectural flag slots, which operand counts it accepts, and which
special-case rules every implementation must honour (width-masked shift
counts, the masked-zero-count no-op, OF defined only for 1-bit shifts, the
sub-register width merge).  Each tier *registers* against it at import time
(:func:`register_tier`), mapping every mnemonic to the one function that
implements it: no tier declines any.  The static checker (``python -m
repro.analysis.lint``) verifies, without executing anything, that the flag
slots each of those functions actually assigns match the contract, and
that the zero-count guard exists wherever a tier covers a shift.  A future
native tier registers the same way and inherits the same gate.

Everything here is plain data built once at import; the hot loops never
consult the registry (:func:`trim_operands` runs once per compiled step or
shadow transfer, not per executed instruction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.isa.instructions import Instruction, Mnemonic

#: Architectural flag slots every tier models (``CpuState.cf`` …).
FLAGS: Tuple[str, ...] = ("cf", "of", "zf", "sf")

#: Special-case rule identifiers used in :attr:`MnemonicSemantics.specials`.
#: ``zero_count_noop`` — a width-masked shift count of 0 modifies neither
#: flags nor destination (the PR 5 bug class); the checker statically
#: requires a ``count == 0`` early-out in every tier covering a shift.
#: ``count_masked`` — shift counts are masked to 6 bits for 64-bit operands
#: and 5 bits otherwise *before* the zero test.
#: ``of_one_bit_only`` — OF is architecturally defined only for 1-bit
#: shifts (SHL: CF ^ MSB(result); SHR: MSB(original); SAR: 0); wider
#: counts pin it to 0 in every tier.
#: ``width_merge`` — sub-64-bit register destinations merge into the full
#: register per ``CpuState.write_reg`` (32-bit writes zero the upper half).
#: ``zf_sf_pinned`` — hardware leaves ZF/SF undefined here; the
#: reproduction pins them from the result identically in every tier.
SPECIAL_RULES: Tuple[str, ...] = ("zero_count_noop", "count_masked",
                                  "of_one_bit_only", "width_merge",
                                  "zf_sf_pinned")


@dataclass(frozen=True)
class MnemonicSemantics:
    """The cross-tier contract for one mnemonic."""

    mnemonic: Mnemonic
    #: Handler function name in the reference interpreter
    #: (:mod:`repro.cpu.reference`) — its dispatch table is derived from
    #: this field (:func:`handler_table`), so registry and dispatch cannot
    #: drift.
    handler: str
    #: Operand counts the decoder can deliver for this mnemonic.
    operand_counts: Tuple[int, ...]
    #: Flag slots the instruction defines (a tier implementing it must
    #: assign exactly these, modulo ``flags_preserved``).
    flags_written: FrozenSet[str]
    #: Flag slots the instruction's behaviour depends on.
    flags_read: FrozenSet[str]
    #: Flag slots the instruction leaves untouched but an implementation
    #: may legitimately assign in order to restore them (INC/DEC save and
    #: restore CF around their shared add/sub flag helpers).
    flags_preserved: FrozenSet[str]
    #: Special-case rules from :data:`SPECIAL_RULES`.
    specials: FrozenSet[str]


SEMANTICS: Dict[Mnemonic, MnemonicSemantics] = {}

_ALL_FLAGS = frozenset(FLAGS)
_CONDITION_FLAGS = frozenset(FLAGS)  # condition codes may consult any flag
_NONE: FrozenSet[str] = frozenset()


def _sem(mnemonic: Mnemonic, handler: str, operand_counts: Tuple[int, ...],
         writes: FrozenSet[str] = _NONE, reads: FrozenSet[str] = _NONE,
         preserves: FrozenSet[str] = _NONE,
         specials: Iterable[str] = ()) -> None:
    special_set = frozenset(specials)
    unknown = special_set - frozenset(SPECIAL_RULES)
    if unknown:
        raise ValueError(f"unknown special rule(s) {sorted(unknown)} "
                         f"for {mnemonic.name}")
    SEMANTICS[mnemonic] = MnemonicSemantics(
        mnemonic=mnemonic, handler=handler, operand_counts=operand_counts,
        flags_written=writes, flags_read=reads, flags_preserved=preserves,
        specials=special_set)


_sem(Mnemonic.NOP, "_op_nop", (0,))
_sem(Mnemonic.HLT, "_op_hlt", (0,))
_sem(Mnemonic.MOV, "_op_mov", (2,), specials=("width_merge",))
_sem(Mnemonic.MOVZX, "_op_mov", (2,), specials=("width_merge",))
_sem(Mnemonic.MOVSX, "_op_movsx", (2,), specials=("width_merge",))
_sem(Mnemonic.LEA, "_op_lea", (2,))
_sem(Mnemonic.XCHG, "_op_xchg", (2,), specials=("width_merge",))
_sem(Mnemonic.PUSH, "_op_push", (1,))
_sem(Mnemonic.POP, "_op_pop", (1,), specials=("width_merge",))
_sem(Mnemonic.ADD, "_op_add", (2,), writes=_ALL_FLAGS)
_sem(Mnemonic.ADC, "_op_adc", (2,), writes=_ALL_FLAGS,
     reads=frozenset({"cf"}))
_sem(Mnemonic.SUB, "_op_sub", (2,), writes=_ALL_FLAGS)
_sem(Mnemonic.SBB, "_op_sbb", (2,), writes=_ALL_FLAGS,
     reads=frozenset({"cf"}))
_sem(Mnemonic.CMP, "_op_cmp", (2,), writes=_ALL_FLAGS)
_sem(Mnemonic.TEST, "_op_test", (2,), writes=_ALL_FLAGS)
_sem(Mnemonic.AND, "_op_and", (2,), writes=_ALL_FLAGS)
_sem(Mnemonic.OR, "_op_or", (2,), writes=_ALL_FLAGS)
_sem(Mnemonic.XOR, "_op_xor", (2,), writes=_ALL_FLAGS)
_sem(Mnemonic.NEG, "_op_neg", (1,), writes=_ALL_FLAGS)
_sem(Mnemonic.NOT, "_op_not", (1,))
_sem(Mnemonic.SHL, "_op_shl", (2,), writes=_ALL_FLAGS,
     specials=("count_masked", "zero_count_noop", "of_one_bit_only"))
_sem(Mnemonic.SHR, "_op_shr", (2,), writes=_ALL_FLAGS,
     specials=("count_masked", "zero_count_noop", "of_one_bit_only"))
_sem(Mnemonic.SAR, "_op_sar", (2,), writes=_ALL_FLAGS,
     specials=("count_masked", "zero_count_noop", "of_one_bit_only"))
_sem(Mnemonic.IMUL, "_op_imul", (2,), writes=_ALL_FLAGS,
     specials=("zf_sf_pinned",))
_sem(Mnemonic.CQO, "_op_cqo", (0,))
_sem(Mnemonic.IDIV, "_op_idiv", (1,))
_sem(Mnemonic.INC, "_op_inc", (1,),
     writes=frozenset({"of", "zf", "sf"}), preserves=frozenset({"cf"}))
_sem(Mnemonic.DEC, "_op_dec", (1,),
     writes=frozenset({"of", "zf", "sf"}), preserves=frozenset({"cf"}))
_sem(Mnemonic.CMOV, "_op_cmov", (2,), reads=_CONDITION_FLAGS,
     specials=("width_merge",))
_sem(Mnemonic.SET, "_op_set", (1,), reads=_CONDITION_FLAGS)
_sem(Mnemonic.JMP, "_op_jmp", (1,))
_sem(Mnemonic.JCC, "_op_jcc", (1,), reads=_CONDITION_FLAGS)
_sem(Mnemonic.CALL, "_op_call", (1,))
_sem(Mnemonic.RET, "_op_ret", (0,))
_sem(Mnemonic.LEAVE, "_op_leave", (0,))

if frozenset(SEMANTICS) != frozenset(Mnemonic):
    _missing = sorted(m.name for m in frozenset(Mnemonic) - frozenset(SEMANTICS))
    raise RuntimeError(f"semantics registry incomplete: {_missing}")


def handler_table() -> Dict[Mnemonic, str]:
    """Mnemonic -> reference handler function name, from the registry."""
    return {mnemonic: sem.handler for mnemonic, sem in SEMANTICS.items()}


def operand_minimums() -> Dict[Mnemonic, int]:
    """Mnemonic -> the fewest operands its semantics can run with.  The
    decoder accepts any count; a decode with fewer is unimplemented in
    every tier."""
    return {mnemonic: min(sem.operand_counts)
            for mnemonic, sem in SEMANTICS.items()}


#: Mnemonic -> the most operands its semantics read.
_OPERAND_LIMIT = {mnemonic: max(sem.operand_counts)
                  for mnemonic, sem in SEMANTICS.items()}


def trim_operands(instruction: Instruction) -> Instruction:
    """``instruction`` without the decoded operands past the most its
    mnemonic reads.  The machine ignores them, so every tier executes (and
    the shadow mirrors) the trimmed form; ``instruction`` itself when there
    is nothing to drop."""
    limit = _OPERAND_LIMIT[instruction.mnemonic]
    if len(instruction.operands) <= limit:
        return instruction
    return Instruction(instruction.mnemonic, instruction.operands[:limit],
                       instruction.condition)


# -- tier registration --------------------------------------------------------

#: How a tier's source encodes flag writes, for the static checker:
#: ``attributes`` — Python attribute stores (``state.cf = …``);
#: ``emitted`` — assignments inside source-text string literals passed to
#: ``emit()`` (the codegen tier); ``none`` — the tier models flags outside
#: the architectural slots (the symbolic shadow), so only coverage is
#: statically checked and the dynamic differentials carry the rest.
FLAG_STYLES: Tuple[str, ...] = ("attributes", "emitted", "none")

@dataclass(frozen=True)
class TierRegistration:
    """One tier's declared relationship to the contract registry: it
    covers every mnemonic, each through one named function."""

    name: str
    #: The implementing module (``__name__`` at the registration site);
    #: the checker locates the tier's source through ``sys.modules``.
    module: str
    #: Mnemonic -> the function or method that implements it, which the
    #: checker flag-checks.
    covered: Mapping[Mnemonic, str]
    flag_style: str


TIERS: Dict[str, TierRegistration] = {}


def register_tier(name: str, module: str, covered: Mapping[Mnemonic, str],
                  flag_style: str) -> TierRegistration:
    """Register one tier's coverage; validates that it is complete.

    Raises ``ValueError`` unless ``covered`` maps every mnemonic, and only
    mnemonics, to one function name — so an incomplete tier fails at
    import, before any test or workload runs.  Re-registration under the
    same name replaces the previous record (module reloads in tests).
    """
    if flag_style not in FLAG_STYLES:
        raise ValueError(f"tier {name}: unknown flag style {flag_style!r}")
    unnamed = sorted(mnemonic.name for mnemonic in SEMANTICS
                     if not isinstance(covered.get(mnemonic), str))
    if unnamed or len(covered) != len(SEMANTICS):
        raise ValueError(f"tier {name}: every mnemonic, and nothing else, "
                         f"must map to one function name; not mapped: "
                         f"{unnamed}")
    registration = TierRegistration(name=name, module=module,
                                    covered=dict(covered),
                                    flag_style=flag_style)
    TIERS[name] = registration
    return registration


def tier(name: str) -> Optional[TierRegistration]:
    """The registration for ``name``, or ``None``."""
    return TIERS.get(name)
