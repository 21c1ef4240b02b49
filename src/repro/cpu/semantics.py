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

This module is the contract every tier is checked against.  What each
mnemonic does to the architectural flag slots and how many operands it
takes come from the one effect table, :data:`repro.isa.effects.EFFECTS`,
which the rewriter's analyses read too; the registry adds the reference
handler, the flags an implementation may restore, and the special-case
rules every implementation must honour (width-masked shift counts, the
masked-zero-count no-op, OF defined only for 1-bit shifts, the
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

from repro.isa.effects import ARITY, EFFECTS
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
    #: Flag slots the instruction defines (a tier implementing it must
    #: assign exactly these, modulo ``flags_preserved``); from
    #: :data:`repro.isa.effects.EFFECTS`.
    flags_written: FrozenSet[str]
    #: Flag slots the instruction's behaviour depends on; from the effect
    #: table.
    flags_read: FrozenSet[str]
    #: Flag slots the instruction leaves untouched but an implementation
    #: may legitimately assign in order to restore them (INC/DEC save and
    #: restore CF around their shared add/sub flag helpers).
    flags_preserved: FrozenSet[str]
    #: Special-case rules from :data:`SPECIAL_RULES`.
    specials: FrozenSet[str]


SEMANTICS: Dict[Mnemonic, MnemonicSemantics] = {}

_NONE: FrozenSet[str] = frozenset()
_SHIFT = ("count_masked", "zero_count_noop", "of_one_bit_only")


def _sem(mnemonic: Mnemonic, handler: str, preserves: FrozenSet[str] = _NONE,
         specials: Iterable[str] = ()) -> None:
    special_set = frozenset(specials)
    unknown = special_set - frozenset(SPECIAL_RULES)
    if unknown:
        raise ValueError(f"unknown special rule(s) {sorted(unknown)} "
                         f"for {mnemonic.name}")
    effect = EFFECTS[mnemonic]
    SEMANTICS[mnemonic] = MnemonicSemantics(
        mnemonic=mnemonic, handler=handler,
        flags_written=effect.flags_written, flags_read=effect.flags_read,
        flags_preserved=preserves, specials=special_set)


_sem(Mnemonic.NOP, "_op_nop")
_sem(Mnemonic.HLT, "_op_hlt")
_sem(Mnemonic.MOV, "_op_mov", specials=("width_merge",))
_sem(Mnemonic.MOVZX, "_op_mov", specials=("width_merge",))
_sem(Mnemonic.MOVSX, "_op_movsx", specials=("width_merge",))
_sem(Mnemonic.LEA, "_op_lea")
_sem(Mnemonic.XCHG, "_op_xchg", specials=("width_merge",))
_sem(Mnemonic.PUSH, "_op_push")
_sem(Mnemonic.POP, "_op_pop", specials=("width_merge",))
_sem(Mnemonic.ADD, "_op_add")
_sem(Mnemonic.ADC, "_op_adc")
_sem(Mnemonic.SUB, "_op_sub")
_sem(Mnemonic.SBB, "_op_sbb")
_sem(Mnemonic.CMP, "_op_cmp")
_sem(Mnemonic.TEST, "_op_test")
_sem(Mnemonic.AND, "_op_and")
_sem(Mnemonic.OR, "_op_or")
_sem(Mnemonic.XOR, "_op_xor")
_sem(Mnemonic.NEG, "_op_neg")
_sem(Mnemonic.NOT, "_op_not")
_sem(Mnemonic.SHL, "_op_shl", specials=_SHIFT)
_sem(Mnemonic.SHR, "_op_shr", specials=_SHIFT)
_sem(Mnemonic.SAR, "_op_sar", specials=_SHIFT)
_sem(Mnemonic.IMUL, "_op_imul", specials=("zf_sf_pinned",))
_sem(Mnemonic.CQO, "_op_cqo")
_sem(Mnemonic.IDIV, "_op_idiv")
_sem(Mnemonic.INC, "_op_inc", preserves=frozenset({"cf"}))
_sem(Mnemonic.DEC, "_op_dec", preserves=frozenset({"cf"}))
_sem(Mnemonic.CMOV, "_op_cmov", specials=("width_merge",))
_sem(Mnemonic.SET, "_op_set")
_sem(Mnemonic.JMP, "_op_jmp")
_sem(Mnemonic.JCC, "_op_jcc")
_sem(Mnemonic.CALL, "_op_call")
_sem(Mnemonic.RET, "_op_ret")
_sem(Mnemonic.LEAVE, "_op_leave")

if frozenset(SEMANTICS) != frozenset(Mnemonic):
    _missing = sorted(m.name for m in frozenset(Mnemonic) - frozenset(SEMANTICS))
    raise RuntimeError(f"semantics registry incomplete: {_missing}")


def handler_table() -> Dict[Mnemonic, str]:
    """Mnemonic -> reference handler function name, from the registry."""
    return {mnemonic: sem.handler for mnemonic, sem in SEMANTICS.items()}


def trim_operands(instruction: Instruction) -> Instruction:
    """``instruction`` without the decoded operands past its mnemonic's
    arity.  The machine ignores them, so every tier executes (and the
    shadow mirrors) the trimmed form; ``instruction`` itself when there is
    nothing to drop.  A decode with fewer operands than the arity is
    unimplemented in every tier."""
    limit = ARITY[instruction.mnemonic]
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
