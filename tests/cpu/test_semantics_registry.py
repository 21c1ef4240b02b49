"""The semantics registry is complete and agrees with the rest of the repo.

``repro.cpu.semantics`` is the contract the static checker
(:mod:`repro.analysis.lint`) verifies the three tiers against.  These tests
pin the registry itself: every mnemonic is described, the reference
interpreter's dispatch table is *derived* from it (not merely consistent
with it), and its flag effects agree with the coarser
``Instruction.writes_flags()`` / ``reads_flags()`` predicates the rewriter
and gadget layers rely on (both read :data:`repro.isa.effects.EFFECTS`).
"""

from repro.cpu import reference, semantics
from repro.isa.instructions import Mnemonic


def test_every_mnemonic_has_semantics():
    missing = [m for m in Mnemonic if m not in semantics.SEMANTICS]
    assert not missing, f"mnemonics without semantics: {missing}"
    for mnemonic, sem in semantics.SEMANTICS.items():
        assert sem.mnemonic is mnemonic
        assert sem.handler.startswith("_op_")


def test_dispatch_table_is_derived_from_the_registry():
    names = {mnemonic: handler.__name__
             for mnemonic, handler in reference.DISPATCH.items()}
    assert names == semantics.handler_table()
    for handler in reference.DISPATCH.values():
        assert handler.__module__ == reference.__name__


def test_flag_sets_are_valid_slots():
    valid = set(semantics.FLAGS)
    for sem in semantics.SEMANTICS.values():
        assert set(sem.flags_written) <= valid
        assert set(sem.flags_read) <= valid
        assert set(sem.flags_preserved) <= valid
        assert not set(sem.flags_written) & set(sem.flags_preserved), (
            f"{sem.mnemonic}: a flag cannot be both written and preserved")
        for special in sem.specials:
            assert special in semantics.SPECIAL_RULES


def test_registry_agrees_with_instruction_flag_predicates():
    """writes_flags()/reads_flags() are the coarse views of the registry."""
    for mnemonic in Mnemonic:
        sem = semantics.SEMANTICS[mnemonic]
        writes = bool(sem.flags_written)
        reads = bool(sem.flags_read)
        instruction = _representative(mnemonic)
        assert instruction.writes_flags() == writes, (
            f"{mnemonic}: registry says flags_written={sem.flags_written} "
            f"but Instruction.writes_flags() is {instruction.writes_flags()}")
        assert instruction.reads_flags() == reads, (
            f"{mnemonic}: registry says flags_read={sem.flags_read} "
            f"but Instruction.reads_flags() is {instruction.reads_flags()}")


def test_shift_semantics_pin_the_x86_corner_cases():
    """The PR 5 bug class is spelled out declaratively for every shift."""
    for mnemonic in (Mnemonic.SHL, Mnemonic.SHR, Mnemonic.SAR):
        specials = semantics.SEMANTICS[mnemonic].specials
        assert "zero_count_noop" in specials
        assert "count_masked" in specials
        assert "of_one_bit_only" in specials


def test_all_four_tiers_are_registered():
    """The reference, codegen and shadow tiers each cover every mnemonic,
    each through one named function."""
    import repro.attacks.shadow  # noqa: F401  (registration side effect)
    import repro.cpu.codegen  # noqa: F401

    assert set(semantics.TIERS) == {"reference", "codegen", "shadow"}
    for registration in semantics.TIERS.values():
        assert set(registration.covered) == set(Mnemonic)
        assert all(isinstance(function, str)
                   for function in registration.covered.values())


def _representative(mnemonic):
    """A minimal Instruction of the given mnemonic (operands irrelevant)."""
    from repro.isa.instructions import Instruction

    condition = "e" if mnemonic in (Mnemonic.JCC, Mnemonic.CMOV,
                                    Mnemonic.SET) else ""
    return Instruction(mnemonic=mnemonic, operands=(), condition=condition)
