"""Instruction hiding inside opaque predicate bodies (``+IH``).

The second ROPfuscator layer: a roplet's real gadget sequence is emitted in
the *middle* of an opaque predicate evaluation, so a linear sweep over the
chain cannot separate predicate bookkeeping from program computation.

The wrapper is a P1 extraction split in two around the real lowering:

* **prologue** — ``guard = A[f(x)*s + b] mod m`` computes the invariant
  residue ``a_b`` into a reserved register (the predicate's first half);
* **body** — the roplet's genuine gadgets, emitted contiguously so their
  internal flag dependencies survive; the guard register is reserved across
  the lowering so neither scratch allocation nor diversified junk pops
  clobber it;
* **epilogue** — ``rsp += (guard - a_b) << PERTURBATION_SCALE_SHIFT``, the
  P2-style coupling (§V-B): on the legitimate path the perturbation is zero,
  but an attacker who guesses the predicate's outcome wrong derails the
  chain pointer, so brute-forcing the predicate away breaks the program.

Grid-wise the layer realizes the ``+IH`` suffix of the Table II
configuration axis added by the protection profiles
(:data:`repro.core.config.PROTECTION_PROFILES`), e.g. ``ROP1.00+OC+IH``.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.liveness import instruction_uses_defs
from repro.core.chain import ValueSlot
from repro.core.predicates.p2_datadep import PERTURBATION_SCALE_SHIFT


def emit_hidden(crafter, roplet, lower: Callable[[], None]) -> None:
    """Wrap ``lower()`` (the roplet's real lowering) in a predicate body.

    Raises:
        RewriteError: before anything is emitted when scratch registers are
            unavailable.  A failure raised by ``lower()`` itself propagates —
            the caller must not re-lower the roplet (its gadgets may already
            be partially emitted).
    """
    from repro.core.crafting import RewriteError

    array = crafter.opaque_array
    if array is None or array.address is None:
        raise RewriteError("instruction hiding requires the opaque array")
    # the roplet's avoid_set only covers *live* registers; a destination
    # that is dead afterwards is not in it, yet the body's lowering writes
    # it: the guard must not alias any register the instruction touches
    uses, defs = instruction_uses_defs(roplet.instruction)
    avoid = frozenset(roplet.avoid_set() | uses | defs)
    # guard + helper + the extraction's internal helper, without spilling
    free = crafter.free_registers(avoid)
    if len(free) < 3:
        raise RewriteError("not enough scratch registers for instruction hiding")
    guard, helper = free[:2]
    work = frozenset(avoid) | {guard, helper}
    ordinal = crafter._opaque_ordinal
    crafter._opaque_ordinal += 1
    fixed = array.fixed_part(ordinal)

    # prologue: first half of the predicate evaluation
    array.emit_extraction(crafter, guard, ordinal, roplet, work)

    # body: the real instruction, with the guard pinned across it
    reserved = crafter._reserved
    crafter._reserved = frozenset(reserved) | {guard}
    try:
        lower()
    finally:
        crafter._reserved = reserved

    # epilogue: second half — a perturbation that is zero iff the predicate
    # held (helper may have been clobbered by the body; it is re-loaded)
    crafter.emit_constant(helper, ValueSlot(fixed), work, allow_disguise=False)
    crafter.emit_gadget("sub_rr", work, dst=guard, src=helper)
    crafter.emit_constant(helper, ValueSlot(PERTURBATION_SCALE_SHIFT), work,
                          allow_disguise=False)
    crafter.emit_gadget("shl_rr", work, dst=guard, src=helper)
    crafter.emit_gadget("add_rsp_r", work, src=guard)
    crafter._hidden_instances += 1
