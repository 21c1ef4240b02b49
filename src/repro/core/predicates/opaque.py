"""Opaque-constant materialization (the ROPfuscator layer, ``+OC``).

Chain slots holding sensitive constants — gadget addresses and immediates —
are no longer stored literally.  Instead the chain recombines each value at
run time from the P1 opaque array (§V-A): the extraction
``A[f(x)*s + b] mod m`` yields the fixed residue ``a_b`` for *any* program
state, and the chain stores only the remainder ``value - a_b``.  A static
tool that wants the literal back must both mimic the input-dependent index
computation and prove the array's periodic invariant — the same reasoning
burden P1 places on branch displacements, now extended to the chain's own
payload.

Two forms are emitted by :class:`repro.core.crafting.ChainCrafter`:

* **value form** (:func:`emit_opaque_value`) — an immediate destined for a
  register is rebuilt as ``pop remainder ; extract a_b ; add`` so the
  literal never appears among the chain bytes;
* **gadget-address form** (:func:`emit_opaque_gadget`) — a gadget slot is
  emitted as junk bytes (:class:`repro.core.chain.OpaqueGadgetSlot`) and a
  materializer sequence right before it recombines the real address and
  stores it into the slot (via a :class:`repro.core.chain.LabelAddressSlot`)
  just before the preceding ``ret`` consumes it.  This is why the layer is
  disabled under ``read_only_chains``: the chain writes to itself.

Grid-wise the layer realizes the ``+OC`` suffix of the Table II
configuration axis added by the protection profiles
(:data:`repro.core.config.PROTECTION_PROFILES`), e.g. ``ROP1.00+OC``.
"""

from __future__ import annotations

from repro.core.chain import LabelAddressSlot, OpaqueGadgetSlot, ValueSlot
from repro.gadgets.gadget import Gadget
from repro.isa.registers import Register

_MASK64 = (1 << 64) - 1


def emit_opaque_value(crafter, dst: Register, element: ValueSlot,
                      avoid) -> bool:
    """Load ``element.value`` into ``dst`` without storing it in the chain.

    Emits ``extract a_b -> dst ; pop remainder ; add dst, remainder`` where
    ``remainder = value - a_b``.  Returns False (nothing emitted) when the
    register pressure does not allow it; the caller falls back to a literal
    slot.  Clobbers flags — callers gate on flag-safe sites.
    """
    array = crafter.opaque_array
    if array is None or array.address is None:
        return False
    # dst + remainder + the extraction's internal helper must all be free;
    # the opaque layers never spill (they fall back to literal slots)
    free = crafter.free_registers(avoid, exclude=[dst])
    if len(free) < 2:
        return False
    remainder_reg = free[0]
    work = frozenset(avoid) | {dst, remainder_reg}
    ordinal = crafter._opaque_ordinal
    crafter._opaque_ordinal += 1
    fixed = array.fixed_part(ordinal)
    crafter._in_opaque = True
    try:
        array.emit_extraction(crafter, dst, ordinal, crafter._current_roplet,
                              work)
        remainder = (element.value - fixed) & _MASK64
        crafter.emit_gadget("pop", work, operand=ValueSlot(remainder),
                            dst=remainder_reg)
        crafter.emit_gadget("add_rr", work, dst=dst, src=remainder_reg)
    finally:
        crafter._in_opaque = False
    crafter._opaque_values += 1
    return True


def emit_opaque_gadget(crafter, gadget: Gadget, avoid) -> bool:
    """Emit ``gadget``'s slot as junk bytes materialized at run time.

    The sequence placed right before the slot computes the real address
    (``extract a_b ; pop remainder ; add``), pops the slot's own chain
    address (a :class:`LabelAddressSlot`) and stores the recombined address
    through it.  When the store's gadget returns, the next slot — the opaque
    one — already holds the real address.  Returns False (nothing emitted)
    when register pressure or configuration forbids it.
    """
    array = crafter.opaque_array
    if array is None or array.address is None:
        return False
    if crafter.config.read_only_chains:
        return False
    # address + value + remainder + the extraction's internal helper
    free = crafter.free_registers(avoid)
    if len(free) < 4:
        return False
    addr_reg, value_reg, remainder_reg = free[:3]
    work = frozenset(avoid) | {addr_reg, value_reg, remainder_reg}
    ordinal = crafter._opaque_ordinal
    crafter._opaque_ordinal += 1
    fixed = array.fixed_part(ordinal)
    crafter._in_opaque = True
    try:
        array.emit_extraction(crafter, value_reg, ordinal,
                              crafter._current_roplet, work)
        remainder = (gadget.address - fixed) & _MASK64
        crafter.emit_gadget("pop", work, operand=ValueSlot(remainder),
                            dst=remainder_reg)
        crafter.emit_gadget("add_rr", work, dst=value_reg, src=remainder_reg)
        slot_label = crafter._fresh_label("opq")
        crafter.emit_gadget("pop", work, operand=LabelAddressSlot(slot_label),
                            dst=addr_reg)
        crafter.emit_gadget("store8", work, dst=addr_reg, src=value_reg)
        crafter.chain.label(slot_label)
        crafter.chain.append(OpaqueGadgetSlot(gadget))
    finally:
        crafter._in_opaque = False
    crafter._opaque_slots += 1
    return True
