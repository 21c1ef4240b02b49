"""The chain model: the sequence of 8-byte slots that makes up a ROP payload.

A chain is an ordered list of elements.  Most elements occupy one 8-byte slot
(gadget addresses, immediate operands, junk fillers); labels occupy no space
and mark positions that branch displacements refer to; raw padding of
arbitrary length implements the unaligned-RSP gadget confusion trick.

Branch displacements are symbolic until :meth:`Chain.materialize` runs: a
:class:`DeltaSlot` resolves to ``address(target) - address(anchor) -
subtract``, where the anchor label is placed right after the ``add rsp``
gadget consuming the displacement (that is where the chain pointer points
when the addition executes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.gadgets.gadget import Gadget


class ChainError(Exception):
    """Raised when a chain cannot be materialized."""


@dataclass
class ChainLabel:
    """A zero-size position marker."""

    name: str


@dataclass
class GadgetSlot:
    """An 8-byte slot holding a gadget's address."""

    gadget: Gadget


@dataclass
class ValueSlot:
    """An 8-byte immediate operand slot."""

    value: int


@dataclass
class DeltaSlot:
    """A slot whose value is a chain-relative displacement.

    Attributes:
        target: label of the branch destination inside the chain.
        anchor: label of the position the chain pointer will have when the
            displacement is added to ``rsp``.
        subtract: extra constant subtracted from the displacement (P1 stores
            this part in the opaque array instead of the chain).
    """

    target: str
    anchor: str
    subtract: int = 0


@dataclass
class JunkSlot:
    """An 8-byte slot whose content is irrelevant (filled with random bytes)."""


@dataclass
class RawPadding:
    """``length`` bytes of filler, used for unaligned-RSP gadget confusion."""

    length: int


@dataclass
class LabelAddressSlot:
    """A slot holding the absolute chain address of ``target``.

    Used by opaque-constant materialization: a ``pop`` of this slot gives the
    chain the address of one of its own slots, which a later ``store``
    overwrites at run time.
    """

    target: str


@dataclass
class OpaqueGadgetSlot:
    """A gadget slot whose static bytes are junk (opaque-constant layer).

    The materialized chain stores random bytes here; the gadget sequence
    emitted immediately before the slot recombines the real address from a
    P1-style opaque extraction and writes it into the slot just before the
    preceding gadget's ``ret`` consumes it.  A linear scan of the chain bytes
    therefore never sees ``gadget.address``.
    """

    gadget: Gadget


@dataclass
class DisguiseBaseSlot:
    """The second half of a disguised immediate: a real gadget address."""

    pair: int


@dataclass
class DisguisedSlot:
    """An immediate disguised as ``value + base`` where ``base`` is a gadget address.

    A ``sub`` gadget in the chain recovers the original value at run time, so
    a scan of the chain bytes sees two address-looking values (§V-D).
    """

    inner: Union[ValueSlot, DeltaSlot]
    pair: int


ChainElement = Union[ChainLabel, GadgetSlot, ValueSlot, DeltaSlot, JunkSlot,
                     RawPadding, DisguiseBaseSlot, DisguisedSlot,
                     LabelAddressSlot, OpaqueGadgetSlot]

_MASK64 = (1 << 64) - 1


@dataclass
class MaterializedChain:
    """The result of laying out a chain at a concrete address."""

    base_address: int
    data: bytes
    label_addresses: Dict[str, int]
    slot_count: int


class Chain:
    """An under-construction ROP chain for one function."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.elements: List[ChainElement] = []

    # -- construction --------------------------------------------------------
    def append(self, element: ChainElement) -> None:
        """Append one element."""
        self.elements.append(element)

    def extend(self, elements: Sequence[ChainElement]) -> None:
        """Append several elements."""
        self.elements.extend(elements)

    def label(self, name: str) -> None:
        """Place a label at the current position."""
        self.elements.append(ChainLabel(name))

    def gadget_slots(self) -> List[Union[GadgetSlot, OpaqueGadgetSlot]]:
        """All gadget slots, in order (used by the Table III statistics).

        Opaque gadget slots count too: each one dispatches a real gadget at
        run time even though its static bytes are junk.
        """
        return [e for e in self.elements
                if isinstance(e, (GadgetSlot, OpaqueGadgetSlot))]

    # -- layout --------------------------------------------------------------
    @staticmethod
    def _element_size(element: ChainElement) -> int:
        if isinstance(element, ChainLabel):
            return 0
        if isinstance(element, RawPadding):
            return element.length
        return 8

    def _resolve(self, element: ChainElement, labels: Dict[str, int],
                 pair_bases: Dict[int, int], rng: random.Random) -> int:
        """The 8-byte value of one slot (a method rather than a closure in
        :meth:`materialize`: a self-recursive closure is a reference cycle,
        and would leave every materialized chain to the garbage collector).
        """
        if isinstance(element, GadgetSlot):
            return element.gadget.address
        if isinstance(element, ValueSlot):
            return element.value & _MASK64
        if isinstance(element, DeltaSlot):
            if element.target not in labels or element.anchor not in labels:
                raise ChainError(
                    f"unresolved chain label in {self.name}: "
                    f"{element.target!r} / {element.anchor!r}"
                )
            return (labels[element.target] - labels[element.anchor]
                    - element.subtract) & _MASK64
        if isinstance(element, JunkSlot):
            return rng.getrandbits(64)
        if isinstance(element, LabelAddressSlot):
            if element.target not in labels:
                raise ChainError(
                    f"unresolved chain label in {self.name}: {element.target!r}")
            return labels[element.target] & _MASK64
        if isinstance(element, OpaqueGadgetSlot):
            # the real address is stored at run time; emit junk bytes
            return rng.getrandbits(64)
        if isinstance(element, DisguiseBaseSlot):
            return pair_bases[element.pair] & _MASK64
        if isinstance(element, DisguisedSlot):
            inner = self._resolve(element.inner, labels, pair_bases, rng)
            return (inner + pair_bases[element.pair]) & _MASK64
        raise ChainError(f"cannot resolve element {element!r}")

    def materialize(self, base_address: int, rng: Optional[random.Random] = None,
                    gadget_addresses: Sequence[int] = ()) -> MaterializedChain:
        """Lay the chain out at ``base_address`` and produce its raw bytes.

        Args:
            base_address: load address of the first slot.
            rng: randomness source for junk bytes and disguise bases.
            gadget_addresses: pool of addresses used for disguise bases; when
                empty, disguised slots fall back to plain values.
        """
        rng = rng or random.Random(0)
        # first pass: addresses of every element and label
        addresses: List[int] = []
        labels: Dict[str, int] = {}
        cursor = base_address
        for element in self.elements:
            addresses.append(cursor)
            if isinstance(element, ChainLabel):
                if element.name in labels:
                    raise ChainError(f"duplicate chain label {element.name!r}")
                labels[element.name] = cursor
            cursor += self._element_size(element)

        # choose disguise bases per pair id
        pair_bases: Dict[int, int] = {}
        for element in self.elements:
            pair = None
            if isinstance(element, (DisguiseBaseSlot, DisguisedSlot)):
                pair = element.pair
            if pair is not None and pair not in pair_bases:
                pair_bases[pair] = rng.choice(list(gadget_addresses)) if gadget_addresses else 0

        # second pass: emit bytes
        out = bytearray()
        slots = 0
        for element in self.elements:
            if isinstance(element, ChainLabel):
                continue
            if isinstance(element, RawPadding):
                out += bytes(rng.getrandbits(8) for _ in range(element.length))
                continue
            out += self._resolve(element, labels, pair_bases,
                                 rng).to_bytes(8, "little")
            slots += 1
        return MaterializedChain(base_address=base_address, data=bytes(out),
                                 label_addresses=labels, slot_count=slots)
