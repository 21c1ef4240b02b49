"""The diversified gadget pool backing the chain crafter.

Gadget sources follow §IV-A1: the rewriter registers whatever gadgets in
program parts left unobfuscated match a kind of
:data:`repro.gadgets.kinds.KINDS` exactly, and missing gadgets are
synthesized on demand from the same kind's template as dead code appended
to ``.text``.  Synthesis can produce several *diversified* variants of the
same semantic operation (extra junk pops, harmless padding instructions)
and the pool hands out a random compatible variant each time, which is what
gives different program points different byte patterns for the same
purpose (§V-D).
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Tuple

from repro.binary.image import BinaryImage
from repro.gadgets.gadget import Gadget, analyze_side_effects
from repro.gadgets.kinds import KINDS, GadgetKind
from repro.isa.assembler import assemble
from repro.isa.instructions import make
from repro.isa.operands import Reg
from repro.isa.registers import Register


class GadgetPoolError(Exception):
    """Raised when a required gadget cannot be provided."""


def _key(kind: str, params: Dict[str, object]) -> Tuple:
    return (kind, tuple(sorted((k, v) for k, v in params.items())))


class GadgetPool:
    """Gadget registry bound to a binary image.

    Args:
        image: the image being rewritten; synthesized gadgets are appended to
            its ``.text`` section.
        seed: RNG seed controlling variant selection and diversification.
        diversify: when True, synthesis sometimes produces variants with
            dynamically dead instructions and junk pops.
    """

    #: registers that junk pops may clobber when diversifying (never the
    #: frame/stack pointers).
    _JUNK_CANDIDATES = (
        Register.RBX, Register.R12, Register.R13, Register.R14, Register.R15,
        Register.R10, Register.R11,
    )

    def __init__(self, image: BinaryImage, seed: int = 0, diversify: bool = True) -> None:
        self.image = image
        self.random = random.Random(seed)
        self.diversify = diversify
        self._by_key: Dict[Tuple, List[Gadget]] = {}
        self._all: List[Gadget] = []

    # -- registration --------------------------------------------------------
    def register(self, gadget: Gadget) -> Gadget:
        """Add a gadget to the pool (indexed by kind/params when classified)."""
        self._all.append(gadget)
        if gadget.kind:
            self._by_key.setdefault(_key(gadget.kind, gadget.params), []).append(gadget)
        return gadget

    # -- queries --------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._all)

    def addresses(self) -> List[int]:
        """Addresses of all registered gadgets (used by gadget confusion)."""
        return [g.address for g in self._all]

    def ensure(self, kind: str, avoid: FrozenSet[Register] = frozenset(),
               **params) -> Gadget:
        """Return a gadget of ``kind`` with ``params`` safe w.r.t. ``avoid``.

        ``avoid`` lists registers the gadget must not clobber (beyond the
        operation's own destination).  An existing compatible variant is
        chosen at random; otherwise a new gadget is synthesized, possibly as a
        diversified variant whose junk side effects stay clear of ``avoid``.
        """
        gadget_kind = KINDS.get(kind)
        if gadget_kind is None:
            raise GadgetPoolError(f"no synthesis template for gadget kind {kind!r}")
        effect = gadget_kind.effect(params)
        candidates = [
            g for g in self._by_key.get(_key(kind, params), [])
            if not (g.clobbers - effect) & set(avoid)
        ]
        if candidates:
            return self.random.choice(candidates)
        return self._synthesize(gadget_kind, params, avoid)

    # -- synthesis -------------------------------------------------------------
    def _synthesize(self, kind: GadgetKind, params: Dict[str, object],
                    avoid: FrozenSet[Register]) -> Gadget:
        instructions = kind.instructions(params)

        # never append junk pops to gadgets that redirect the chain pointer:
        # anything popped after an rsp update would be consumed at the branch
        # target instead of from this gadget's own chain slots
        if self.diversify and not kind.redirects_rsp:
            blocked = set(avoid) | kind.effect(params) \
                | {v for v in params.values() if isinstance(v, Register)}
            junk_options = [r for r in self._JUNK_CANDIDATES if r not in blocked]
            if junk_options and self.random.random() < 0.5:
                junk = self.random.choice(junk_options)
                # a dynamically dead pop: consumes a junk chain slot
                instructions.insert(len(kind.body), make("pop", Reg(junk)))
            if junk_options and self.random.random() < 0.3:
                junk = self.random.choice(junk_options)
                instructions.insert(0, make("mov", Reg(junk), Reg(junk)))

        code, _ = assemble(instructions, base_address=self.image.text.end)
        address = self.image.text.append(code)
        clobbers, pops, flags = analyze_side_effects(instructions)
        gadget = Gadget(address=address, instructions=instructions, kind=kind.name,
                        params=dict(params), clobbers=clobbers, pops=pops,
                        writes_flags=flags)
        return self.register(gadget)
