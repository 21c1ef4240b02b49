"""Configuration of the ROP rewriter (the ROPk settings of Table I).

Beyond the paper's own ``ROPk`` family this module also defines the
ROPfuscator-style *protection profiles*: named bundles of the two
opaque-predicate layers (opaque-constant materialization and instruction
hiding), applied on top of a base :class:`RopConfig` either whole-program or
per function.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict


@dataclass
class RopConfig:
    """Options controlling chain generation and strengthening predicates.

    The defaults reproduce the paper's ``ROPk`` configuration family
    (Table I): P1 instantiated with ``n=4, s=n, p=32`` and P3 applied to a
    fraction ``p3_fraction`` (the paper's *k*) of eligible program points.

    Attributes:
        p1_enabled: enable the anti-disassembly opaque-array predicate (§V-A).
        p2_enabled: enable the anti-brute-force data dependencies (§V-B).
        p3_enabled: enable state-space widening (§V-C).
        p3_fraction: fraction *k* of eligible program points receiving a P3
            instance.
        p3_variant: ``"loop"`` (the FOR-style first variant), ``"array"``
            (opaque P1-array updates, second variant) or ``"mixed"``.
        gadget_confusion: enable immediate disguising and unaligned RSP
            updates (§V-D).
        p1_branches: ``n`` — number of branch residues encoded in the array.
        p1_period: ``s`` — array period (cells per repetition, ``s >= n``).
        p1_repetitions: ``p`` — number of repetitions stored in the array.
        p1_modulus: ``m`` — residue modulus (power of two so the chain can
            reduce with a mask; the paper only requires ``m > n``).
        seed: RNG seed for all obfuscation-time random choices.
        read_only_chains: if True, P3's array-update variant is disabled so
            the generated chains never write to themselves or to the opaque
            array (the paper's read-only chain option, §IV-C), and the
            self-materializing opaque gadget slots (which write their own
            chain slot at run time) fall back to literal addresses.
        opaque_constants: enable opaque-constant materialization: eligible
            chain immediates and gadget-slot addresses are no longer stored
            literally but recombined at run time from a P1-style opaque
            extraction (the ROPfuscator layer).
        opaque_fraction: fraction of eligible slots materialized opaquely.
        instruction_hiding: interleave real roplet lowerings inside opaque
            predicate evaluation bodies, coupled to the chain pointer by a
            P2-style zero perturbation.
        hiding_fraction: fraction of eligible roplets hidden this way.
    """

    p1_enabled: bool = True
    p2_enabled: bool = True
    p3_enabled: bool = True
    p3_fraction: float = 0.0
    p3_variant: str = "mixed"
    gadget_confusion: bool = True
    p1_branches: int = 4
    p1_period: int = 4
    p1_repetitions: int = 32
    p1_modulus: int = 16
    seed: int = 1
    read_only_chains: bool = False
    opaque_constants: bool = False
    opaque_fraction: float = 0.5
    instruction_hiding: bool = False
    hiding_fraction: float = 0.35

    def __post_init__(self) -> None:
        if not 0.0 <= self.p3_fraction <= 1.0:
            raise ValueError("p3_fraction must be in [0, 1]")
        if not 0.0 <= self.opaque_fraction <= 1.0:
            raise ValueError("opaque_fraction must be in [0, 1]")
        if not 0.0 <= self.hiding_fraction <= 1.0:
            raise ValueError("hiding_fraction must be in [0, 1]")
        if self.p1_modulus & (self.p1_modulus - 1):
            raise ValueError("p1_modulus must be a power of two")
        if self.p1_repetitions & (self.p1_repetitions - 1):
            raise ValueError("p1_repetitions must be a power of two")
        if self.p1_period < self.p1_branches:
            raise ValueError("p1_period must be >= p1_branches")
        if self.p3_variant not in ("loop", "array", "mixed"):
            raise ValueError("p3_variant must be 'loop', 'array' or 'mixed'")

    @classmethod
    def ropk(cls, k: float, seed: int = 1) -> "RopConfig":
        """The paper's ``ROPk`` configuration: all predicates on, P3 at ``k``."""
        return cls(p3_fraction=k, seed=seed)

    @classmethod
    def plain(cls, seed: int = 1) -> "RopConfig":
        """Plain ROP encoding with every strengthening predicate disabled.

        This is the baseline §V argues is *not* sufficient for obfuscation.
        """
        return cls(p1_enabled=False, p2_enabled=False, p3_enabled=False,
                   gadget_confusion=False, p3_fraction=0.0, seed=seed)


@dataclass(frozen=True)
class ProtectionProfile:
    """A named bundle of the opaque layers (ROPfuscator's protection table).

    Profiles are applied on top of a base :class:`RopConfig` — whole-program
    via :func:`repro.obfuscation.configs.apply_configuration` or per function
    via the ``profiles`` mapping of :func:`repro.core.rewriter.rop_obfuscate`
    — so different functions of one binary can trade robustness against
    overhead independently, mirroring ROPfuscator's per-function annotation.
    ROPfuscator ranks its profiles from 1 to 3 on both axes, robustness
    against automated deobfuscation and size/run-time overhead: ``baseline``
    1 and 1, ``opaque`` and ``hidden`` 2 and 2, ``full`` 3 and 3.

    Attributes:
        name: profile name (the key in :data:`PROTECTION_PROFILES`).
        suffix: appended to configuration display names (``"ROP1.00+OC+IH"``).
        opaque_constants/opaque_fraction: see :class:`RopConfig`.
        instruction_hiding/hiding_fraction: see :class:`RopConfig`.
    """

    name: str
    suffix: str
    opaque_constants: bool = False
    opaque_fraction: float = 0.0
    instruction_hiding: bool = False
    hiding_fraction: float = 0.0

    def apply(self, config: RopConfig) -> RopConfig:
        """Return ``config`` with this profile's layers switched on.

        Profiles with an active layer also pin ``p3_variant`` to ``"loop"``:
        the opaque layers' security argument (and the shadow tracker's
        stable-region exactness) relies on the opaque array being
        runtime-constant, which P3's array-update variant would break.
        """
        updated = dataclasses.replace(
            config,
            opaque_constants=self.opaque_constants,
            opaque_fraction=self.opaque_fraction,
            instruction_hiding=self.instruction_hiding,
            hiding_fraction=self.hiding_fraction,
        )
        if self.opaque_constants or self.instruction_hiding:
            updated = dataclasses.replace(updated, p3_variant="loop")
        return updated


#: The robustness/overhead ladder, weakest to strongest.  ``baseline`` is the
#: paper's plain ROPk encoding; ``opaque`` adds opaque-constant
#: materialization (+OC); ``hidden`` adds instruction hiding (+IH); ``full``
#: stacks both — ROPfuscator's strongest row.
PROTECTION_PROFILES: Dict[str, ProtectionProfile] = {
    "baseline": ProtectionProfile(name="baseline", suffix=""),
    "opaque": ProtectionProfile(
        name="opaque", suffix="+OC", opaque_constants=True,
        opaque_fraction=0.5),
    "hidden": ProtectionProfile(
        name="hidden", suffix="+IH", instruction_hiding=True,
        hiding_fraction=0.35),
    "full": ProtectionProfile(
        name="full", suffix="+OC+IH", opaque_constants=True,
        opaque_fraction=0.5, instruction_hiding=True, hiding_fraction=0.35),
}
