"""The end-to-end ROP rewriter (Figure 2).

:func:`rop_obfuscate` is the main public entry point: it clones a compiled
binary image, translates the selected functions into roplets, crafts one
self-contained chain per function, embeds the chains, artificial gadgets and
runtime areas, and replaces each function body with a pivoting stub.  A
:class:`RewriteReport` records per-function statistics (the quantities behind
Table III) and failures (the categories of §VII-C1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.cfg_recovery import CFGError
from repro.binary.image import BinaryImage
from repro.core.config import PROTECTION_PROFILES, ProtectionProfile, RopConfig
from repro.core.crafting import ChainCrafter, RewriteError
from repro.core.materialization import (
    EmbeddingError,
    allocate_runtime_area,
    embed_chain,
    install_pivot_stub,
    pivot_stub_size,
    place_opaque_array,
)
from repro.core.predicates.p1_array import OpaqueArray
from repro.core.translation import TranslatedFunction, TranslationError, translate_function
from repro.gadgets.classify import classify_gadget
from repro.gadgets.finder import find_gadgets_in_image
from repro.gadgets.pool import GadgetPool

__all__ = ["RopRewriter", "RewriteReport", "FunctionResult", "RewriteError", "rop_obfuscate"]


@dataclass
class FunctionResult:
    """Outcome of rewriting one function.

    Attributes:
        name: function name.
        success: True when the function was rewritten.
        reason: failure category when ``success`` is False.
        program_points: number of translated roplets (Table III's N).
        total_gadgets: gadget slots emitted in the chain (Table III's A).
        unique_gadgets: distinct gadget addresses used (Table III's B).
        chain_bytes: size of the materialized chain.
        p3_instances: number of P3 templates inserted.
        opaque_slots: constants/gadget addresses materialized opaquely (+OC).
        hidden_instances: roplets wrapped in predicate bodies (+IH).
    """

    name: str
    success: bool
    reason: str = ""
    program_points: int = 0
    total_gadgets: int = 0
    unique_gadgets: int = 0
    chain_bytes: int = 0
    p3_instances: int = 0
    opaque_slots: int = 0
    hidden_instances: int = 0

    @property
    def gadgets_per_point(self) -> float:
        """Average gadgets per obfuscated program point (Table III's C)."""
        if not self.program_points:
            return 0.0
        return self.total_gadgets / self.program_points


@dataclass
class RewriteReport:
    """Aggregate outcome of a rewriting run."""

    results: List[FunctionResult] = field(default_factory=list)

    @property
    def rewritten(self) -> List[FunctionResult]:
        """Successfully rewritten functions."""
        return [r for r in self.results if r.success]

    @property
    def failed(self) -> List[FunctionResult]:
        """Functions the rewriter could not handle."""
        return [r for r in self.results if not r.success]

    @property
    def coverage(self) -> float:
        """Fraction of requested functions successfully rewritten."""
        if not self.results:
            return 0.0
        return len(self.rewritten) / len(self.results)

    def failure_categories(self) -> Dict[str, int]:
        """Histogram of failure reasons (register pressure, size, CFG, ...)."""
        categories: Dict[str, int] = {}
        for result in self.failed:
            categories[result.reason] = categories.get(result.reason, 0) + 1
        return categories

    def totals(self) -> Dict[str, float]:
        """Aggregate A/B/C statistics over rewritten functions (Table III)."""
        rewritten = self.rewritten
        total = sum(r.total_gadgets for r in rewritten)
        unique_points = sum(r.program_points for r in rewritten)
        unique_gadgets = sum(r.unique_gadgets for r in rewritten)
        return {
            "program_points": unique_points,
            "total_gadgets": total,
            "unique_gadgets": unique_gadgets,
            "gadgets_per_point": (total / unique_points) if unique_points else 0.0,
        }


class RopRewriter:
    """Rewrites selected functions of a binary image into ROP chains."""

    def __init__(self, image: BinaryImage, config: Optional[RopConfig] = None,
                 profiles: Optional[Dict[str, Union[str, ProtectionProfile]]] = None,
                 ) -> None:
        self.image = image
        self.config = config or RopConfig()
        self.profiles = dict(profiles or {})
        self.rng = random.Random(self.config.seed)
        self.report = RewriteReport()
        self._ss_address, self._spill_slot = allocate_runtime_area(image)
        self._pool: Optional[GadgetPool] = None

    # -- public API -----------------------------------------------------------
    def rewrite(self, function_names: Sequence[str]) -> RewriteReport:
        """Rewrite every function in ``function_names`` (best effort).

        Functions that cannot be handled are left untouched and recorded as
        failures in the report, mirroring the paper's coverage study.
        """
        stub_size = pivot_stub_size()
        candidates: List[str] = []
        translated: Dict[str, TranslatedFunction] = {}

        for name in function_names:
            symbol = self.image.function(name)
            if symbol.size < stub_size:
                self.report.results.append(FunctionResult(
                    name=name, success=False, reason="function smaller than pivot stub"))
                continue
            try:
                translated[name] = translate_function(self.image, name)
                candidates.append(name)
            except (TranslationError, CFGError) as exc:
                reason = "cfg reconstruction failed" if isinstance(exc, CFGError) \
                    else f"unsupported instruction: {exc}"
                self.report.results.append(FunctionResult(name=name, success=False,
                                                          reason=reason))

        # gadget pool: artificial gadgets plus reuse from parts left
        # unobfuscated (never from bytes that are about to be wiped)
        exclude_ranges = [(self.image.function(n).address, self.image.function(n).end)
                          for n in candidates]
        self._pool = GadgetPool(self.image, seed=self.config.seed,
                                diversify=self.config.diversify_gadgets)
        self._seed_pool(exclude_ranges)

        for name in candidates:
            self.report.results.append(self._rewrite_one(name, translated[name]))
        return self.report

    # -- internals -------------------------------------------------------------
    def _seed_pool(self, exclude_ranges: List[Tuple[int, int]]) -> None:
        for gadget in find_gadgets_in_image(self.image, ".text"):
            if any(start <= gadget.address < end for start, end in exclude_ranges):
                continue
            classified = classify_gadget(gadget)
            if classified is None:
                continue
            gadget.kind, gadget.params = classified
            self._pool.register(gadget)

    def _effective_config(self, name: str) -> RopConfig:
        """The per-function configuration: the base config plus its profile."""
        profile = self.profiles.get(name)
        if profile is None:
            return self.config
        if isinstance(profile, str):
            profile = PROTECTION_PROFILES[profile]
        return profile.apply(self.config)

    def _rewrite_one(self, name: str, translated: TranslatedFunction) -> FunctionResult:
        config = self._effective_config(name)
        opaque_array = None
        if config.p1_enabled or config.opaque_constants or config.instruction_hiding \
                or (config.p3_enabled and config.p3_variant in ("array", "mixed")):
            opaque_array = OpaqueArray(config, random.Random(self.rng.getrandbits(32)))
            place_opaque_array(self.image, opaque_array, name)
            # The array is runtime-constant unless a P3 array variant writes
            # into it; constant regions let the shadow tracker keep opaque
            # extraction loads exact (the DSE backtracking envelope).
            array_written = (config.p3_enabled and config.p3_fraction > 0
                            and config.p3_variant in ("array", "mixed")
                            and not config.read_only_chains)
            if not array_written:
                ranges = self.image.metadata.setdefault("rop_stable_ranges", [])
                ranges.append((opaque_array.address,
                               opaque_array.address + opaque_array.size))

        crafter = ChainCrafter(
            pool=self._pool,
            config=config,
            ss_address=self._ss_address,
            spill_slot=self._spill_slot,
            opaque_array=opaque_array,
            rng=random.Random(self.rng.getrandbits(32)),
        )
        try:
            chain = crafter.craft(translated)
        except RewriteError as exc:
            return FunctionResult(name=name, success=False,
                                  reason=f"register allocation failed: {exc}"
                                  if "pressure" in str(exc) else f"crafting failed: {exc}")

        materialized = embed_chain(self.image, chain, name,
                                   rng=random.Random(self.rng.getrandbits(32)),
                                   gadget_addresses=self._pool.addresses())
        try:
            install_pivot_stub(self.image, name, self._ss_address,
                               materialized.base_address)
        except EmbeddingError as exc:
            return FunctionResult(name=name, success=False, reason=str(exc))

        gadget_slots = chain.gadget_slots()
        return FunctionResult(
            name=name,
            success=True,
            program_points=translated.roplet_count(),
            total_gadgets=len(gadget_slots),
            unique_gadgets=len({slot.gadget.address for slot in gadget_slots}),
            chain_bytes=len(materialized.data),
            p3_instances=crafter._p3_instances,
            opaque_slots=crafter._opaque_slots + crafter._opaque_values,
            hidden_instances=crafter._hidden_instances,
        )


def rop_obfuscate(image: BinaryImage, function_names: Iterable[str],
                  config: Optional[RopConfig] = None,
                  profiles: Optional[Dict[str, Union[str, ProtectionProfile]]] = None,
                  ) -> Tuple[BinaryImage, RewriteReport]:
    """Clone ``image`` and rewrite ``function_names`` into ROP chains.

    Args:
        image: the compiled binary to protect (left unmodified).
        function_names: functions to rewrite.
        config: base rewriting configuration.
        profiles: optional per-function protection profiles — function name
            to a :class:`repro.core.config.ProtectionProfile` (or a key of
            :data:`repro.core.config.PROTECTION_PROFILES`) layered on top of
            ``config``.

    Returns ``(obfuscated_image, report)``.  The input image is not modified.
    """
    clone = image.clone()
    rewriter = RopRewriter(clone, config, profiles=profiles)
    report = rewriter.rewrite(list(function_names))
    return clone, report
