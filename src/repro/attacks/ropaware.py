"""ROP-aware deobfuscation tools (§III-B2): ROPMEMU and ROPDissector analogs.

* :class:`RopMemuExplorer` — dynamic multi-path exploration: record a chain
  execution, locate the flag-leak points that feed branch decisions (the
  ``setcc``/``adc`` idiom of Figure 1), flip them, and re-execute hoping to
  reveal new blocks.  P2's data dependencies make flipped executions derail
  into unintended bytes (§VII-A2).
* :class:`RopDissector` — static chain analysis over a memory dump: classify
  chain slots as gadget addresses vs. data, find the variable-RSP-offset
  sequences that mark branching points, and optionally run *gadget guessing*
  (speculative decoding at every plausible offset), which gadget confusion is
  designed to blow up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.attacks.engine import SnapshotEngine
from repro.binary.image import BinaryImage
from repro.cpu.tracing import TraceRecorder
from repro.gadgets.finder import gadget_at
from repro.isa.instructions import Mnemonic
from repro.isa.operands import Reg
from repro.isa.registers import Register


# ---------------------------------------------------------------------------
# ROPMEMU-style dynamic exploration
# ---------------------------------------------------------------------------
@dataclass
class FlipAttempt:
    """One attempted branch flip."""

    trace_index: int
    address: int
    survived: bool
    new_probes: Set[int] = field(default_factory=set)


@dataclass
class RopMemuReport:
    """Aggregate result of a multi-path exploration session."""

    flag_leak_points: int
    attempts: List[FlipAttempt]

    @property
    def valid_alternate_paths(self) -> int:
        """Flips that produced a complete, fault-free execution."""
        return sum(1 for attempt in self.attempts if attempt.survived)

    @property
    def new_coverage(self) -> Set[int]:
        """Coverage probes revealed only by flipped executions."""
        out: Set[int] = set()
        for attempt in self.attempts:
            out |= attempt.new_probes
        return out


class RopMemuExplorer(SnapshotEngine):
    """Dynamic multi-path exploration of a ROP-obfuscated function.

    Every flip re-executes the chain from the function entry; the engine
    rewinds its prepared emulator with :meth:`repro.cpu.Emulator.restore`
    (see :class:`repro.attacks.engine.SnapshotEngine`) instead of paying a
    program fork plus a fresh emulator per execution.
    """

    def __init__(self, image: BinaryImage, function: str,
                 max_instructions: int = 1_000_000,
                 use_snapshots: bool = True) -> None:
        super().__init__(image, function, max_instructions=max_instructions,
                         use_snapshots=use_snapshots)

    def _run(self, arguments: Sequence[int], flip_index: Optional[int] = None
             ) -> Tuple[bool, Set[int], List]:
        emulator = self._fork_emulator()
        recorder = TraceRecorder(capture_registers=False)

        flips = {"remaining": flip_index}

        def flipper(emu, address, instruction):
            if flips["remaining"] is None:
                return
            if len(recorder.entries) == flips["remaining"]:
                # invert the flag-leak outcome: the next SET/CMOV sees negated flags
                from repro.isa.flags import Flag

                for flag in (Flag.ZF, Flag.CF, Flag.SF):
                    emu.state.write_flag(flag, 1 - emu.state.read_flag(flag))
                flips["remaining"] = None

        faulted = self._run_input(emulator, arguments, [recorder._hook, flipper])
        return not faulted, set(emulator.host.probes), recorder.entries

    def flag_leak_points(self, trace) -> List[int]:
        """Trace indices of flag-leaking instructions inside the chain."""
        points = []
        for entry in trace:
            mnemonic = entry.instruction.mnemonic
            if mnemonic in (Mnemonic.SET, Mnemonic.CMOV, Mnemonic.ADC, Mnemonic.SBB):
                points.append(entry.index)
        return points

    def explore(self, arguments: Sequence[int], max_flips: int = 32) -> RopMemuReport:
        """Record a base trace and flip every detected flag-leak point once."""
        _, base_probes, trace = self._run(arguments)
        points = self.flag_leak_points(trace)
        attempts: List[FlipAttempt] = []
        for index in points[:max_flips]:
            survived, probes, _ = self._run(arguments, flip_index=index)
            attempts.append(FlipAttempt(
                trace_index=index,
                address=trace[index].address if index < len(trace) else 0,
                survived=survived,
                new_probes=probes - base_probes,
            ))
        return RopMemuReport(flag_leak_points=len(points), attempts=attempts)


# ---------------------------------------------------------------------------
# ROPDissector-style static analysis
# ---------------------------------------------------------------------------
@dataclass
class DissectionReport:
    """Static view of one chain.

    Attributes:
        slots: number of 8-byte strides examined.
        gadget_slots: strides whose value points at a decodable gadget.
        data_slots: strides classified as data operands.
        branch_points: gadgets that add a variable quantity to ``rsp``.
        guessed_gadgets: candidate gadget starts found by speculative decoding
            at every byte offset (gadget guessing) — confusion inflates this.
    """

    slots: int
    gadget_slots: int
    data_slots: int
    branch_points: int
    guessed_gadgets: int

    @property
    def address_looking_fraction(self) -> float:
        """Fraction of strides that look like gadget addresses."""
        if not self.slots:
            return 0.0
        return self.gadget_slots / self.slots


class RopDissector:
    """Static analysis of an embedded ROP chain from a memory dump."""

    def __init__(self, image: BinaryImage) -> None:
        self.image = image
        text = image.sections[".text"]
        self._text_data = bytes(text.data)
        self._text_base = text.address

    def _decode_gadget(self, address: int):
        if not (self._text_base <= address < self._text_base + len(self._text_data)):
            return None
        return gadget_at(self._text_data, address - self._text_base, self._text_base)

    def chain_bytes(self, function: str) -> bytes:
        """Raw bytes of the chain generated for ``function``."""
        symbol = self.image.symbols.get(f"__rop_chain_{function}")
        return self.image.read(symbol.address, symbol.size)

    def dissect(self, function: str, gadget_guessing: bool = False) -> DissectionReport:
        """Analyze the chain of ``function`` from its in-image dump."""
        data = self.chain_bytes(function)
        slots = len(data) // 8
        gadget_slots = 0
        data_slots = 0
        branch_points = 0
        for index in range(slots):
            value = int.from_bytes(data[8 * index:8 * index + 8], "little")
            gadget = self._decode_gadget(value)
            if gadget is None:
                data_slots += 1
                continue
            gadget_slots += 1
            for instruction in gadget.instructions:
                if instruction.mnemonic is Mnemonic.ADD and instruction.operands \
                        and isinstance(instruction.operands[0], Reg) \
                        and instruction.operands[0].reg is Register.RSP \
                        and isinstance(instruction.operands[1], Reg):
                    branch_points += 1

        guessed = 0
        if gadget_guessing:
            for offset in range(len(data)):
                value = int.from_bytes(data[offset:offset + 8].ljust(8, b"\0"), "little")
                if self._decode_gadget(value) is not None:
                    guessed += 1
        return DissectionReport(slots=slots, gadget_slots=gadget_slots,
                                data_slots=data_slots, branch_points=branch_points,
                                guessed_gadgets=guessed)
