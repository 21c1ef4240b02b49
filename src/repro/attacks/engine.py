"""Shared snapshot-driven execution base for the attack engines (§III-B).

Every dynamic attack in the evaluation — DSE path exploration, TDS trace
recording, ROPMEMU multi-path flipping — re-executes the attacked function
thousands of times.  This module centralizes the machinery that makes those
re-executions cheap:

* :class:`SnapshotEngine` — owns one emulator per engine instance, prepares
  it once (load, stack, return-to-exit sentinel, ``rip`` at the attacked
  function's entry) and snapshots the prepared context; every subsequent
  execution rewinds with :meth:`repro.cpu.Emulator.restore` instead of
  paying ``load_image``/``LoadedProgram.fork`` plus a fresh emulator.  The
  entry snapshot is keyed on the attacked symbol and invalidated when the
  engine is retargeted, so one engine instance can attack several functions
  without leaking the previous target's context.
* :class:`EngineStats` — per-run statistics shared by the three engines and
  consumed by the attack goal drivers and the evaluation grid.
* :func:`preloaded_fork` — a process-wide pristine-load cache used by the
  evaluation drivers (Figure 5 overhead sweeps, Table II probe sampling)
  for the hook-free executions that do not go through an engine.

The backtracking DSE explorer keeps its mid-path snapshots in its own
bounded pool (:class:`repro.attacks.dse.SnapshotPool`), sized by a constant
of one exploration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional
from weakref import WeakKeyDictionary

from repro.binary.image import BinaryImage
from repro.binary.loader import LoadedProgram, load_image
from repro.cpu.emulator import Emulator, EmulatorSnapshot
from repro.cpu.host import EXIT_ADDRESS, HostEnvironment
from repro.isa.registers import Register


@dataclass
class EngineStats:
    """Aggregate statistics of one engine run.

    Attributes:
        executions: concrete executions performed.
        instructions: emulated instructions, in rerun-from-entry accounting
            (a backtracked execution still counts its full path length, so
            the number is comparable across exploration modes).
        instructions_replayed: instructions *not* actually executed because a
            mid-path snapshot restore skipped the path prefix.
        entry_restores: executions started by rewinding to the entry
            snapshot.
        branch_restores: executions resumed from a mid-path branch snapshot.
        snapshots_taken: mid-path snapshots captured into the pool.
        snapshots_evicted: pool entries dropped by the LRU-by-depth bound.
        repair_fallbacks: restores abandoned because the state repair raised
            (the execution reran from the entry instead).
        solver_queries: solver invocations (DSE only).
        paths_seen: distinct path signatures observed (DSE only).
        elapsed: wall-clock seconds of the run.
    """

    executions: int = 0
    instructions: int = 0
    instructions_replayed: int = 0
    entry_restores: int = 0
    branch_restores: int = 0
    snapshots_taken: int = 0
    snapshots_evicted: int = 0
    repair_fallbacks: int = 0
    solver_queries: int = 0
    paths_seen: int = 0
    elapsed: float = 0.0


class SnapshotEngine:
    """Base class owning the snapshot lifecycle of one attack engine.

    Args:
        image: the (possibly obfuscated) binary image under attack.
        function: name of the attacked function.
        max_instructions: per-execution instruction budget.
        use_snapshots: when False, fall back to the legacy per-execution
            ``LoadedProgram.fork()`` + fresh-emulator path (the A/B lever the
            throughput benchmark and the differential tests use).
    """

    def __init__(self, image: BinaryImage, function: str,
                 max_instructions: int = 2_000_000,
                 use_snapshots: bool = True) -> None:
        self.image = image
        self.function = function
        self.max_instructions = max_instructions
        self.use_snapshots = use_snapshots
        self.stats = EngineStats()
        self._emulator: Optional[Emulator] = None
        self._entry_snapshot: Optional[EmulatorSnapshot] = None
        self._entry_symbol: Optional[str] = None
        self._pristine: Optional[LoadedProgram] = None
        self._heap_base = 0

    # -- snapshot lifecycle --------------------------------------------------
    def retarget(self, function: str) -> None:
        """Point the engine at a different function of the same image.

        Cheap by design: only the target symbol changes here, and
        :meth:`_fork_emulator` lazily invalidates the entry snapshot when it
        notices the mismatch — so retargeting back and forth costs nothing
        until the next execution actually needs the new entry context.  The
        long-lived attack service retargets one cached engine per image
        across requests instead of rebuilding engines.
        """
        self.function = function

    def invalidate_snapshots(self) -> None:
        """Drop the prepared emulator and every snapshot derived from it.

        Called automatically when the attacked symbol changes; subclasses
        that keep additional snapshots (the DSE branch pool) extend this.
        """
        self._emulator = None
        self._entry_snapshot = None
        self._entry_symbol = None

    def _fork_emulator(self) -> Emulator:
        """Rewind the engine's emulator to the attacked function's entry.

        The first call loads the image once and snapshots the fully prepared
        emulator (stack, return-to-exit sentinel, ``rip`` at the function
        entry); every later call restores that snapshot copy-on-write, so
        each execution starts from the entry in O(regions) instead of paying
        ``load_image`` and a fresh run from ``main``.  The snapshot is bound
        to the attacked symbol: retargeting the engine to a different
        function invalidates it rather than leaking the stale entry context.
        """
        if not self.use_snapshots:
            return self._legacy_emulator()
        if self._entry_snapshot is not None and self._entry_symbol != self.function:
            self.invalidate_snapshots()
        if self._entry_snapshot is None:
            emulator = self._prepare_emulator(load_image(self.image))
            self._emulator = emulator
            self._entry_snapshot = emulator.snapshot()
            self._entry_symbol = self.function
        self._emulator.restore(self._entry_snapshot)
        self._emulator.pre_hooks = []
        self.stats.entry_restores += 1
        return self._emulator

    def _prepare_emulator(self, program: LoadedProgram) -> Emulator:
        """Build an emulator positioned at the attacked function's entry:
        stack pointers set, return-to-exit sentinel pushed, ``rip`` at the
        symbol — the one entry-context recipe both execution paths share."""
        emulator = Emulator(program.memory, host=HostEnvironment(),
                            max_steps=self.max_instructions)
        emulator.state.write_reg(Register.RSP, program.stack_top)
        emulator.state.write_reg(Register.RBP, program.stack_top)
        emulator.push(EXIT_ADDRESS)
        emulator.state.rip = self.image.function(self.function).address
        self._heap_base = program.heap_base
        return emulator

    def _legacy_emulator(self) -> Emulator:
        """The pre-snapshot path: COW-fork the image and build an emulator."""
        if self._pristine is None:
            self._pristine = load_image(self.image)
        return self._prepare_emulator(self._pristine.fork())


#: image -> pristine ``(memory, stack_top, heap_base)`` triple, so repeated
#: measurements of the same image (overhead sweeps, probe sampling rounds)
#: load it once and fork COW per run like the attack engines.  Weak keys —
#: and the cached value deliberately omits the :class:`LoadedProgram` image
#: back-reference — so a preload never outlives the image it maps.
_PRELOADED = WeakKeyDictionary()


def preloaded_fork(image: BinaryImage) -> LoadedProgram:
    """Fork a cached pristine load of ``image`` copy-on-write.

    The first call for an image pays :func:`load_image`; every later one
    forks the cached pristine memory in O(regions).  Forks are never mutated
    back into the preload, so the cache stays pristine.
    """
    cached = _PRELOADED.get(image)
    if cached is None:
        pristine = load_image(image)
        cached = (pristine.memory, pristine.stack_top, pristine.heap_base)
        _PRELOADED[image] = cached
    memory, stack_top, heap_base = cached
    return LoadedProgram(image=image, memory=memory.snapshot(),
                         stack_top=stack_top, heap_base=heap_base)
