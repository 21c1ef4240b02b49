"""Shared snapshot-driven execution base for the attack engines (§III-B).

Every dynamic attack in the evaluation — DSE path exploration, TDS trace
recording, ROPMEMU multi-path flipping — re-executes the attacked function
thousands of times.  This module centralizes the machinery that makes those
re-executions cheap:

* :class:`SnapshotEngine` — owns one emulator per engine instance, prepares
  it once (:func:`repro.cpu.emulator.prepare_call`, the entry recipe
  :func:`~repro.cpu.emulator.call_function` uses) and snapshots the prepared
  context; every subsequent execution rewinds with
  :meth:`repro.cpu.Emulator.restore` instead of paying ``load_image`` plus a
  fresh emulator.  An engine attacks the one function it was built for, and
  every engine runs each input through :meth:`SnapshotEngine._run_input`.
* :class:`EngineStats` — per-run statistics shared by the three engines and
  consumed by the attack goal drivers and the evaluation grid.
* :func:`preloaded_fork` — a process-wide pristine-load cache used by the
  evaluation drivers (Figure 5 overhead sweeps, Table II probe sampling)
  and by the engines' fork-per-execution path.

The backtracking DSE explorer keeps its mid-path snapshots in its own
bounded pool (:class:`repro.attacks.dse.SnapshotPool`), sized by a constant
of one exploration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence
from weakref import WeakKeyDictionary

from repro.binary.image import BinaryImage
from repro.binary.loader import LoadedProgram, load_image
from repro.cpu.emulator import (Emulator, EmulatorSnapshot, prepare_call,
                                write_arguments)
from repro.cpu.state import EmulationError


@dataclass
class EngineStats:
    """Aggregate statistics of one engine run.

    Every field is a deterministic count: the same input sequence gives the
    same stats on any machine.

    Attributes:
        executions: concrete executions performed.
        instructions: emulated instructions, in rerun-from-entry accounting
            (a backtracked execution still counts its full path length, so
            the number is comparable across exploration modes).
        instructions_replayed: instructions *not* actually executed because a
            mid-path snapshot restore skipped the path prefix.
        branch_restores: executions resumed from a mid-path branch snapshot.
        snapshots_taken: mid-path snapshots captured into the pool.
        repair_fallbacks: restores abandoned because the state repair raised
            (the execution reran from the entry instead).
        solver_queries: solver invocations (DSE only).
        paths_seen: distinct path signatures observed (DSE only).
    """

    executions: int = 0
    instructions: int = 0
    instructions_replayed: int = 0
    branch_restores: int = 0
    snapshots_taken: int = 0
    repair_fallbacks: int = 0
    solver_queries: int = 0
    paths_seen: int = 0


class SnapshotEngine:
    """Base class owning the snapshot lifecycle of one attack engine.

    Args:
        image: the (possibly obfuscated) binary image under attack.
        function: name of the attacked function; fixed for the engine's life.
        max_instructions: per-execution instruction budget.
        use_snapshots: when False, every execution forks
            :func:`preloaded_fork` and builds a fresh emulator instead of
            rewinding one (the A/B lever the throughput benchmark and the
            differential tests use).
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
        self._heap_base = 0

    def _fork_emulator(self) -> Emulator:
        """An emulator at the attacked function's entry.

        The first call loads the image once and snapshots the prepared
        emulator; every later call restores that snapshot copy-on-write, so
        each execution starts from the entry in O(regions) instead of paying
        ``load_image`` and a fresh emulator.
        """
        if not self.use_snapshots:
            return self._prepare_emulator(preloaded_fork(self.image))
        if self._entry_snapshot is None:
            self._emulator = self._prepare_emulator(load_image(self.image))
            self._entry_snapshot = self._emulator.snapshot()
        self._emulator.restore(self._entry_snapshot)
        return self._emulator

    def _prepare_emulator(self, program: LoadedProgram) -> Emulator:
        self._heap_base = program.heap_base
        return prepare_call(program, self.function,
                            max_steps=self.max_instructions)

    def _run_input(self, emulator: Emulator, arguments: Sequence[int],
                   hooks: List[Callable]) -> bool:
        """Run one input to its end and return whether it faulted.

        Writes ``arguments`` (none on a resumed path, whose snapshot repair
        already wrote them), runs with ``hooks`` as the emulator's
        ``pre_hooks`` and detaches them afterwards, so nothing a hook
        recorded outlives the run through the engine's emulator.  Counts the
        execution and its instructions (``emulator.steps``, which a resumed
        run inherits from its snapshot).
        """
        write_arguments(emulator, arguments)
        emulator.pre_hooks = hooks
        faulted = False
        try:
            emulator.run()
        except EmulationError:
            faulted = True
        finally:
            emulator.pre_hooks = []
        self.stats.executions += 1
        self.stats.instructions += emulator.steps
        return faulted


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
