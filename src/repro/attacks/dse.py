"""Dynamic symbolic execution (the S2E analog used throughout §VII).

The engine repeatedly executes the target function concretely under a
:class:`repro.attacks.shadow.ShadowTracker`, collects the path constraints of
each run, and derives new inputs by negating individual branch decisions and
handing the resulting constraint prefix to the solver — generational
exploration in the style of concolic engines.  Exploration order is governed
by a pluggable strategy; class-uniform path analysis (CUPA) groups pending
inputs by the branch they negate and picks classes uniformly, the strategy
the paper found most effective for both ROP and VM configurations.

Exploration is *backtracking* by default: while a path executes, the engine
captures whole-emulator snapshots (:meth:`repro.cpu.Emulator.snapshot`) at
symbolic branch points into a bounded :class:`SnapshotPool`.  Capture
happens through the tracker's ``branch_observer`` callback, which fires
before the hook mutates any shadow state for the branching instruction, so
every record kind is a capture point — plain ``jcc`` branches, ``cmov``
selects and pointer-kind (ROP) branch records alike.  An input derived by
negating decision ``p`` of a path then restores the nearest recorded
ancestor of its decision prefix instead of re-running from the function
entry, and the tracker fork stored with it *repairs* the restored state for
the new input assignment (:meth:`~repro.attacks.shadow.ShadowTracker.repair`
re-evaluates every register, memory and flag shadow under it).  The repair
is exact precisely while the tracker is
:meth:`~repro.attacks.shadow.ShadowTracker.resumable`, so snapshots are only
taken then — any execution the shadow cannot exactly characterize falls
back to the entry rewind, which keeps backtracking exploration
path-for-path identical to rerun-from-entry exploration (the differential
property the tests assert).  The engine reads nothing of the shadow state
but its branch records.

The pool's bounds are constants of one exploration
(:data:`SNAPSHOT_CAPACITY`, :data:`MAX_SNAPSHOTS_PER_RUN`,
:data:`MAX_SNAPSHOT_DEPTH`), so an exploration takes the same snapshots
wherever it runs: serially, in a grid worker or in a service worker.  The
pool lives for one exploration: :meth:`DseEngine.explore` empties it
when it returns, and every execution detaches its observer and hook from
the tracker and emulator once it has run.  A finished exploration thus
leaves nothing behind but its results, and reference counting frees its
shadow state at once instead of leaving reference cycles to the garbage
collector; an engine cached between requests holds only its entry snapshot.
"""

from __future__ import annotations

import random
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.attacks.engine import EngineStats, SnapshotEngine
from repro.attacks.shadow import BranchRecord, ShadowTracker
from repro.attacks.solver.expr import SymExpr
from repro.attacks.solver.solver import ConstraintSolver, PathConstraint
from repro.binary.image import BinaryImage
from repro.cpu.emulator import Emulator
from repro.cpu.state import EmulationError
from repro.memory import MemoryError_
from repro.isa.registers import ARG_REGISTERS, Register

_MASK64 = (1 << 64) - 1

#: Mid-path snapshots one exploration keeps resident.
SNAPSHOT_CAPACITY = 16
#: Snapshots captured per execution, so loop-heavy paths do not monopolize
#: the pool.
MAX_SNAPSHOTS_PER_RUN = 24
#: Deepest branch decision worth snapshotting.
MAX_SNAPSHOT_DEPTH = 48


class SnapshotPool:
    """Bounded pool of mid-path snapshots keyed by branch-decision prefixes.

    Keys are tuples of ``(branch_address, decision_taken)`` pairs — the path
    prefix executed before the snapshot was taken.  Lookup finds the deepest
    stored ancestor of a requested prefix; eviction drops the deepest
    least-recently-used entry so shallow snapshots (which serve the most
    descendants) survive the longest and memory stays O(frontier).
    """

    def __init__(self, capacity: int = SNAPSHOT_CAPACITY) -> None:
        self.capacity = capacity
        self.evictions = 0
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Tuple) -> bool:
        return key in self._entries

    def touch(self, key: Tuple) -> None:
        """Mark ``key`` as recently used (it survives eviction longer)."""
        if key in self._entries:
            self._entries.move_to_end(key)

    def put(self, key: Tuple, value: object) -> None:
        """Store a snapshot, evicting the deepest LRU entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        while len(self._entries) >= self.capacity:
            deepest = max(len(stored) for stored in self._entries)
            for stored in self._entries:  # in LRU order
                if len(stored) == deepest:
                    del self._entries[stored]
                    self.evictions += 1
                    break
        self._entries[key] = value

    def nearest_ancestor(self, prefix: Tuple) -> Optional[Tuple[Tuple, object]]:
        """Return ``(key, value)`` of the deepest stored prefix of ``prefix``.

        The empty prefix is a valid ancestor: a snapshot taken at the first
        branch point still skips the whole function prologue.
        """
        for depth in range(len(prefix), -1, -1):
            entry = self._entries.get(prefix[:depth])
            if entry is not None:
                self._entries.move_to_end(prefix[:depth])
                return prefix[:depth], entry
        return None

    def clear(self) -> None:
        self._entries.clear()


def _decision_key(record: BranchRecord) -> Tuple:
    """Pool-key element uniquely identifying one branch decision.

    ``(address, expected)`` is ambiguous for pointer records: two sibling
    chains pin *different* concrete targets at the same address, both with
    ``expected=True``.  Folding the pinned value in keeps a resume from
    restoring a snapshot that belongs to the wrong sibling chain.
    """
    return (record.address, record.constraint.expected, record.pinned)


@dataclass
class InputSpec:
    """Describes the symbolic inputs of the attacked function.

    Attributes:
        argument_sizes: byte width of each integer argument treated as
            symbolic (one symbol per argument, matching the RandomFuns input
            sizes of §VII-B).
        buffer_symbols: optional number of symbolic bytes passed through a
            pointer argument (used by the base64 case study); the buffer is
            allocated by the engine and its address passed as the last
            argument.
    """

    argument_sizes: Sequence[int] = (8,)
    buffer_symbols: int = 0

    def symbol_table(self) -> Dict[str, int]:
        table = {f"arg{i}": size for i, size in enumerate(self.argument_sizes)}
        for i in range(self.buffer_symbols):
            table[f"buf{i}"] = 1
        return table


@dataclass
class ExecutionResult:
    """Outcome of a single concolic execution."""

    assignment: Dict[str, int]
    return_value: int
    probes: Tuple[int, ...]
    constraints: List[PathConstraint]
    branch_addresses: List[int]
    instructions: int
    faulted: bool
    #: how many branch decisions deep the snapshot this execution resumed
    #: from was (0 = started from the function entry).
    resumed_depth: int = 0
    #: one :func:`_decision_key` per branch decision — the unambiguous form
    #: of the path signature the snapshot pool is keyed by.
    decision_keys: Tuple = ()


class DseEngine(SnapshotEngine):
    """Concolic exploration of one function in a binary image.

    A backtracking execution resumes from a pooled mid-path snapshot: it
    restores the machine and a fork of the tracker captured with it, and
    the fork repairs the machine for the new input
    (:meth:`~repro.attacks.shadow.ShadowTracker.repair`).  Pool keys come
    from the branch records alone (:func:`_decision_key`).

    Args:
        image: the (possibly obfuscated) binary image.
        function: name of the function to attack.
        input_spec: which inputs are symbolic.
        strategy: ``"cupa"`` or ``"bfs"``.
        memory_model: ``"concretize"`` (default) or ``"page"`` (§VII-C3).
        seed: RNG seed.
        max_instructions: per-execution instruction cap.
        use_snapshots: False restores the legacy fork-per-execution path.
        backtracking: explore by restoring mid-path branch snapshots instead
            of rewinding to the entry per path (False is the rerun-from-entry
            reference the differential tests compare against).  Forced off
            for the page memory model (whose select expressions pin another
            execution's concrete memory) and when snapshots are disabled.
    """

    def __init__(self, image: BinaryImage, function: str,
                 input_spec: Optional[InputSpec] = None, strategy: str = "cupa",
                 memory_model: str = "concretize", seed: int = 0,
                 max_instructions: int = 2_000_000,
                 use_snapshots: bool = True,
                 backtracking: bool = True) -> None:
        if strategy not in ("cupa", "bfs"):
            raise ValueError(f"unknown strategy {strategy!r}")
        super().__init__(image, function, max_instructions=max_instructions,
                         use_snapshots=use_snapshots)
        self.input_spec = input_spec or InputSpec()
        self.strategy = strategy
        self.memory_model = memory_model
        self.random = random.Random(seed)
        self.symbols = self.input_spec.symbol_table()
        self.solver = ConstraintSolver(self.symbols, seed=seed)
        self._pool = SnapshotPool()
        self.backtracking = (backtracking and use_snapshots
                             and memory_model == "concretize")

    def invalidate_snapshots(self) -> None:
        super().invalidate_snapshots()
        self._pool.clear()

    def reset(self, input_spec: Optional[InputSpec] = None,
              seed: int = 0) -> None:
        """Restore the engine to freshly-constructed exploration state.

        The long-lived attack service reuses one engine per image across
        requests; everything a previous request could leak into the next —
        the CUPA RNG stream, the solver's model cache, the cumulative
        :class:`EngineStats` — is rebuilt here, which is exactly what makes
        a served request byte-identical to a one-shot run at the same seed.
        The rebuilt solver keeps its per-query evaluation budget: that is
        set by the engine kind (the static engine raises it), not by a
        request.
        The mid-path snapshot pool lives for one exploration (``explore``
        already emptied it); it is cleared here too for callers that drive
        :meth:`execute` alone.  The *entry* snapshot is deliberately kept:
        it depends only on the image and the attacked symbol, and reusing it
        across requests is the service's whole point.
        """
        if input_spec is not None:
            self.input_spec = input_spec
            self.symbols = self.input_spec.symbol_table()
        self.random = random.Random(seed)
        self.solver = ConstraintSolver(
            self.symbols, seed=seed,
            max_evaluations=self.solver.max_evaluations)
        self.stats = EngineStats()
        self._pool.clear()

    # -- mid-path snapshot capture and resume ------------------------------------
    def _branch_observer(self, emulator: Emulator, tracker: ShadowTracker) -> Callable:
        """Build the tracker's branch observer that captures snapshots.

        The tracker invokes it at the exact point a branch record is about
        to be appended — before the hook mutates any shadow state for that
        instruction — so *every* record kind is a capture point: plain
        ``jcc`` branches, ``cmov`` selects (whose hook updates the
        destination shadow in the same call) and pointer (ROP) branches
        (whose hook also rewrites the flag record).  The fork taken here
        therefore needs no unwinding: ``tracker.branches`` is still the
        pre-branch decision prefix, which doubles as the pool key.  Only a
        :meth:`~repro.attacks.shadow.ShadowTracker.resumable` state is
        captured.
        """
        state = {"taken": 0}

        def observer(kind: str, address: int) -> None:
            if state["taken"] >= MAX_SNAPSHOTS_PER_RUN:
                return
            branches = tracker.branches
            if len(branches) >= MAX_SNAPSHOT_DEPTH:
                return
            if not tracker.resumable():
                return
            key = tuple(_decision_key(record) for record in branches)
            if key in self._pool:
                self._pool.touch(key)
                return
            fork = tracker.fork()
            evicted = self._pool.evictions
            self._pool.put(key, (emulator.snapshot(), fork))
            state["taken"] += 1
            self.stats.snapshots_taken += 1
            self.stats.snapshots_evicted += self._pool.evictions - evicted

        return observer

    def _resume(self, resume_key: Tuple, assignment: Dict[str, int]
                ) -> Optional[Tuple[Emulator, ShadowTracker, int]]:
        """Restore the nearest recorded ancestor of ``resume_key``.

        Returns ``(emulator, tracker, depth)`` ready to run, or None when no
        usable snapshot exists (the caller falls back to the entry rewind).
        """
        if not self.backtracking or self._entry_snapshot is None \
                or self._entry_symbol != self.function:
            return None
        hit = self._pool.nearest_ancestor(resume_key)
        if hit is None:
            return None
        key, (snapshot, tracker_fork) = hit
        emulator = self._emulator
        emulator.restore(snapshot)
        tracker = tracker_fork.fork()
        try:
            tracker.repair(emulator, assignment)
        except (ValueError, MemoryError_, EmulationError):
            # un-evaluable repair expression or unwritable repair target:
            # rewind from the entry instead (counted so repair regressions
            # surface in the stats rather than vanishing into the fallback)
            self.stats.repair_fallbacks += 1
            return None
        return emulator, tracker, len(key)

    # -- concrete+symbolic execution of one input --------------------------------
    def execute(self, assignment: Dict[str, int],
                resume_key: Optional[Tuple] = None) -> ExecutionResult:
        """Run the target once under the given input assignment.

        ``resume_key`` — the branch-decision prefix this input is expected to
        follow — lets the engine resume from a pooled mid-path snapshot; the
        run is indistinguishable from a rerun from the entry.
        """
        resumed = self._resume(resume_key, assignment) if resume_key is not None else None
        if resumed is not None:
            emulator, tracker, resumed_depth = resumed
            self.stats.branch_restores += 1
            self.stats.instructions_replayed += emulator.steps
        else:
            resumed_depth = 0
            emulator = self._fork_emulator()
            tracker = ShadowTracker(
                memory_model=self.memory_model,
                stable_ranges=self.image.metadata.get("rop_stable_ranges", ()))

            arguments: List[int] = []
            for index, size in enumerate(self.input_spec.argument_sizes):
                name = f"arg{index}"
                value = assignment.get(name, 0) & ((1 << (8 * size)) - 1)
                arguments.append(value)
            if self.input_spec.buffer_symbols:
                buffer_address = self._heap_base + 0x100
                for index in range(self.input_spec.buffer_symbols):
                    name = f"buf{index}"
                    value = assignment.get(name, 0) & 0xFF
                    emulator.memory.write_int(buffer_address + index, value, 1)
                    tracker.set_memory_symbol(buffer_address + index, 1, SymExpr(name, 1))
                arguments.append(buffer_address)

            for register, value in zip(ARG_REGISTERS, arguments):
                emulator.state.write_reg(register, value & _MASK64)
            for index, size in enumerate(self.input_spec.argument_sizes):
                tracker.set_register_symbol(ARG_REGISTERS[index], SymExpr(f"arg{index}", size))

        if self.backtracking:
            tracker.branch_observer = self._branch_observer(emulator, tracker)
        emulator.pre_hooks = [tracker.hook]
        host = emulator.host

        faulted = False
        try:
            emulator.run()
        except EmulationError:
            faulted = True
        finally:
            # detach: the observer closes over the tracker, the emulator and
            # the engine, so a tracker left holding it (or an emulator left
            # holding the hook) is a cycle only a full collection would free
            tracker.branch_observer = None
            emulator.pre_hooks = []

        self.stats.executions += 1
        self.stats.instructions += emulator.steps
        return ExecutionResult(
            assignment=dict(assignment),
            return_value=emulator.state.read_reg(Register.RAX),
            probes=tuple(host.probes),
            constraints=tracker.path_constraints(),
            branch_addresses=[record.address for record in tracker.branches],
            instructions=emulator.steps,
            faulted=faulted,
            resumed_depth=resumed_depth,
            decision_keys=tuple(_decision_key(record) for record in tracker.branches),
        )

    # -- exploration ------------------------------------------------------------------
    def explore(self, time_budget: float = 10.0, max_executions: int = 200,
                stop_condition: Optional[Callable[[ExecutionResult], bool]] = None,
                max_solver_queries: Optional[int] = None,
                ) -> Tuple[List[ExecutionResult], EngineStats]:
        """Explore paths until the budget runs out or ``stop_condition`` holds.

        ``max_solver_queries`` bounds generational expansion: once that many
        solver queries have been spent, no further branch negations are
        attempted (already-pending inputs still run).  Unlike the wall-clock
        budget it is *deterministic*, which is what lets a grid slice produce
        identical rows on any machine and any worker count.

        Returns the list of execution results (one per explored input) and the
        aggregate statistics.
        """
        try:
            return self._explore(time_budget, max_executions, stop_condition,
                                 max_solver_queries)
        finally:
            # the pool's snapshots, tracker forks and expression DAGs only
            # serve this exploration's resumes: free them with it
            self._pool.clear()

    def _explore(self, time_budget: float, max_executions: int,
                 stop_condition: Optional[Callable[[ExecutionResult], bool]],
                 max_solver_queries: Optional[int],
                 ) -> Tuple[List[ExecutionResult], EngineStats]:
        start = time.monotonic()
        initial = {name: 0 for name in self.symbols}
        pending: List[Tuple[int, Dict[str, int], Optional[Tuple]]] = [(0, initial, None)]
        seen_inputs: Set[Tuple] = {tuple(sorted(initial.items()))}
        seen_decisions: Set[Tuple[int, bool]] = set()
        results: List[ExecutionResult] = []
        path_signatures: Set[Tuple] = set()

        while pending:
            elapsed = time.monotonic() - start
            if elapsed > time_budget or self.stats.executions >= max_executions:
                break
            index = self._pick(pending)
            _, assignment, resume_key = pending.pop(index)
            result = self.execute(assignment, resume_key=resume_key)
            results.append(result)

            signature = tuple(
                (address, constraint.expected)
                for address, constraint in zip(result.branch_addresses, result.constraints)
            )
            if signature not in path_signatures:
                path_signatures.add(signature)
                self.stats.paths_seen += 1

            if stop_condition is not None and stop_condition(result):
                break

            # generational expansion: negate each branch decision of this path
            for position, constraint in enumerate(result.constraints):
                if max_solver_queries is not None \
                        and self.stats.solver_queries >= max_solver_queries:
                    break
                if time.monotonic() - start > time_budget:
                    break
                # dedupe on the decision *in its path context*: the same branch
                # may be feasible to flip under one prefix and not another
                decision_key = (
                    signature[:position],
                    result.branch_addresses[position],
                    not constraint.expected,
                )
                if decision_key in seen_decisions:
                    continue
                seen_decisions.add(decision_key)
                prefix = result.constraints[:position] + [constraint.negated()]
                self.stats.solver_queries += 1
                solution = self.solver.solve(prefix, seed_assignment=result.assignment)
                if solution is None:
                    continue
                key = tuple(sorted(solution.items()))
                if key in seen_inputs:
                    continue
                seen_inputs.add(key)
                pending.append((result.branch_addresses[position], solution,
                                result.decision_keys[:position]))

        self.stats.elapsed = time.monotonic() - start
        return results, self.stats

    def _pick(self, pending: List[Tuple]) -> int:
        if self.strategy == "bfs":
            return 0
        # CUPA: group by the branch address whose negation produced the input,
        # pick a class uniformly at random, then a member uniformly within it
        classes: Dict[int, List[int]] = {}
        for index, entry in enumerate(pending):
            classes.setdefault(entry[0], []).append(index)
        chosen_class = self.random.choice(list(classes))
        return self.random.choice(classes[chosen_class])
