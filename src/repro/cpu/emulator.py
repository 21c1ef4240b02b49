"""Concrete emulator for the reproduction ISA.

The emulator executes encoded instructions directly from memory, which means
ROP chains run exactly as the paper describes them: ``ret`` pops the next
gadget address from the stack and execution continues wherever ``rsp`` points.
The emulator also services host runtime calls and drives the tracing hooks the
attack engines (DSE, TDS, ROPMEMU) build on.

Performance notes (this is the hottest loop in the repo — every experiment
in the evaluation grid bottoms out here):

* **Decode cache** — decoded ``(instruction, length)`` pairs are cached per
  address, keyed on the owning region's write ``generation``.  Stores into a
  region bump its generation (see :class:`repro.memory.Region`), so
  self-modifying code and ROP-materialized instructions invalidate their
  cache entries naturally.
* **Dispatch table** — instruction semantics live in per-mnemonic handler
  methods bound into a ``Mnemonic -> handler`` table at construction, and
  the cached decode entry memoizes the handler, so steady-state dispatch is
  one dict probe instead of a ~40-branch ``if`` chain.
* **Exec-compiled traces** — hot addresses are recorded as traces:
  straight-line runs and ret-chains with concrete stack targets (see
  :mod:`repro.cpu.trace`).  After a short warm-up, each trace is emitted
  as Python source and ``compile``/``exec``'d into one function (see
  :mod:`repro.cpu.codegen`), which runs the whole trace without
  per-instruction dispatch.  Registers and flags are hoisted into locals,
  operands and effective addresses are constant-folded, and ret guards and
  mid-trace SMC checks are inline.  Execution is thus two-tiered —
  single-step -> compiled trace — with single-step the exact-semantics
  fallback.  Traces key on the code region's write generation like the
  decode cache and fall back to single-step whenever hooks are installed or
  the step budget is nearly exhausted.  Set ``REPRO_TRACE_CACHE=0`` to
  disable fusion; :attr:`Emulator.jit_stats` counts per-tier activity.
* **Hooked loop** — :meth:`run` only leaves the fused tiers when hooks are
  installed, and then runs one instruction at a time through a loop of its
  own: each decode entry carries the instruction's specialized hook
  transfer (:class:`SpecializedHook`, the DSE shadow's entry point) next to
  its handler, so the hooked path pays one cached dispatch per instruction.
* **O(1) snapshots** — :meth:`Emulator.snapshot` / :meth:`Emulator.restore`
  fork the complete execution context (registers, flags, memory COW, host
  state) so the attack engines can rewind to a saved point instead of
  re-running from the entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro import knobs
from repro.binary.loader import LoadedProgram
from repro.binary.sections import HOST_FUNCTION_LIMIT
from repro.cpu.host import EXIT_ADDRESS, HostEnvironment, is_host_address
from repro.cpu.state import (
    BIT_WIDTHS,
    CpuState,
    EmulationError,
    SIGN_BITS,
    SIZE_MASKS,
    to_signed,
)
from repro.cpu import semantics as _semantics
from repro.cpu.codegen import compile_trace
from repro.cpu.trace import Trace, build_trace
from repro.isa.encoding import DecodeError, decode_instruction
from repro.isa.instructions import Instruction, Mnemonic
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.registers import ARG_REGISTERS, Register
from repro.memory import Memory, MemoryError_

#: Largest possible encoded instruction, used to bound fetch windows.
_MAX_INSTRUCTION_LENGTH = 64

#: 64-bit mask.
_MASK64 = (1 << 64) - 1

#: Program addresses live above this; anything at or below it is either the
#: host-function range, the :data:`EXIT_ADDRESS` sentinel, or an unmapped
#: low address.  The run loop compares against this once per step instead of
#: calling :func:`is_host_address` per instruction.
_HOST_SPACE_END = HOST_FUNCTION_LIMIT

#: Trace fusion default; ``REPRO_TRACE_CACHE=0`` disables superinstruction
#: fusion globally (debugging aid and the A/B lever the benchmark uses).
_TRACE_CACHE_DEFAULT = knobs.enabled("REPRO_TRACE_CACHE")

#: Number of run-loop visits to an address before it is fused into a trace.
#: One free visit keeps cold straight-through code out of the compiler.
_TRACE_HEAT_THRESHOLD = 2

#: Warm-up runs of a trace before it is compiled.  Two warm-up runs keep
#: one-shot traces (and the attack engines' short-lived explorations) away
#: from ``compile()``.
_TRACE_COMPILE_THRESHOLD = 2

#: Transfer slot of a decode entry the hooked loop has not specialized yet.
_UNSPECIALIZED = object()


@dataclass
class JitStats:
    """Per-emulator counters of the two-tier execution pipeline.

    Attributes:
        traces_built: traces recorded.
        traces_compiled: traces promoted to exec-compiled source.
        compile_declined: promotions declined by the codegen (the trace
            keeps its warm-up path until its code region changes).
        compiled_runs: fused executions served by compiled functions.
        closure_runs: warm-up runs of uncompiled traces (single-stepped
            along the recorded path); the end-to-end benchmark reports them
            under this name.
        superblock_runs: always 0: there are no cross-trace superblocks
            (their end-to-end gain was within noise).  Kept because the
            end-to-end benchmark reads and reports it.
    """

    traces_built: int = 0
    traces_compiled: int = 0
    compile_declined: int = 0
    compiled_runs: int = 0
    closure_runs: int = 0
    superblock_runs: int = 0

    @property
    def compiled_hit_rate(self) -> float:
        """Fraction of fused executions served by the compiled tier."""
        total = self.compiled_runs + self.closure_runs
        return self.compiled_runs / total if total else 0.0


class SpecializedHook:
    """A pre-hook whose per-instruction work is specialized once per decode.

    ``specialize(instruction)`` returns a *transfer* called as
    ``transfer(owner, emulator, address)`` right before the instruction
    executes, or None when the instruction needs no work.  The hooked run
    loop caches each instruction's transfer next to its decode entry and
    handler, so the specialization is paid once per decoded instruction
    and stays warm across runs, rewinds and owners that share
    ``specialize``.  Calling the hook directly specializes on the fly.
    """

    __slots__ = ("owner", "specialize")

    def __init__(self, owner: object,
                 specialize: Callable[[Instruction], Optional[Callable]]) -> None:
        self.owner = owner
        self.specialize = specialize

    def __call__(self, emulator: "Emulator", address: int,
                 instruction: Instruction) -> None:
        transfer = self.specialize(instruction)
        if transfer is not None:
            transfer(self.owner, emulator, address)


class EmulatorSnapshot:
    """A frozen copy of a complete execution context.

    Produced by :meth:`Emulator.snapshot`; consumed (any number of times) by
    :meth:`Emulator.restore`.  Memory is captured copy-on-write, registers,
    flags and host state are shallow-copied, so taking and restoring
    snapshots is O(regions), not O(bytes).

    ``source_memory`` remembers which live :class:`Memory` the snapshot was
    taken from.  As long as the restoring emulator still runs on that same
    object, :meth:`Emulator.restore` can rewind the regions *in place* and
    keep its decode/trace caches warm for every region the execution never
    wrote — the common case for the attack engines, which rewind thousands
    of times per second over read-only code.
    """

    __slots__ = ("state", "memory", "host", "steps", "halted", "source_memory")

    def __init__(self, state: CpuState, memory: Memory, host: HostEnvironment,
                 steps: int, halted: bool,
                 source_memory: Optional[Memory] = None) -> None:
        self.state = state
        self.memory = memory
        self.host = host
        self.steps = steps
        self.halted = halted
        self.source_memory = source_memory


class Emulator:
    """Executes instructions against a :class:`CpuState` and a memory.

    Args:
        memory: the program memory (usually from :func:`repro.binary.load_image`).
        host: host runtime environment; a fresh one is created if omitted.
        max_steps: hard cap on executed instructions (guards against runaway
            obfuscated code and is also the knob attack budgets use).
        trace_cache: override the superinstruction-fusion toggle for this
            instance (defaults to the ``REPRO_TRACE_CACHE`` environment knob).
    """

    def __init__(self, memory: Memory, host: Optional[HostEnvironment] = None,
                 max_steps: int = 2_000_000,
                 trace_cache: Optional[bool] = None) -> None:
        self.memory = memory
        self.state = CpuState()
        self.host = host or HostEnvironment()
        self.host_handlers = self.host.DISPATCH
        self.max_steps = max_steps
        self.steps = 0
        self.halted = False
        #: hooks called as ``hook(emulator, address, instruction)`` before
        #: each instruction executes; read once per :meth:`run` call.  A
        #: :class:`SpecializedHook` runs its cached per-instruction transfer.
        self.pre_hooks: List[Callable] = []
        self._trace_cache_enabled = (_TRACE_CACHE_DEFAULT
                                     if trace_cache is None else trace_cache)
        #: warm-up runs before a trace is promoted to compiled source;
        #: instance-tunable so tests can force immediate promotion
        self.trace_compile_threshold = _TRACE_COMPILE_THRESHOLD
        #: two-tier pipeline counters (builds, promotions, per-tier runs)
        self.jit_stats = JitStats()
        #: address -> (instruction, length, region, generation, handler,
        #: transfer); the transfer slot belongs to the hooked run loop
        self._decode_cache: Dict[int, tuple] = {}
        #: the specializer whose transfers the decode entries hold
        self._hooked_specialize: Optional[Callable] = None
        #: entry address -> recorded (and, once hot, compiled) trace
        self._trace_cache: Dict[int, Trace] = {}
        #: entry address -> run-loop visit count (see _TRACE_HEAT_THRESHOLD)
        self._trace_heat: Dict[int, int] = {}
        self._dispatch: Dict[Mnemonic, Callable[[Instruction], None]] = {
            mnemonic: getattr(self, name) for mnemonic, name in _HANDLER_NAMES.items()
        }

    # -- fetch / decode -----------------------------------------------------
    def fetch(self, address: int) -> tuple:
        """Decode the instruction at ``address``.

        Returns ``(instruction, length)``.

        Raises:
            EmulationError: when the address is unmapped or undecodable.
        """
        entry = self._decode_cache.get(address)
        if entry is not None and entry[2].generation == entry[3]:
            return entry[0], entry[1]
        entry = self._fetch_slow(address)
        return entry[0], entry[1]

    def decode_entry(self, address: int) -> tuple:
        """Decode at ``address`` returning the full cache entry tuple.

        The tuple is ``(instruction, length, region, generation, handler,
        transfer)``; used by the trace builder so fusion re-uses cached
        decodes.  The transfer slot is the hooked loop's
        (:meth:`_run_hooked`).
        """
        entry = self._decode_cache.get(address)
        if entry is not None and entry[2].generation == entry[3]:
            return entry
        return self._fetch_slow(address)

    def _fetch_slow(self, address: int) -> tuple:
        """Decode at ``address`` and (re)populate the decode cache."""
        region = self.memory.region_at(address)
        if region is None:
            raise EmulationError(f"fetch from unmapped address {address:#x}")
        offset = address - region.start
        window = min(_MAX_INSTRUCTION_LENGTH, len(region.data) - offset)
        blob = bytes(region.data[offset:offset + window])
        try:
            instruction, length = decode_instruction(blob, 0)
        except DecodeError as exc:
            raise EmulationError(f"undecodable instruction at {address:#x}: {exc}") from exc
        handler = self._dispatch.get(instruction.mnemonic)
        entry = (instruction, length, region, region.generation, handler,
                 _UNSPECIALIZED)
        self._decode_cache[address] = entry
        return entry

    # -- operand access -----------------------------------------------------
    def effective_address(self, operand: Mem) -> int:
        """Compute the effective address of a memory operand."""
        address = operand.disp
        if operand.base is not None:
            address += self.state.regs[operand.base]
        if operand.index is not None:
            address += self.state.regs[operand.index] * operand.scale
        return address & _MASK64

    def read_operand(self, operand) -> int:
        """Read the unsigned value of a register, immediate or memory operand."""
        # operand classes are final frozen dataclasses, so exact type checks
        # are safe and cheaper than isinstance in this per-operand hot path
        cls = type(operand)
        if cls is Reg:
            return self.state.read_reg(operand.reg, operand.size)
        if cls is Imm:
            return operand.value & SIZE_MASKS[operand.size]
        if cls is Mem:
            try:
                return self.memory.read_int(self.effective_address(operand), operand.size)
            except MemoryError_ as exc:
                raise EmulationError(str(exc)) from exc
        raise EmulationError(f"cannot read operand {operand!r}")

    def write_operand(self, operand, value: int) -> None:
        """Write ``value`` to a register or memory operand."""
        cls = type(operand)
        if cls is Reg:
            self.state.write_reg(operand.reg, value, operand.size)
            return
        if cls is Mem:
            try:
                self.memory.write_int(self.effective_address(operand), value, operand.size)
            except MemoryError_ as exc:
                raise EmulationError(str(exc)) from exc
            return
        raise EmulationError(f"cannot write operand {operand!r}")

    # -- stack helpers ------------------------------------------------------
    def push(self, value: int) -> None:
        """Push a 64-bit value on the stack."""
        rsp = (self.state.regs[Register.RSP] - 8) & _MASK64
        self.state.regs[Register.RSP] = rsp
        try:
            self.memory.write_int(rsp, value, 8)
        except MemoryError_ as exc:
            raise EmulationError(str(exc)) from exc

    def pop(self) -> int:
        """Pop a 64-bit value from the stack."""
        rsp = self.state.regs[Register.RSP]
        try:
            value = self.memory.read_int(rsp, 8)
        except MemoryError_ as exc:
            raise EmulationError(str(exc)) from exc
        self.state.regs[Register.RSP] = (rsp + 8) & _MASK64
        return value

    # -- flag computation ---------------------------------------------------
    def _set_logic_flags(self, result: int, size: int) -> None:
        result &= SIZE_MASKS[size]
        state = self.state
        state.cf = 0
        state.of = 0
        state.zf = 1 if result == 0 else 0
        state.sf = 1 if result & SIGN_BITS[size] else 0

    def _set_add_flags(self, a: int, b: int, carry_in: int, size: int) -> int:
        mask = SIZE_MASKS[size]
        half = SIGN_BITS[size]
        a &= mask
        b &= mask
        total = a + b + carry_in
        result = total & mask
        # signed value = unsigned value minus 2*sign_bit when the sign bit is
        # set; avoids two to_signed() calls in the hottest flag helper
        signed_total = (a - ((a & half) << 1)) + (b - ((b & half) << 1)) + carry_in
        state = self.state
        state.cf = 1 if total > mask else 0
        state.of = 1 if (signed_total < -half or signed_total >= half) else 0
        state.zf = 1 if result == 0 else 0
        state.sf = 1 if result & half else 0
        return result

    def _set_sub_flags(self, a: int, b: int, borrow_in: int, size: int) -> int:
        mask = SIZE_MASKS[size]
        half = SIGN_BITS[size]
        a &= mask
        b &= mask
        result = (a - b - borrow_in) & mask
        signed_total = (a - ((a & half) << 1)) - (b - ((b & half) << 1)) - borrow_in
        state = self.state
        state.cf = 1 if a < b + borrow_in else 0
        state.of = 1 if (signed_total < -half or signed_total >= half) else 0
        state.zf = 1 if result == 0 else 0
        state.sf = 1 if result & half else 0
        return result

    # -- execution ----------------------------------------------------------
    def run(self, max_steps: Optional[int] = None) -> None:
        """Run until halted, hitting :data:`EXIT_ADDRESS`, or out of budget.

        Args:
            max_steps: optional *per-call* budget of additional instructions
                this call may execute.  The emulator-wide :attr:`max_steps`
                cap stays in force and is never modified by this argument.
        """
        if max_steps is None:
            limit = self.max_steps
        else:
            limit = min(self.max_steps, self.steps + max_steps)
        if self.pre_hooks:
            self._run_hooked(limit)
            return
        state = self.state
        cache_get = self._decode_cache.get
        fetch_slow = self._fetch_slow
        host_space_end = _HOST_SPACE_END
        fuse = self._trace_cache_enabled
        traces = self._trace_cache
        trace_get = traces.get
        heat = self._trace_heat
        heat_get = heat.get
        jit = self.jit_stats
        while not self.halted:
            if self.steps >= limit:
                raise EmulationError(f"instruction budget exhausted ({limit})")
            address = state.rip
            if address <= host_space_end:
                if address == EXIT_ADDRESS:
                    self.halted = True
                    return
                if is_host_address(address):
                    self._run_host_function(address)
                    self.steps += 1
                    continue
                # unmapped low address: fall through so fetch reports the fault
            if fuse:
                trace = trace_get(address)
                if trace is not None and trace.generation != trace.region.generation:
                    # the code under the trace changed (self-modifying or
                    # ROP-materialized): recompile from the current bytes
                    trace = build_trace(self, address)
                    if trace is None:
                        # unfusable right now (single-step will report the
                        # fault); reset the heat so the address can fuse
                        # again once valid code is written over it
                        del traces[address]
                        heat[address] = 0
                    else:
                        traces[address] = trace
                if trace is not None:
                    if self.steps + trace.length <= limit:
                        compiled = trace.compiled
                        if compiled is not None:
                            # steady state: call the exec-compiled function
                            # directly, skipping the promotion bookkeeping
                            jit.compiled_runs += 1
                            compiled()
                        else:
                            self._execute_trace(trace)
                        continue
                    # budget nearly exhausted: single-step to the exact cap
                else:
                    count = heat_get(address, 0) + 1
                    if count >= _TRACE_HEAT_THRESHOLD:
                        trace = build_trace(self, address)
                        if trace is None:
                            heat[address] = 0
                        else:
                            traces[address] = trace
                            if self.steps + trace.length <= limit:
                                self._execute_trace(trace)
                                continue
                    else:
                        heat[address] = count
            entry = cache_get(address)
            if entry is None or entry[2].generation != entry[3]:
                entry = fetch_slow(address)
            state.rip = (address + entry[1]) & _MASK64
            handler = entry[4]
            if handler is None:
                raise EmulationError(f"unimplemented instruction {entry[0]}")
            handler(entry[0])
            self.steps += 1

    def _run_hooked(self, limit: int) -> None:
        """The run loop under :attr:`pre_hooks`: one instruction at a time.

        Every executed instruction is seen by every hook, in list order,
        before it executes.  Plain hooks are called as ``hook(emulator,
        address, instruction)``; the first :class:`SpecializedHook` runs the
        transfer cached in the instruction's decode entry next to its
        handler, so the pair is invalidated with the entry by the region
        generation check.  Host functions and the exit sentinel are not
        hooked.
        """
        before: List[Callable] = []
        after: List[Callable] = []
        owner = specialize = None
        for hook in self.pre_hooks:
            if specialize is None and type(hook) is SpecializedHook:
                owner, specialize = hook.owner, hook.specialize
            else:
                (before if specialize is None else after).append(hook)
        if specialize is not self._hooked_specialize:
            # the cached transfers belong to another specializer
            self._decode_cache.clear()
            self._hooked_specialize = specialize
        state = self.state
        cache_get = self._decode_cache.get
        fetch_slow = self._fetch_slow
        host_space_end = _HOST_SPACE_END
        unspecialized = _UNSPECIALIZED
        while not self.halted:
            if self.steps >= limit:
                raise EmulationError(f"instruction budget exhausted ({limit})")
            address = state.rip
            if address <= host_space_end:
                if address == EXIT_ADDRESS:
                    self.halted = True
                    return
                if is_host_address(address):
                    self._run_host_function(address)
                    self.steps += 1
                    continue
            entry = cache_get(address)
            if entry is None or entry[2].generation != entry[3]:
                entry = fetch_slow(address)
            instruction, length, _, _, handler, transfer = entry
            if transfer is unspecialized:
                transfer = None if specialize is None else specialize(instruction)
                self._decode_cache[address] = entry[:5] + (transfer,)
            for hook in before:
                hook(self, address, instruction)
            if transfer is not None:
                transfer(owner, self, address)
            for hook in after:
                hook(self, address, instruction)
            state.rip = (address + length) & _MASK64
            if handler is None:
                raise EmulationError(f"unimplemented instruction {instruction}")
            handler(instruction)
            self.steps += 1

    def _execute_trace(self, trace: Trace) -> None:
        """Promote or warm up a trace that has no compiled function yet.

        A trace's first :attr:`trace_compile_threshold` dispatches are
        warm-up runs; the next one compiles it
        (:func:`repro.cpu.codegen.compile_trace`) and runs the compiled
        function, which handles its own step accounting, ``rip``
        installation and fault repair.  A trace the codegen declines keeps
        warming up until its code region changes.  The caller has already
        verified the region generation and that the remaining step budget
        covers the full trace.

        A warm-up run is the run loop's single-step body (decode cache,
        generation check, handler) along the recorded addresses.  It stops
        as soon as ``rip`` leaves that path (a failed ret guard) or a store
        rewrote the trace's code region, and the run loop carries on from
        the actual ``rip``.  The interior addresses are thus never counted
        as run-loop visits, so warm-up records no traces the compiled
        function would not.  Halting ends the path too: ``hlt`` is always
        a trace's last step.
        """
        stats = self.jit_stats
        if not trace.compile_failed:
            trace.runs += 1
            if trace.runs > self.trace_compile_threshold:
                compiled = compile_trace(self, trace)
                if compiled is None:
                    trace.compile_failed = True
                    stats.compile_declined += 1
                else:
                    trace.compiled = compiled
                    # the recorded steps are never read again (invalidation
                    # rebuilds the whole trace); free them so long-lived
                    # emulators keep one form per trace, not two
                    trace.steps = []
                    stats.traces_compiled += 1
                    stats.compiled_runs += 1
                    compiled()
                    return
        stats.closure_runs += 1
        state = self.state
        cache_get = self._decode_cache.get
        region, generation = trace.region, trace.generation
        for step in trace.steps:
            address = step.address
            if state.rip != address:
                return
            entry = cache_get(address)
            if entry is None or entry[2].generation != entry[3]:
                entry = self._fetch_slow(address)
            state.rip = (address + entry[1]) & _MASK64
            entry[4](entry[0])
            self.steps += 1
            if region.generation != generation:
                return

    # -- snapshots ----------------------------------------------------------
    def snapshot(self) -> EmulatorSnapshot:
        """Capture the complete execution context copy-on-write.

        The returned snapshot is immutable from the emulator's point of view
        and may be restored any number of times (each :meth:`restore` forks
        it again), which is what lets the DSE engine rewind to the attacked
        function's entry in O(1) per explored path.
        """
        return EmulatorSnapshot(self.state.fork(), self.memory.snapshot(),
                                self.host.fork(), self.steps, self.halted,
                                source_memory=self.memory)

    def restore(self, snap: EmulatorSnapshot) -> None:
        """Rewind this emulator to ``snap``.

        Registers, flags, memory and host state all revert to their values at
        snapshot time.  When the emulator still runs on the memory object the
        snapshot was taken from, regions rewind in place: untouched regions
        are left alone (their cached decodes and traces stay valid) and
        written regions re-share the snapshot's backing with a generation
        bump, which invalidates exactly the cache entries that went stale.
        Otherwise the memory is replaced wholesale and the caches dropped,
        because their entries reference the replaced memory's regions.
        """
        self.host = snap.host.fork()
        self.steps = snap.steps
        self.halted = snap.halted
        if self.memory is snap.source_memory \
                and self.memory.restore_from(snap.memory):
            # keep the CpuState (and its regs dict) identity: compiled
            # traces bind them directly
            self.state.restore_from(snap.state)
            return
        self.state = snap.state.fork()
        self.memory = snap.memory.snapshot()
        self._decode_cache.clear()
        self._trace_cache.clear()
        self._trace_heat.clear()

    def _run_host_function(self, address: int) -> None:
        name = self.host_handlers.get(address)
        if name is None:
            raise EmulationError(f"call to unknown host function at {address:#x}")
        # the table holds method names so snapshot restores can swap the host
        # without rebuilding a bound-handler dict, and overrides on host
        # subclasses resolve normally
        result = getattr(self.host, name)(self)
        self.state.write_reg(Register.RAX, result & _MASK64)
        if self.halted:
            return
        # behave like a native function: return to the caller
        self.state.rip = self.pop()

    # -- instruction handlers ------------------------------------------------
    def _op_nop(self, instruction: Instruction) -> None:
        return

    def _op_hlt(self, instruction: Instruction) -> None:
        self.halted = True

    def _op_mov(self, instruction: Instruction) -> None:
        ops = instruction.operands
        self.write_operand(ops[0], self.read_operand(ops[1]))

    def _op_movsx(self, instruction: Instruction) -> None:
        ops = instruction.operands
        src = ops[1]
        value = to_signed(self.read_operand(src), getattr(src, "size", 8))
        self.write_operand(ops[0], value & _MASK64)

    def _op_lea(self, instruction: Instruction) -> None:
        ops = instruction.operands
        if not isinstance(ops[1], Mem):
            raise EmulationError("lea requires a memory source")
        self.write_operand(ops[0], self.effective_address(ops[1]))

    def _op_xchg(self, instruction: Instruction) -> None:
        ops = instruction.operands
        a, b = self.read_operand(ops[0]), self.read_operand(ops[1])
        self.write_operand(ops[0], b)
        self.write_operand(ops[1], a)

    def _op_push(self, instruction: Instruction) -> None:
        self.push(self.read_operand(instruction.operands[0]))

    def _op_pop(self, instruction: Instruction) -> None:
        # ROP dispatch is pop/ret heavy; inline the pop to skip a call frame
        operand = instruction.operands[0]
        state = self.state
        rsp = state.regs[Register.RSP]
        try:
            value = self.memory.read_int(rsp, 8)
        except MemoryError_ as exc:
            raise EmulationError(str(exc)) from exc
        state.regs[Register.RSP] = (rsp + 8) & _MASK64
        if type(operand) is Reg and operand.size == 8:
            state.regs[operand.reg] = value
        else:
            self.write_operand(operand, value)

    def _op_add(self, instruction: Instruction) -> None:
        ops = instruction.operands
        size = getattr(ops[0], "size", 8)
        result = self._set_add_flags(self.read_operand(ops[0]),
                                     self.read_operand(ops[1]), 0, size)
        self.write_operand(ops[0], result)

    def _op_adc(self, instruction: Instruction) -> None:
        ops = instruction.operands
        size = getattr(ops[0], "size", 8)
        carry = self.state.cf
        result = self._set_add_flags(self.read_operand(ops[0]),
                                     self.read_operand(ops[1]), carry, size)
        self.write_operand(ops[0], result)

    def _op_sub(self, instruction: Instruction) -> None:
        ops = instruction.operands
        size = getattr(ops[0], "size", 8)
        result = self._set_sub_flags(self.read_operand(ops[0]),
                                     self.read_operand(ops[1]), 0, size)
        self.write_operand(ops[0], result)

    def _op_sbb(self, instruction: Instruction) -> None:
        ops = instruction.operands
        size = getattr(ops[0], "size", 8)
        borrow = self.state.cf
        result = self._set_sub_flags(self.read_operand(ops[0]),
                                     self.read_operand(ops[1]), borrow, size)
        self.write_operand(ops[0], result)

    def _op_cmp(self, instruction: Instruction) -> None:
        ops = instruction.operands
        size = getattr(ops[0], "size", 8)
        self._set_sub_flags(self.read_operand(ops[0]), self.read_operand(ops[1]), 0, size)

    def _op_test(self, instruction: Instruction) -> None:
        ops = instruction.operands
        size = getattr(ops[0], "size", 8)
        self._set_logic_flags(self.read_operand(ops[0]) & self.read_operand(ops[1]), size)

    def _op_and(self, instruction: Instruction) -> None:
        ops = instruction.operands
        size = getattr(ops[0], "size", 8)
        result = self.read_operand(ops[0]) & self.read_operand(ops[1])
        self._set_logic_flags(result, size)
        self.write_operand(ops[0], result)

    def _op_or(self, instruction: Instruction) -> None:
        ops = instruction.operands
        size = getattr(ops[0], "size", 8)
        result = self.read_operand(ops[0]) | self.read_operand(ops[1])
        self._set_logic_flags(result, size)
        self.write_operand(ops[0], result)

    def _op_xor(self, instruction: Instruction) -> None:
        ops = instruction.operands
        size = getattr(ops[0], "size", 8)
        result = self.read_operand(ops[0]) ^ self.read_operand(ops[1])
        self._set_logic_flags(result, size)
        self.write_operand(ops[0], result)

    def _op_neg(self, instruction: Instruction) -> None:
        ops = instruction.operands
        size = getattr(ops[0], "size", 8)
        value = self.read_operand(ops[0])
        result = self._set_sub_flags(0, value, 0, size)
        self.state.cf = 1 if value != 0 else 0
        self.write_operand(ops[0], result)

    def _op_not(self, instruction: Instruction) -> None:
        ops = instruction.operands
        size = getattr(ops[0], "size", 8)
        mask = SIZE_MASKS[size]
        self.write_operand(ops[0], (~self.read_operand(ops[0])) & mask)

    def _shift(self, instruction: Instruction, mnemonic: Mnemonic) -> None:
        ops = instruction.operands
        size = getattr(ops[0], "size", 8)
        bits = BIT_WIDTHS[size]
        mask = SIZE_MASKS[size]
        value = self.read_operand(ops[0])
        # x86 masks the count by the operand width: 6 bits for 64-bit
        # operands, 5 bits for everything narrower
        amount = self.read_operand(ops[1]) & (0x3F if size == 8 else 0x1F)
        if amount == 0:
            # x86: a masked count of zero modifies neither flags nor the
            # destination
            return
        if mnemonic is Mnemonic.SHL:
            result = (value << amount) & mask
            carry = (value >> (bits - amount)) & 1 if amount <= bits else 0
            # OF is defined only for 1-bit shifts (CF ^ MSB(result)); this
            # emulator fixes it at 0 for wider counts in every tier
            overflow = carry ^ ((result >> (bits - 1)) & 1) if amount == 1 else 0
        elif mnemonic is Mnemonic.SHR:
            result = (value & mask) >> amount
            carry = (value >> (amount - 1)) & 1
            # 1-bit SHR: OF = MSB of the original operand
            overflow = (value >> (bits - 1)) & 1 if amount == 1 else 0
        else:
            signed = to_signed(value, size)
            result = (signed >> amount) & mask
            # shift the *signed* value for the carry too, so counts past the
            # operand width shift out copies of the sign bit like x86 does
            carry = (signed >> (amount - 1)) & 1
            overflow = 0  # SAR: the sign never changes
        state = self.state
        state.cf = carry
        state.of = overflow
        state.zf = 1 if result == 0 else 0
        state.sf = 1 if result & SIGN_BITS[size] else 0
        self.write_operand(ops[0], result)

    def _op_shl(self, instruction: Instruction) -> None:
        self._shift(instruction, Mnemonic.SHL)

    def _op_shr(self, instruction: Instruction) -> None:
        self._shift(instruction, Mnemonic.SHR)

    def _op_sar(self, instruction: Instruction) -> None:
        self._shift(instruction, Mnemonic.SAR)

    def _op_imul(self, instruction: Instruction) -> None:
        ops = instruction.operands
        size = getattr(ops[0], "size", 8)
        bits = BIT_WIDTHS[size]
        a = to_signed(self.read_operand(ops[0]), size)
        b = to_signed(self.read_operand(ops[1]), size)
        full = a * b
        result = full & SIZE_MASKS[size]
        overflow = not (-(1 << (bits - 1)) <= full < (1 << (bits - 1)))
        self._set_logic_flags(result, size)
        state = self.state
        state.cf = 1 if overflow else 0
        state.of = 1 if overflow else 0
        self.write_operand(ops[0], result)

    def _op_cqo(self, instruction: Instruction) -> None:
        rax = to_signed(self.state.regs[Register.RAX])
        self.state.regs[Register.RDX] = _MASK64 if rax < 0 else 0

    def _op_idiv(self, instruction: Instruction) -> None:
        state = self.state
        divisor = to_signed(self.read_operand(instruction.operands[0]))
        if divisor == 0:
            raise EmulationError("integer division by zero")
        dividend = to_signed(state.regs[Register.RAX])
        # exact integer division truncating toward zero (a float quotient
        # loses precision above 2**53)
        quotient = abs(dividend) // abs(divisor)
        if (dividend < 0) != (divisor < 0):
            quotient = -quotient
        if quotient == 1 << 63:  # INT64_MIN / -1: x86 raises #DE
            raise EmulationError("integer division overflow")
        state.regs[Register.RAX] = quotient & _MASK64
        state.regs[Register.RDX] = (dividend - quotient * divisor) & _MASK64

    def _op_inc(self, instruction: Instruction) -> None:
        ops = instruction.operands
        size = getattr(ops[0], "size", 8)
        state = self.state
        saved_cf = state.cf
        result = self._set_add_flags(self.read_operand(ops[0]), 1, 0, size)
        state.cf = saved_cf
        self.write_operand(ops[0], result)

    def _op_dec(self, instruction: Instruction) -> None:
        ops = instruction.operands
        size = getattr(ops[0], "size", 8)
        state = self.state
        saved_cf = state.cf
        result = self._set_sub_flags(self.read_operand(ops[0]), 1, 0, size)
        state.cf = saved_cf
        self.write_operand(ops[0], result)

    def _op_cmov(self, instruction: Instruction) -> None:
        if self.state.condition(instruction.condition):
            ops = instruction.operands
            self.write_operand(ops[0], self.read_operand(ops[1]))

    def _op_set(self, instruction: Instruction) -> None:
        value = 1 if self.state.condition(instruction.condition) else 0
        self.write_operand(instruction.operands[0], value)

    def _op_jmp(self, instruction: Instruction) -> None:
        self.state.rip = self.read_operand(instruction.operands[0])

    def _op_jcc(self, instruction: Instruction) -> None:
        if self.state.condition(instruction.condition):
            self.state.rip = self.read_operand(instruction.operands[0])

    def _op_call(self, instruction: Instruction) -> None:
        state = self.state
        target = self.read_operand(instruction.operands[0])
        self.push(state.rip)
        state.rip = target

    def _op_ret(self, instruction: Instruction) -> None:
        # the single hottest instruction in a ROP chain: inline pop entirely
        state = self.state
        rsp = state.regs[Register.RSP]
        try:
            state.rip = self.memory.read_int(rsp, 8)
        except MemoryError_ as exc:
            raise EmulationError(str(exc)) from exc
        state.regs[Register.RSP] = (rsp + 8) & _MASK64

    def _op_leave(self, instruction: Instruction) -> None:
        state = self.state
        state.regs[Register.RSP] = state.regs[Register.RBP]
        state.write_reg(Register.RBP, self.pop())


#: Mnemonic -> handler method name; bound per instance into the dispatch
#: table.  Derived from the semantics registry so dispatch and the declared
#: per-mnemonic contracts cannot drift; built once at import time, so the
#: step loop still indexes a plain dict.
_HANDLER_NAMES: Dict[Mnemonic, str] = _semantics.handler_table()

#: The handler tier is the reference interpreter: it covers every mnemonic
#: and declines nothing.  Registration validates the split at import and
#: feeds the static contract checker (``python -m repro.analysis.lint``).
_semantics.register_tier(
    "handlers", __name__,
    covered={mnemonic: name for mnemonic, name in _HANDLER_NAMES.items()},
    declined=(), flag_style="attributes")


def call_function(program: LoadedProgram, name_or_address, args: Sequence[int] = (),
                  host: Optional[HostEnvironment] = None,
                  max_steps: int = 2_000_000) -> tuple:
    """Call a function in a loaded program and run it to completion.

    Args:
        program: the loaded program.
        name_or_address: function symbol name or absolute entry address.
        args: up to six integer arguments passed in registers.
        host: optional pre-existing host environment (for heap persistence).
        max_steps: instruction budget.

    Returns:
        ``(return_value, emulator)`` — the emulator is returned so callers can
        inspect output, probes, traces or final memory.
    """
    if isinstance(name_or_address, str):
        address = program.image.function(name_or_address).address
    else:
        address = int(name_or_address)
    emulator = Emulator(program.memory, host=host, max_steps=max_steps)
    emulator.state.write_reg(Register.RSP, program.stack_top)
    emulator.state.write_reg(Register.RBP, program.stack_top)
    for reg, value in zip(ARG_REGISTERS, args):
        emulator.state.write_reg(reg, value & _MASK64)
    emulator.push(EXIT_ADDRESS)
    emulator.state.rip = address
    emulator.run()
    return emulator.state.read_reg(Register.RAX), emulator
