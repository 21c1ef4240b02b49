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
* **Compiled steps** — every instruction runs as one compiled step
  (:func:`repro.cpu.codegen.compile_step`): the trace tier's emitters'
  native code for that one instruction, compiled once per distinct
  instruction and memoized in the decode entry, so steady-state dispatch is
  one dict probe and one call.  Single-step, trace warm-up and the hooked
  loop all run these steps; the per-mnemonic handlers of
  :mod:`repro.cpu.reference` are the test-only yardstick they are checked
  against.
* **Exec-compiled traces** — hot addresses are recorded as traces:
  straight-line runs and ret-chains with concrete stack targets (see
  :mod:`repro.cpu.trace`).  After a short warm-up, each trace is emitted
  as Python source and ``compile``/``exec``'d into one function (see
  :mod:`repro.cpu.codegen`), which runs the whole trace without
  per-instruction dispatch.  Registers and flags are hoisted into locals,
  operands and effective addresses are constant-folded, and ret guards and
  mid-trace SMC checks are inline.  Execution is thus two-tiered —
  single-step -> compiled trace — with one set of emitters behind both.
  Traces key on the code region's write generation like the decode cache
  and fall back to single-step whenever hooks are installed or the step
  budget is nearly exhausted.  Set ``REPRO_TRACE_CACHE=0`` to disable
  fusion; :attr:`Emulator.jit_stats` counts per-tier activity.
* **Hooked loop** — with hooks installed, :meth:`run` fuses nothing and
  runs one step per instruction; the specialized hook transfer
  (:class:`SpecializedHook`, the DSE shadow's entry point) is bound into
  each decode entry's step, with a guarded transfer's concrete guard and
  kill effects inlined into the step's source, so the hooked path pays one
  call per instruction and a second only when the guard fails.
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
from repro.cpu.state import CpuState, EmulationError, SIGN_BITS, SIZE_MASKS
from repro.cpu.codegen import GuardedTransfer, compile_step, compile_trace
from repro.cpu.trace import Trace, build_trace
from repro.isa.encoding import DecodeError, decode_instruction
from repro.isa.instructions import Instruction
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
    executes, or None when the instruction needs no work.  A
    :class:`~repro.cpu.codegen.GuardedTransfer` carries its concrete fast
    path as source: a guard, the kill effects to run when it holds, and the
    transfer to call when it fails.  The run loop binds each instruction's
    transfer into the compiled step its decode entry caches, splicing a
    guarded one's fast path into the step's source, so the specialization
    is paid once per decoded instruction and stays warm across runs,
    rewinds and owners that share ``specialize``, and an instruction whose
    guard holds makes no Python call beyond its step.  Calling the hook
    directly specializes on the fly and runs the transfer (a guarded one
    through a function compiled once from the same source).
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

    ``source_memory`` is the live :class:`Memory` the snapshot was taken
    from, the only one :meth:`Emulator.restore` rewinds it into: in place,
    keeping the decode/trace caches warm for every region the execution
    never wrote, which is what lets the attack engines rewind thousands of
    times per second over read-only code.
    """

    __slots__ = ("state", "memory", "host", "steps", "halted", "source_memory")

    def __init__(self, state: CpuState, memory: Memory, host: HostEnvironment,
                 steps: int, halted: bool, source_memory: Memory) -> None:
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
        #: address -> (instruction, length, region, generation, step)
        self._decode_cache: Dict[int, tuple] = {}
        #: the specializer whose transfers the decode entries' steps hold
        self._specialize: Optional[Callable] = None
        #: entry address -> recorded (and, once hot, compiled) trace
        self._trace_cache: Dict[int, Trace] = {}
        #: entry address -> run-loop visit count (see _TRACE_HEAT_THRESHOLD)
        self._trace_heat: Dict[int, int] = {}

    # -- fetch / decode -----------------------------------------------------
    def decode_entry(self, address: int) -> tuple:
        """Decode at ``address`` returning the full cache entry tuple.

        The tuple is ``(instruction, length, region, generation, step)``;
        used by the trace builder so fusion re-uses cached decodes.
        ``step`` is the instruction's compiled step, with the current
        specializer's transfer bound in (see :meth:`run`).

        Raises:
            EmulationError: when the address is unmapped or undecodable.
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
        specialize = self._specialize
        transfer = None if specialize is None else specialize(instruction)
        if type(transfer) is GuardedTransfer:
            step = compile_step(instruction, transfer.fast)(transfer.transfer)
        else:
            step = compile_step(instruction)(transfer)
        entry = (instruction, length, region, region.generation, step)
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

        Every instruction runs as the compiled step its decode entry caches
        (:func:`repro.cpu.codegen.compile_step`), which sets ``rip`` past
        the instruction and then executes it; a fault leaves ``rip`` there
        and ``steps`` unadvanced.  Without hooks, hot addresses are fused
        into traces (see the module notes), which run in place of the steps
        whenever the remaining budget covers them.  With :attr:`pre_hooks`
        installed, nothing is fused: every hook sees every instruction, in
        list order, before it executes.  When the first
        :class:`SpecializedHook` is the last hook, its transfer for the
        instruction is bound into the step, which calls it right before the
        concrete semantics; otherwise every hook runs as a plain
        ``hook(emulator, address, instruction)`` call and the steps carry no
        transfer.  Host functions and the exit sentinel are not hooked.

        Args:
            max_steps: optional *per-call* budget of additional instructions
                this call may execute.  The emulator-wide :attr:`max_steps`
                cap stays in force and is never modified by this argument.
        """
        if max_steps is None:
            limit = self.max_steps
        else:
            limit = min(self.max_steps, self.steps + max_steps)
        hooks = self.pre_hooks
        fuse = self._trace_cache_enabled and not hooks
        owner = specialize = None
        specialized = [index for index, hook in enumerate(hooks)
                       if type(hook) is SpecializedHook]
        if specialized and specialized[0] == len(hooks) - 1:
            owner, specialize = hooks[-1].owner, hooks[-1].specialize
            hooks = hooks[:-1]
        else:
            hooks = list(hooks)
        if specialize is not self._specialize:
            # the cached steps carry another specializer's transfers
            self._decode_cache.clear()
            self._specialize = specialize
        state = self.state
        cache_get = self._decode_cache.get
        fetch_slow = self._fetch_slow
        host_space_end = _HOST_SPACE_END
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
                        # unfusable right now (the step will report the
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
            if hooks:
                for hook in hooks:
                    hook(self, address, entry[0])
            entry[4](owner, self, address, (address + entry[1]) & _MASK64)
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
        generation check, compiled step) along the recorded addresses.  It
        stops as soon as ``rip`` leaves that path (a failed ret guard) or a
        store rewrote the trace's code region, and the run loop carries on
        from the actual ``rip``.  The interior addresses are thus never
        counted as run-loop visits, so warm-up records no traces the
        compiled function would not.  Halting ends the path too: ``hlt`` is
        always a trace's last step.
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
        for recorded in trace.steps:
            address = recorded.address
            if state.rip != address:
                return
            entry = cache_get(address)
            if entry is None or entry[2].generation != entry[3]:
                entry = self._fetch_slow(address)
            entry[4](None, self, address, (address + entry[1]) & _MASK64)
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
        """Rewind this emulator to ``snap``, in place.

        Registers, flags, memory and host state all revert to their values at
        snapshot time.  Untouched regions are left alone (their cached
        decodes and traces stay valid) and written regions re-share the
        snapshot's backing with a generation bump, which invalidates exactly
        the cache entries that went stale.  The ``CpuState`` and its
        register dict keep their identity, because compiled traces bind
        them directly.

        Raises:
            ValueError: if ``snap`` was taken from another memory.
        """
        if snap.source_memory is not self.memory:
            raise ValueError("snapshot was taken from another memory")
        self.host = snap.host.fork()
        self.steps = snap.steps
        self.halted = snap.halted
        self.memory.restore_from(snap.memory)
        self.state.restore_from(snap.state)

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


def write_arguments(emulator: Emulator, args: Sequence[int]) -> None:
    """Pass up to six integer ``args`` in the argument registers."""
    for reg, value in zip(ARG_REGISTERS, args):
        emulator.state.write_reg(reg, value & _MASK64)


def prepare_call(program: LoadedProgram, name_or_address,
                 args: Sequence[int] = (),
                 host: Optional[HostEnvironment] = None,
                 max_steps: int = 2_000_000) -> Emulator:
    """Build an emulator positioned at a function's entry, ready to run.

    The one entry recipe of :func:`call_function` and the attack engines:
    ``rsp``/``rbp`` at the stack top, the :data:`EXIT_ADDRESS` sentinel
    pushed as the return address, ``rip`` at the entry and ``args`` in the
    argument registers.
    """
    if isinstance(name_or_address, str):
        address = program.image.function(name_or_address).address
    else:
        address = int(name_or_address)
    emulator = Emulator(program.memory, host=host, max_steps=max_steps)
    emulator.state.write_reg(Register.RSP, program.stack_top)
    emulator.state.write_reg(Register.RBP, program.stack_top)
    write_arguments(emulator, args)
    emulator.push(EXIT_ADDRESS)
    emulator.state.rip = address
    return emulator


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
    emulator = prepare_call(program, name_or_address, args, host, max_steps)
    emulator.run()
    return emulator.state.read_reg(Register.RAX), emulator
