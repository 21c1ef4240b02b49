"""Layer spans recorded from the benchmark's side of each layer boundary.

The tracer wraps the public functions through which work enters each layer
of ``repro`` (see :func:`hooks`) and records one span per call: layer, call
name, start, end, self time (duration minus the time of the spans it
caused), the layer of the span that caused it, the unit the span belongs to
and an optional measured value (instructions executed, solver outcome,
cache hit...).  Spans stay in memory; :func:`layer_metrics` folds them into
the per-layer metrics once the timed pass ends.

Per-instruction paths (``Emulator.step``, the shadow tracker's hook) are
never wrapped: a span there would cost more than the work it measures.

Pool workers fork from the coordinator after :meth:`Tracer.install`, so they
inherit the wrapped functions.  A worker ships the spans of one request back
inside the request's result row (key :data:`SHIP_KEY`); the coordinator's
``WorkerPool.pump`` wrapper strips them before any other code sees the row.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional

#: Result-row key under which a pool worker returns its spans.
SHIP_KEY = "_perfbench_spans"

#: Result-row key under which a pool worker returns its host-scale sample
#: and the seconds its samples before and after the request took
#: (``workloads.sampled``).
HOST_KEY = "_perfbench_host"


class Span(NamedTuple):
    layer: str
    name: str
    start: float
    end: float
    self_s: float
    parent: Optional[str]
    unit: object
    value: object


class Tracer:
    """Records spans around wrapped layer entry points (see module doc)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: identifier of the unit in progress; tags every span it causes
        self.unit: object = None
        self._stack: List[list] = []
        self._patches: List[tuple] = []
        self._pid = os.getpid()

    # -- recording ---------------------------------------------------------
    def wrap(self, layer: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Return ``fn`` recording one span per call.

        ``before(args)`` / ``after(args, result)`` compute the span's value
        (before the call for values the call changes, such as cache hits).
        """
        tracer = self
        name = fn.__qualname__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            value = before(args) if before is not None else None
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
            if after is not None:
                value = after(args, result)
            tracer.spans.append(Span(layer, name, start, end,
                                     end - start - frame[1], parent,
                                     tracer.unit, value))
            return result

        return traced

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every entry point of :func:`hooks`.

        A module-level function is replaced in every loaded ``repro`` module
        that bound it by name, so ``from x import f`` call sites see the
        wrapper too.
        """
        for target, make in hooks(self):
            module_name, _, path = target.partition(":")
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attribute)
            wrapped = make(original)
            if parents:
                self._patch(owner, attribute, wrapped)
                continue
            for name, module in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) \
                        and getattr(module, attribute, None) is original:
                    self._patch(module, attribute, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- worker span shipping ------------------------------------------------
    def ship(self, row: dict, mark: int) -> dict:
        """In a pool worker: move the spans recorded since ``mark`` into
        ``row`` so they travel back with the result."""
        if os.getpid() == self._pid:
            return row
        shipped = self.spans[mark:]
        del self.spans[mark:]
        return {**row, SHIP_KEY: [tuple(span) for span in shipped]}

    def receive(self, events) -> list:
        """In the coordinator: take shipped spans out of result payloads.

        Returns ``(request id, arrival time, sampling before)`` per result
        event; the arrival is when the pump that surfaced it returned, less
        the time the worker spent sampling the host scale.
        """
        now = perf_counter()
        arrivals = []
        for event in events:
            payload = event.payload
            if isinstance(payload, dict):
                shipped = payload.pop(SHIP_KEY, None)
                if shipped is not None:
                    self.spans.extend(Span(*span) for span in shipped)
                if "id" in payload:
                    _, before, after = payload.get(HOST_KEY, (1.0, 0.0, 0.0))
                    arrivals.append((payload["id"], now - before - after,
                                     before))
        return arrivals


def hooks(tracer: Tracer) -> list:
    """``(module:attribute, make_wrapper)`` for every wrapped entry point;
    dotted attributes are methods."""
    from repro.service import requests

    def span(layer, before=None, after=None):
        return lambda fn: tracer.wrap(layer, fn, before, after)

    def unit_id(args):
        return args[1].id

    def image_hit(args):
        return requests._image_key(args[0]) in requests._IMAGES

    def engine_hit(args):
        key = requests._image_key(args[0]) + (args[0].max_instructions,)
        return key in requests._ENGINES

    def emulator_counts(args, result):
        emulator = result[1]
        jit = emulator.jit_stats
        return (emulator.steps, jit.traces_compiled + jit.compile_declined,
                jit.compiled_runs, jit.closure_runs, jit.superblock_runs)

    def shipping(execute_request):
        # a request is the unit on the worker side: tag its spans with the
        # request id and send them back with the row
        traced = tracer.wrap("request", execute_request)

        def execute(request):
            mark = len(tracer.spans)
            previous, tracer.unit = tracer.unit, request.id
            try:
                row = traced(request)
            finally:
                tracer.unit = previous
            return tracer.ship(row, mark)

        return execute

    return [
        ("repro.compiler.pipeline:compile_program", span("compile")),
        ("repro.core.rewriter:rop_obfuscate", span("rewrite")),
        ("repro.obfuscation.vm:virtualize_program", span("rewrite")),
        ("repro.binary.loader:load_image", span("load")),
        ("repro.attacks.engine:preloaded_fork", span("load")),
        ("repro.cpu.emulator:call_function",
         span("emu", after=emulator_counts)),
        ("repro.cpu.emulator:compile_trace", span("jit")),
        ("repro.cpu.emulator:Emulator.snapshot", span("snapshot")),
        ("repro.cpu.emulator:Emulator.restore", span("snapshot")),
        ("repro.attacks.dse:DseEngine.explore", span("dse")),
        ("repro.attacks.dse:DseEngine.execute",
         span("dse", after=lambda args, result: result.instructions)),
        ("repro.attacks.solver.solver:ConstraintSolver.solve",
         span("solver", after=lambda args, result: result is not None)),
        ("repro.service.requests:execute_request", shipping),
        ("repro.service.requests:_prepared_image",
         span("image", before=image_hit)),
        ("repro.service.requests:_prepared_engine",
         span("engine", before=engine_hit)),
        ("repro.evaluation.parallel:WorkerPool.submit",
         span("pool", before=unit_id)),
        ("repro.evaluation.parallel:WorkerPool.pump",
         span("pool", after=lambda args, result: tracer.receive(result))),
        ("repro.service.core:AttackService.submit",
         span("service", before=unit_id)),
        ("repro.service.core:AttackService.process", span("service")),
        ("repro.service.journal:Journal.record", span("journal")),
    ]


def layer_metrics(spans: List[Span], respawns: int) -> Dict[str, float]:
    """Fold the spans of a timed pass into the per-layer metrics."""
    by_layer: Dict[str, List[Span]] = {}
    for span in spans:
        by_layer.setdefault(span.layer, []).append(span)

    def layer(name: str) -> List[Span]:
        return by_layer.get(name, [])

    def named(name: str, call: str) -> List[Span]:
        return [span for span in layer(name) if span.name.endswith(call)]

    def busy(name: str) -> float:
        return sum(span.self_s for span in layer(name))

    def calls(name: str) -> int:
        # a span nested in one of its own layer (preloaded_fork -> load_image)
        # is part of the outer call
        return sum(1 for span in layer(name) if span.parent != name)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def median(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    solves = layer("solver")
    executions = named("dse", ".execute")
    dse_instructions = sum(span.value for span in executions)
    restores = named("snapshot", ".restore")
    runs = [span.value for span in layer("emu")]
    emu_instructions = sum(run[0] for run in runs)
    compiled_runs = sum(run[2] for run in runs)
    closure_runs = sum(run[3] for run in runs)

    # one served request as the coordinator and its worker saw it
    queued = {span.value: span.start for span in named("service", ".submit")}
    dispatched: Dict[str, float] = {}
    for span in named("pool", ".submit"):
        dispatched.setdefault(span.value, span.start)
    arrived: Dict[str, float] = {}
    #: the worker's host-scale sampling ahead of a request
    sampling: Dict[str, float] = {}
    for span in named("pool", ".pump"):
        for request_id, arrival, before in span.value:
            arrived.setdefault(request_id, arrival)
            sampling.setdefault(request_id, before)
    executed = {span.unit: span for span in layer("request")
                if span.unit in dispatched}
    images = layer("image")
    engines = layer("engine")
    return {
        "solver.queries": len(solves),
        "solver.busy_s": busy("solver"),
        "solver.ms_per_query": 1000 * ratio(busy("solver"), len(solves)),
        "solver.sat_ratio": ratio(sum(1 for span in solves if span.value),
                                  len(solves)),
        "dse.executions": len(executions),
        "dse.instructions": dse_instructions,
        "dse.busy_s": busy("dse"),
        "dse.kips": ratio(dse_instructions, busy("dse")) / 1e3,
        "snapshot.captures": len(named("snapshot", ".snapshot")),
        "snapshot.restores": len(restores),
        "snapshot.restore_s": sum(span.self_s for span in restores),
        "emu.runs": len(runs),
        "emu.instructions": emu_instructions,
        "emu.busy_s": busy("emu"),
        "emu.mips": ratio(emu_instructions, busy("emu")) / 1e6,
        "jit.compiles": sum(run[1] for run in runs),
        "jit.compile_s": busy("jit"),
        "jit.compiled_share": ratio(compiled_runs,
                                    compiled_runs + closure_runs),
        "jit.closure_runs": closure_runs,
        "jit.superblock_runs": sum(run[4] for run in runs),
        "rewrite.calls": calls("rewrite"),
        "rewrite.busy_s": busy("rewrite"),
        "compile.calls": calls("compile"),
        "compile.busy_s": busy("compile"),
        "load.calls": calls("load"),
        "load.busy_s": busy("load"),
        "pool.dispatches": len(named("pool", ".submit")),
        "pool.wait_s": median([span.start - dispatched[request_id]
                               - sampling.get(request_id, 0.0)
                               for request_id, span in executed.items()]),
        "pool.overhead_s": median([
            arrived[request_id] - dispatched[request_id]
            - (span.end - span.start)
            for request_id, span in executed.items()
            if request_id in arrived]),
        "pool.respawns": respawns,
        "service.queue_wait_s": median([dispatched[request_id] - start
                                        for request_id, start in queued.items()
                                        if request_id in dispatched]),
        "service.journal_appends": len(layer("journal")),
        "service.journal_s": busy("journal"),
        "service.image_cache_hit_ratio": ratio(
            sum(1 for span in images if span.value), len(images)),
        "service.engine_cache_hit_ratio": ratio(
            sum(1 for span in engines if span.value), len(engines)),
    }


def unit_self_times(spans: List[Span], units) -> Dict[str, float]:
    """Self time per layer of the spans caused by ``units``."""
    totals: Dict[str, float] = {}
    for span in spans:
        if span.unit in units:
            totals[span.layer] = totals.get(span.layer, 0.0) + span.self_s
    return totals
