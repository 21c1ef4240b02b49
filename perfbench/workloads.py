"""The benchmark's two workloads: ``overhead`` and ``serve``.

Each workload builds its inputs from the run seed in :meth:`setup`, runs
*rounds* of units (every round has the same composition; the seed draws the
order and the per-unit seeds), and checks every output afterwards.  A round
is the smallest stretch whose cost does not depend on the seed, which is
what keeps rates comparable from seed to seed: the timed pass always ends on
a round boundary.  See ``perfbench/README.md`` for why each workload exists.

Every unit's wall time is taken together with the host scale in force when
it ran (:func:`host_scale`), so that the end-to-end metrics can be stated
for a host of fixed speed.
"""

from __future__ import annotations

import functools
import os
import random
import shutil
from pathlib import Path
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

# layer entry points are called through their modules, so the tracer's
# wrappers (installed on those modules) see the benchmark's own calls
from repro import compiler, cpu
from repro.attacks import engine
from repro.obfuscation.configs import apply_configuration, nvm, ropk
from repro.service import AttackRequest, AttackService
from repro.service import requests as service_requests
from repro.workloads.clbg import CLBG_BENCHMARKS, build_clbg_program
from tracing import HOST_KEY

#: Instruction cap of one Figure 5 run, as in ``repro.evaluation.figure5``.
_RUN_BUDGET = 30_000_000

#: Rows per run that :meth:`Workload.check` re-runs one-shot and compares.
CHECKED = 2

#: Calibration time of ``BENCH_emulator.json``'s baseline host: scaled
#: times are seconds on a host whose :func:`calibrate` loop takes this long.
REFERENCE_CALIB_S = 0.1342


def calibrate(iterations: int = 2_000_000, repeats: int = 3) -> float:
    """Best of ``repeats`` runs of a fixed pure-Python loop (the emulator
    bench's host calibration), in seconds per 2M iterations."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        value = 0
        for i in range(iterations):
            value = (value + i) & 0xFFFFFFFFFFFFFFFF
        best = min(best, perf_counter() - start)
    return best * 2_000_000 / iterations


def host_scale() -> float:
    """Factor that turns wall seconds measured now into seconds on the
    reference host.  The container's speed drifts by up to 1.6x over tens
    of seconds; 30 ms calibration samples on both sides of each measured
    stretch track the drift much more closely than one taken per run."""
    return REFERENCE_CALIB_S / calibrate(200_000, 2)


class Unit(NamedTuple):
    """One unit of work: ``id`` tags its spans, ``params`` drive it."""

    id: str
    params: tuple


class Timed(NamedTuple):
    """A finished unit: wall latency, host scale in force, output row."""

    latency: float
    scale: float
    row: dict


class Round(NamedTuple):
    """A finished round: its units, its wall time and its scaled wall time
    (calibration time excluded from both)."""

    units: List[Timed]
    wall: float
    scaled: float


class Workload:
    """Shared round/unit plumbing; subclasses define the units."""

    name = ""
    #: Host-scaled seconds one round takes on the reference host, rounded:
    #: a run of ``--seconds`` runs ``seconds / round_seconds`` rounds
    round_seconds = 10.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(str(part) for part in
                                      (self.name, self.seed) + parts))

    def units(self, index: int) -> List[Unit]:
        raise NotImplementedError

    def run_unit(self, state, unit: Unit) -> dict:
        raise NotImplementedError

    def run_round(self, state, index: int, tracer=None) -> Round:
        """Run round ``index`` one unit at a time (a closed loop with one
        caller), each unit between two host-scale samples."""
        results = []
        before = host_scale()
        for unit in self.units(index):
            if tracer is not None:
                tracer.unit = unit.id
            start = perf_counter()
            try:
                row = self.run_unit(state, unit)
            # a unit that raises is a failed unit, counted in error_rate
            except Exception as exc:  # noqa: BLE001
                row = {"id": unit.id, "error": f"{type(exc).__name__}: {exc}"}
            latency = perf_counter() - start
            after = host_scale()
            results.append(Timed(latency, (before + after) / 2, row))
            before = after
        if tracer is not None:
            tracer.unit = None
        return Round(results, sum(unit.latency for unit in results),
                     sum(unit.latency * unit.scale for unit in results))

    def check(self, state, rows: List[dict]) -> List[str]:
        """Describe every wrong output among ``rows``."""
        return [f"{row['id']}: {row['error']}" for row in rows
                if "error" in row]

    def sample(self, rows: List[dict]) -> List[dict]:
        """A seeded sample of the rows that did not fail, to re-run."""
        done = sorted((row for row in rows if "error" not in row
                       and row.get("status", "done") == "done"),
                      key=lambda row: row["id"])
        return self.rng("check").sample(done, min(CHECKED, len(done)))

    def close(self, state) -> None:
        """Release what :meth:`setup` started."""

    def respawns(self, state) -> int:
        """Pool workers replaced during the run."""
        return 0


# -- overhead -----------------------------------------------------------------

#: Figure 5 configurations of the overhead workload.
OVERHEAD_CONFIGS = (nvm(1, "all"), ropk(0.25), ropk(1.00))


class Overhead(Workload):
    """Figure 5 units: obfuscate one CLBG kernel, run it hook-free in a
    fresh emulator, one caller in a closed loop."""

    name = "overhead"

    def __init__(self, seed: int, kernels=None,
                 configs=OVERHEAD_CONFIGS) -> None:
        super().__init__(seed)
        self.kernels = tuple(kernels or sorted(CLBG_BENCHMARKS))
        self.configs = tuple(configs)

    def setup(self) -> Dict[str, tuple]:
        """Each kernel's program and the return value of its native build."""
        state = {}
        for kernel in self.kernels:
            program, entry, argument, targets = build_clbg_program(kernel)
            native_image = compiler.compile_program(program)
            native, _ = cpu.call_function(engine.preloaded_fork(native_image),
                                          entry, [argument],
                                          max_steps=_RUN_BUDGET)
            state[kernel] = (program, entry, argument, targets, native)
        return state

    def units(self, index: int) -> List[Unit]:
        rng = self.rng(index)
        pairs = [(kernel, config) for kernel in self.kernels
                 for config in range(len(self.configs))]
        rng.shuffle(pairs)
        return [Unit(f"o{index}.{kernel}.{self.configs[config].name}",
                     (kernel, config)) for kernel, config in pairs]

    def run_unit(self, state, unit: Unit) -> dict:
        kernel, config = unit.params
        program, entry, argument, targets, _ = state[kernel]
        # the obfuscation seed moves a kernel's instruction count by up to
        # 20x, so it stays fixed (the Figure 5 grid's seed) and rounds cost
        # the same for every run seed
        image = apply_configuration(program, targets, self.configs[config],
                                    seed=1)
        value, emulator = cpu.call_function(engine.preloaded_fork(image),
                                            entry, [argument],
                                            max_steps=_RUN_BUDGET)
        jit = emulator.jit_stats
        return {"id": unit.id, "kernel": kernel, "return_value": value,
                "instructions": emulator.steps,
                "traces_compiled": jit.traces_compiled,
                "compiled_runs": jit.compiled_runs,
                "closure_runs": jit.closure_runs,
                "superblock_runs": jit.superblock_runs}

    def check(self, state, rows: List[dict]) -> List[str]:
        """The obfuscated build must return what the native build returns."""
        wrong = super().check(state, rows)
        for row in rows:
            if "error" not in row \
                    and row["return_value"] != state[row["kernel"]][4]:
                wrong.append(f"{row['id']}: returned {row['return_value']}, "
                             f"native {state[row['kernel']][4]}")
        return wrong


# -- serve --------------------------------------------------------------------

#: The few images hot requests repeat (with a fresh attack seed each time).
SERVE_HOT = (("if(bb4,bb4)", 2, "ROP1.00"),
             ("if(if(if,if),if)", 1, "ROP1.00+OC+IH"))

#: Cells of the cold requests of one round, three per configuration; each
#: cold request obfuscates its cell under a fresh seed, so it is a new image.
SERVE_COLD = (
    ("if(bb4,bb4)", 1, "ROP0.25"), ("if(if(if,if),if)", 1, "ROP0.25"),
    ("if(bb4,bb4)", 2, "ROP0.25"),
    ("if(bb4,bb4)", 2, "ROP1.00"), ("if(if(if,if),if)", 1, "ROP1.00"),
    ("if(if(if,if),if)", 2, "ROP1.00"),
    ("if(bb4,bb4)", 2, "ROP1.00+OC+IH"),
    ("if(if(if,if),if)", 1, "ROP1.00+OC+IH"),
    ("if(if(if,if),if)", 2, "ROP1.00+OC+IH"),
    ("if(bb4,bb4)", 1, "2VM"), ("for(if(bb4,bb4))", 2, "2VM"),
    ("if(if(if,if),if)", 1, "2VM"),
)

#: Solver-query cap of served requests: lower than the grid smoke slice's 48,
#: so dispatch, journal and cache layers are a visible share of a request.
SERVE_SOLVER_QUERIES = 8


def serve_workers() -> int:
    """One worker per CPU this process may run on, at least two, so the
    pool path (not in-process execution) is what gets measured."""
    return max(2, len(os.sched_getaffinity(0)))


def sampled(execute_request):
    """Wrap ``execute_request`` so that the pool worker running a request
    samples the host scale right before and after it.  The row comes back
    with ``HOST_KEY``: the mean of the two scales, and the seconds each
    sample took (to be taken out of the request's latency)."""

    @functools.wraps(execute_request)
    def execute(request):
        start = perf_counter()
        before = host_scale()
        middle = perf_counter()
        row = execute_request(request)
        end = perf_counter()
        after = host_scale()
        return {**row, HOST_KEY: ((before + after) / 2, middle - start,
                                  perf_counter() - end)}

    return execute


class ServeState(NamedTuple):
    service: AttackService
    directory: Path
    #: ``requests.execute_request`` before :func:`sampled` wrapped it
    execute_request: object


class Serve(Workload):
    """An :class:`AttackService` in a closed loop with ``workers`` requests
    outstanding; half the requests hit the worker caches, half do not."""

    name = "serve"
    round_seconds = 14.0

    def __init__(self, seed: int, scratch: Path, workers: Optional[int] = None,
                 hot=SERVE_HOT, cold=SERVE_COLD) -> None:
        super().__init__(seed)
        self.scratch = Path(scratch)
        self.workers = workers or serve_workers()
        self.hot = tuple(hot)
        self.cold = tuple(cold)
        #: request id -> request, for the one-shot check
        self.issued: Dict[str, AttackRequest] = {}
        self._services = 0

    def _request(self, request_id: str, cell, seed: int,
                 attack_seed: int) -> AttackRequest:
        structure, size, configuration = cell
        return AttackRequest(id=request_id, structure=structure,
                             input_size=size, configuration=configuration,
                             seed=seed, attack_seed=attack_seed,
                             max_solver_queries=SERVE_SOLVER_QUERIES)

    def setup(self) -> ServeState:
        """Start a service (fresh journal) and warm each worker with one
        request on a hot image."""
        self._services += 1
        directory = self.scratch / f"serve-{os.getpid()}-{self._services}"
        shutil.rmtree(directory, ignore_errors=True)
        # workers fork from this process and keep the wrapper; the pool
        # calls execute_request through the module, so they all see it
        execute_request = service_requests.execute_request
        service_requests.execute_request = sampled(execute_request)
        service = AttackService(directory, workers=self.workers,
                                queue_limit=4 * self.workers, retries=2,
                                backoff=0.1, breaker=8)
        for index in range(self.workers):
            service.submit(self._request(f"warmup-{index}",
                                         self.hot[index % len(self.hot)],
                                         seed=1, attack_seed=index + 1))
        state = ServeState(service, directory, execute_request)
        rows = service.drain()
        if any(row.get("status") != "done" for row in rows):
            self.close(state)
            raise RuntimeError(f"serve warm-up failed: {rows}")
        return state

    def units(self, index: int) -> List[Unit]:
        """As many hot as cold requests, in seeded order.

        A cold request's image seed depends on the round and the cell, not
        on the run seed: every image is new to the service, and round
        ``index`` costs the same for every run seed.  Strictly alternating
        hot and cold requests would let one worker take every hot request
        and the other every cold one, for a whole run or not at all, which
        splits runs into two groups by peak memory and tail latency.
        """
        rng = self.rng(index)
        requests = [(self.hot[i % len(self.hot)], 1)
                    for i in range(len(self.cold))]
        requests += [(cell, 1000 + index * len(self.cold) + position)
                     for position, cell in enumerate(self.cold)]
        rng.shuffle(requests)
        return [Unit(f"s{index}.{position}",
                     (cell, seed, rng.randrange(1, 1 << 31)))
                for position, (cell, seed) in enumerate(requests)]

    def request(self, unit: Unit) -> AttackRequest:
        cell, seed, attack_seed = unit.params
        return self._request(unit.id, cell, seed, attack_seed)

    def run_round(self, state: ServeState, index: int, tracer=None) -> Round:
        """Closed loop: keep ``workers`` requests outstanding; a request's
        latency runs from its submit to its returned row.

        The host scale of a request is the one its worker sampled around
        it (:func:`sampled`): the coordinator is idle while requests run, so
        only the workers see the contention the requests meet.  The
        sampling time is taken out of the latency and, spread over the
        workers, out of the round's wall time.
        """
        service = state.service
        start = perf_counter()
        pending = [self.request(unit) for unit in self.units(index)]
        self.issued.update((request.id, request) for request in pending)
        pending.reverse()
        submitted: Dict[str, float] = {}
        ready: List[dict] = []
        results: List[Timed] = []
        sampled_s = 0.0

        def send() -> None:
            if pending:
                request = pending.pop()
                submitted[request.id] = perf_counter()
                ready.extend(service.submit(request))

        for _ in range(self.workers):
            send()
        while submitted:
            ready.extend(service.process())
            while ready:
                row = ready.pop(0)
                latency = perf_counter() - submitted.pop(row["id"])
                # a row the worker did not produce (quarantined) is failed
                # anyway; it keeps its wall latency
                scale, before, after = row.pop(HOST_KEY, (1.0, 0.0, 0.0))
                results.append(Timed(latency - before - after, scale, row))
                sampled_s += before + after
                send()
        wall = perf_counter() - start - sampled_s / self.workers
        busy = sum(unit.latency for unit in results)
        return Round(results, wall, wall * sum(
            unit.latency * unit.scale for unit in results) / busy)

    def check(self, state, rows: List[dict]) -> List[str]:
        """Every row is ``done``, and a seeded sample equals one-shot
        :func:`execute_request` rows (fresh worker caches each)."""
        wrong = [f"{row.get('id')}: {row.get('status')} "
                 f"{row.get('error', row.get('reason', ''))}"
                 for row in rows if row.get("status") != "done"]
        for row in self.sample(rows):
            service_requests._IMAGES.clear()
            service_requests._ENGINES.clear()
            expected = service_requests.execute_request(self.issued[row["id"]])
            if row != expected:
                wrong.append(f"{row['id']}: served row differs from the "
                             f"one-shot row")
        return wrong

    def close(self, state: ServeState) -> None:
        state.service.close()
        service_requests.execute_request = state.execute_request
        shutil.rmtree(state.directory, ignore_errors=True)

    def respawns(self, state: ServeState) -> int:
        return state.service.stats.respawns


WORKLOADS = {"overhead": Overhead, "serve": Serve}
