"""End-to-end benchmark of the reproduction: run one workload, print metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of one timed pass: units per
second, median and tail unit latency, set-up time and peak memory.  Times
are host-scaled: wall seconds times the reference host's calibration time
over this host's, sampled next to each unit (``workloads.host_scale``), so
that a drifting host does not read as a program change.  The raw wall
figures are printed beside them.
``--trace 1`` runs one round untraced and then one round with a span at
every layer boundary (see ``tracing.py``) and prints the per-layer metrics,
each layer's self time as a share of unit time, and the tracing overhead
(untraced against traced units per second).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The timed pass runs whole rounds of units (``workloads.py``): as many as
``--seconds`` buys at the workload's nominal round time, and more until at
least ``MIN_UNITS`` units have completed.
Every output is checked afterwards; wrong outputs count as failed units.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import List, NamedTuple, Tuple

from tracing import Tracer, layer_metrics, unit_self_times

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run: at least ``SETUP_MIN``, more while they take less than
#: ``SETUP_SECONDS`` in all (cheap set-ups are the noisiest), at most
#: ``SETUP_MAX``.  ``setup_s`` is their median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 9, 2.0

#: Units a timed pass completes at least, so the tail percentile has ten
#: units beyond it.
MIN_UNITS = 20

END_TO_END = {"units_per_s": "1/s", "unit_p50_s": "s", "unit_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "solver.queries": "count", "solver.busy_s": "s",
    "solver.ms_per_query": "ms", "solver.sat_ratio": "ratio",
    "dse.executions": "count", "dse.instructions": "count",
    "dse.busy_s": "s", "dse.kips": "kinstr/s",
    "snapshot.captures": "count", "snapshot.restores": "count",
    "snapshot.restore_s": "s",
    "emu.runs": "count", "emu.instructions": "count", "emu.busy_s": "s",
    "emu.mips": "Minstr/s", "jit.compiles": "count", "jit.compile_s": "s",
    "jit.compiled_share": "ratio", "jit.closure_runs": "count",
    "jit.superblock_runs": "count",
    "rewrite.calls": "count", "rewrite.busy_s": "s",
    "compile.calls": "count", "compile.busy_s": "s",
    "load.calls": "count", "load.busy_s": "s",
    "pool.dispatches": "count", "pool.wait_s": "s", "pool.overhead_s": "s",
    "pool.respawns": "count",
    "service.queue_wait_s": "s", "service.journal_appends": "count",
    "service.journal_s": "s", "service.image_cache_hit_ratio": "ratio",
    "service.engine_cache_hit_ratio": "ratio",
    "host.calib_s": "s", "trace.units_per_s": "1/s",
    "trace.overhead": "ratio",
}


class Pass(NamedTuple):
    """One timed pass: when it started, and its rounds (``workloads.Round``)."""

    start: float
    rounds: list

    @property
    def units(self) -> list:
        return [unit for run in self.rounds for unit in run.units]

    @property
    def rows(self) -> List[dict]:
        return [unit.row for unit in self.units]

    @property
    def latencies(self) -> List[float]:
        """Host-scaled unit latencies."""
        return [unit.latency * unit.scale for unit in self.units]

    @property
    def units_per_s(self) -> float:
        """Units per host-scaled second over the whole pass."""
        return len(self.units) / sum(run.scaled for run in self.rounds)

    @property
    def raw_units_per_s(self) -> float:
        return len(self.units) / sum(run.wall for run in self.rounds)


def set_up(workload) -> Tuple[object, List[float], List[float]]:
    """Set the workload up several times; keep the last state.  Returns the
    state, the host-scaled set-up times and the raw ones."""
    from workloads import host_scale

    times: List[float] = []
    scaled: List[float] = []
    state = None
    while len(times) < SETUP_MIN or (len(times) < SETUP_MAX
                                     and sum(times) < SETUP_SECONDS):
        if state is not None:
            workload.close(state)
        gc.collect()
        scale = host_scale()
        start = perf_counter()
        state = workload.setup()
        times.append(perf_counter() - start)
        scaled.append(times[-1] * scale)
    return state, scaled, times


def timed_pass(workload, state, seconds: float, min_units: int,
               tracer=None) -> Pass:
    """Run ``seconds / workload.round_seconds`` rounds, rounded up (at least
    one), and more until ``min_units`` units are done.

    The round count depends on ``seconds`` alone, not on this host's speed:
    with a clock-based stop, slow stretches of the host cut some runs to
    one round, and those runs had a lower tail percentile and fewer cached
    images than the rest.
    """
    gc.collect()
    rounds: list = []
    planned = max(1, math.ceil(seconds / workload.round_seconds))
    start = perf_counter()
    while len(rounds) < planned \
            or sum(len(run.units) for run in rounds) < min_units:
        rounds.append(workload.run_round(state, len(rounds), tracer))
    return Pass(start, rounds)


def tail(latencies: List[float]) -> Tuple[float, int]:
    """The highest percentile with at least ten units beyond it, and that
    percentile."""
    ordered = sorted(latencies)
    index = len(ordered) - 11
    return ordered[index], 100 * (index + 1) // len(ordered)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest (joined) worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker) / 1024


def trace_round(workload):
    """Set up and run one round with every layer boundary traced."""
    tracer = Tracer()
    tracer.install()
    state = None
    try:
        tracer.unit = "setup"
        state = workload.setup()
        tracer.unit = None
        measured = timed_pass(workload, state, 0, 1, tracer)
    finally:
        if state is not None:
            workload.close(state)
        tracer.uninstall()
    return tracer, state, measured


def print_shares(workload, measured: Pass, spans) -> None:
    """Each layer's self time as a share of the units' (raw) summed
    latency."""
    total = sum(unit.latency for unit in measured.units)
    ids = {row["id"] for row in measured.rows if "id" in row}
    shares = unit_self_times(spans, ids)
    if workload.name == "serve":
        # requests overlap on the coordinator, so its layers are shown as
        # what each request spent outside its worker: dispatch, IPC, queue
        inside = sum(span.end - span.start for span in spans
                     if span.layer == "request" and span.unit in ids)
        shares["pool+service"] = total - inside
    shares["unattributed"] = total - sum(shares.values())
    print(f"  self time by layer, share of {total:.3f} s unit time:")
    for layer, seconds in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"    {layer:14s} {seconds:9.3f} s "
              f"{100 * seconds / total:6.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("overhead", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run it "
              f"from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import workloads
    import_s = perf_counter() - start
    calib_s = workloads.calibrate()

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    factory = workloads.WORKLOADS[args.workload]
    workload = (factory(args.seed, scratch) if args.workload == "serve"
                else factory(args.seed))

    state, setup_times, raw_setup_times = set_up(workload)
    try:
        # the traced run compares one traced round against one untraced
        measured = (timed_pass(workload, state, 0, 1) if args.trace else
                    timed_pass(workload, state, args.seconds, MIN_UNITS))
    finally:
        workload.close(state)
    rss_mb = peak_rss_mb()  # before the checks, which run in this process
    respawns = workload.respawns(state)
    wrong = workload.check(state, measured.rows)
    attempted = len(measured.rows)
    passes = [measured]
    if args.trace:
        tracer, traced_state, traced = trace_round(workload)
        wrong += workload.check(traced_state, traced.rows)
        attempted += len(traced.rows)
        passes.append(traced)

    print(f"perfbench {args.workload} seed={args.seed}: imports "
          f"{import_s:.3f} s, set-ups "
          f"{', '.join(f'{t:.3f}' for t in raw_setup_times)} s "
          f"(scaled {', '.join(f'{t:.3f}' for t in setup_times)} s)")
    for label, run in zip(("untraced", "traced"), passes):
        q1, _, q3 = statistics.quantiles(run.latencies, n=4)
        raw = [unit.latency for unit in run.units]
        print(f"  {label} pass: {len(run.units)} units in "
              f"{len(run.rounds)} round(s), {run.units_per_s:.4f} units/s "
              f"scaled, {run.raw_units_per_s:.4f} raw; scaled unit latency "
              f"quartiles {q1:.3f} .. {q3:.3f} s, raw median "
              f"{statistics.median(raw):.3f} s; host scale "
              f"{min(u.scale for u in run.units):.3f} .. "
              f"{max(u.scale for u in run.units):.3f}")
    print(f"  error_rate = {len(wrong) / attempted:.4f} "
          f"({len(wrong)} of {attempted} units wrong or failed)")
    for line in wrong:
        print(f"    wrong: {line}")
    print(f"  host.calib_s = {calib_s:.4f} s (diagnostic)")

    if args.trace:
        window = [span for span in tracer.spans if span.start >= traced.start]
        values = layer_metrics(window, workload.respawns(traced_state))
        values["host.calib_s"] = calib_s
        values["trace.units_per_s"] = traced.units_per_s
        values["trace.overhead"] = (measured.units_per_s
                                    / traced.units_per_s - 1)
        print(f"  tracing overhead: {traced.units_per_s:.4f} units/s traced "
              f"vs {measured.units_per_s:.4f} untraced "
              f"({100 * values['trace.overhead']:+.1f}%)")
        print_shares(workload, traced, window)
        setup_shares = unit_self_times(tracer.spans, {"setup"})
        print("  traced set-up self time: " + ", ".join(
            f"{layer} {seconds:.3f} s" for layer, seconds in
            sorted(setup_shares.items(), key=lambda item: -item[1])))
        with open(scratch / f"spans-{args.workload}-{args.seed}.json",
                  "w", encoding="utf-8") as out:
            json.dump([list(span) for span in tracer.spans], out,
                      default=str)
        units = PER_LAYER
    else:
        tail_s, percentile = tail(measured.latencies)
        values = {"units_per_s": measured.units_per_s,
                  "unit_p50_s": statistics.median(measured.latencies),
                  "unit_tail_s": tail_s,
                  "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": rss_mb}
        print(f"  unit_tail_s is p{percentile} of {len(measured.latencies)} "
              f"units; {respawns} worker respawns")
        units = END_TO_END

    for name, unit in units.items():
        print(f"  {name:32s} {values[name]:14.6f} {unit}")
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": len(wrong),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
