"""Full-scale evaluation grid driver for the scheduled CI job.

Runs configurable slices of the paper's evaluation grids (Figure 5 run-time
overhead, Table II secret finding / coverage, Table III gadget statistics)
and writes each result set as a JSON artifact plus a ``summary.json`` with
run metadata, aggregate attack-engine statistics (executions, instructions,
backtracking restores) and per-configuration efficacy/overhead aggregates.
The scheduled GitHub Actions workflow (``.github/workflows/grid.yml``) runs
the ``reduced`` slice nightly and archives the artifacts;
``workflow_dispatch`` selects any slice manually.

Usage::

    PYTHONPATH=src python -m repro.evaluation.grid --slice reduced --out grid-results

Slices:

* ``smoke``   — minutes-scale sanity slice (used by PR CI and local runs).
* ``reduced`` — the recurring job's slice: a representative subset of the
  paper-sized grids with minute-scale attack budgets.
* ``full``    — the paper-sized grids (CPU-hours; ``workflow_dispatch``
  only).

Trend reporting compares the ``summary.json`` of two archived runs::

    PYTHONPATH=src python -m repro.evaluation.grid --compare old/summary.json new/summary.json

It prints per-configuration secret-finding/coverage deltas and per-benchmark
overhead shifts, and exits nonzero when any delta exceeds the thresholds
(``--efficacy-threshold``, relative ``--overhead-threshold``) — the alarm
hook for diffing consecutive nightly artifacts.  Runs carrying quarantined
cells (``summary.json``'s ``faults.failed_units``) are flagged in the diff,
since their rows are partial.

Fault tolerance: every completed unit is appended to ``checkpoint.jsonl``
in the output directory the moment it arrives, and ``--resume <dir>`` loads
a previous run's checkpoint and skips the units it already completed (keyed
on a deterministic unit fingerprint) — a nightly run killed by a runner
timeout continues where it stopped instead of restarting from zero.  Units
whose worker crashed/hung/errored past the retry budget are *quarantined*
as ``{"status": "failed", "error": ...}`` rows (see
``repro.evaluation.parallel``) rather than aborting the run; they are never
checkpointed, so a resumed run retries them.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.attacks import AttackBudget
from repro.evaluation import parallel
from repro.obfuscation.configs import TABLE2_CONFIGURATIONS, nvm
from repro.evaluation.figure5 import figure5_units
from repro.evaluation.table2 import merge_table2, table2_units
from repro.evaluation.table3 import table3_units
from repro.ledger import Ledger
from repro.workloads.randomfuns import generate_table2_suite

#: Per-slice grid parameters.  ``None`` means "everything the generator
#: offers" (the paper-sized default).
SLICES: Dict[str, Dict] = {
    # smoke is fully deterministic: the wall-clock budget is generous enough
    # to never bind (the +OC+IH row's select-heavy solver queries are slow,
    # hence the wide margin), so the deterministic caps (executions, solver
    # queries, instructions) are what stop each attack — identical rows on
    # any machine and at any --workers count (the serial-vs-parallel tests
    # assert exactly this)
    "smoke": {
        "structures": ("if(bb4,bb4)",),
        "input_sizes": (1,),
        "seeds": (1,),
        "attack_seconds": 600.0,
        "attack_executions": 6,
        "attack_instructions": 150_000,
        "attack_solver_queries": 48,
        "clbg_benchmarks": ("fasta",),
        "k_values": (0.25, 1.00),
        "configurations": ("NATIVE", "ROP1.00", "ROP1.00+OC+IH"),
        "include_coverage": False,
        "vm_baseline": nvm(1, "all"),
    },
    # sized so the worst case (every attack exhausting its budget) stays
    # within a nightly runner slot: 8 configs x 6 specs x 2 attacks x 45s
    # is ~1.2h of attack budget plus the Figure 5 / Table III sweeps
    "reduced": {
        "structures": ("if(bb4,bb4)", "for(if(bb4,bb4))", "if(if(if,if),if)"),
        "input_sizes": (1, 2),
        "seeds": (1,),
        "attack_seconds": 45.0,
        "attack_executions": 5_000,
        "attack_instructions": 2_000_000,
        "attack_solver_queries": None,
        "clbg_benchmarks": ("fasta", "rev-comp", "sp-norm"),
        "k_values": (0.05, 0.25, 0.50, 1.00),
        "configurations": ("NATIVE", "ROP0.05", "ROP0.25", "ROP0.50",
                           "ROP1.00", "ROP1.00+OC+IH",
                           "2VM", "2VM-IMPlast", "3VM-IMPall"),
        "include_coverage": True,
        "vm_baseline": nvm(2, "last"),
    },
    "full": {
        "structures": None,
        "input_sizes": (1, 2, 4, 8),
        "seeds": (1, 2, 3),
        "attack_seconds": 3600.0,
        "attack_executions": 100_000,
        "attack_instructions": 2_000_000,
        "attack_solver_queries": None,
        "clbg_benchmarks": None,
        "k_values": None,
        "configurations": None,
        "include_coverage": True,
        "vm_baseline": nvm(2, "last"),
    },
}


def _configurations(names: Optional[tuple]):
    if names is None:
        return list(TABLE2_CONFIGURATIONS)
    return [c for c in TABLE2_CONFIGURATIONS if c.name in names]


def _slice_budget(params: Dict) -> AttackBudget:
    return AttackBudget(
        seconds=params["attack_seconds"],
        max_executions=params["attack_executions"],
        max_instructions_per_run=params.get("attack_instructions", 2_000_000),
        max_solver_queries=params.get("attack_solver_queries"))


class Checkpoint(Ledger):
    """Incremental unit-result ledger enabling ``--resume`` of a killed run.

    Each completed unit appends one JSON line ``{"fingerprint", "part",
    "result"}`` to ``checkpoint.jsonl`` in the output directory as soon as
    it arrives, so a run killed at *any* point leaves a usable ledger behind
    (:class:`repro.ledger.Ledger` repairs torn lines).  A fresh ledger opens
    with a meta line recording the run axes (slice, seed), so ``--resume``
    can detect an axis mismatch instead of silently matching nothing.
    Quarantined units are never recorded — a resumed run retries them.
    Fingerprints hash every unit parameter
    (:func:`repro.evaluation.parallel.unit_fingerprint`), so a checkpoint
    from a different slice/seed simply matches nothing instead of leaking
    stale rows into the wrong run.
    """

    FILENAME = "checkpoint.jsonl"
    PAYLOAD = "result"

    def record(self, fingerprint: str, part: str, result: dict) -> None:
        self.append(fingerprint, part=part, result=result)

    @classmethod
    def load_with_meta(cls, directory) -> Tuple[Dict[str, dict],
                                                 Optional[Dict]]:
        """``(fingerprint -> {"part", "result"}, meta)`` in one read.

        ``meta`` is ``None`` for a missing file or a pre-meta (legacy)
        ledger — those resume on fingerprints alone, exactly as before.
        """
        entries, meta = cls.read(directory)
        return ({fingerprint: {"part": entry.get("part", ""),
                               "result": entry["result"]}
                 for fingerprint, entry in entries.items()}, meta)

    @classmethod
    def load(cls, directory) -> Dict[str, dict]:
        """``fingerprint -> {"part", "result"}`` from a previous ledger."""
        return cls.load_with_meta(directory)[0]

    @classmethod
    def load_meta(cls, directory) -> Optional[Dict]:
        """The run-axis meta record of a previous ledger, if one was written."""
        return cls.load_with_meta(directory)[1]


def load_resume(resume_dir: Path, run_axes: Dict) -> tuple:
    """Load a ``--resume`` ledger, validating its run axes first.

    Returns ``(completed, messages)``.  A ledger recorded under a different
    slice/seed axis would match nothing fingerprint-wise — which silently
    reads as "fresh run" while leaving a stale ledger impression — so an
    explicit mismatch warning is emitted and the ledger ignored.  Legacy
    ledgers without a meta line resume on fingerprints alone, as before.
    """
    messages: List[str] = []
    completed, recorded = Checkpoint.load_with_meta(resume_dir)
    if recorded is not None and recorded != run_axes:
        described = ", ".join(f"{key}={value}" for key, value
                              in sorted(recorded.items()))
        wanted = ", ".join(f"{key}={value}" for key, value
                           in sorted(run_axes.items()))
        messages.append(
            f"WARNING: checkpoint at {resume_dir / Checkpoint.FILENAME} was "
            f"recorded for {described}, but this invocation runs {wanted}; "
            f"ignoring it and starting a fresh ledger")
        return {}, messages
    if completed:
        messages.append(f"resume: {len(completed)} completed unit(s) loaded "
                        f"from {resume_dir / Checkpoint.FILENAME}")
    else:
        messages.append(f"resume: no checkpoint at "
                        f"{resume_dir / Checkpoint.FILENAME}; running every "
                        f"unit")
    return completed, messages


def _run_units(pool: parallel.WorkerPool, units, part: str,
               completed: Optional[Dict[str, dict]],
               checkpoint: Optional[Checkpoint]):
    """Dispatch ``units`` through ``pool``, skipping checkpointed ones.

    Returns ``(rows, worker_ids)`` in unit order; a resumed unit carries its
    checkpointed row and a ``None`` worker id (it cost this run nothing).
    Freshly completed units stream to ``checkpoint`` as they arrive, so a
    driver killed mid-part still checkpoints everything that finished.
    """
    completed = completed or {}
    fingerprints = [parallel.unit_fingerprint(unit) for unit in units]
    rows: List[Optional[dict]] = [None] * len(units)
    worker_ids: List[Optional[int]] = [None] * len(units)
    todo: List[int] = []
    for position, fingerprint in enumerate(fingerprints):
        entry = completed.get(fingerprint)
        if entry is None:
            todo.append(position)
        else:
            rows[position] = entry["result"]

    def on_result(index: int, unit, payload: dict) -> None:
        if checkpoint is not None and payload.get("status") != "failed":
            checkpoint.record(fingerprints[todo[index]], part, payload)

    mapped, ids = pool.map([units[position] for position in todo],
                           on_result=on_result)
    for index, position in enumerate(todo):
        rows[position] = mapped[index]
        worker_ids[position] = ids[index]
    return rows, worker_ids


def executions_by_worker(worker_ids, cells) -> Dict[str, int]:
    """Per-worker concrete-execution totals for the summary's attack_engine.

    Resumed cells (worker id ``None``, executed by a previous run) and
    quarantined cells (no counters) are skipped.
    """
    totals: Dict[str, int] = {}
    for worker, cell in zip(worker_ids, cells):
        if worker is not None and cell.get("status") != "failed":
            totals[str(worker)] = totals.get(str(worker), 0) + cell["executions"]
    return totals


def run_grid(slice_name: str = "reduced", seed: int = 1,
             parts: Optional[List[str]] = None,
             workers: Optional[int] = None,
             pool: Optional[parallel.WorkerPool] = None,
             meta: Optional[Dict] = None,
             checkpoint: Optional[Checkpoint] = None,
             completed: Optional[Dict[str, dict]] = None,
             ) -> Dict[str, List[dict]]:
    """Run the selected grid slice and return ``{artifact: rows}``.

    ``parts`` restricts the run to a subset of ``("figure5", "table2",
    "table3")``; rows are plain dicts ready for JSON serialization.

    Every part is decomposed into work units dispatched through a
    :class:`~repro.evaluation.parallel.WorkerPool` of ``workers`` (default:
    the ``REPRO_GRID_WORKERS`` knob); at one worker the pool runs the units
    inline.  Rows are identical at any worker count and the same seed
    (wall-clock fields aside).  Pass ``pool`` to reuse one persistent pool
    across several calls (the CLI does this so worker-local caches survive
    across the three parts); ``meta``, when given, collects side-channel
    statistics (``executions_by_worker``, ``faults``).

    ``checkpoint`` streams each completed unit to disk as it arrives and
    ``completed`` (a loaded :meth:`Checkpoint.load` mapping) skips units a
    previous run already finished.  Units that exhaust their retries
    surface as quarantined ``{"status": "failed"}`` rows instead of
    raising.
    """
    params = SLICES[slice_name]
    parts = list(parts or ("figure5", "table2", "table3"))
    own_pool: Optional[parallel.WorkerPool] = None
    if pool is None:
        pool = own_pool = parallel.WorkerPool(
            parallel.grid_workers() if workers is None else workers)
    results: Dict[str, List[dict]] = {}

    try:
        if "figure5" in parts:
            units = figure5_units(benchmarks=params["clbg_benchmarks"],
                                  k_values=params["k_values"],
                                  baseline=params["vm_baseline"], seed=seed)
            results["figure5"], _ = _run_units(pool, units, "figure5",
                                               completed, checkpoint)

        if "table2" in parts:
            specs = generate_table2_suite(point_test=True, seeds=params["seeds"],
                                          input_sizes=params["input_sizes"],
                                          structures=params["structures"])
            units = table2_units(_configurations(params["configurations"]),
                                 specs, _slice_budget(params),
                                 include_coverage=params["include_coverage"],
                                 seed=seed)
            cells, worker_ids = _run_units(pool, units, "table2",
                                           completed, checkpoint)
            quarantined = [cell for cell in cells
                           if cell.get("status") == "failed"]
            results["table2"] = merge_table2(units, cells) + quarantined
            if meta is not None:
                meta["executions_by_worker"] = executions_by_worker(
                    worker_ids, cells)

        if "table3" in parts:
            units = table3_units(benchmarks=params["clbg_benchmarks"],
                                 k_values=params["k_values"], seed=seed)
            results["table3"], _ = _run_units(pool, units, "table3",
                                              completed, checkpoint)
    finally:
        if meta is not None:
            meta["faults"] = pool.stats.as_dict()
        if own_pool is not None:
            own_pool.close()

    return results


def _config_aggregates(table2: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per-configuration secret-finding/coverage rates from Table II rows.

    Multi-seed/multi-structure runs produce several rows per configuration;
    counts are summed across them and ``average_time`` is weighted by each
    row's success count (a plain last-row-wins comprehension here silently
    dropped all but one row per configuration).

    ``backtrack_rate`` is snapshot restores per concrete execution: how often
    DSE's backtracking actually engaged while attacking this configuration.
    The opaque-constant/instruction-hiding rows exist to stress exactly this
    path — a rate of 0 on them means the tracker fell back to rerun-from-entry
    everywhere and the exactness envelope regressed.
    """
    totals: Dict[str, Dict[str, float]] = {}
    for row in table2:
        if row.get("status") == "failed":
            continue  # quarantined rows carry no measurements
        entry = totals.setdefault(row["configuration"], {
            "functions": 0, "secrets_found": 0, "full_coverage": 0,
            "time_weight": 0.0, "executions": 0, "branch_restores": 0})
        entry["functions"] += row["functions"]
        entry["secrets_found"] += row["secrets_found"]
        entry["full_coverage"] += row["full_coverage"]
        entry["time_weight"] += row["average_time"] * row["secrets_found"]
        entry["executions"] += row.get("executions", 0)
        entry["branch_restores"] += row.get("branch_restores", 0)
    aggregates: Dict[str, Dict[str, float]] = {}
    for name, entry in totals.items():
        functions = max(1, entry["functions"])
        found = entry["secrets_found"]
        aggregates[name] = {
            "secret_rate": round(entry["secrets_found"] / functions, 4),
            "coverage_rate": round(entry["full_coverage"] / functions, 4),
            "average_time": round(
                entry["time_weight"] / found if found else 0.0, 3),
            "backtrack_rate": round(
                entry["branch_restores"] / max(1, entry["executions"]), 4),
        }
    return aggregates


def _overhead_aggregates(figure5: List[dict]) -> Dict[str, float]:
    """Per-(benchmark, k) slowdown-vs-baseline from Figure 5 bars."""
    return {
        f"{row['benchmark']}@k{row['k']:.2f}": round(
            row["slowdown_vs_baseline"], 4)
        for row in figure5 if row.get("status") != "failed"
    }


def write_artifacts(results: Dict[str, List[dict]], out_dir: Path,
                    slice_name: str, elapsed: float,
                    elapsed_by_part: Optional[Dict[str, float]] = None,
                    executions_by_worker: Optional[Dict[str, int]] = None,
                    workers: int = 1,
                    faults: Optional[Dict[str, int]] = None) -> Path:
    """Write one JSON file per grid plus a ``summary.json``; return the dir.

    ``elapsed_by_part`` attributes wall time to individual grids and
    ``executions_by_worker`` attributes attack work to pool workers, so
    ``--compare`` and the nightly job can localize runtime shifts.
    ``faults`` carries the pool's recovery counters (``failed_units``,
    ``retries``, ``respawns``, ``timeouts``, ``degraded``); quarantined
    rows inside ``results`` are excluded from every aggregate.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, rows in results.items():
        (out_dir / f"{name}.json").write_text(json.dumps(rows, indent=2) + "\n")

    table2 = [row for row in results.get("table2", [])
              if row.get("status") != "failed"]
    summary = {
        "slice": slice_name,
        "elapsed_sec": round(elapsed, 1),
        "elapsed_by_part": {name: round(seconds, 1) for name, seconds
                            in (elapsed_by_part or {}).items()},
        "workers": workers,
        "python": platform.python_version(),
        "grids": {name: len(rows) for name, rows in results.items()},
        "attack_engine": {
            "executions": sum(row["executions"] for row in table2),
            "instructions": sum(row["instructions"] for row in table2),
            "branch_restores": sum(row["branch_restores"] for row in table2),
            "executions_by_worker": executions_by_worker or {},
        },
        "faults": faults or parallel.FaultStats().as_dict(),
        # per-config aggregates: what --compare diffs between two runs
        "table2_configs": _config_aggregates(table2),
        "figure5_overheads": _overhead_aggregates(results.get("figure5", [])),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return out_dir


#: Top-level summary.json keys --compare understands; anything else is a
#: later schema's addition and is ignored with a notice.
_KNOWN_SUMMARY_KEYS = frozenset({
    "slice", "elapsed_sec", "elapsed_by_part", "workers", "python",
    "grids", "attack_engine", "table2_configs", "figure5_overheads", "faults",
})


def compare_summaries(old: dict, new: dict, efficacy_threshold: float = 0.1,
                      overhead_threshold: float = 0.25) -> tuple:
    """Diff two ``summary.json`` payloads.

    Returns ``(lines, shifted)``: human-readable per-config delta lines, and
    whether any efficacy rate moved more than ``efficacy_threshold``
    (absolute) or any overhead ratio moved more than ``overhead_threshold``
    (relative).  Only configurations present in both runs are compared, so
    slices of different breadth can still be diffed for their overlap.

    Tolerant of schema growth in either direction: unknown top-level keys
    and metrics missing from one side are noted and skipped, never a
    ``KeyError`` — consecutive nightly artifacts straddling a schema change
    still diff cleanly.
    """
    lines: List[str] = []
    shifted = False

    for label, payload in (("old", old), ("new", new)):
        unknown = sorted(set(payload) - _KNOWN_SUMMARY_KEYS)
        if unknown:
            lines.append(f"   note: ignoring unknown {label} summary "
                         f"key(s): {', '.join(unknown)}")

    # a run with quarantined cells has partial rows: every rate it reports
    # is computed over fewer units, so flag the diff as suspect up front
    for label, payload in (("old", old), ("new", new)):
        failed_units = (payload.get("faults") or {}).get("failed_units", 0)
        if failed_units:
            lines.append(f"!! warning: {label} run has {failed_units} "
                         f"quarantined cell(s); its rows are partial")

    old_configs = old.get("table2_configs", {})
    new_configs = new.get("table2_configs", {})
    # configurations present in only one run are a schema/axis change (e.g. a
    # slice gaining the +OC/+IH protection-profile rows), not a regression:
    # note them so the reader knows the comparison below skips them
    only_old = sorted(set(old_configs) - set(new_configs))
    only_new = sorted(set(new_configs) - set(old_configs))
    if only_old:
        lines.append(f"   note: configuration(s) only in old run (axis "
                     f"removed?): {', '.join(only_old)}")
    if only_new:
        lines.append(f"   note: configuration(s) only in new run (new "
                     f"configuration axis, e.g. protection profiles): "
                     f"{', '.join(only_new)}")
    for name in sorted(set(old_configs) & set(new_configs)):
        before, after = old_configs[name], new_configs[name]
        for metric in ("secret_rate", "coverage_rate", "backtrack_rate"):
            if metric not in before or metric not in after:
                lines.append(f"   note: {name} {metric} missing from one "
                             f"summary; skipped")
                continue
            delta = after[metric] - before[metric]
            # backtrack_rate is restores *per execution* (often > 1), so the
            # absolute efficacy threshold does not apply; report it without
            # letting it trip the exit code
            flag = (metric != "backtrack_rate"
                    and abs(delta) > efficacy_threshold)
            shifted = shifted or flag
            lines.append(
                f"{'!! ' if flag else '   '}{name:<12} {metric:<13} "
                f"{before[metric]:6.3f} -> {after[metric]:6.3f}  "
                f"({delta:+.3f})")

    old_overheads = old.get("figure5_overheads", {})
    new_overheads = new.get("figure5_overheads", {})
    for name in sorted(set(old_overheads) & set(new_overheads)):
        before, after = old_overheads[name], new_overheads[name]
        relative = (after / before - 1.0) if before else 0.0
        flag = abs(relative) > overhead_threshold
        shifted = shifted or flag
        lines.append(
            f"{'!! ' if flag else '   '}{name:<20} overhead      "
            f"{before:6.2f} -> {after:6.2f}  ({relative:+.1%})")

    if not lines:
        lines.append("no overlapping configurations between the two summaries")
    return lines, shifted


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slice", choices=sorted(SLICES), default="reduced",
                        help="grid scale to run (default: reduced)")
    parser.add_argument("--out", default="grid-results",
                        help="output directory for the JSON artifacts")
    parser.add_argument("--parts", nargs="+",
                        choices=("figure5", "table2", "table3"),
                        help="restrict to a subset of the grids")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for sharded execution "
                             "(default: REPRO_GRID_WORKERS or 1 = serial)")
    parser.add_argument("--resume", metavar="DIR", default=None,
                        help="directory holding a previous run's "
                             "checkpoint.jsonl; units it already completed "
                             "are loaded and skipped (a ledger recorded "
                             "under a different slice/seed is ignored with "
                             "a warning)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="diff two summary.json files instead of running "
                             "a grid; exits 1 on shifts beyond the thresholds")
    parser.add_argument("--efficacy-threshold", type=float, default=0.1,
                        help="absolute secret/coverage-rate delta that "
                             "counts as a shift (default: 0.1)")
    parser.add_argument("--overhead-threshold", type=float, default=0.25,
                        help="relative overhead delta that counts as a "
                             "shift (default: 0.25)")
    args = parser.parse_args(argv)

    if args.compare:
        old_path, new_path = (Path(name) for name in args.compare)
        old = json.loads(old_path.read_text())
        new = json.loads(new_path.read_text())
        lines, shifted = compare_summaries(
            old, new, efficacy_threshold=args.efficacy_threshold,
            overhead_threshold=args.overhead_threshold)
        print(f"comparing {old_path} ({old.get('slice')}) -> "
              f"{new_path} ({new.get('slice')})")
        for line in lines:
            print(line)
        print("RESULT: shifted beyond thresholds" if shifted else "RESULT: stable")
        return 1 if shifted else 0

    start = time.monotonic()
    workers = args.workers if args.workers is not None else parallel.grid_workers()
    out_dir = Path(args.out)

    # checkpoint-resume: load a previous run's ledger, then stream this
    # run's completed units to out_dir/checkpoint.jsonl as they arrive
    run_axes = {"slice": args.slice, "seed": args.seed}
    completed: Dict[str, dict] = {}
    if args.resume:
        resume_dir = Path(args.resume)
        completed, messages = load_resume(resume_dir, run_axes)
        for message in messages:
            print(message)
    checkpoint = Checkpoint(out_dir, meta=run_axes)
    if completed and Path(args.resume).resolve() != out_dir.resolve():
        # carry the resumed entries over so out_dir is itself resumable
        for fingerprint, entry in completed.items():
            checkpoint.record(fingerprint, entry["part"], entry["result"])

    # run and persist one grid at a time: a budget overrun or runner timeout
    # mid-run still leaves every completed grid's JSON on disk for upload.
    # One pool persists across the parts so worker-local caches keep paying.
    results: Dict[str, List[dict]] = {}
    elapsed_by_part: Dict[str, float] = {}
    meta: Dict = {}
    with parallel.WorkerPool(workers) as pool, checkpoint:
        if workers > 1:
            print(f"workers: {workers} "
                  f"({'fork pool' if pool.parallel else 'fork unavailable, serial'})")
        for part in args.parts or ("table3", "figure5", "table2"):
            part_start = time.monotonic()
            part_rows = run_grid(args.slice, seed=args.seed, parts=[part],
                                 pool=pool, meta=meta,
                                 checkpoint=checkpoint,
                                 completed=completed)[part]
            elapsed_by_part[part] = time.monotonic() - part_start
            results[part] = part_rows
            write_artifacts(results, out_dir, args.slice,
                            time.monotonic() - start,
                            elapsed_by_part=elapsed_by_part,
                            executions_by_worker=meta.get("executions_by_worker"),
                            workers=workers,
                            faults=pool.stats.as_dict())
            print(f"{part}: {len(part_rows)} rows -> {out_dir / (part + '.json')}")
        if pool.stats.failed_units:
            print(f"WARNING: {pool.stats.failed_units} unit(s) quarantined "
                  f"after retries (see the status=failed rows; "
                  f"{pool.stats.retries} retries, "
                  f"{pool.stats.respawns} worker respawns, "
                  f"{pool.stats.timeouts} deadline kills)")
        if pool.stats.degraded:
            print(f"WARNING: {pool.stats.respawns} worker respawns passed "
                  f"the limit of {pool.respawn_limit}; the pool finished "
                  f"the run inline")
    print(f"summary -> {out_dir / 'summary.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
