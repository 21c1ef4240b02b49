"""Self-tests of the benchmark at a small size: its output checks count
planted wrong outputs, and its deterministic counts repeat at one seed.

Run with ``PYTHONPATH=src python3 -m pytest perfbench/selftest.py``.  The
file name keeps a plain ``pytest`` run of the repository from collecting
it: these tests run heavy workloads in the test process, and some of the
repository's own tests explore under wall-clock budgets that such a run
ahead of them can push them past.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from repro import cpu  # noqa: E402
from repro.attacks import engine  # noqa: E402
from repro.obfuscation.configs import ropk  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

CHEAP_CELL = ("if(if(if,if),if)", 2, "ROP0.25")

#: Per-layer counts that depend only on the inputs, never on timing.  On
#: serve, which worker's caches a request meets is timing, so only the
#: attack's own counts qualify there.
DETERMINISTIC = {
    "overhead": ("emu.runs", "emu.instructions", "jit.compiles",
                 "jit.closure_runs", "jit.superblock_runs", "rewrite.calls",
                 "compile.calls", "load.calls"),
    "serve": ("solver.queries", "dse.executions", "dse.instructions"),
}


def small_workloads(seed, scratch):
    return [workloads.Overhead(seed, kernels=("n-body", "fasta"),
                               configs=(ropk(0.25),)),
            workloads.Serve(seed, scratch, workers=2, hot=(CHEAP_CELL,),
                            cold=(CHEAP_CELL,))]


def counts(workload):
    """Digest of one traced round's rows, and its deterministic counts."""
    tracer = Tracer()
    tracer.install()
    try:
        state = workload.setup()
        rows = workload.run_round(state, 0, tracer)
        workload.close(state)
    finally:
        tracer.uninstall()
    # served rows arrive in completion order; put them in submission order
    order = [unit.id for unit in workload.units(0)]
    rows = sorted((unit.row for unit in rows.units),
                  key=lambda row: order.index(row["id"]))
    assert workload.check(state, rows) == []
    metrics = layer_metrics(tracer.spans, respawns=0)
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode())
    return digest.hexdigest(), {name: metrics[name]
                                for name in DETERMINISTIC[workload.name]}


def test_same_seed_repeats_rows_and_counts(tmp_path):
    for first, second in zip(small_workloads(3, tmp_path),
                             small_workloads(3, tmp_path)):
        assert counts(first) == counts(second)


def test_other_seed_changes_the_mix(tmp_path):
    for first, second in zip(small_workloads(3, tmp_path),
                             small_workloads(4, tmp_path)):
        assert [unit.params for unit in first.units(0)] \
            != [unit.params for unit in second.units(0)]
    # served rows do not carry the attack seed, and two attack seeds on so
    # small a cell reach the same row; the overhead rows follow the order
    first, second = small_workloads(3, tmp_path)[0], \
        small_workloads(4, tmp_path)[0]
    assert counts(first)[0] != counts(second)[0]


def test_tracer_restores_every_wrapped_function():
    before = (cpu.call_function, engine.preloaded_fork,
              cpu.Emulator.restore)
    tracer = Tracer()
    tracer.install()
    assert cpu.call_function is not before[0]
    tracer.uninstall()
    assert (cpu.call_function, engine.preloaded_fork,
            cpu.Emulator.restore) == before


def test_planted_wrong_return_value_is_counted():
    workload = workloads.Overhead(1, kernels=("n-body",),
                                  configs=(ropk(0.25),))
    state = workload.setup()
    rows = [unit.row for unit in workload.run_round(state, 0).units]
    assert workload.check(state, rows) == []
    rows[0] = {**rows[0], "return_value": rows[0]["return_value"] + 1}
    assert len(workload.check(state, rows)) == 1


def test_planted_wrong_served_row_is_counted(tmp_path):
    workload = workloads.Serve(1, tmp_path, workers=2, hot=(CHEAP_CELL,),
                               cold=(CHEAP_CELL,))
    state = workload.setup()
    try:
        rows = [unit.row for unit in workload.run_round(state, 0).units]
    finally:
        workload.close(state)
    assert len(rows) == 2 and workload.check(state, rows) == []
    planted = [{**rows[0], "executions": rows[0]["executions"] + 1},
               {"id": rows[1]["id"], "status": "quarantined", "error": "x"}]
    assert len(workload.check(state, planted)) == 2


def test_benchmark_json_lists_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)
