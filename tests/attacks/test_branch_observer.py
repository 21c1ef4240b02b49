"""Branch-observer snapshot capture at cmov and pointer (ROP) records.

PR 3 snapshotted only plain ``jcc`` branch points; cmov and pointer-kind
records mutate shadow state inside the same tracker-hook call, so the
capture must happen *before* the mutation.  These tests assert the new
observer-driven capture engages at those record kinds and — the load-bearing
property — that backtracking exploration stays path-for-path identical to
rerun-from-entry, as well as that the attack engines produce identical
results under both emulator execution tiers.
"""

from repro.attacks.dse import DseEngine, InputSpec
from repro.attacks.ropaware import RopMemuExplorer
from repro.attacks.shadow import ShadowTracker
from repro.attacks.tds import TaintDrivenSimplifier
from repro.binary import BinaryImage
from repro.compiler import compile_program
from repro.core import RopConfig, rop_obfuscate
from repro.isa import Imm, Reg, assemble
from repro.isa.instructions import make
from repro.isa.operands import Label
from repro.isa.registers import Register
from repro.lang import (
    Assign,
    BinOp,
    Const,
    Function,
    If,
    Probe,
    Program,
    Return,
    Var,
)


def _explore(image, backtracking, sizes=(8,), budget=8.0, executions=80,
             seed=3):
    engine = DseEngine(image, "f", InputSpec(argument_sizes=list(sizes)),
                       seed=seed, backtracking=backtracking)
    results, stats = engine.explore(time_budget=budget,
                                    max_executions=executions)
    paths = sorted(set(
        tuple((address, constraint.expected)
              for address, constraint in zip(result.branch_addresses,
                                             result.constraints))
        for result in results))
    outcomes = sorted((tuple(sorted(result.assignment.items())),
                       result.return_value, result.probes)
                      for result in results)
    return paths, outcomes, stats


def _cmov_image():
    """A function whose first symbolic decision is a cmov select."""
    image = BinaryImage()
    body = [
        make("mov", Reg(Register.RAX), Imm(1)),
        make("mov", Reg(Register.RCX), Imm(7)),
        make("cmp", Reg(Register.RDI), Imm(5)),
        make("cmove", Reg(Register.RAX), Reg(Register.RCX)),
        make("cmp", Reg(Register.RDI), Imm(64)),
        make("jne", Label("done")),
        make("add", Reg(Register.RAX), Imm(100)),
        "done",
        make("ret"),
    ]
    code, _ = assemble(body, base_address=image.text.address)
    address = image.text.append(code)
    image.add_function("f", address, len(code))
    return image


def test_cmov_branch_points_are_captured_and_equivalent():
    image = _cmov_image()
    paths_bt, outcomes_bt, stats_bt = _explore(image, backtracking=True)
    paths_entry, outcomes_entry, _ = _explore(image, backtracking=False)
    assert paths_bt == paths_entry
    assert outcomes_bt == outcomes_entry
    assert len(paths_bt) >= 3, "cmov + jcc should fan out multiple paths"
    # the first decision of every path is the cmov select: without cmov
    # capture the pool would stay empty until the later jcc
    assert stats_bt.snapshots_taken >= 1
    assert stats_bt.branch_restores >= 1
    assert stats_bt.repair_fallbacks == 0


def _rop_image():
    """A ROP-obfuscated license check: decisions are pointer-kind records."""
    check = Program([Function("f", ["x"], [
        Probe(1),
        Assign("h", BinOp("^", BinOp("*", Var("x"), Const(13)), Const(0x27))),
        If(BinOp("==", BinOp("&", Var("h"), Const(0xFF)), Const(0x5A)),
           [Probe(2), Return(Const(1))],
           [Probe(3), Return(Const(0))]),
    ])])
    ropped, _ = rop_obfuscate(compile_program(check), ["f"], RopConfig.plain())
    return ropped


def test_pointer_branch_points_are_captured_and_equivalent():
    image = _rop_image()
    paths_bt, outcomes_bt, stats_bt = _explore(image, backtracking=True,
                                               sizes=(1,))
    paths_entry, outcomes_entry, _ = _explore(image, backtracking=False,
                                              sizes=(1,))
    assert paths_bt == paths_entry
    assert outcomes_bt == outcomes_entry
    # ROP branches never touch the flags: captures happen at pointer records
    assert stats_bt.snapshots_taken >= 1
    assert stats_bt.branch_restores >= 1


def test_observer_fires_before_shadow_mutation():
    """At observer time the record is not yet appended and the flag-repair
    recipe still describes the *pre-branch* flags (the capture invariant)."""
    image = _rop_image()
    engine = DseEngine(image, "f", InputSpec(argument_sizes=[1]), seed=1,
                       backtracking=True)
    emulator = engine._fork_emulator()
    tracker = ShadowTracker()
    from repro.attacks.solver.expr import SymExpr
    from repro.isa.registers import ARG_REGISTERS

    tracker.set_register_symbol(ARG_REGISTERS[0], SymExpr("arg0", 1))
    seen = []

    def observer(kind, address):
        # the pointer record for this instruction must not be recorded yet
        seen.append((kind, len(tracker.branches),
                     None if tracker.flag_repair is None
                     else tracker.flag_repair[0]))

    tracker.branch_observer = observer
    emulator.pre_hooks = [tracker.hook]
    emulator.run()
    assert seen, "the ROP chain should hit at least one pointer branch"
    kinds = {kind for kind, _, _ in seen}
    assert "pointer" in kinds
    first_kind, depth_at_first, _ = seen[0]
    assert depth_at_first == 0, "observer must fire before the record lands"
    # forks taken by observers must not inherit the observer itself
    assert tracker.fork().branch_observer is None


def _attack_results(image):
    """One result bundle per engine, deterministic under a fixed seed."""
    dse_paths, dse_outcomes, _ = _explore(image, backtracking=True,
                                          sizes=(1,), budget=5.0,
                                          executions=40)
    tds = TaintDrivenSimplifier(image, "f")
    trace, steps = tds.record([7])
    memu = RopMemuExplorer(image, "f")
    report = memu.explore([7], max_flips=12)
    return {
        "dse": (dse_paths, dse_outcomes),
        "tds": ([entry.address for entry in trace], steps),
        "ropmemu": (report.flag_leak_points, report.valid_alternate_paths,
                    sorted(report.new_coverage), len(report.attempts)),
    }


def test_attack_results_identical_across_execution_tiers(monkeypatch):
    """DSE/TDS/ROPMEMU must be tier-blind: single-step and exec-compiled
    traces produce byte-identical attack results."""
    import repro.cpu.emulator as emulator_module

    image = _rop_image()
    results = []
    for cache in (False, True):
        monkeypatch.setattr(emulator_module, "_TRACE_CACHE_DEFAULT", cache)
        results.append(_attack_results(image))
    assert results[0] == results[1]
