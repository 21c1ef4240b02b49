"""Tests for the attack engines: solver, DSE, SE, TDS, ROP-aware tools."""


from repro.attacks import AttackBudget, coverage_attack, secret_finding_attack
from repro.attacks.dse import DseEngine, InputSpec
from repro.attacks.ropaware import RopDissector, RopMemuExplorer
from repro.attacks.solver.expr import BinExpr, ConstExpr, SymExpr, simplify
from repro.attacks.solver.solver import ConstraintSolver, PathConstraint
from repro.attacks.tds import TaintDrivenSimplifier
from repro.compiler import compile_program
from repro.core import RopConfig, rop_obfuscate
from repro.lang import (Assign, BinOp, Const, Function, If, Probe,
                        Program, Return, Var)
from repro.workloads.randomfuns import RandomFunSpec, generate_random_function


def license_check_program(secret=0x5A):
    """A toy license check: accept when a simple hash of the input matches."""
    return Program([Function("check", ["x"], [
        Probe(1),
        Assign("h", BinOp("^", BinOp("*", Var("x"), Const(13)), Const(0x27))),
        If(BinOp("==", BinOp("&", Var("h"), Const(0xFF)), Const(secret)),
           [Probe(2), Return(Const(1))],
           [Probe(3), Return(Const(0))]),
    ])])


# -- solver ---------------------------------------------------------------------
def test_expression_evaluation_and_simplify():
    x = SymExpr("x", 1)
    expression = BinExpr("add", BinExpr("mul", x, ConstExpr(3)), ConstExpr(0))
    assert expression.evaluate({"x": 5}) == 15
    assert simplify(BinExpr("add", ConstExpr(2), ConstExpr(3))).value == 5


def test_solver_inverts_simple_equalities():
    solver = ConstraintSolver({"x": 8})
    x = SymExpr("x", 8)
    constraint = PathConstraint(
        BinExpr("eq", BinExpr("add", BinExpr("xor", x, ConstExpr(0xFF)), ConstExpr(5)),
                ConstExpr(0x123)), True)
    solution = solver.solve([constraint])
    assert solution is not None
    assert constraint.holds(solution)


def test_solver_enumerates_tiny_domains():
    solver = ConstraintSolver({"x": 1})
    x = SymExpr("x", 1)
    constraint = PathConstraint(
        BinExpr("eq", BinExpr("mod", BinExpr("mul", x, ConstExpr(7)), ConstExpr(251)),
                ConstExpr(13)), True)
    solution = solver.solve([constraint])
    assert solution is not None and constraint.holds(solution)


def test_solver_reports_unsat_within_budget():
    solver = ConstraintSolver({"x": 1}, max_evaluations=300)
    x = SymExpr("x", 1)
    impossible = PathConstraint(BinExpr("ugt", x, ConstExpr(0x1_0000)), True)
    state = solver.random.getstate()
    assert solver.solve([impossible]) is None
    # the seed check, all 256 inputs, then the 44 left of the budget are
    # charged without being drawn
    assert solver.stats.evaluations == 301
    assert solver.stats.failed == 1
    assert solver.random.getstate() == state


# -- DSE on native code ------------------------------------------------------------
def test_dse_finds_secret_in_native_code():
    image = compile_program(license_check_program())
    outcome = secret_finding_attack(image, "check", InputSpec(argument_sizes=[1]),
                                    AttackBudget(seconds=5, max_executions=60))
    assert outcome.success
    assert outcome.witness is not None


def test_dse_reaches_full_coverage_on_native_code():
    image = compile_program(license_check_program())
    outcome = coverage_attack(image, "check", target_probes={1, 2, 3},
                              input_spec=InputSpec(argument_sizes=[1]),
                              budget=AttackBudget(seconds=5, max_executions=60))
    assert outcome.success


def test_dse_explores_multiple_paths():
    program = Program([Function("f", ["x"], [
        Assign("c", Const(0)),
        If(BinOp(">", Var("x"), Const(10)), [Assign("c", Const(1))]),
        If(BinOp("==", Var("x"), Const(42)), [Assign("c", Const(2))]),
        Return(Var("c")),
    ])])
    engine = DseEngine(compile_program(program), "f", InputSpec(argument_sizes=[1]))
    results, stats = engine.explore(time_budget=5, max_executions=40)
    assert stats.paths_seen >= 3
    assert {r.return_value for r in results} >= {0, 1, 2}

    # on a workload with more feasible paths (11 at one input byte) than
    # executions allowed, the execution cap is what stops exploration
    spec = RandomFunSpec(structure="for(if(bb4,bb4))", input_size=1, seed=2,
                         point_test=False)
    program, _, _ = generate_random_function(spec)
    engine = DseEngine(compile_program(program), spec.name,
                       InputSpec(argument_sizes=[1]), seed=5)
    results, stats = engine.explore(time_budget=float("inf"), max_executions=3,
                                    max_solver_queries=200)
    assert stats.executions <= 3
    assert len(results) == stats.executions


def test_dse_against_rop_is_slower_but_state_is_tracked():
    image = compile_program(license_check_program())
    obfuscated, report = rop_obfuscate(image, ["check"], RopConfig.ropk(0.25))
    assert report.coverage == 1.0
    engine = DseEngine(obfuscated, "check", InputSpec(argument_sizes=[1]))
    results, stats = engine.explore(time_budget=5, max_executions=20)
    # the ROP-encoded branches surface as pointer-concretization constraints
    assert any(r.constraints for r in results)


# -- TDS ------------------------------------------------------------------------------
def test_tds_simplifies_plain_rop_dispatch():
    image = compile_program(license_check_program())
    obfuscated, _ = rop_obfuscate(image, ["check"], RopConfig.plain())
    simplifier = TaintDrivenSimplifier(obfuscated, "check")
    report = simplifier.simplify([7])
    assert report.trace_length > 0
    assert report.simplified_length < report.trace_length
    assert report.dispatch_removed > 0


def test_tds_cannot_remove_p3_couplings():
    image = compile_program(license_check_program())
    plain, _ = rop_obfuscate(image, ["check"], RopConfig.plain())
    hardened, _ = rop_obfuscate(image, ["check"], RopConfig.ropk(1.0))
    plain_report = TaintDrivenSimplifier(plain, "check").simplify([7])
    hard_report = TaintDrivenSimplifier(hardened, "check").simplify([7])
    # P3 couples obfuscation code with tainted data: more tainted branches
    # survive simplification than in the un-strengthened chain
    assert hard_report.tainted_branches > plain_report.tainted_branches


# -- ROP-aware tools ------------------------------------------------------------------
def test_ropmemu_finds_flag_leaks_and_p2_breaks_flips():
    image = compile_program(license_check_program())
    hardened, _ = rop_obfuscate(image, ["check"], RopConfig.ropk(0.0))
    explorer = RopMemuExplorer(hardened, "check")
    report = explorer.explore([7], max_flips=8)
    assert report.flag_leak_points > 0
    # with P2 enabled, flipping the leaked flag without fixing the operands
    # must not reveal the alternate path cleanly
    assert report.new_coverage == set() or report.valid_alternate_paths < len(report.attempts)


def test_ropdissector_loses_chain_structure_with_confusion():
    image = compile_program(license_check_program())
    plain, _ = rop_obfuscate(image, ["check"], RopConfig.plain())
    confused, _ = rop_obfuscate(image, ["check"],
                                RopConfig(p3_fraction=0.0, gadget_confusion=True))
    plain_report = RopDissector(plain).dissect("check")
    confused_report = RopDissector(confused).dissect("check")
    assert plain_report.slots > 0 and confused_report.slots > 0
    # on an un-strengthened chain a fixed 8-byte stride recovers most gadget
    # slots and the branch points; unaligned updates and disguised immediates
    # destroy that view
    assert plain_report.gadget_slots > plain_report.slots * 0.3
    assert plain_report.branch_points >= 1
    assert confused_report.address_looking_fraction < plain_report.address_looking_fraction


def test_ropdissector_gadget_guessing_explodes_with_confusion():
    image = compile_program(license_check_program())
    confused, _ = rop_obfuscate(image, ["check"],
                                RopConfig(p3_fraction=0.0, gadget_confusion=True))
    report = RopDissector(confused).dissect("check", gadget_guessing=True)
    # guessing at every byte offset yields far more candidates than real slots
    assert report.guessed_gadgets > report.gadget_slots
