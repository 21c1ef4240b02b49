"""Secret finding (G1): attack a license check, native vs ROP-obfuscated.

Reproduces the paper's core claim at example scale: the same DSE attack that
cracks the native check in a handful of executions needs far more work (or
fails within the budget) once the check is a hardened ROP chain.  The work
each attempt spent is read from the exploration counters the outcome carries
(``outcome.stats``); a recovered secret comes with its ``witness`` input.

Run with ``python examples/license_check_attack.py``.
"""

from repro.attacks import AttackBudget, secret_finding_attack
from repro.attacks.dse import InputSpec
from repro.compiler import compile_program
from repro.core import RopConfig, rop_obfuscate
from repro.lang import Assign, BinOp, Const, Function, If, Program, Return, Var, While


def license_check() -> Program:
    """Accepts exactly the serials whose mixed hash ends in 0xA7."""
    return Program([Function("validate", ["serial"], [
        Assign("h", Const(0x9E37)),
        Assign("i", Const(0)),
        While(BinOp("<", Var("i"), Const(4)), [
            Assign("h", BinOp("^", BinOp("*", Var("h"), Const(33)),
                              BinOp(">>", Var("serial"), Var("i")))),
            Assign("i", BinOp("+", Var("i"), Const(1))),
        ]),
        If(BinOp("==", BinOp("&", Var("h"), Const(0xFF)), Const(0xA7)),
           [Return(Const(1))], [Return(Const(0))]),
    ])])


def attack(image, label: str) -> None:
    budget = AttackBudget(seconds=5.0, max_executions=150)
    outcome = secret_finding_attack(image, "validate", InputSpec(argument_sizes=[2]),
                                    budget)
    status = "RECOVERED" if outcome.success else "not found"
    print(f"{label:>22}: secret {status} | executions={outcome.stats.executions} "
          f"instructions={outcome.stats.instructions} "
          f"solver_queries={outcome.stats.solver_queries} "
          f"time={outcome.time_to_success:.2f}s")
    if outcome.witness:
        print(f"{'':>22}  witness input: {outcome.witness}")


def main() -> None:
    program = license_check()
    native = compile_program(program)
    attack(native, "native")

    for k in (0.0, 0.5, 1.0):
        obfuscated, report = rop_obfuscate(native, ["validate"], RopConfig.ropk(k))
        assert report.coverage == 1.0
        attack(obfuscated, f"ROP k={k:.2f}")


if __name__ == "__main__":
    main()
