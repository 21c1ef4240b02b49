"""Code coverage (G2): exercise all paths of a protected parser dispatch.

The attacker's goal here is not a secret but full path coverage of the
original code (e.g. to collect traces for later analysis).  The script runs
the same CUPA-driven DSE attack against the native binary and against ROP
configurations of increasing strength and reports how much of the reachable
code each attempt covered (``outcome.covered_probes``) and the work it spent,
read from the exploration counters the outcome carries (``outcome.stats``).

Run with ``python examples/coverage_attack.py``.
"""

from repro.attacks import AttackBudget, coverage_attack
from repro.attacks.dse import InputSpec
from repro.binary import load_image
from repro.compiler import compile_program
from repro.core import RopConfig, rop_obfuscate
from repro.cpu import call_function
from repro.lang import (
    Assign,
    BinOp,
    Const,
    Function,
    If,
    Probe,
    Program,
    Return,
    Switch,
    Var,
)


def command_dispatcher() -> Program:
    """A message dispatcher with several probed handlers (split/join points)."""
    return Program([Function("dispatch", ["message"], [
        Probe(1),
        Assign("opcode", BinOp("&", Var("message"), Const(0x0F))),
        Assign("flags", BinOp("&", BinOp(">>", Var("message"), Const(4)), Const(0x0F))),
        Switch(Var("opcode"), {
            1: [Probe(10), Assign("r", Const(100))],
            2: [Probe(20),
                If(BinOp(">", Var("flags"), Const(7)),
                   [Probe(21), Assign("r", Const(210))],
                   [Probe(22), Assign("r", Const(220))])],
            3: [Probe(30), Assign("r", BinOp("+", Const(300), Var("flags")))],
        }, default=[Probe(99), Assign("r", Const(0))]),
        Probe(2),
        Return(Var("r")),
    ])])


def reachable_probes(image) -> set:
    probes = set()
    for sample in range(256):
        _, emulator = call_function(load_image(image), "dispatch", [sample],
                                    max_steps=2_000_000)
        probes |= set(emulator.host.probes)
    return probes


def main() -> None:
    program = command_dispatcher()
    native = compile_program(program)
    target = reachable_probes(native)
    print(f"reachable coverage points: {sorted(target)}")
    budget = AttackBudget(seconds=6.0, max_executions=200)

    for label, image in [
        ("native", native),
        ("ROP k=0 (P1/P2 only)", rop_obfuscate(native, ["dispatch"], RopConfig.ropk(0.0))[0]),
        ("ROP k=1.0", rop_obfuscate(native, ["dispatch"], RopConfig.ropk(1.0))[0]),
    ]:
        outcome = coverage_attack(image, "dispatch", target,
                                  InputSpec(argument_sizes=[1]), budget)
        covered = len(outcome.covered_probes & target)
        status = "FULL" if outcome.success else "partial"
        print(f"{label:>22}: {status} coverage {covered}/{len(target)} "
              f"after {outcome.stats.executions} executions "
              f"({outcome.stats.instructions} instructions, "
              f"{outcome.stats.paths_seen} paths)")


if __name__ == "__main__":
    main()
