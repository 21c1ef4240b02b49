"""Run one CLBG benchmark under several protections and compare their cost.

This is the Figure 5 experiment at single-benchmark scale, plus the VM
configurations of the paper's overhead discussion.

Run with ``python examples/clbg_overhead.py [benchmark]`` (default: fasta).
"""

import sys

from repro.binary import load_image
from repro.compiler import compile_program
from repro.cpu import call_function
from repro.obfuscation.configs import apply_configuration, nvm, ropk
from repro.workloads.clbg import CLBG_BENCHMARKS, build_clbg_program


def measure(image, entry: str, argument: int) -> tuple:
    result, emulator = call_function(load_image(image), entry, [argument],
                                     max_steps=200_000_000)
    return result, emulator.steps


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "fasta"
    if name not in CLBG_BENCHMARKS:
        raise SystemExit(f"unknown benchmark {name!r}; choose from {sorted(CLBG_BENCHMARKS)}")
    program, entry, argument, targets = build_clbg_program(name)

    native_image = compile_program(program)
    native_result, native_steps = measure(native_image, entry, argument)
    print(f"{name}: native result={native_result} instructions={native_steps}")

    for configuration in (ropk(0.05), ropk(0.50), ropk(1.00), nvm(2, "last")):
        image = apply_configuration(program, targets, configuration)
        result, steps = measure(image, entry, argument)
        assert result == native_result, f"{configuration.name} changed the result"
        print(f"{name}: {configuration.name:<12} result={result} "
              f"instructions={steps} ({steps / native_steps:.2f}x)")


if __name__ == "__main__":
    main()
